"""Print the sha256 of every artifact the CLI writes for one config.

Runs the six ``actiongov`` subcommands in-process into a temporary
directory and prints one ``<sha256>  <file>`` line per artifact, sorted by
file name.  It runs the ``actiongov`` of its own tree, so comparing two
checkouts is one diff of a run in each:

    diff <(python A/tools/artifact_digests.py --config configs/double_integrator.json) \
         <(python B/tools/artifact_digests.py --config configs/double_integrator.json)

The shipped config takes about a minute on a 2-core machine.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

COMMANDS = ("moas", "discrete-safe-set", "simulate", "learn-q", "learn-koopman",
            "reproduce-paper")
SRC = Path(__file__).resolve().parent.parent / "src"


def artifact_digests(config) -> dict:
    """``{file name: sha256}`` of everything the six subcommands write."""
    sys.path.insert(0, str(SRC))
    from actiongov.cli import main as actiongov_main

    with tempfile.TemporaryDirectory() as out:
        for cmd in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                code = actiongov_main([cmd, "--config", str(config), "--out", out])
            if code != 0:
                raise SystemExit(f"actiongov {cmd} exited with {code}")
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(Path(out).iterdir())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="path to the JSON config")
    args = parser.parse_args(argv)
    for name, digest in artifact_digests(args.config).items():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
