"""Print how far apart the admissible sets in two artifact files lie.

Reads two ``moas.json`` or ``fig3_sets.json`` files (the set sits under
the ``"moas"`` key of the second) and prints the determination index and,
for each of ``set_xv``, ``proj_x`` and ``proj_x_shrunk``, one line

    <set>  rows <rows A> <rows B>  largest support gap <gap>  (<k> directions)

The gap is the largest ``|h_A(d) - h_B(d)|`` over the normals of both sets
and 200 random unit directions (seed 0), each support a maximum over the
set's vertices: ``inf`` where one set is unbounded in a direction and the
other is not.  Two sets within a gap ``g`` of each other are equal up to
``g`` in every direction checked, whatever their rows' order or count, which
``tools/artifact_shift.py`` cannot show when the row counts differ.

Typical use, on the ``moas`` outputs of two trees:

    python tools/set_distance.py A/moas.json B/moas.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
SETS = ("set_xv", "proj_x", "proj_x_shrunk")
N_RANDOM = 200


def _load(path: Path) -> dict:
    with open(path) as f:
        data = json.load(f)
    return data.get("moas", data)


def support_gap(poly_a, poly_b, rng) -> tuple:
    """``(largest |h_A(d) - h_B(d)|, number of directions)``."""
    dirs = rng.normal(size=(N_RANDOM, poly_a.dim))
    dirs = np.vstack([poly_a.normals, poly_b.normals,
                      dirs / np.linalg.norm(dirs, axis=1)[:, None]])
    h_a, h_b = (p.generators().support(dirs) for p in (poly_a, poly_b))
    with np.errstate(invalid="ignore"):  # inf - inf where both are unbounded
        gaps = np.where(h_a == h_b, 0.0, np.abs(h_a - h_b))
    return float(gaps.max()), dirs.shape[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("file_a", type=Path)
    parser.add_argument("file_b", type=Path)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from actiongov.convexset import HPolytope

    a, b = _load(args.file_a), _load(args.file_b)
    print(f"t_star  {a['t_star']} {b['t_star']}")
    rng = np.random.default_rng(0)
    for name in SETS:
        poly_a, poly_b = (HPolytope(np.asarray(d[name]["normals"], dtype=float),
                                    np.asarray(d[name]["offsets"], dtype=float))
                          for d in (a, b))
        gap, count = support_gap(poly_a, poly_b, rng)
        print(f"{name}  rows {poly_a.n_rows} {poly_b.n_rows}  largest support gap {gap:.3g}  "
              f"({count} directions)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
