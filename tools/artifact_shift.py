"""Print how far the numbers in two directories of CLI artifacts lie apart.

Compares the files of ``DIR_A`` and ``DIR_B`` that share a name, one line
per file, sorted by name:

    <file>  max |diff| <x>  (<k> of <n> numbers differ)  <structure>

``max |diff|`` is the largest absolute difference between numbers at the
same place: CSV cells that parse as floats, and JSON numbers.  The
structure is everything that is not a number (CSV column names, row
counts and text cells such as branch labels; JSON keys, list lengths,
strings, booleans and nulls): ``structure identical``, or ``structure
differs:`` and the first place where it does.  Any other file is compared
byte for byte.  A file in one directory only is reported as such.

Typical use, on the outputs of the six subcommands run from two trees
into ``A`` and ``B``:

    python tools/artifact_shift.py A B

Exits 0 when both directories hold the same files with the same
structure, 1 otherwise; the numbers may differ either way.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path


class StructureDiffers(Exception):
    """A non-numeric difference; the message says where."""


def _number_gap(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) if math.isfinite(a) and math.isfinite(b) else math.inf


def _as_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _csv_gaps(path_a: Path, path_b: Path) -> list:
    with open(path_a, newline="") as fa, open(path_b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if rows_a[:1] != rows_b[:1]:
        raise StructureDiffers(f"columns {rows_a[:1]} vs {rows_b[:1]}")
    if len(rows_a) != len(rows_b):
        raise StructureDiffers(f"{len(rows_a) - 1} vs {len(rows_b) - 1} rows")
    gaps = []
    for i, (row_a, row_b) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        if len(row_a) != len(row_b):
            raise StructureDiffers(f"row {i} has {len(row_a)} vs {len(row_b)} cells")
        for j, (cell_a, cell_b) in enumerate(zip(row_a, row_b)):
            num_a, num_b = _as_float(cell_a), _as_float(cell_b)
            if num_a is not None and num_b is not None:
                gaps.append(_number_gap(num_a, num_b))
            elif cell_a != cell_b:
                raise StructureDiffers(f"row {i}, column {rows_a[0][j]!r}: "
                                       f"{cell_a!r} vs {cell_b!r}")
    return gaps


def _json_gaps(a, b, where: str, gaps: list) -> list:
    is_num = [isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)]
    if all(is_num):
        gaps.append(_number_gap(float(a), float(b)))
    elif isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            raise StructureDiffers(f"keys at {where or 'top'}: {list(a)} vs {list(b)}")
        for key in a:
            _json_gaps(a[key], b[key], f"{where}/{key}", gaps)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise StructureDiffers(f"length at {where or 'top'}: {len(a)} vs {len(b)}")
        for i, (item_a, item_b) in enumerate(zip(a, b)):
            _json_gaps(item_a, item_b, f"{where}[{i}]", gaps)
    elif any(is_num) or type(a) is not type(b) or a != b:
        raise StructureDiffers(f"at {where or 'top'}: {a!r} vs {b!r}")
    return gaps


def compare(path_a: Path, path_b: Path):
    """``(gaps, problem)``: the absolute differences of the numbers at the
    same places, and ``None`` or the first non-numeric difference."""
    try:
        if path_a.suffix == ".csv":
            return _csv_gaps(path_a, path_b), None
        if path_a.suffix == ".json":
            with open(path_a) as fa, open(path_b) as fb:
                return _json_gaps(json.load(fa), json.load(fb), "", []), None
        same = path_a.read_bytes() == path_b.read_bytes()
        return [], None if same else "bytes differ"
    except StructureDiffers as exc:
        return [], str(exc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args(argv)
    names_a = {p.name for p in args.dir_a.iterdir() if p.is_file()}
    names_b = {p.name for p in args.dir_b.iterdir() if p.is_file()}
    same = names_a == names_b
    largest = 0.0
    for name in sorted(names_a | names_b):
        if name not in names_b or name not in names_a:
            print(f"{name}  only in {args.dir_a if name in names_a else args.dir_b}")
            continue
        gaps, problem = compare(args.dir_a / name, args.dir_b / name)
        if problem is not None:
            same = False
            print(f"{name}  structure differs: {problem}")
            continue
        shift = max(gaps, default=0.0)
        largest = max(largest, shift)
        moved = sum(g > 0.0 for g in gaps)
        print(f"{name}  max |diff| {shift:.3g}  ({moved} of {len(gaps)} numbers differ)  "
              "structure identical")
    print(f"largest shift {largest:.3g}; "
          + ("same files, structure identical" if same else "files or structure differ"))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
