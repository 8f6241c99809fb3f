"""Cell-by-cell parity of two cfmimo output directories.

    python tools/parity.py OLD_DIR NEW_DIR

Every .csv and .json file of either directory is compared with its namesake
in the other: a CSV file cell by cell, a JSON document value by value (a
value is a leaf of the document, located by its path). Per file it prints
the cells, how many are identical (the same text, or the same JSON value
and type), and the worst relative difference |a - b| / max(|a|, |b|) with
where it is: the row and column of a CSV cell, the path of a JSON value. A
difference between cells that are not both numbers counts as infinite.

Exit codes: 0 when the two directories have the same structure, whatever
their cells; 1 on a structural mismatch: a file missing from either side, a
different CSV header or row count, or JSON documents of different shape.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path


class StructureError(Exception):
    """The two files cannot be compared cell by cell."""


@dataclass
class Report:
    cells: int = 0
    identical: int = 0
    worst: float = 0.0
    where: str = "-"

    def add(self, a, b, where: str) -> None:
        self.cells += 1
        if type(a) is type(b) and a == b:
            self.identical += 1
            return
        rel = _relative(a, b)
        if rel >= self.worst:
            self.worst, self.where = rel, where


def _number(value):
    """value as a float if it is a number or the text of one, else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _relative(a, b) -> float:
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return math.inf
    if x == y:
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def compare_csv(old: Path, new: Path) -> tuple[int, Report]:
    """(data rows, report) of two CSV files with a header row."""
    a, b = _read_csv(old), _read_csv(new)
    if not a or not b or a[0] != b[0]:
        raise StructureError("different header")
    if len(a) != len(b):
        raise StructureError(f"{len(a) - 1} rows against {len(b) - 1}")
    header, report = a[0], Report()
    for r, (row_a, row_b) in enumerate(zip(a[1:], b[1:])):
        if len(row_a) != len(row_b):
            raise StructureError(f"row {r}: {len(row_a)} cells against {len(row_b)}")
        for column, x, y in zip(header, row_a, row_b):
            report.add(x, y, f"row {r}, column {column}")
    return len(a) - 1, report


def _leaves(doc, path: str = "") -> dict:
    """The leaves of a JSON document by path, e.g. results[0].mean_sum_rate."""
    if isinstance(doc, dict):
        items = ((f"{path}.{k}" if path else str(k), v) for k, v in doc.items())
    elif isinstance(doc, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(doc))
    else:
        return {path: doc}
    out = {}
    for p, v in items:
        out.update(_leaves(v, p))
    return out


def compare_json(old: Path, new: Path) -> Report:
    a, b = (_leaves(json.loads(p.read_text(encoding="utf-8"))) for p in (old, new))
    if a.keys() != b.keys():
        differ = sorted(a.keys() ^ b.keys())
        raise StructureError(f"different shape, e.g. at {differ[0]}")
    report = Report()
    for path, x in a.items():
        report.add(x, b[path], path)
    return report


def compare(old_dir: Path, new_dir: Path) -> tuple[list[str], bool]:
    """The report lines of two output directories, and whether their
    structure matches."""
    names = sorted({p.name for d in (old_dir, new_dir)
                    for p in d.iterdir() if p.suffix in (".csv", ".json")})
    lines, ok = [], True
    for name in names:
        old, new = old_dir / name, new_dir / name
        try:
            if not (old.is_file() and new.is_file()):
                raise StructureError(f"only in {old_dir if old.is_file() else new_dir}")
            if old.suffix == ".csv":
                rows, report = compare_csv(old, new)
                size = f"{rows} rows, {report.cells} cells"
            else:
                report = compare_json(old, new)
                size = f"{report.cells} values"
        except StructureError as exc:
            lines.append(f"{name}: STRUCTURE MISMATCH: {exc}")
            ok = False
            continue
        lines.append(f"{name}: {size}, {report.identical} identical, worst "
                     f"relative difference {report.worst:.3g} at {report.where}")
    return lines, ok


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(a).is_dir() for a in args):
        print("usage: python tools/parity.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 1
    lines, ok = compare(Path(args[0]), Path(args[1]))
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
