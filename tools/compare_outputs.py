"""Compare two output trees of the CLI file by file, numbers to round-off.

Each file under either tree gets one line, in path order:

    grover_01_sum_h.csv: identical
    grover_01_sum_h.csv: CSV, largest move 4.9e-16 of the largest entry (column real)
    grover_01_report.json: JSON, keys differ: q2, weights; largest move 2.2e-16 of the largest entry
    probe_enhanced_h.csv: missing in B

A move is the largest |a - b| over a file's numbers, relative to the
largest |a| in that file of tree A. A JSON report's `timestamp` is
ignored. A CSV must keep its header and shape, and a JSON file its keys,
strings and booleans; any other file must be byte-identical. A last line
sums up. The exit status is 1 when a file is missing on one side or a
value that is not a number differs, else 0, however far numbers moved.

    python tools/compare_outputs.py A B
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import sys
from pathlib import Path

import numpy as np

IGNORED_KEYS = {"timestamp"}


class Mismatch(Exception):
    """A difference that is not a number moving."""


def _csv_move(a: Path, b: Path) -> tuple[float, str]:
    """The largest move of any column, relative to the largest entry of `a`,
    and the column's name."""
    (head_a, *rows_a), (head_b, *rows_b) = (list(csv.reader(p.read_text().splitlines()))
                                            for p in (a, b))
    if head_a != head_b:
        raise Mismatch("header differs")
    if len(rows_a) != len(rows_b) or any(len(r) != len(head_a) for r in rows_a + rows_b):
        raise Mismatch("shape differs")
    try:
        x, y = np.array(rows_a, dtype=float), np.array(rows_b, dtype=float)
    except ValueError:
        raise Mismatch("a cell is not a number") from None
    if x.size == 0:
        return 0.0, ""
    same = (x == y) | (np.isnan(x) & np.isnan(y))
    if (~same & ~(np.isfinite(x) & np.isfinite(y))).any():
        raise Mismatch("a non-finite cell differs")
    moves = np.where(same, 0.0, np.abs(x - y)).max(axis=0)
    column = int(np.argmax(moves))
    return _relative(moves[column], np.abs(x[np.isfinite(x)]).max(initial=0.0)), head_a[column]


def _leaves(value, path=""):
    """(path, leaf) pairs of a JSON value, list indices left out of the path."""
    if isinstance(value, dict):
        for key, item in value.items():
            if key not in IGNORED_KEYS:
                yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        yield path, f"list of {len(value)}"  # a change of length is no number moving
        for item in value:
            yield from _leaves(item, path)
    else:
        yield path, value


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _json_move(a: Path, b: Path) -> tuple[float, list[str]]:
    """The largest move of any number, relative to the largest number of `a`,
    and the paths whose values differ."""
    leaves_a, leaves_b = (list(_leaves(json.loads(p.read_text()))) for p in (a, b))
    if [p for p, _ in leaves_a] != [p for p, _ in leaves_b]:
        raise Mismatch("keys differ: " + ", ".join(_paths_apart(leaves_a, leaves_b)))
    move, largest, moved = 0.0, 0.0, []
    for (path, u), (_, v) in zip(leaves_a, leaves_b):
        numeric = _is_number(u) and _is_number(v)
        same = (u == v and isinstance(u, bool) == isinstance(v, bool)
                or numeric and math.isnan(u) and math.isnan(v))
        if _is_number(u) and math.isfinite(u):
            largest = max(largest, abs(u))
        if same:
            continue
        if not (numeric and math.isfinite(u) and math.isfinite(v)):
            raise Mismatch(f"{path or 'the top value'} differs")
        move = max(move, abs(u - v))
        if path not in moved:
            moved.append(path)
    return _relative(move, largest), moved


def _paths_apart(leaves_a, leaves_b) -> list[str]:
    paths_a, paths_b = ({p for p, _ in leaves} for leaves in (leaves_a, leaves_b))
    return sorted(paths_a ^ paths_b) or ["their order or list lengths"]


def _relative(move: float, largest: float) -> float:
    if move == 0:
        return 0.0
    return move / largest if largest > 0 else math.inf


def compare_file(a: Path, b: Path) -> tuple[str, float]:
    """The report line of one pair of files and its relative move; raises
    `Mismatch` for a difference that is not a number moving."""
    if a.read_bytes() == b.read_bytes():
        return "identical", 0.0
    if a.suffix == ".csv":
        move, column = _csv_move(a, b)
        return f"CSV, largest move {move:.2g} of the largest entry (column {column})", move
    if a.suffix == ".json":
        move, moved = _json_move(a, b)
        if not moved:
            return "JSON, identical apart from " + ", ".join(sorted(IGNORED_KEYS)), 0.0
        keys = ", ".join(moved)
        return f"JSON, keys differ: {keys}; largest move {move:.2g} of the largest entry", move
    raise Mismatch("bytes differ")


def compare_trees(root_a: Path, root_b: Path) -> tuple[list[str], bool]:
    """The report lines of two trees and whether they match apart from
    numbers moving."""
    names = sorted({p.relative_to(root).as_posix()
                    for root in (root_a, root_b) for p in root.rglob("*") if p.is_file()})
    lines, ok, worst, counts = [], True, (0.0, ""), {"identical": 0, "moved": 0, "failed": 0}
    for name in names:
        a, b = root_a / name, root_b / name
        if not (a.is_file() and b.is_file()):
            lines.append(f"{name}: missing in {'B' if a.is_file() else 'A'}")
            ok, counts["failed"] = False, counts["failed"] + 1
            continue
        try:
            text, move = compare_file(a, b)
        except Mismatch as exc:
            lines.append(f"{name}: {exc}")
            ok, counts["failed"] = False, counts["failed"] + 1
            continue
        lines.append(f"{name}: {text}")
        counts["moved" if move > 0 else "identical"] += 1
        worst = max(worst, (move, name))
    summary = (f"{len(names)} files: {counts['identical']} identical apart from "
               f"{', '.join(sorted(IGNORED_KEYS))}, {counts['moved']} moved, "
               f"{counts['failed']} failed")
    if worst[0] > 0:
        summary += f"; largest move {worst[0]:.2g} of the largest entry, in {worst[1]}"
    return [*lines, summary], ok


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(arg).is_dir() for arg in args):
        print("usage: python tools/compare_outputs.py A B  (two directories)", file=sys.stderr)
        return 2
    lines, ok = compare_trees(Path(args[0]), Path(args[1]))
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
