"""Re-pin report: how two run directories' output files differ, column by column.

Before `golden_outputs.sha256` is regenerated on purpose, run the parent's
and the change's configs into two directories and compare them:

    python tests/repin_report.py PARENT_DIR CHANGE_DIR

For each file that differs, every column gets a row with the largest
absolute deviation, the largest deviation relative to the parent's value
and the count of changed cells; the printed table keeps the columns with a
changed cell.  A CSV's columns are its header fields and
a ``.kv`` file's are its keys.  In any other text file a line's words that
are not numbers make its label: each number is a cell of the column
``label #i``, its position on the line, and the label itself a cell of the
column ``text``, so the rows of a table share their columns.  Text cells
count as changed without a deviation.  A file on one side only, or whose
cell count differs, gets one row that says so.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def cells(path: Path) -> list[tuple[str, str]]:
    """``(column, cell text)`` for every cell of a file, in file order."""
    lines = path.read_text().splitlines()
    if path.suffix == ".csv":
        header = lines[0].split(",")
        return [pair for line in lines[1:] for pair in zip(header, line.split(","))]
    if path.suffix == ".kv":
        return [(key.strip(), value.strip())
                for key, _, value in (line.partition("=") for line in lines)]
    out = []
    for line in lines:
        words = line.split()
        label = " ".join(w for w in words if _number(w) is None)
        numbers = [w for w in words if _number(w) is not None]
        out += [("text", label)] + [(f"{label} #{i}".lstrip(), w) for i, w in enumerate(numbers, 1)]
    return out


def compare(parent: Path, change: Path) -> list[tuple[str, str, float, float, int, int]]:
    """``(file, column, largest |a - b|, largest |a - b| / |a|, changed cells, cells)`` for
    each column of each file that differs; a relative deviation from a zero ``a`` is
    infinite, and both deviations are NaN where no number changed.  A file on one
    side only, or with another cell count, has one row whose column says so."""
    names = {p.relative_to(root).as_posix()
             for root in (parent, change) for p in root.rglob("*") if p.is_file()}
    rows = []
    for name in sorted(names):
        a, b = parent / name, change / name
        if not (a.is_file() and b.is_file()):
            rows.append((name, f"only in {parent if a.is_file() else change}",
                         math.nan, math.nan, 0, 0))
            continue
        if a.read_bytes() == b.read_bytes():
            continue
        cells_a, cells_b = cells(a), cells(b)
        if [c for c, _ in cells_a] != [c for c, _ in cells_b]:
            rows.append((name, f"cells differ: {len(cells_a)} against {len(cells_b)}",
                         math.nan, math.nan, 0, 0))
            continue
        columns: dict[str, list] = {}
        for (column, x), (_, y) in zip(cells_a, cells_b):
            stats = columns.setdefault(column, [math.nan, math.nan, 0, 0])
            stats[3] += 1
            if x == y:
                continue
            stats[2] += 1
            u, v = _number(x), _number(y)
            if u is not None and v is not None:
                for i, dev in enumerate((abs(u - v), abs(u - v) / abs(u) if u else math.inf)):
                    if not stats[i] >= dev:  # NaN until a number changes
                        stats[i] = dev
        rows += [(name, column, *stats) for column, stats in columns.items()]
    return rows


def format_rows(rows) -> str:
    """The rows of `compare` with a changed cell or a note, as a table; ``-`` for NaN."""
    lines = [f"{'file':<34} {'column':<34} {'max abs':>9} {'max rel':>9} {'changed':>13}"]
    for name, column, dev, rel, changed, total in rows:
        if changed or not total:
            dev, rel = (f"{x:9.2g}".replace("nan", "  -") for x in (dev, rel))
            lines.append(f"{name:<34} {column:<34} {dev} {rel} {changed:>6} of {total}")
    return "\n".join(lines)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tests/repin_report.py PARENT_DIR CHANGE_DIR")
    print(format_rows(compare(Path(sys.argv[1]), Path(sys.argv[2]))))
