"""Report emission: per-grid-point error map as SVG, tables as CSV.

Every CSV artifact is one table format, written by ``write_table`` and
read by ``read_table``: UTF-8 ``csv`` records under one header, each float
cell as its ``repr``, so that it reads back bit for bit; a malformed table
raises DataError.

SVG is written by hand (textual, diffable, no plotting dependency).
"""

from __future__ import annotations

import csv
import math
from itertools import chain

from .errors import DataError, read_lines

# Circles never collapse below this radius so zero-error points stay visible.
MIN_RADIUS_PX = 2.0
MAX_RADIUS_PX = 24.0

_COLUMNS = ["i", "j", "mean_err_deg", "count"]
_PLAIN = frozenset((str, int, float))


def write_table(path, header, rows) -> None:
    """Write ``rows`` (sequences of cells) under ``header`` as a CSV table;
    a ``float`` cell is written as ``repr(float(v))``, any other as ``str``."""
    rows = list(rows)
    # csv writes a plain float as its str, which is its repr; only a table
    # with a cell of another type (a numpy float64, say) is converted.
    if not _PLAIN.issuperset(map(type, chain.from_iterable(rows))):
        rows = [[repr(float(v)) if isinstance(v, float) else v for v in row]
                for row in rows]
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def read_table(path, columns) -> list[list[str]]:
    """The records of the CSV table ``path``, each one string per column.
    Bytes that are not UTF-8, text that csv cannot parse, a header other
    than ``columns`` and a record of another length raise DataError."""
    try:
        reader = csv.reader(read_lines(path, DataError, newline=""), strict=True)
        header = next(reader, None)
        if header != list(columns):
            raise DataError(f"{path}: unexpected columns {header}")
        records = list(reader)
    except csv.Error as e:
        raise DataError(f"{path}: not a CSV table ({e})") from e
    for rec in records:
        if len(rec) != len(columns):
            raise DataError(f"{path}: bad row {rec}")
    return records


def write_per_point_csv(per_point: dict[tuple[int, int], tuple[float, int]],
                        path) -> None:
    write_table(path, _COLUMNS, ((i, j, float(err), count)
                                 for (i, j), (err, count) in sorted(per_point.items())))


def read_per_point_csv(path) -> dict[tuple[int, int], tuple[float, int]]:
    out: dict[tuple[int, int], tuple[float, int]] = {}
    for rec in read_table(path, _COLUMNS):
        try:
            key = (int(rec[0]), int(rec[1]))
            err, count = float(rec[2]), int(rec[3])
        except ValueError as e:
            raise DataError(f"{path}: bad row {rec}") from e
        # A NaN error would make the map's largest error NaN, and a
        # negative index would draw its point off the map.
        if not (math.isfinite(err) and err >= 0 and count > 0
                and min(key) >= 0):
            raise DataError(f"{path}: bad index, error or count in row {rec}")
        if key in out:
            raise DataError(f"{path}: duplicate grid point {key}")
        out[key] = (err, count)
    if not out:
        raise DataError(f"{path}: empty per-point table")
    return out


def write_grid_error_svg(per_point: dict[tuple[int, int], tuple[float, int]],
                         path, cell_px: float = 56.0) -> None:
    """Error map: one circle per grid point, radius proportional to mean error.

    Radii are floored at MIN_RADIUS_PX (a zero-error point still draws) and
    the largest error maps to MAX_RADIUS_PX.
    """
    if not per_point:
        raise DataError("empty per-point table")
    rows = max(i for i, _ in per_point) + 1
    cols = max(j for _, j in per_point) + 1
    margin = cell_px
    width = cols * cell_px + 2 * margin
    height = rows * cell_px + 2 * margin
    max_err = max(err for err, _ in per_point.values())
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{margin:.0f}" y="{margin / 2:.0f}" font-size="14" '
        f'font-family="monospace">mean angular error per grid point '
        f'(max {max_err:.3f} deg)</text>',
    ]
    for (i, j), (err, _count) in sorted(per_point.items()):
        cx = margin + (j + 0.5) * cell_px
        cy = margin + (i + 0.5) * cell_px
        if max_err > 0:
            r = MIN_RADIUS_PX + (err / max_err) * (MAX_RADIUS_PX - MIN_RADIUS_PX)
        else:
            r = MIN_RADIUS_PX
        lines.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r:.3f}" '
            f'fill="#4477aa" fill-opacity="0.55" stroke="#223355">'
            f'<title>({i},{j}): {err:.4f} deg</title></circle>')
    lines.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_subject_table_csv(rows: list[dict], summary: dict, path) -> None:
    """Per-subject error table plus average / best-case summary lines."""
    if not rows:
        raise DataError("empty subject table")
    cols = list(rows[0].keys())
    write_table(path, cols, [[r[c] for c in cols] for r in rows]
                + [[k, v] + [""] * (len(cols) - 2) for k, v in summary.items()])
