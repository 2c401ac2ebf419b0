"""Tiny deterministic SVG line charts (no plotting dependency).

Output is intentionally spartan: axes box, polylines, labels. Byte-stable
across runs for identical data, which matters more here than looks.
"""

from __future__ import annotations

import math
import sys

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
WIDTH, HEIGHT = 720, 420  # pixels
# a title, an axis label or a tick label; the last field is extra attributes
_LABEL = ('<text x="{}" y="{}" text-anchor="{}" font-family="monospace" '
          'font-size="{}"{}>{}</text>')


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _widened(lo: float, hi: float) -> tuple[float, float]:
    """The range [lo, hi], a flat one [v, v] widened to [v, v + 1], or,
    where |v| is so large that adding 1 leaves it unchanged, to v and the
    next float up (down, at the largest float)."""
    if hi != lo:
        return lo, hi
    if lo + 1.0 != lo:
        return lo, lo + 1.0
    up = math.nextafter(lo, math.inf)
    return (lo, up) if up < math.inf else (math.nextafter(lo, 0.0), lo)


def _axis(v0: float, v1: float, start: float, length: float):
    """The map taking v0 to `start` and v1 to `start + length`, on a float
    or elementwise on an array, in the same operation order. A span past
    the float range is taken at half scale, where it is a float; halving a
    normal float is exact, so the map is that of the full scale."""
    h = 1.0 if abs(v1 - v0) < math.inf else 0.5
    v0, span = v0 * h, v1 * h - v0 * h
    return lambda v: start + (v * h - v0) / span * length


def line_chart(
    path,
    x,
    series: dict[str, list[float]],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> None:
    """Write one SVG with a shared x-axis and one polyline per series."""
    xs = np.array(x, dtype=float)
    if not xs.size or not series:
        raise ValueError("need x values and at least one series")
    margin = 60
    plot_w, plot_h = WIDTH - 2 * margin, HEIGHT - 2 * margin
    columns = {name: np.asarray(ys, dtype=float) for name, ys in series.items()}
    ys_all = np.concatenate(list(columns.values()))
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    x_lo, x_hi = _widened(x_lo, x_hi)
    y_lo, y_hi = _widened(y_lo, y_hi)
    # 5% of the y span each way; 0.1·(d/2) is 0.05·d for a span d past the
    # float range, and a padded end past it stops at the largest float
    pad = 0.05 * (y_hi - y_lo)
    if pad == math.inf:
        pad = 0.1 * (y_hi / 2 - y_lo / 2)
    top = sys.float_info.max
    y_lo, y_hi = max(y_lo - pad, -top), min(y_hi + pad, top)
    px, py = _axis(x_lo, x_hi, margin, plot_w), _axis(y_hi, y_lo, margin, plot_h)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if y_lo < 0 < y_hi:
        y0 = _fmt(py(0.0))
        parts.append(
            f'<line x1="{margin}" y1="{y0}" x2="{margin + plot_w}" y2="{y0}" '
            'stroke="#bbb" stroke-width="1" stroke-dasharray="4 3"/>'
        )
    x_cells = px(xs).tolist()
    for i, (name, ys) in enumerate(columns.items()):
        color = PALETTE[i % len(PALETTE)]
        # map stops at the shorter list, as a zip would
        pts = " ".join(map("{:.3f},{:.3f}".format, x_cells, py(ys).tolist()))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{margin + 8}" y="{margin + 16 + 14 * i}" fill="{color}" '
            f'font-family="monospace" font-size="12">{name}</text>'
        )
    mid_x, mid_y = f"{WIDTH / 2:.0f}", f"{HEIGHT / 2:.0f}"
    parts += [_LABEL.format(*label) for label in (
        (mid_x, 24, "middle", 14, "", title),
        (mid_x, HEIGHT - 12, "middle", 12, "", x_label),
        (16, mid_y, "middle", 12, f' transform="rotate(-90 16 {mid_y})"', y_label),
        # axis extremes as tick labels
        (margin, HEIGHT - margin + 16, "middle", 10, "", _fmt(x_lo)),
        (margin + plot_w, HEIGHT - margin + 16, "middle", 10, "", _fmt(x_hi)),
        (margin - 6, margin + plot_h, "end", 10, "", _fmt(y_lo)),
        (margin - 6, margin + 10, "end", 10, "", _fmt(y_hi)),
    ) if label[-1]]
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
