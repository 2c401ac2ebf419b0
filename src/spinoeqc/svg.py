"""Tiny deterministic SVG line charts (no plotting dependency).

Output is intentionally spartan: axes box, polylines, labels. Byte-stable
across runs for identical data, which matters more here than looks.
"""

from __future__ import annotations

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
WIDTH, HEIGHT = 720, 420  # pixels


def _fmt(x: float) -> str:
    return f"{x:.3f}"


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
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    # on a float or elementwise on an array, in the same operation order
    def px(v):
        return margin + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return margin + (y_hi - v) / (y_hi - y_lo) * plot_h

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
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
            f'font-family="monospace" font-size="14">{title}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{WIDTH / 2:.0f}" y="{HEIGHT - 12}" text-anchor="middle" '
            f'font-family="monospace" font-size="12">{x_label}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="16" y="{HEIGHT / 2:.0f}" text-anchor="middle" '
            f'font-family="monospace" font-size="12" '
            f'transform="rotate(-90 16 {HEIGHT / 2:.0f})">{y_label}</text>'
        )
    # axis extremes as tick labels
    parts.append(
        f'<text x="{margin}" y="{HEIGHT - margin + 16}" text-anchor="middle" '
        f'font-family="monospace" font-size="10">{_fmt(x_lo)}</text>'
    )
    parts.append(
        f'<text x="{margin + plot_w}" y="{HEIGHT - margin + 16}" text-anchor="middle" '
        f'font-family="monospace" font-size="10">{_fmt(x_hi)}</text>'
    )
    parts.append(
        f'<text x="{margin - 6}" y="{margin + plot_h}" text-anchor="end" '
        f'font-family="monospace" font-size="10">{_fmt(y_lo)}</text>'
    )
    parts.append(
        f'<text x="{margin - 6}" y="{margin + 10}" text-anchor="end" '
        f'font-family="monospace" font-size="10">{_fmt(y_hi)}</text>'
    )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
