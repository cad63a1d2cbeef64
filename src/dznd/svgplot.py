"""Minimal standalone SVG line charts with a log10 vertical axis.

Hand-rolled so that output files are small, dependency-free and stable
across runs.  Points with non-positive or non-finite values break the
polyline instead of being clamped.
"""

from __future__ import annotations

import math

import numpy as np

_WIDTH, _HEIGHT = 720, 440
_LEFT, _RIGHT, _TOP, _BOTTOM = 76, 24, 40, 56


def _finite_log10(values) -> np.ndarray:
    """log10 of each positive finite value, by ``math.log10``; nan marks
    the gaps."""
    values = np.asarray(values, dtype=np.float64)
    logs = np.full(values.shape, math.nan)
    with np.errstate(invalid="ignore"):
        kept = np.isfinite(values) & (values > 0.0)
    logs[kept] = [math.log10(v) for v in values[kept].tolist()]
    return logs


def log_line_chart(
    title: str,
    x: list[float],
    series: list[tuple[str, list[float], str]],
    x_label: str = "tau (s)",
    y_label: str = "log10 value",
) -> str:
    """Render named series as an SVG document; returns the SVG text.

    ``series`` holds (label, values, css color) triples; values are
    plotted on a log10 axis against the shared x coordinates.
    """
    logs = {label: _finite_log10(vals) for label, vals, _ in series}
    flat = np.concatenate(
        [np.empty(0)] + [vals[~np.isnan(vals)] for vals in logs.values()]
    )
    if flat.size:
        y_lo = math.floor(flat.min())
        y_hi = math.ceil(flat.max())
    else:
        y_lo, y_hi = -16, 0
    if y_hi == y_lo:
        y_hi += 1
    x_lo = min(x) if x else 0.0
    x_hi = max(x) if x else 1.0
    if x_hi == x_lo:
        x_hi += 1.0

    plot_w = _WIDTH - _LEFT - _RIGHT
    plot_h = _HEIGHT - _TOP - _BOTTOM

    def px(v: float | np.ndarray) -> float | np.ndarray:
        return _LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float | np.ndarray) -> float | np.ndarray:
        return _TOP + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]

    # Horizontal decade grid lines and axis labels.
    decade_step = max(1, round((y_hi - y_lo) / 8))
    for decade in range(y_lo, y_hi + 1, decade_step):
        y = py(decade)
        parts.append(
            f'<line x1="{_LEFT}" y1="{y:.1f}" x2="{_WIDTH - _RIGHT}" '
            f'y2="{y:.1f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_LEFT - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">1e{decade}</text>'
        )
    for i in range(6):
        xv = x_lo + (x_hi - x_lo) * i / 5
        xp = px(xv)
        parts.append(
            f'<line x1="{xp:.1f}" y1="{_TOP}" x2="{xp:.1f}" '
            f'y2="{_HEIGHT - _BOTTOM}" stroke="#eeeeee" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{xp:.1f}" y="{_HEIGHT - _BOTTOM + 18}" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'font-size="11">{xv:g}</text>'
        )
    parts.append(
        f'<rect x="{_LEFT}" y="{_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 12}" '
        f'text-anchor="middle" font-family="sans-serif" '
        f'font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="20" y="{_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 20 {_TOP + plot_h / 2:.1f})">{y_label}</text>'
    )

    # Series polylines, split at gaps, plus a legend entry each; only the
    # points of polylines of two or more are formatted.  The point
    # coordinates are px and py over arrays: the same operations in the
    # same order, so the same floats.
    xs = px(np.asarray(x, dtype=np.float64)).tolist()
    legend_y = _TOP + 14
    for label, _, color in series:
        vals = logs[label]
        ys = py(vals).tolist()
        gaps = np.flatnonzero(np.isnan(vals)).tolist()
        for lo, hi in zip([-1] + gaps, gaps + [len(vals)]):
            if hi - lo > 2:
                points = map("{:.2f},{:.2f}".format, xs[lo + 1:hi],
                             ys[lo + 1:hi])
                parts.append(
                    f'<polyline points="{" ".join(points)}" '
                    f'fill="none" stroke="{color}" stroke-width="1.5"/>'
                )
        lx = _WIDTH - _RIGHT - 180
        parts.append(
            f'<line x1="{lx}" y1="{legend_y - 4}" x2="{lx + 24}" '
            f'y2="{legend_y - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 30}" y="{legend_y}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
        legend_y += 16

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
