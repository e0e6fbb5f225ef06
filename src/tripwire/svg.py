"""Static SVG 1.1 renderers for curve plots and net drawings."""

from __future__ import annotations

import math

import numpy as np

# Net drawings: pixels per unit-square side and outer margin.
NET_UNIT = 480.0
NET_MARGIN = 40.0

# Curve plots.
PLOT_WIDTH = 720.0
PLOT_HEIGHT = 480.0
PLOT_ML, PLOT_MR, PLOT_MT, PLOT_MB = 64.0, 24.0, 28.0, 48.0


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


def curve_plot_svg(
    series: list[tuple[str, list[float], list[float], str]],
    markers: list[tuple[float, str]],
    title: str,
) -> str:
    """Line plot of (label, p values, c values, colour) series with labeled vertical marker lines."""
    p_lo = min(min(ps) for _, ps, _, _ in series)
    p_hi = max(max(ps) for _, ps, _, _ in series)
    c_hi = max(max(cs) for _, _, cs, _ in series) * 1.05
    span_p = (p_hi - p_lo) or 1.0
    plot_w = PLOT_WIDTH - PLOT_ML - PLOT_MR
    plot_h = PLOT_HEIGHT - PLOT_MT - PLOT_MB

    def sx(p: float) -> float:
        return PLOT_ML + (p - p_lo) / span_p * plot_w

    def sy(c: float) -> float:
        return PLOT_MT + (1.0 - c / c_hi) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(PLOT_WIDTH)}" height="{_fmt(PLOT_HEIGHT)}" '
        f'viewBox="0 0 {_fmt(PLOT_WIDTH)} {_fmt(PLOT_HEIGHT)}">',
        f'<rect width="{_fmt(PLOT_WIDTH)}" height="{_fmt(PLOT_HEIGHT)}" fill="white"/>',
        f'<text x="{_fmt(PLOT_WIDTH / 2)}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    axis_y = PLOT_MT + plot_h
    parts.append(
        f'<line x1="{_fmt(PLOT_ML)}" y1="{_fmt(axis_y)}" x2="{_fmt(PLOT_ML + plot_w)}" '
        f'y2="{_fmt(axis_y)}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_fmt(PLOT_ML)}" y1="{_fmt(PLOT_MT)}" x2="{_fmt(PLOT_ML)}" '
        f'y2="{_fmt(axis_y)}" stroke="black"/>'
    )
    for p in (p_lo, p_hi):
        parts.append(
            f'<text x="{_fmt(sx(p))}" y="{_fmt(axis_y + 18)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(p)}</text>'
        )
    for c in (0.0, c_hi / 1.05):
        parts.append(
            f'<text x="{_fmt(PLOT_ML - 8)}" y="{_fmt(sy(c) + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(c)}</text>'
        )
    for p_mark, label in markers:
        if not (p_lo <= p_mark <= p_hi) or not math.isfinite(p_mark):
            continue
        x = sx(p_mark)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(PLOT_MT)}" x2="{_fmt(x)}" y2="{_fmt(axis_y)}" '
            f'stroke="gray" stroke-dasharray="4,3" class="marker" data-p="{_fmt(p_mark)}"/>'
        )
        parts.append(
            f'<text x="{_fmt(x + 3)}" y="{_fmt(PLOT_MT + 12)}" font-family="sans-serif" '
            f'font-size="11" fill="gray">{label}</text>'
        )
    for label, ps, cs, color in series:
        xs, ys = sx(np.array(ps)).tolist(), sy(np.array(cs)).tolist()
        coords = " ".join(f"{x:.10g},{y:.10g}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5" class="series" data-label="{label}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def net_plot_svg(
    vertical: tuple[float, ...],
    horizontal: tuple[float, ...],
    hole: tuple[float, float, float, float],
    intruder_corners: tuple[tuple[float, float], ...],
    title: str,
) -> str:
    """Unit square with its net lines, the maximizing hole, and the intruder."""
    size = NET_UNIT + 2 * NET_MARGIN

    def px(x: float) -> float:
        return NET_MARGIN + NET_UNIT * x

    def py(y: float) -> float:
        return NET_MARGIN + NET_UNIT * (1.0 - y)

    hx, hy, hw, hh = hole
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(size)}" height="{_fmt(size)}" viewBox="0 0 {_fmt(size)} {_fmt(size)}">',
        f'<rect width="{_fmt(size)}" height="{_fmt(size)}" fill="white"/>',
        f'<rect x="{_fmt(px(hx))}" y="{_fmt(py(hy + hh))}" width="{_fmt(NET_UNIT * hw)}" '
        f'height="{_fmt(NET_UNIT * hh)}" fill="#fff3c4" class="hole"/>',
        f'<rect x="{_fmt(px(0))}" y="{_fmt(py(1))}" width="{_fmt(NET_UNIT)}" '
        f'height="{_fmt(NET_UNIT)}" fill="none" stroke="black" stroke-width="2"/>',
        f'<text x="{_fmt(size / 2)}" y="{_fmt(NET_MARGIN - 12)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    for x in vertical:
        parts.append(
            f'<line x1="{_fmt(px(x))}" y1="{_fmt(py(0))}" x2="{_fmt(px(x))}" '
            f'y2="{_fmt(py(1))}" stroke="#c03030" stroke-width="1.5" class="net-line"/>'
        )
    for y in horizontal:
        parts.append(
            f'<line x1="{_fmt(px(0))}" y1="{_fmt(py(y))}" x2="{_fmt(px(1))}" '
            f'y2="{_fmt(py(y))}" stroke="#c03030" stroke-width="1.5" class="net-line"/>'
        )
    coords = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in intruder_corners)
    parts.append(
        f'<polygon points="{coords}" fill="#4060c080" stroke="#4060c0" '
        f'stroke-width="1.5" class="intruder"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
