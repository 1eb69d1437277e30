"""Minimal native SVG line plots (no plotting dependency).

Polyline plots with axes, ticks, labels and an optional legend; enough for
trajectory and spectrum figures.  Every file starts with a comment header
supplied by the caller (config hash, artifact version).
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record

WIDTH, HEIGHT = 880, 560
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 80, 30, 50, 60
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


class Series(Record):
    x: np.ndarray
    y: np.ndarray
    label: str


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-12 * step:
        out.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return out


def _fmt(v: float) -> str:
    if v == 0.0:
        return "0"
    if 1e-3 <= abs(v) < 1e4:
        return f"{v:.4g}"
    return f"{v:.2e}"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def line_plot(
    series: list[Series],
    title: str,
    xlabel: str,
    ylabel: str,
    header: str = "",
    markers: list[tuple[float, str]] | None = None,
    equal_axes: bool = False,
) -> str:
    """Render series as an SVG document string.

    markers are (x-position, text) annotations drawn as vertical dashes,
    used for labelled spectral peaks.
    """
    xs = np.concatenate([np.asarray(s.x, dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s.y, dtype=float) for s in series])
    x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
    y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    if equal_axes:
        cx, cy = 0.5 * (x_lo + x_hi), 0.5 * (y_lo + y_hi)
        half = 0.5 * max(x_hi - x_lo, y_hi - y_lo)
        x_lo, x_hi = cx - half, cx + half
        y_lo, y_hi = cy - half, cy + half
    pad_x = 0.04 * (x_hi - x_lo)
    pad_y = 0.06 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    # pixel coordinates of a value or of a whole series
    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = ['<?xml version="1.0" encoding="UTF-8"?>']
    if header:
        parts.append(f"<!-- {_esc(header)} -->")
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">'
    )
    parts.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>'
    )
    for tx in _ticks(x_lo + pad_x, x_hi - pad_x):
        parts.append(
            f'<line x1="{px(tx):.1f}" y1="{MARGIN_T + plot_h}" x2="{px(tx):.1f}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="#333"/>'
            f'<text x="{px(tx):.1f}" y="{MARGIN_T + plot_h + 20}" font-size="12" '
            f'text-anchor="middle">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo + pad_y, y_hi - pad_y):
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{py(ty):.1f}" x2="{MARGIN_L}" '
            f'y2="{py(ty):.1f}" stroke="#333"/>'
            f'<text x="{MARGIN_L - 8}" y="{py(ty) + 4:.1f}" font-size="12" '
            f'text-anchor="end">{_fmt(ty)}</text>'
        )
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        xy = np.column_stack((px(np.asarray(s.x, dtype=float)), py(np.asarray(s.y, dtype=float))))
        pts = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L + plot_w - 8}" y="{MARGIN_T + 18 + 16 * i}" '
            f'font-size="13" text-anchor="end" fill="{color}">{_esc(s.label)}</text>'
        )
    if markers:
        for mx, text in markers:
            parts.append(
                f'<line x1="{px(mx):.1f}" y1="{MARGIN_T}" x2="{px(mx):.1f}" '
                f'y2="{MARGIN_T + plot_h}" stroke="#999" stroke-width="0.8" '
                'stroke-dasharray="4 3"/>'
            )
            parts.append(
                f'<text x="{px(mx) + 3:.1f}" y="{MARGIN_T + 14}" font-size="11" '
                f'fill="#555" transform="rotate(90 {px(mx) + 3:.1f} {MARGIN_T + 14})">'
                f"{_esc(text)}</text>"
            )
    parts.append(
        f'<text x="{WIDTH / 2}" y="24" font-size="16" text-anchor="middle">{_esc(title)}</text>'
    )
    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2}" y="{HEIGHT - 16}" font-size="13" '
        f'text-anchor="middle">{_esc(xlabel)}</text>'
    )
    parts.append(
        f'<text x="20" y="{MARGIN_T + plot_h / 2}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 20 {MARGIN_T + plot_h / 2})">{_esc(ylabel)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)
