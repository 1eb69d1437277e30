"""The SVG writer's polylines against a per-point formatting reference."""

import re

import numpy as np
import pytest

from zbsim.svg import HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, WIDTH, Series, line_plot


def _reference_points(series, equal_axes):
    """Each series' points attribute, one f-string per point."""
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

    def px(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    return [
        " ".join(f"{px(float(a)):.2f},{py(float(b)):.2f}" for a, b in zip(s.x, s.y))
        for s in series
    ]


def _near_half_cents():
    """x values whose pixel positions lie within a few ulps of a .xx5 rounding boundary.

    On [0, 1] the padded x range is [-0.04, 1.04], so px = 80 + (x + 0.04) / 1.08 * 770.
    """
    targets = np.round(np.arange(110.0, 820.0, 3.37), 2) + 0.005
    x = (targets - MARGIN_L) / (WIDTH - MARGIN_L - MARGIN_R) * 1.08 - 0.04
    ulps = np.arange(-4, 5)[:, None] * np.spacing(x)[None, :]
    x = np.concatenate([[0.0, 1.0], (x + ulps).ravel()])
    return Series(x, x[::-1].copy(), "boundary")


rng = np.random.default_rng(7)
CASES = {
    "random": ([Series(np.sort(rng.uniform(-3.0, 5.0, 500)), rng.normal(0.0, 1e-3, 500), "a"),
                Series(np.linspace(-3.0, 5.0, 301), rng.normal(2.0, 7.0, 301), "b")], False),
    "equal-axes": ([Series(rng.normal(0.0, 2.0, 400), rng.normal(5.0, 0.3, 400), "xy")], True),
    "half-cents": ([_near_half_cents()], False),
    "one-point": ([Series(np.array([0.25]), np.array([-1.5]), "p")], False),
    "one-point-equal-axes": ([Series(np.array([3.0]), np.array([3.0]), "p")], True),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_polyline_points_match_per_point_formatting(name):
    series, equal_axes = CASES[name]
    doc = line_plot(series, "t", "x", "y", equal_axes=equal_axes)
    assert re.findall(r'<polyline points="([^"]*)"', doc) == _reference_points(series, equal_axes)
