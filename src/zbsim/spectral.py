"""Frequency-content analysis of trajectories.

Windowed DFT with amplitude normalisation (a unit cosine gives unit peak
power), zero-padding for peak interpolation, parabolic peak refinement, and
classification of each line against the allowed |n - n'| = 1 transitions of
the occupied Landau levels.  Frequencies are angular, in 1/t_c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import Trajectory
from .landau import TransitionKind, transition_frequency
from .params import SimParams

MIN_SAMPLES = 256  # fewest trajectory samples the spectrum accepts


@dataclass(frozen=True)
class PeakLabel:
    """Assignment of one spectral line to a level transition."""

    kind: TransitionKind
    n: int
    n_prime: int

    def __str__(self) -> str:
        arrow = "->" if self.kind is TransitionKind.INTRABAND else "<->"
        return f"{self.kind.value}({self.n}{arrow}{self.n_prime})"


@dataclass(frozen=True)
class Peak:
    freq: float
    power: float
    label: PeakLabel | None = None  # None = unassigned

    def label_text(self) -> str:
        return str(self.label) if self.label is not None else "unassigned"


@dataclass(frozen=True)
class SpectrumReport:
    """Per-axis power spectra plus the detected (and labelled) peaks."""

    freqs: np.ndarray
    power_x: np.ndarray
    power_y: np.ndarray
    power_total: np.ndarray
    peaks: tuple[Peak, ...]
    bin_width: float  # raw (unpadded) angular resolution, the match tolerance
    window: str
    pad_factor: int


WINDOWS = {"hann": np.hanning, "rect": np.ones, "rectangular": np.ones, "boxcar": np.ones}


def _window(name: str, n: int) -> np.ndarray:
    if name not in WINDOWS:
        raise ValueError(f"unknown window {name!r}")
    return WINDOWS[name](n)


def _axis_power(values: np.ndarray, w: np.ndarray, n_pad: int) -> np.ndarray:
    spec = np.fft.rfft(values * w, n=n_pad)
    amp = np.abs(spec) * (2.0 / np.sum(w))
    amp[0] *= 0.5
    if n_pad % 2 == 0:
        amp[-1] *= 0.5
    return amp * amp


def _refine(freqs: np.ndarray, power: np.ndarray, k: int) -> tuple[float, float]:
    """Parabolic interpolation of log power around bin k."""
    if k <= 0 or k >= power.size - 1:
        return float(freqs[k]), float(power[k])
    y0, y1, y2 = np.log(np.maximum(power[k - 1 : k + 2], 1e-300))
    denom = y0 - 2.0 * y1 + y2
    if denom >= 0.0:
        return float(freqs[k]), float(power[k])
    shift = 0.5 * (y0 - y2) / denom
    shift = float(np.clip(shift, -0.5, 0.5))
    df = freqs[1] - freqs[0]
    return float(freqs[k] + shift * df), float(math.exp(y1 - 0.25 * (y0 - y2) * shift))


def spectrum(
    trajectory: Trajectory,
    window: str = "hann",
    pad_factor: int = 4,
    detection_floor: float = 1e-3,
) -> SpectrumReport:
    """Windowed power spectrum of both position components with peak list.

    Requires a uniform grid with at least MIN_SAMPLES samples.  Peaks are local
    maxima of the combined power above `detection_floor` of the strongest
    line, refined by parabolic interpolation; they are returned unlabelled
    (see :func:`classify_peaks`).
    """
    t = trajectory.times
    if t.size < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {t.size}")
    dt = np.diff(t)
    if np.max(np.abs(dt - dt[0])) > 1e-9 * abs(dt[0]):
        raise ValueError("spectrum requires a uniform time grid")
    step = float(dt[0])
    n = t.size
    n_pad = int(pad_factor) * n
    w = _window(window, n)

    power_x = _axis_power(trajectory.x, w, n_pad)
    power_y = _axis_power(trajectory.y, w, n_pad)
    total = power_x + power_y
    freqs = 2.0 * math.pi * np.fft.rfftfreq(n_pad, d=step)

    raw_bin = 2.0 * math.pi / (n * step)
    peaks: list[Peak] = []
    top = float(np.max(total))
    if top > 0.0:
        floor = detection_floor * top
        interior = (total[1:-1] > total[:-2]) & (total[1:-1] >= total[2:])
        for k in np.nonzero(interior)[0] + 1:
            if total[k] < floor:
                continue
            freq, value = _refine(freqs, total, k)
            if freq < 0.5 * raw_bin:
                freq = 0.0  # unresolvable from zero-frequency content
            peaks.append(Peak(freq=freq, power=value))
        if total[0] > total[1] and total[0] >= floor:
            peaks.insert(0, Peak(freq=0.0, power=float(total[0])))
    peaks.sort(key=lambda p: -p.power)

    return SpectrumReport(
        freqs=freqs,
        power_x=power_x,
        power_y=power_y,
        power_total=total,
        peaks=tuple(peaks),
        bin_width=raw_bin,
        window=window,
        pad_factor=int(pad_factor),
    )


def allowed_lines(
    params: SimParams, occupied_levels: list[int], kz: float = 0.0
) -> list[tuple[float, PeakLabel]]:
    """Intraband and interband line positions of consecutive occupied levels."""
    lines = []
    occ = set(occupied_levels)
    for n in sorted(occ):
        if n + 1 not in occ:
            continue
        for eps_prime, kind in ((1, TransitionKind.INTRABAND), (-1, TransitionKind.INTERBAND)):
            freq, _ = transition_frequency(n, n + 1, 1, eps_prime, kz, params)
            lines.append((freq, PeakLabel(kind=kind, n=n, n_prime=n + 1)))
    return lines


def classify_peaks(
    report: SpectrumReport,
    params: SimParams,
    occupied_levels: list[int],
    tolerance: float | None = None,
) -> SpectrumReport:
    """Label every peak with the nearest allowed transition within tolerance.

    The default tolerance is one raw frequency bin.  Peaks with no
    transition in range stay unassigned.
    """
    tol = tolerance if tolerance is not None else report.bin_width
    lines = allowed_lines(params, occupied_levels)
    labelled = []
    for peak in report.peaks:
        best: PeakLabel | None = None
        best_dist = tol
        for freq, label in lines:
            dist = abs(peak.freq - freq)
            if dist <= best_dist:
                best = label
                best_dist = dist
        labelled.append(replace(peak, label=best))
    return replace(report, peaks=tuple(labelled))


def richness(report: SpectrumReport, rel_threshold: float = 0.01) -> int:
    """Number of peaks whose power reaches `rel_threshold` of the strongest."""
    if not report.peaks:
        return 0
    top = max(p.power for p in report.peaks)
    if top <= 0.0:
        return 0
    return sum(1 for p in report.peaks if p.power >= rel_threshold * top)


@dataclass(frozen=True)
class EnvelopeSummary:
    """Interband (trembling) envelope size in an early and a late time window."""

    early_max: float
    late_max: float

    @property
    def ratio(self) -> float:
        return self.late_max / self.early_max if self.early_max > 0.0 else math.inf


def interband_envelope(
    trajectory: Trajectory,
    period: float,
    early: tuple[float, float] = (0.0, 50.0),
    late: tuple[float, float] = (50.0, 100.0),
) -> EnvelopeSummary:
    """Max interband displacement |r| in two windows given in units of `period`.

    Used to quantify decay (3+1) versus persistence through decays and
    revivals (2+1) of the trembling motion.
    """
    r = np.hypot(trajectory.x_interband, trajectory.y_interband)
    t = trajectory.times

    def window_max(lo: float, hi: float) -> float:
        mask = (t >= lo * period) & (t <= hi * period)
        if not np.any(mask):
            raise ValueError(f"trajectory does not cover window [{lo}, {hi}] periods")
        return float(np.max(r[mask]))

    return EnvelopeSummary(
        early_max=window_max(*early),
        late_max=window_max(*late),
    )
