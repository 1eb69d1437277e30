"""Frequency-content analysis of trajectories.

Windowed DFT with amplitude normalisation (a unit cosine gives unit peak
power), zero-padding for peak interpolation, parabolic peak refinement, and
labelling of each peak with a level transition.  The labels come from the
kz = 0 lines of each consecutive pair n, n + 1 of occupied levels (U_nn above
OCCUPIED_U): intraband E_{n+1} - E_n (band 0) and interband E_{n+1} + E_n
(band 1), the band index of the line record (landau.BANDS).  A peak
takes the nearest such line within one raw frequency bin; of equally near
lines the last in the table (ascending n, intraband first) wins.
Frequencies are angular, in 1/t_c.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record, replace
from .dynamics import Trajectory
from .landau import BANDS, energies
from .packet import PacketDecomposition

MIN_SAMPLES = 256  # fewest trajectory samples the spectrum accepts
OCCUPIED_U = 1e-6  # levels with U_nn above this carry the lines peaks are labelled by


class PeakLabel(Record):
    """Assignment of one spectral line to the level pair n, n + 1 in a band
    (0 intraband, 1 interband; landau.BANDS)."""

    band: int
    n: int

    def __str__(self) -> str:
        return f"{BANDS[self.band]}({self.n}{('->', '<->')[self.band]}{self.n + 1})"


class Peak(Record):
    freq: float
    power: float
    label: PeakLabel | None = None  # None = unassigned

    def label_text(self) -> str:
        return str(self.label) if self.label is not None else "unassigned"


class SpectrumReport(Record):
    """Per-axis power spectra plus the detected (and labelled) peaks."""

    freqs: np.ndarray
    power_x: np.ndarray
    power_y: np.ndarray
    peaks: tuple[Peak, ...]
    bin_width: float  # raw (unpadded) angular resolution, the match tolerance


WINDOWS = {"hann": np.hanning, "rect": np.ones}


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
        peaks=tuple(peaks),
        bin_width=raw_bin,
    )


def classify_peaks(report: SpectrumReport, decomp: PacketDecomposition) -> SpectrumReport:
    """Label every peak with the nearest line of the occupied levels.

    The lines are the kz = 0 intraband E_{n+1} - E_n and interband
    E_{n+1} + E_n frequencies of each pair n, n + 1 whose diagonal
    occupations U_nn both exceed OCCUPIED_U, in ascending n, intraband
    first.  A peak takes the nearest line at most one raw bin
    (report.bin_width) away, the last of equally near lines; a peak with
    no line in range stays unassigned.
    """
    occupied = decomp.u_diag > OCCUPIED_U
    lower = np.nonzero(occupied[:-1] & occupied[1:])[0]
    e_lo = energies(lower, 0.0, decomp.params)
    e_hi = energies(lower + 1, 0.0, decomp.params)
    freqs = np.column_stack((e_hi - e_lo, e_hi + e_lo)).ravel()
    labels = [PeakLabel(band, int(n)) for n in lower for band in (0, 1)]  # the order of freqs
    if not labels:
        return replace(report, peaks=tuple(replace(p, label=None) for p in report.peaks))
    # reversed table: argmin returns the first minimum, i.e. the last equally near line
    dist = np.abs(np.array([p.freq for p in report.peaks])[:, None] - freqs[None, ::-1])
    best = freqs.size - 1 - np.argmin(dist, axis=1)
    in_range = np.min(dist, axis=1) <= report.bin_width
    peaks = (replace(p, label=labels[k] if ok else None)
             for p, k, ok in zip(report.peaks, best, in_range))
    return replace(report, peaks=tuple(peaks))


def richness(report: SpectrumReport, rel_threshold: float = 0.01) -> int:
    """Number of peaks whose power reaches `rel_threshold` of the strongest."""
    if not report.peaks:
        return 0
    top = max(p.power for p in report.peaks)
    if top <= 0.0:
        return 0
    return sum(1 for p in report.peaks if p.power >= rel_threshold * top)
