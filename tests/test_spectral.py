import math

import numpy as np
import pytest

from physics_checks import interband_envelope
from zbsim._record import replace
from zbsim.dynamics import Trajectory, trajectory
from zbsim.landau import TransitionKind, energies
from zbsim.packet import GaussianPacket, decompose
from zbsim.params import Dimensionality, make_params_dimensionless
from zbsim.runner import load_preset, parse_config, preset_text, run
from zbsim.spectral import (
    Peak,
    PeakLabel,
    classify_peaks,
    richness,
    spectrum,
)

B_ONE = make_params_dimensionless(1.0)


def _synthetic(t, x, y=None):
    y = np.zeros_like(x) if y is None else y
    zero = np.zeros_like(x)
    return Trajectory(
        times=t, x=x, y=y,
        x_interband=zero, y_interband=zero,
        x_intraband=x, y_intraband=y,
        position_unit="lambda_c",
        provenance={},
    )


def test_pure_cosine_single_peak():
    t = np.linspace(0.0, 200.0, 2048)
    tr = _synthetic(t, np.cos(0.4142 * t))
    rep = spectrum(tr)
    assert len(rep.peaks) == 1
    assert abs(rep.peaks[0].freq - 0.4142) < rep.bin_width
    assert rep.peaks[0].power == pytest.approx(1.0, rel=0.05)
    assert richness(rep) == 1


def test_constant_trajectory_dc_only():
    t = np.linspace(0.0, 100.0, 1024)
    rep = spectrum(_synthetic(t, np.full(t.size, 2.5)))
    assert len(rep.peaks) == 1
    assert rep.peaks[0].freq == 0.0


def test_zero_trajectory_has_no_peaks():
    t = np.linspace(0.0, 100.0, 1024)
    rep = spectrum(_synthetic(t, np.zeros(t.size)))
    assert len(rep.peaks) == 0
    assert richness(rep) == 0


def test_grid_validation():
    t = np.linspace(0.0, 10.0, 300)
    bad = t.copy()
    bad[5] += 0.01
    with pytest.raises(ValueError):
        spectrum(_synthetic(bad, np.cos(bad)))
    short = np.linspace(0.0, 10.0, 255)
    with pytest.raises(ValueError):
        spectrum(_synthetic(short, np.cos(short)))


def test_rectangular_window_also_normalised():
    t = np.linspace(0.0, 400.0, 4096)
    # bin-centred frequency avoids scalloping for the boxcar
    f = 2.0 * math.pi * 32 / (t[1] - t[0]) / 4096
    rep = spectrum(_synthetic(t, np.cos(f * t)), window="rect")
    assert max(p.power for p in rep.peaks) == pytest.approx(1.0, rel=1e-3)
    with pytest.raises(ValueError):
        spectrum(_synthetic(t, np.cos(t)), window="bogus")


def test_richness_counts_relative_power():
    t = np.linspace(0.0, 500.0, 4096)
    weak = np.cos(0.5 * t) + 0.05 * np.cos(1.5 * t)  # power ratio 2.5e-3
    strong = np.cos(0.5 * t) + 0.2 * np.cos(1.5 * t)  # power ratio 4e-2
    assert richness(spectrum(_synthetic(t, weak))) == 1
    assert richness(spectrum(_synthetic(t, strong))) == 2


def test_classify_lowest_lines():
    ell = B_ONE.magnetic_length
    packet = GaussianPacket(d_x=0.9 * ell, d_y=ell, k0x=math.sqrt(2.0) / ell)
    dec = decompose(packet, B_ONE, Dimensionality.TWO_PLUS_ONE)
    t = np.linspace(0.0, 150.0, 4096)
    tr = trajectory(dec, t)
    rep = classify_peaks(spectrum(tr), dec)

    def label_at(target):
        peak = min(rep.peaks, key=lambda p: abs(p.freq - target))
        assert abs(peak.freq - target) < rep.bin_width
        return peak.label

    intra = label_at(math.sqrt(2.0) - 1.0)
    assert intra.kind is TransitionKind.INTRABAND and (intra.n, intra.n_prime) == (0, 1)
    inter = label_at(math.sqrt(2.0) + 1.0)
    assert inter.kind is TransitionKind.INTERBAND and (inter.n, inter.n_prime) == (0, 1)


def test_interband_only_trajectory_classifies_interband():
    ell = B_ONE.magnetic_length
    packet = GaussianPacket(d_x=0.9 * ell, d_y=ell, k0x=math.sqrt(2.0) / ell)
    dec = decompose(packet, B_ONE, Dimensionality.TWO_PLUS_ONE)
    t = np.linspace(0.0, 150.0, 4096)
    tr = trajectory(dec, t)
    only_inter = _synthetic(t, tr.x_interband, tr.y_interband)
    rep = classify_peaks(spectrum(only_inter), dec)
    significant = [p for p in rep.peaks if p.power >= 0.01 * rep.peaks[0].power]
    assert significant
    for peak in significant:
        assert peak.label is not None
        assert peak.label.kind is TransitionKind.INTERBAND

    only_intra = _synthetic(t, tr.x_intraband, tr.y_intraband)
    rep = classify_peaks(spectrum(only_intra), dec)
    for peak in (p for p in rep.peaks if p.power >= 0.01 * rep.peaks[0].power):
        assert peak.label is not None and peak.label.kind is TransitionKind.INTRABAND


def test_every_significant_peak_classifiable():
    ell = B_ONE.magnetic_length
    packet = GaussianPacket(d_x=0.9 * ell, d_y=ell, k0x=math.sqrt(2.0) / ell)
    dec = decompose(packet, B_ONE, Dimensionality.TWO_PLUS_ONE)
    t = np.linspace(0.0, 150.0, 4096)
    tr = trajectory(dec, t)
    rep = classify_peaks(spectrum(tr), dec)
    top = rep.peaks[0].power
    for peak in rep.peaks:
        if peak.power >= 0.01 * top:
            assert peak.label is not None, f"unassigned significant peak at {peak.freq}"


def test_classify_window_edge_and_occupation_cut():
    ell = B_ONE.magnetic_length
    packet = GaussianPacket(d_x=0.9 * ell, d_y=ell, k0x=math.sqrt(2.0) / ell)
    dec = decompose(packet, B_ONE, Dimensionality.TWO_PLUS_ONE)
    report = spectrum(trajectory(dec, np.linspace(0.0, 150.0, 4096)))
    width = report.bin_width
    e0, e1 = energies([0, 1], 0.0, B_ONE)
    # first level above the occupation cut; its pair with the level below
    # has lines that must not label anything
    top = int(np.argmax(dec.u_diag <= 1e-6))  # spectral.OCCUPIED_U
    assert top >= 2 and dec.u_diag[top - 1] > 1e-6
    e_below, e_top = energies([top - 1, top], 0.0, B_ONE)
    peaks = (
        Peak(freq=(e1 - e0) + 0.999 * width, power=1.0),
        Peak(freq=(e1 - e0) + 1.001 * width, power=1.0),
        Peak(freq=e_top + e_below, power=1.0),  # nearest occupied interband line 0.22 away
        Peak(freq=e_top - e_below, power=1.0),  # the occupied pair below lies within one bin
    )
    labels = [p.label for p in classify_peaks(replace(report, peaks=peaks), dec).peaks]
    assert labels[0] == PeakLabel(TransitionKind.INTRABAND, 0, 1)
    assert labels[1] is None
    assert labels[2] is None
    assert labels[3] == PeakLabel(TransitionKind.INTRABAND, top - 2, top - 1)

    # a peak exactly midway between the 0->1 and 1->2 intraband lines takes
    # the later line of the table
    e2 = energies(2, 0.0, B_ONE)
    mid = ((e1 - e0) + (e2 - e1)) / 2.0
    assert (e1 - e0) - mid == mid - (e2 - e1)
    tie = replace(report, peaks=(Peak(freq=mid, power=1.0),), bin_width=0.05)
    assert classify_peaks(tie, dec).peaks[0].label == PeakLabel(TransitionKind.INTRABAND, 1, 2)


def _config(name):
    if name == "fig1-48-kz-nodes":  # fig1 with the kz quadrature cut as in perfbench's fig1-oracle
        text = preset_text("fig1")
        assert "kz_nodes = 320" in text
        return parse_config(text.replace("kz_nodes = 320", "kz_nodes = 48"))
    return load_preset(name)


@pytest.mark.parametrize("name", ["fig1", "fig2a", "fig2b", "fig2c", "fig1-48-kz-nodes"])
def test_preset_labels_the_lowest_lines(name, tmp_path):
    # a row of spectrum.csv labelled intraband(0->1) within one raw bin of
    # E1 - E0 at kz = 0, and one labelled interband(0<->1) of E1 + E0
    config = _config(name)
    run(config, tmp_path)
    rows = [ln.split(",") for ln in (tmp_path / "spectrum.csv").read_text().splitlines()
            if not ln.startswith("#")][1:]
    samples, t_max = config.time.samples, config.time.t_max
    raw_bin = 2.0 * math.pi * (samples - 1) / (samples * t_max)
    b = config.params.field_ratio_b
    e0, e1 = 1.0, math.sqrt(1.0 + b * b)
    for label, target in (("intraband(0->1)", e1 - e0), ("interband(0<->1)", e1 + e0)):
        freqs = [float(row[0]) for row in rows if row[3] == label]
        assert any(abs(f - target) <= raw_bin for f in freqs), (label, target, freqs)


def test_envelope_windows():
    period = 2.0 * math.pi
    t = np.linspace(0.0, 100.0 * period, 20000)
    decaying = np.exp(-t / (10.0 * period)) * np.cos(7.3 * t)
    tr = Trajectory(
        times=t, x=decaying, y=np.zeros_like(t),
        x_interband=decaying, y_interband=np.zeros_like(t),
        x_intraband=np.zeros_like(t), y_intraband=np.zeros_like(t),
        position_unit="lambda_c", provenance={},
    )
    env = interband_envelope(tr, period)
    assert env.early_max == pytest.approx(1.0, rel=1e-2)
    assert env.ratio < 0.01

    persistent = np.cos(7.3 * t)
    tr2 = Trajectory(
        times=t, x=persistent, y=np.zeros_like(t),
        x_interband=persistent, y_interband=np.zeros_like(t),
        x_intraband=np.zeros_like(t), y_intraband=np.zeros_like(t),
        position_unit="lambda_c", provenance={},
    )
    env2 = interband_envelope(tr2, period)
    assert env2.ratio > 0.99

    with pytest.raises(ValueError):
        interband_envelope(tr2, period, late=(150.0, 200.0))


def test_gigantic_field_run_shows_both_line_kinds():
    # relativistic 3+1 regime: cyclotron and trembling lines both present
    config = load_preset("fig1")
    dec = decompose(config.packet, config.params, config.mode, config.numerics)
    traj = trajectory(dec, config.time_grid())
    rep = classify_peaks(spectrum(traj), dec)
    top = rep.peaks[0].power
    kinds = {p.label.kind for p in rep.peaks if p.label is not None and p.power > 1e-3 * top}
    assert TransitionKind.INTRABAND in kinds
    assert TransitionKind.INTERBAND in kinds
