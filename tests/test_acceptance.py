"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
status lines.  Every tolerance is pinned here; thresholds that are artifact
choices rather than externally fixed numbers are marked as such inline.
"""

import math
import time

import numpy as np
import pytest

from physics_checks import (
    check_transform,
    dirac_to_trap,
    expected_eigenvalues,
    fibre_eigenvalues,
    interband_envelope,
    oracle_trajectory,
)

import zbsim.packet
from zbsim._record import replace
from zbsim.dynamics import cyclotron_reference, trajectory
from zbsim.ionmap import TrapConfig, excitation_plan, kappa_of
from zbsim.landau import TransitionKind
from zbsim.packet import KX_NODES, GaussianPacket, Numerics, decompose
from zbsim.params import Dimensionality, make_params, make_params_dimensionless
from zbsim.runner import load_preset
from zbsim.spectral import classify_peaks, richness, spectrum

TWO_PI = 2.0 * math.pi
FIG2_CARRIERS_HZ = {"fig2a": 1.00e3, "fig2b": 3.98e3, "fig2c": 11.98e3}
FIG2_KAPPAS = {"fig2a": 16.65, "fig2b": 1.05, "fig2c": 0.116}


def _report(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS ({detail})")


def _fig2_setup(name: str):
    config = load_preset(name)
    return config, config.params, config.packet


def test_criterion_1_spectrum_closed_form():
    start = time.time()
    worst = 0.0
    for b in (0.1, 1.0, 2.0):
        params = make_params_dimensionless(b)
        for kz in (0.0, 0.5):
            computed = fibre_eigenvalues(kz, 40, params)
            expected = expected_eigenvalues(kz, 40, params)
            # interior 90% of levels (edge excluded), tolerance 1e-10 relative
            cutoff = np.quantile(np.abs(expected), 0.9)
            mask = np.abs(expected) < cutoff
            rel = np.abs(computed[mask] - expected[mask]) / np.abs(expected[mask])
            worst = max(worst, float(np.max(rel)))
    elapsed = time.time() - start
    assert worst < 1e-10
    assert elapsed < 10.0
    _report("criterion 1 (spectrum closed form)",
            f"max interior relative deviation {worst:.2e}, {elapsed:.1f}s")


@pytest.mark.parametrize("name", ["fig2a", "fig2b", "fig2c"])
def test_criterion_2_oracle_equivalence(name):
    start = time.time()
    config, params, packet = _fig2_setup(name)
    assert config.mode is Dimensionality.TWO_PLUS_ONE
    t = config.time_grid()
    assert t[-1] == pytest.approx(100.0)
    dec = decompose(packet, params, config.mode, config.numerics)
    analytic = trajectory(dec, t)
    reference = oracle_trajectory(dec, t)
    dev = max(
        float(np.max(np.abs(analytic.x - reference.x))),
        float(np.max(np.abs(analytic.y - reference.y))),
    )
    elapsed = time.time() - start
    assert dev < 1e-6 * params.magnetic_length
    assert elapsed < 120.0
    _report(f"criterion 2 (oracle equivalence, {name})",
            f"max deviation {dev / params.magnetic_length:.2e} L, {elapsed:.1f}s")


def test_criterion_3_cyclotron_limit():
    params = make_params_dimensionless(1e-2)
    ell = params.magnetic_length
    packet = GaussianPacket(d_x=ell, d_y=ell, k0x=1.0 / ell)  # k0x L = 1
    omega_c, radius = cyclotron_reference(packet, params)
    period = TWO_PI / omega_c
    t = np.linspace(0.0, 50.0 * period, 8192)
    traj = trajectory(decompose(packet, params, Dimensionality.TWO_PLUS_ONE), t)
    rep = spectrum(traj)
    peak = max(rep.peaks, key=lambda p: p.power)
    freq_err = abs(peak.freq - omega_c) / omega_c
    mean_radius = float(np.mean(np.hypot(traj.x, traj.y)))
    radius_err = abs(mean_radius - radius) / radius
    assert freq_err < 5e-3
    assert radius_err < 2e-2
    _report("criterion 3 (cyclotron limit)",
            f"peak frequency error {freq_err:.2e}, radius error {radius_err:.2e}")


def test_criterion_4_kappa_regression():
    for name, carrier_hz in FIG2_CARRIERS_HZ.items():
        trap = TrapConfig.from_spread(
            eta=0.06, omega_carrier=TWO_PI * carrier_hz,
            omega_tilde=TWO_PI * 68e3, delta=9.6e-9,
        )
        kappa = kappa_of(trap)
        assert kappa == pytest.approx(FIG2_KAPPAS[name], rel=1e-2)
        params = make_params_dimensionless(2.0 * math.sqrt(FIG2_KAPPAS[name]))
        back = dirac_to_trap(params, eta=0.06, omega_tilde=TWO_PI * 68e3, delta=9.6e-9)
        round_tripped = kappa_of(back)
        assert round_tripped == pytest.approx(params.kappa, rel=1e-10)
    _report("criterion 4 (kappa regression)",
            "16.65 / 1.05 / 0.116 within 1%, round trips at 1e-10")


def test_criterion_5_richness_monotonicity():
    counts = {}
    for name in ("fig2a", "fig2b", "fig2c"):
        config, params, packet = _fig2_setup(name)
        dec = decompose(packet, params, config.mode, config.numerics)
        traj = trajectory(dec, config.time_grid())
        rep = classify_peaks(spectrum(traj), dec)
        counts[name] = richness(rep, config.spectral.significant_rel_power)
        interband = [p for p in rep.peaks
                     if p.label is not None and p.label.kind is TransitionKind.INTERBAND]
        strongest = max(interband, key=lambda p: p.power)
        assert (strongest.label.n, strongest.label.n_prime) == (0, 1), name
    assert counts["fig2c"] < counts["fig2b"] < counts["fig2a"]
    _report("criterion 5 (richness monotonicity)",
            f"significant peaks {counts['fig2c']} < {counts['fig2b']} < {counts['fig2a']}, "
            "strongest interband line is 0<->1 throughout")


def test_criterion_6_persistence_and_transience():
    # window choices (first vs second 50 cyclotron periods) and the 10% / 20%
    # thresholds are artifact constants
    config, params, packet = _fig2_setup("fig2a")
    omega_c, _ = cyclotron_reference(packet, params)
    period = TWO_PI / omega_c
    t = np.arange(0.0, 100.0 * period, 0.02)
    traj = trajectory(decompose(packet, params, config.mode), t)
    env = interband_envelope(traj, period)
    assert env.ratio >= 0.10
    persistent = env.ratio

    params31 = make_params(2e9)
    packet31 = GaussianPacket(d_x=2.0, d_y=2.0, d_z=2.0, k0x=1.0)
    omega_c31, _ = cyclotron_reference(packet31, params31)
    period31 = TWO_PI / omega_c31
    t31 = np.arange(0.0, 100.0 * period31, 0.4)
    num = Numerics(kz_rule="legendre", kz_nodes=2048)
    traj31 = trajectory(decompose(packet31, params31, Dimensionality.THREE_PLUS_ONE, num), t31)
    env31 = interband_envelope(traj31, period31)
    assert env31.ratio <= 0.20
    _report("criterion 6 (persistence/transience)",
            f"2+1 late/early {persistent:.2f} >= 0.10; 3+1 late/early {env31.ratio:.3f} <= 0.20")


def test_criterion_7_unitary_equivalence():
    report = check_transform(make_params_dimensionless(1.0), n_trunc=20)
    assert report.unitarity_dev < 1e-14
    assert report.involution_dev < 1e-14
    assert report.spectrum_dev < 1e-10
    assert report.passed()
    _report("criterion 7 (unitary equivalence)",
            f"|PP+-1| = {report.unitarity_dev:.1e}, "
            f"spectrum deviation {report.spectrum_dev:.1e} at N=20")


def test_criterion_8_numerical_hygiene(monkeypatch):
    details = []
    for name in ("fig1", "fig2a", "fig2b", "fig2c"):
        config = load_preset(name)
        params, packet = config.params, config.packet
        dec = decompose(packet, params, config.mode, config.numerics)
        assert float(np.sum(dec.u_diag)) == pytest.approx(1.0, abs=1e-8), name

        t = config.time_grid()
        base = trajectory(dec, t)
        assert np.all(np.isfinite(base.x)) and np.all(np.isfinite(base.y)), name

        # twice the kx rule's first node count, and twice the levels
        doubled = replace(config.numerics, n_max_floor=min(2 * dec.n_max, config.numerics.n_max_cap))
        with monkeypatch.context() as patch:
            patch.setattr(zbsim.packet, "KX_NODES", 2 * KX_NODES)
            dec2 = decompose(packet, params, config.mode, doubled)
        assert dec2.kx_nodes.size >= 2 * dec.kx_nodes.size, name
        refined = trajectory(dec2, t)
        shift = max(
            float(np.max(np.abs(base.x - refined.x))),
            float(np.max(np.abs(base.y - refined.y))),
        )
        assert shift < 1e-8 * params.magnetic_length, name
        details.append(f"{name}: {shift / params.magnetic_length:.1e} L")
    _report("criterion 8 (numerical hygiene)",
            "sum U = 1 at 1e-8, finite positions, doubling shifts " + ", ".join(details))


def test_criterion_9_excitation_plan_counts():
    assert excitation_plan(Dimensionality.TWO_PLUS_ONE).pair_count == 8
    assert excitation_plan(Dimensionality.THREE_PLUS_ONE).pair_count == 12
    _report("criterion 9 (excitation plan counts)", "8 pairs in 2+1, 12 pairs in 3+1")
