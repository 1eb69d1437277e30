import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from physics_checks import dirac_to_trap
from zbsim.ionmap import CA40_ION_MASS_KG, InteractionKind, TrapConfig, excitation_plan, kappa_of, trap_to_dirac
from zbsim.params import Dimensionality, make_params_dimensionless
from zbsim.runner import TrapOptions

TWO_PI = 2.0 * math.pi
DELTA_M = 9.6e-9  # 96 angstrom ground-state spread


def _trap(carrier_hz: float) -> TrapConfig:
    return TrapConfig.from_spread(
        eta=0.06,
        omega_carrier=TWO_PI * carrier_hz,
        omega_tilde=TWO_PI * 68e3,
        delta=DELTA_M,
    )


def test_kappa_regimes():
    assert kappa_of(_trap(1.00e3)) == pytest.approx(16.65, rel=2e-3)
    assert kappa_of(_trap(3.98e3)) == pytest.approx(1.05, rel=1e-2)
    assert kappa_of(_trap(11.98e3)) == pytest.approx(0.116, rel=1e-2)


def test_kappa_vanishes_with_coupling():
    weak = TrapConfig.from_spread(1e-9, TWO_PI * 1e3, TWO_PI * 68e3, DELTA_M)
    assert kappa_of(weak) < 1e-12


def test_trap_consistency_validation():
    with pytest.raises(ValueError):
        TrapConfig(
            eta=0.06, omega_carrier=TWO_PI * 1e3, omega_tilde=TWO_PI * 68e3,
            delta=DELTA_M, ion_mass=CA40_ION_MASS_KG, trap_freq=TWO_PI * 2e6,
        )
    with pytest.raises(ValueError):
        TrapConfig.from_spread(-0.06, TWO_PI * 1e3, TWO_PI * 68e3, DELTA_M)


def test_spread_to_trap_frequency():
    # Delta = 96 angstrom with a calcium ion corresponds to nu ~ 2pi x 1.37 MHz
    trap = _trap(1.00e3)
    assert trap.trap_freq / TWO_PI == pytest.approx(1.37e6, rel=3e-3)


def test_trap_to_dirac_scales():
    trap = _trap(1.00e3)
    params = trap_to_dirac(trap)
    # c_sim = 2 eta Delta Omega_tilde ~ 0.49 mm/s
    c_sim = 2.0 * trap.eta * trap.delta * trap.omega_tilde
    assert c_sim == pytest.approx(0.49e-3, rel=1e-2)
    # lambda_c_sim = c_sim / Omega ~ 78 nm ~ 8.2 Delta
    compton = c_sim / trap.omega_carrier
    assert compton == pytest.approx(78e-9, rel=1e-2)
    assert compton / trap.delta == pytest.approx(8.16, rel=1e-2)
    # L_sim = sqrt(2) Delta is L = sqrt(2)/b Compton wavelengths
    assert params.magnetic_length * compton == pytest.approx(math.sqrt(2.0) * trap.delta, rel=1e-14)
    # the algebraic identity kappa = b^2/4 ties both routes together exactly
    assert params.kappa == pytest.approx(kappa_of(trap), rel=1e-14)


def test_dirac_to_trap_inversion():
    params = make_params_dimensionless(2.0 * math.sqrt(0.116))
    trap = dirac_to_trap(params, eta=0.06, omega_tilde=TWO_PI * 68e3, delta=DELTA_M)
    assert trap.omega_carrier / TWO_PI == pytest.approx(11.98e3, rel=1e-3)


@pytest.mark.parametrize("kappa", [16.65, 1.05, 0.116])
def test_round_trip_identity(kappa):
    params = make_params_dimensionless(2.0 * math.sqrt(kappa))
    trap = dirac_to_trap(params, eta=0.06, omega_tilde=TWO_PI * 68e3, delta=DELTA_M)
    back = trap_to_dirac(trap)
    assert back.kappa == pytest.approx(params.kappa, rel=1e-10)
    assert back.field_ratio_b == pytest.approx(params.field_ratio_b, rel=1e-10)


def test_trap_section_needs_exactly_one_motional_scale():
    # a run's [trap] fixes the motional scale by the spread or by the trap
    # frequency, never by both or neither
    drive = dict(eta=0.06, omega_tilde_hz=68e3, omega_carrier_hz=1e3)
    for scales in ({}, dict(delta_m=DELTA_M, trap_freq_hz=1e6)):
        with pytest.raises(ValueError, match="exactly one of delta_m and trap_freq_hz"):
            TrapOptions(**drive, **scales)
    by_spread = TrapOptions(**drive, delta_m=DELTA_M).build()[0]
    by_freq = TrapOptions(**drive, trap_freq_hz=by_spread.trap_freq / TWO_PI).build()[0]
    assert by_freq.delta == pytest.approx(DELTA_M, rel=1e-14)


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_kappa_scale_invariance(s):
    base = _trap(1.00e3)
    scaled = TrapConfig.from_spread(
        base.eta, s * base.omega_carrier, s * base.omega_tilde, base.delta
    )
    assert kappa_of(scaled) == pytest.approx(kappa_of(base), rel=1e-12)


def test_excitation_plan_pair_counts():
    assert excitation_plan(Dimensionality.TWO_PLUS_ONE).pair_count == 8
    assert excitation_plan(Dimensionality.THREE_PLUS_ONE).pair_count == 12


def test_excitation_plan_contents():
    plan = excitation_plan(Dimensionality.TWO_PLUS_ONE)
    jc = [t for t in plan.interactions if t.kind is InteractionKind.JC]
    ajc = [t for t in plan.interactions if t.kind is InteractionKind.AJC]
    assert len(jc) == 1 and jc[0].level_pair == "ad" and jc[0].phase == pytest.approx(math.pi)
    assert len(ajc) == 1 and ajc[0].level_pair == "bc" and ajc[0].phase == pytest.approx(math.pi)
    # no longitudinal momentum terms in the transverse plan
    assert all(t.momentum_axis != "z" for t in plan.interactions)

    plan3 = excitation_plan(Dimensionality.THREE_PLUS_ONE)
    z_terms = [t for t in plan3.interactions if t.momentum_axis == "z"]
    assert len(z_terms) == 2
    assert sorted(t.level_pair for t in z_terms) == ["ac", "bd"]
    assert sorted(t.sign for t in z_terms) == [-1, 1]
    assert len(plan3.table()) == 8
