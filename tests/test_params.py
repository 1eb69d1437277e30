import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zbsim.params import (
    ELECTRON,
    cyclotron_quantum_ev,
    magnetic_length_si,
    make_params,
    make_params_dimensionless,
)


def test_gigantic_field_kappa_and_b():
    # independent arithmetic: kappa = hbar*e*B / (2 m^2 c^2)
    hbar, e, m, c = 1.054571817e-34, 1.602176634e-19, 9.1093837015e-31, 299792458.0
    b_field = 2e9
    kappa_expected = hbar * e * b_field / (2.0 * m * m * c * c)
    p = make_params(b_field)
    assert p.kappa == pytest.approx(kappa_expected, rel=1e-12)
    assert p.kappa == pytest.approx(0.2266, rel=5e-4)
    assert p.field_ratio_b == pytest.approx(0.952, rel=1e-3)


def test_hundred_tesla_scales():
    assert magnetic_length_si(100.0) == pytest.approx(2.57e-9, rel=3e-3)
    # direct arithmetic gives ~0.0116 eV for the cyclotron quantum
    assert cyclotron_quantum_ev(100.0) == pytest.approx(0.011577, rel=1e-4)


def test_b_unity_when_length_is_sqrt2_compton():
    # choose B so that L = sqrt(2) lambda_c
    hbar, e = 1.054571817e-34, 1.602176634e-19
    target_l = math.sqrt(2.0) * ELECTRON.compton_m
    b_field = hbar / (e * target_l**2)
    p = make_params(b_field)
    assert p.field_ratio_b == pytest.approx(1.0, rel=1e-12)


def test_dimensionless_construction():
    p = make_params_dimensionless(1.0)
    assert p.magnetic_length == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert p.kappa == pytest.approx(0.25, abs=1e-15)
    assert make_params_dimensionless(2.0).kappa == pytest.approx(1.0, abs=1e-15)
    assert make_params_dimensionless(0.952).kappa == pytest.approx(0.2266, rel=1e-3)


def test_round_trip_si_to_dimensionless():
    p = make_params(2e9)
    q = make_params_dimensionless(p.field_ratio_b)
    assert q.kappa == pytest.approx(p.kappa, rel=1e-12)
    assert q.magnetic_length == pytest.approx(p.magnetic_length, rel=1e-12)


def test_omega_equals_b_in_internal_units():
    p = make_params_dimensionless(0.7)
    assert p.omega == pytest.approx(p.field_ratio_b, abs=0.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_domain_errors(bad):
    with pytest.raises(ValueError):
        make_params_dimensionless(bad)
    with pytest.raises(ValueError):
        make_params(bad)


@given(st.floats(min_value=1e-6, max_value=1e3))
def test_kappa_identity_property(b):
    p = make_params_dimensionless(b)
    assert abs(p.kappa - b * b / 4.0) <= 1e-12 * max(p.kappa, 1.0)
    assert abs(p.magnetic_length * b - math.sqrt(2.0)) <= 1e-12
