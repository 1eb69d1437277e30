import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from zbsim.landau import (
    LandauLabel,
    NonexistentStateError,
    energies,
    norm_and_chi,
)
from zbsim.params import make_params_dimensionless

B_ONE = make_params_dimensionless(1.0)

fields = st.floats(min_value=1e-3, max_value=50.0)
wavenumbers = st.floats(min_value=-20.0, max_value=20.0)
levels = st.integers(min_value=0, max_value=400)


def test_energy_examples():
    assert energies(0, 0.0, B_ONE) == 1.0
    assert energies(1, 0.0, B_ONE) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    p = make_params_dimensionless(0.952)
    assert energies(2, 1.0, p) == pytest.approx(math.sqrt(1.0 + 2 * 0.952**2 + 1.0), rel=1e-14)
    assert energies(2, 1.0, p) == pytest.approx(1.9527, abs=2e-4)


def test_energy_rejects_negative_level():
    with pytest.raises(ValueError):
        energies(-1, 0.0, B_ONE)


def test_norm_and_chi_examples():
    n, chi = norm_and_chi(0, 1, 0.0, B_ONE)
    assert n == pytest.approx(2.0, rel=1e-15)
    assert chi == pytest.approx(1.0, rel=1e-15)

    with pytest.raises(NonexistentStateError):
        norm_and_chi(0, -1, 0.0, B_ONE)

    n, chi = norm_and_chi(1, -1, 0.0, B_ONE)
    assert n == pytest.approx(math.sqrt(4.0 - 2.0 * math.sqrt(2.0)), rel=1e-14)
    assert chi == pytest.approx((1.0 - math.sqrt(2.0)) / n, rel=1e-14)
    assert chi == pytest.approx(-0.38268, abs=1e-5)


def test_branch_weights_complete():
    # sum over both branches of chi^2 is exactly one for any level
    for n, kz, b in [(0, 0.3, 1.0), (3, -1.2, 0.4), (40, 2.0, 8.0), (1, 0.0, 1e-3)]:
        p = make_params_dimensionless(b)
        total = sum(norm_and_chi(n, eps, kz, p)[1] ** 2 for eps in (1, -1))
        assert total == pytest.approx(1.0, abs=1e-13)


def test_cyclotron_limit_of_lowest_line():
    # for b -> 0 the 0->1 line E_1 - E_0 tends to hbar eB/m = b^2/2, deviation O(b^4)
    for b in (1e-2, 1e-3):
        e0, e1 = energies([0, 1], 0.0, make_params_dimensionless(b))
        assert abs((e1 - e0) - b * b / 2.0) < b**4
    # relativistic value is not eB/m
    e0, e1 = energies([0, 1], 0.0, B_ONE)
    assert e1 - e0 == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-14)


def test_label_validation():
    LandauLabel(n=0, kx=0.0, kz=0.0, eps=1, s=-1)
    LandauLabel(n=2, kx=0.1, kz=-0.5, eps=-1, s=1)
    with pytest.raises(ValueError):
        LandauLabel(n=-1, kx=0.0, kz=0.0, eps=1, s=-1)
    with pytest.raises(ValueError):
        LandauLabel(n=1, kx=0.0, kz=0.0, eps=2, s=-1)
    with pytest.raises(NonexistentStateError):
        LandauLabel(n=0, kx=0.0, kz=0.0, eps=1, s=1)  # lowest level is spin-polarised
    with pytest.raises(NonexistentStateError):
        LandauLabel(n=0, kx=0.0, kz=0.0, eps=-1, s=-1)  # zero norm


@given(levels, wavenumbers, fields)
def test_energy_even_in_kz_and_above_rest(n, kz, b):
    p = make_params_dimensionless(b)
    e = energies(n, kz, p)
    assert e >= p.mass_energy
    assert e == pytest.approx(energies(n, -kz, p), rel=1e-15)


@given(levels, wavenumbers, fields)
def test_energy_monotone_in_level(n, kz, b):
    p = make_params_dimensionless(b)
    assert energies(n + 1, kz, p) > energies(n, kz, p)


@given(levels, wavenumbers, fields)
@example(0, 5e-324, 1.0)  # n b^2 + kz^2 underflows to zero for the subnormal kz
def test_norm_positive_for_existing_states(n, kz, b):
    p = make_params_dimensionless(b)
    for eps in (1, -1):
        if n == 0 and kz == 0.0 and eps == -1:
            continue
        norm, chi = norm_and_chi(n, eps, kz, p)
        assert norm > 0.0
        assert math.isfinite(chi)

