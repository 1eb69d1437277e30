import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zbsim.landau import energies
from zbsim.params import SimParams

B_ONE = SimParams(1.0)

fields = st.floats(min_value=1e-3, max_value=50.0)
wavenumbers = st.floats(min_value=-20.0, max_value=20.0)
levels = st.integers(min_value=0, max_value=400)


def test_energy_examples():
    assert energies(0, 0.0, B_ONE) == 1.0
    assert energies(1, 0.0, B_ONE) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    p = SimParams(0.952)
    assert energies(2, 1.0, p) == pytest.approx(math.sqrt(1.0 + 2 * 0.952**2 + 1.0), rel=1e-14)
    assert energies(2, 1.0, p) == pytest.approx(1.9527, abs=2e-4)


def test_energy_rejects_negative_level():
    with pytest.raises(ValueError):
        energies(-1, 0.0, B_ONE)


def test_cyclotron_limit_of_lowest_line():
    # for b -> 0 the 0->1 line E_1 - E_0 tends to hbar eB/m = b^2/2, deviation O(b^4)
    for b in (1e-2, 1e-3):
        e0, e1 = energies([0, 1], 0.0, SimParams(b))
        assert abs((e1 - e0) - b * b / 2.0) < b**4
    # relativistic value is not eB/m
    e0, e1 = energies([0, 1], 0.0, B_ONE)
    assert e1 - e0 == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-14)


@given(levels, wavenumbers, fields)
def test_energy_even_in_kz_and_above_rest(n, kz, b):
    p = SimParams(b)
    e = energies(n, kz, p)
    assert e >= 1.0  # mc^2
    assert e == pytest.approx(energies(n, -kz, p), rel=1e-15)


@given(levels, wavenumbers, fields)
def test_energy_monotone_in_level(n, kz, b):
    p = SimParams(b)
    assert energies(n + 1, kz, p) > energies(n, kz, p)
