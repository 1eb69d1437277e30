"""Decomposition tests against independent brute-force quadrature oracles.

The oracle path evaluates the defining overlap integrals with
scipy.integrate.quad / dense trapezoids and explicit normalised Hermite
functions; expected values below were frozen from it and the oracle is kept
here so they can be regenerated.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from zbsim.errors import ConvergenceError, TruncationError
from zbsim.packet import (
    GaussianPacket,
    Numerics,
    decompose,
    f_coeff,
    g_z,
    momentum_profile_x,
    u_overlap,
)
from zbsim.params import Dimensionality, make_params_dimensionless

B_ONE = make_params_dimensionless(1.0, Dimensionality.TWO_PLUS_ONE)

# fig2-style packet in units of the motional spread: L = sqrt(2), d_y = L,
# d_x = 0.9 d_y, kick k0x = 1 so that k0x L = sqrt(2)
TRAP_PACKET = GaussianPacket(d_x=0.9 * math.sqrt(2.0), d_y=math.sqrt(2.0), k0x=1.0)

# F_n(k0x), n = 0..8, from the quad oracle (matches the displaced-ground-state
# closed form to 2e-16 because d_y = L here)
F_AT_KICK = [
    0.5139774252948586,
    -0.5139774252948587,
    0.36343692280279666,
    -0.20983040521364393,
    0.10491520260682201,
    -0.0469195049804035,
    0.01915480769766049,
    -0.0072398367970392995,
    0.0025596688469351446,
]

# U_{n,n+1}, n = 0..4, from the dense 2-d (kx, y) trapezoid oracle
U_BAND = [
    -0.26199159301101205,
    -0.17688976987795452,
    -0.10755292135464213,
    -0.06186240144725641,
    -0.03426696345379925,
]


def _psi(n, xi):
    """Unit-normalised oscillator function, upward recurrence."""
    xi = np.asarray(xi, dtype=float)
    p0 = np.pi**-0.25 * np.exp(-(xi**2) / 2.0)
    if n == 0:
        return p0
    p1 = math.sqrt(2.0) * xi * p0
    for k in range(1, n):
        p0, p1 = p1, math.sqrt(2.0 / (k + 1)) * xi * p1 - math.sqrt(k / (k + 1.0)) * p0
    return p1


def _f_coeff_oracle(packet, n, kx, params):
    ell = params.magnetic_length

    def integrand(y):
        xi = y / ell - kx * ell
        prof = (math.pi * packet.d_y**2) ** -0.25 * math.exp(-(y * y) / (2 * packet.d_y**2))
        return prof * _psi(n, xi) / math.sqrt(ell)

    val, _ = quad(integrand, -60, 60, limit=400, epsabs=1e-14, epsrel=1e-13)
    return float(momentum_profile_x(packet, kx)) * val


def test_f_coeff_against_frozen_oracle_values():
    for n, expected in enumerate(F_AT_KICK):
        assert _f_coeff_oracle(TRAP_PACKET, n, 1.0, B_ONE) == pytest.approx(expected, abs=1e-12)
        assert f_coeff(TRAP_PACKET, n, 1.0, B_ONE) == pytest.approx(expected, abs=1e-12)


def test_f_coeff_closed_form_displaced_ground_state():
    # d_y = L: F_n(kx) = xg(kx) e^{-c^2/4} (-c/sqrt2)^n / sqrt(n!) with c = kx L
    for kx in (0.0, 0.5, 1.0, 2.5):
        c = kx * B_ONE.magnetic_length
        xg = float(momentum_profile_x(TRAP_PACKET, kx))
        for n in range(10):
            expected = xg * math.exp(-c * c / 4.0) * (-c / math.sqrt(2.0)) ** n
            expected /= math.sqrt(math.factorial(n))
            assert f_coeff(TRAP_PACKET, n, kx, B_ONE) == pytest.approx(expected, abs=1e-13)


def test_ground_state_packet_is_orthogonal_to_excited_levels():
    packet = GaussianPacket(d_x=1.0, d_y=B_ONE.magnetic_length, k0x=0.0)
    assert f_coeff(packet, 0, 0.0, B_ONE) > 0.5
    for n in range(1, 9):
        assert abs(f_coeff(packet, n, 0.0, B_ONE)) < 1e-13


def test_g_z_norm_symmetry_and_value():
    packet = GaussianPacket(d_x=1.0, d_y=1.0, d_z=1.0)
    kz = np.linspace(-30, 30, 20001)
    norm = np.trapezoid(np.abs(g_z(packet, kz)) ** 2, kz)
    assert norm == pytest.approx(1.0, abs=1e-10)
    assert g_z(packet, 0.7) == pytest.approx(g_z(packet, -0.7), rel=1e-15)
    # closed-form Gaussian transform at kz = 1/d_z
    dz = 2.0
    packet = GaussianPacket(d_x=1.0, d_y=1.0, d_z=dz)
    assert g_z(packet, 1.0 / dz) == pytest.approx(
        (dz * dz / math.pi) ** 0.25 * math.exp(-0.5), rel=1e-14
    )


def test_g_z_requires_longitudinal_width():
    with pytest.raises(ValueError):
        g_z(GaussianPacket(d_x=1.0, d_y=1.0), 0.0)


def test_u_band_against_frozen_2d_oracle():
    dec = decompose(TRAP_PACKET, B_ONE)
    for n, expected in enumerate(U_BAND):
        assert dec.u_band[n] == pytest.approx(expected, abs=1e-9)
        assert u_overlap(dec, n, n + 1) == pytest.approx(expected, abs=1e-9)


def test_u_completeness_and_symmetry():
    for packet in (
        TRAP_PACKET,
        GaussianPacket(d_x=0.6, d_y=2.3, k0x=0.8),
        GaussianPacket(d_x=2.0, d_y=0.7, k0x=0.0),
    ):
        dec = decompose(packet, B_ONE)
        assert float(np.sum(dec.u_diag)) == pytest.approx(1.0, abs=1e-8)
        assert u_overlap(dec, 2, 5) == pytest.approx(u_overlap(dec, 5, 2), abs=0.0)


def test_parseval_at_every_stage():
    packet = TRAP_PACKET
    dec = decompose(packet, B_ONE)
    # position-space norm is 1 by construction; momentum-space x norm:
    kx = np.linspace(-14, 16, 40001)
    norm_kx = np.trapezoid(np.abs(momentum_profile_x(packet, kx)) ** 2, kx)
    assert norm_kx == pytest.approx(1.0, abs=1e-10)
    # sum_n int |F_n|^2 dkx equals the diagonal sum
    assert float(np.sum(dec.u_diag)) + dec.tail_mass == pytest.approx(1.0, abs=1e-12)
    assert float(np.sum(dec.u_diag)) == pytest.approx(1.0, abs=1e-8)


def test_truncation_behaviour():
    dec = decompose(TRAP_PACKET, B_ONE)
    with pytest.raises(TruncationError):
        u_overlap(dec, 0, dec.n_max + 1)
    # tighter tail tolerance cannot lower the chosen truncation
    dec_tight = decompose(TRAP_PACKET, B_ONE, Numerics(tail_tol=1e-13))
    assert dec_tight.n_max >= dec.n_max
    assert dec_tight.tail_mass <= dec.tail_mass
    with pytest.raises(ConvergenceError):
        decompose(TRAP_PACKET, B_ONE, Numerics(n_max_cap=4, convergence_check=False))


# a narrow x profile (L/d_x = 3) with a raised cap: the tail mass converges
# at level 106, and the overlaps on 512 kx nodes (the doubled grid of the
# convergence check) overflow near level 420
NARROW_PACKET = GaussianPacket(d_x=0.33 * math.sqrt(2.0), d_y=math.sqrt(2.0))
RAISED_CAP = Numerics(n_max_cap=512, kx_nodes=256)


def test_overlap_overflow_above_truncation_is_unused():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dec = decompose(NARROW_PACKET, B_ONE, RAISED_CAP)
        assert dec.n_max == 106
        assert np.all(np.isfinite(dec.phi)) and np.all(np.isfinite(dec.u_band))
        # a floor that forces the truncation past the overflow names it, on the
        # doubled grid of the convergence check and on a 512-node grid without it
        with pytest.raises(ConvergenceError, match=r"overflowed at level \d+ on 512 kx nodes"):
            decompose(NARROW_PACKET, B_ONE, replace(RAISED_CAP, n_max_floor=450))
        unchecked = Numerics(n_max_cap=512, n_max_floor=450, kx_nodes=512, convergence_check=False)
        with pytest.raises(ConvergenceError, match=r"overflowed at level \d+ on 512 kx nodes"):
            decompose(NARROW_PACKET, B_ONE, unchecked)
        with pytest.raises(ConvergenceError, match="overflowed at level 268 on 1 kx nodes"):
            f_coeff(NARROW_PACKET, 300, 200.0 / math.sqrt(2.0), B_ONE)


def test_quadrature_doubling_is_converged():
    num = Numerics(convergence_check=False)
    dec = decompose(TRAP_PACKET, B_ONE, num)
    dec2 = decompose(TRAP_PACKET, B_ONE, num.doubled())
    n = min(dec.n_max, dec2.n_max)
    assert np.max(np.abs(dec.u_diag[: n + 1] - dec2.u_diag[: n + 1])) < 1e-9
    assert np.max(np.abs(dec.u_band[:n] - dec2.u_band[:n])) < 1e-9


def test_packet_validation():
    with pytest.raises(ValueError):
        GaussianPacket(d_x=0.0, d_y=1.0)
    with pytest.raises(ValueError):
        GaussianPacket(d_x=1.0, d_y=-1.0)
    with pytest.raises(ValueError):
        GaussianPacket(d_x=1.0, d_y=1.0, d_z=0.0)
    with pytest.raises(ValueError):
        GaussianPacket(d_x=1.0, d_y=1.0, component=5)
    with pytest.raises(NotImplementedError):
        decompose(GaussianPacket(d_x=1.0, d_y=1.0, component=1), B_ONE)


@pytest.mark.parametrize(
    ("options", "key", "kwargs"),
    [
        (GaussianPacket, "d_x", {"d_x": math.nan, "d_y": 1.0}),
        (GaussianPacket, "d_y", {"d_x": 1.0, "d_y": math.inf}),
        (GaussianPacket, "d_z", {"d_x": 1.0, "d_y": 1.0, "d_z": math.nan}),
        (Numerics, "tail_tol", {"tail_tol": math.nan}),
        (Numerics, "convergence_tol", {"convergence_tol": math.nan}),
        (Numerics, "kz_cutoff_sigmas", {"kz_cutoff_sigmas": math.inf}),
    ],
    ids=["d_x-nan", "d_y-inf", "d_z-nan", "tail_tol-nan", "convergence_tol-nan", "kz_cutoff_sigmas-inf"],
)
def test_non_finite_fields_rejected(options, key, kwargs):
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        options(**kwargs)


def test_three_plus_one_needs_dz():
    p31 = make_params_dimensionless(1.0, Dimensionality.THREE_PLUS_ONE)
    with pytest.raises(ValueError):
        decompose(GaussianPacket(d_x=1.0, d_y=1.0), p31)
    dec = decompose(GaussianPacket(d_x=1.0, d_y=1.0, d_z=1.5), p31)
    assert dec.kz_nodes.size > 1
    assert float(np.sum(dec.kz_weights)) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=0.4, max_value=2.5),
    st.floats(min_value=0.4, max_value=2.5),
    st.floats(min_value=0.0, max_value=1.5),
    st.floats(min_value=0.3, max_value=3.0),
)
def test_completeness_property(d_x, d_y, k0x, b):
    params = make_params_dimensionless(b, Dimensionality.TWO_PLUS_ONE)
    packet = GaussianPacket(d_x=d_x * params.magnetic_length,
                            d_y=d_y * params.magnetic_length,
                            k0x=k0x / params.magnetic_length)
    dec = decompose(packet, params, Numerics(convergence_check=False))
    assert float(np.sum(dec.u_diag)) == pytest.approx(1.0, abs=1e-8)


def test_f_coeff_flags_unconverged_quadrature():
    from zbsim.errors import QuadratureError

    with pytest.raises(QuadratureError):
        f_coeff(TRAP_PACKET, 40, 0.3, B_ONE, y_nodes=4)
