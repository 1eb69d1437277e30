"""Trajectory engine tests, including equivalence with the matrix reference.

Frozen 3+1 integral values come from a scipy.integrate.quad oracle of the
defining kz integrals (kept in _integral_oracle for regeneration).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from physics_checks import oracle_trajectory
from scipy.integrate import quad

from zbsim.dynamics import (
    _grid_block,
    _line_tables,
    band_sums,
    cyclotron_reference,
    line_sum,
    trajectory,
)
from zbsim.packet import (
    GaussianPacket,
    Numerics,
    PacketDecomposition,
    decompose,
    momentum_profile_x,
)
from zbsim.params import Dimensionality, make_params, make_params_dimensionless
from zbsim.runner import load_preset

TWO_PLUS_ONE, THREE_PLUS_ONE = Dimensionality.TWO_PLUS_ONE, Dimensionality.THREE_PLUS_ONE
B_ONE = make_params_dimensionless(1.0)
FIG1_PARAMS = make_params(2e9)  # b = 0.951948764143658
FIG1_PACKET = GaussianPacket(d_x=2.0, d_y=2.0, d_z=2.0, k0x=1.0)

# (Ic+, Ic-, Is+, Is-) at n = 0, t = 5 for the 3+1 packet above, from quad
FROZEN_INTEGRALS_T5 = (
    -0.44411464133085443,
    0.213712449575365,
    1.5897257803439557,
    -0.06599566040428333,
)


def _integral_oracle(params, dz, n, t):
    b = params.field_ratio_b

    def e(level, kz):
        return math.sqrt(1.0 + level * b * b + kz * kz)

    def gz2(kz):
        return (dz / math.sqrt(math.pi)) * math.exp(-((kz * dz) ** 2))

    def ic(sign):
        f = lambda kz: (1 + sign * e(n, kz) / e(n + 1, kz)) * gz2(kz) * math.cos(
            (e(n + 1, kz) - sign * e(n, kz)) * t
        )
        return quad(f, -8 / dz, 8 / dz, limit=400, epsabs=1e-14, epsrel=1e-13)[0]

    def isn(sign):
        f = lambda kz: (1.0 / e(n, kz) + sign / e(n + 1, kz)) * gz2(kz) * math.sin(
            (e(n + 1, kz) - sign * e(n, kz)) * t
        )
        return quad(f, -8 / dz, 8 / dz, limit=400, epsabs=1e-14, epsrel=1e-13)[0]

    return ic(1), ic(-1), isn(1), isn(-1)


def _pair_integrals(n, t, decomp):
    """(Ic+, Ic-, Is+, Is-) for the pair (n, n+1) at scalar t, read off the
    engine's line tables: the rows of pair n, divided by the pair's
    prefactor 1/2 sqrt(n+1) U_{n,n+1}, summed by line_sum (the cos sums in
    the real part, the sin sums in the imaginary part; the intraband sin
    coefficients carry the sign of -i Is+)."""
    (f_minus, c_minus, s_minus), (f_plus, c_plus, s_plus) = _line_tables(decomp)
    rows = slice(n * decomp.kz_nodes.size, (n + 1) * decomp.kz_nodes.size)
    base = 0.5 * math.sqrt(n + 1.0) * decomp.u_band[n]
    tt = np.array([float(t)])
    zero = np.zeros(f_minus[rows].size)

    def integral(freqs, cos_coef, sin_coef):
        return line_sum(tt, freqs[rows], cos_coef, sin_coef)[0]

    return (
        float(integral(f_minus, c_minus[rows], zero).real) / base,
        float(integral(f_plus, c_plus[rows], zero).real) / base,
        float(integral(f_minus, zero, -s_minus[rows]).imag) / base,
        float(integral(f_plus, zero, s_plus[rows]).imag) / base,
    )


def _fig2_packet(params):
    ell = params.magnetic_length
    return GaussianPacket(d_x=0.9 * ell, d_y=ell, k0x=math.sqrt(2.0) / ell)


def test_time_integrals_at_zero():
    dec = decompose(_fig2_packet(B_ONE), B_ONE, TWO_PLUS_ONE)
    ic_p, ic_m, is_p, is_m = _pair_integrals(3, 0.0, dec)
    assert is_p == 0.0 and is_m == 0.0
    assert ic_p + ic_m == pytest.approx(2.0, abs=1e-12)

    dec31 = decompose(FIG1_PACKET, FIG1_PARAMS, THREE_PLUS_ONE)
    ic_p, ic_m, is_p, is_m = _pair_integrals(0, 0.0, dec31)
    assert is_p == 0.0 and is_m == 0.0
    assert ic_p + ic_m == pytest.approx(2.0, abs=1e-10)


def test_time_integrals_flat_reduction_closed_form():
    # 2+1: the kz weight collapses to the kz = 0 integrand
    dec = decompose(_fig2_packet(B_ONE), B_ONE, TWO_PLUS_ONE)
    e0, e1 = 1.0, math.sqrt(2.0)
    for t in (0.3, 1.7, 9.2):
        ic_p, ic_m, is_p, is_m = _pair_integrals(0, t, dec)
        assert ic_m == pytest.approx((1.0 - e0 / e1) * math.cos((e1 + e0) * t), rel=1e-13)
        assert is_m == pytest.approx((1.0 / e0 - 1.0 / e1) * math.sin((e1 + e0) * t), rel=1e-13)
        assert ic_p == pytest.approx((1.0 + e0 / e1) * math.cos((e1 - e0) * t), rel=1e-13)
        assert is_p == pytest.approx((1.0 / e0 + 1.0 / e1) * math.sin((e1 - e0) * t), rel=1e-13)


def test_time_integrals_3plus1_frozen_oracle():
    regenerated = _integral_oracle(FIG1_PARAMS, 2.0, 0, 5.0)
    assert regenerated == pytest.approx(FROZEN_INTEGRALS_T5, abs=1e-12)
    dec = decompose(FIG1_PACKET, FIG1_PARAMS, THREE_PLUS_ONE)
    produced = _pair_integrals(0, 5.0, dec)
    assert produced == pytest.approx(FROZEN_INTEGRALS_T5, abs=1e-10)


def _explicit_line_sum(t, freqs, cos_coef, sin_coef):
    expected = np.zeros((t.size, cos_coef.shape[1]), dtype=complex)
    for i, ti in enumerate(t):
        for f, c, s in zip(freqs, cos_coef, sin_coef):
            expected[i] += c * math.cos(f * ti) + 1j * s * math.sin(f * ti)
    return expected


def _column_line_sums(t, freqs, cos_coef, sin_coef):
    """line_sum of each column of (lines x columns) coefficients, as columns."""
    return np.stack([line_sum(t, freqs, c, s) for c, s in zip(cos_coef.T, sin_coef.T)], axis=1)


def _random_lines(rng, n_lines, n_cols):
    return rng.normal(size=(n_lines, n_cols)), rng.normal(size=(n_lines, n_cols))


# (samples, samples per block B): 23 uniform samples fill 4 blocks of 5 and
# a ragged fifth; jittered samples are evaluated directly (B = 1)
_GRIDS = (
    (np.linspace(-2.0, 9.0, 23), 5),
    (np.linspace(-2.0, 9.0, 23) + 1e-9 * np.sin(np.arange(23.0)), 1),
    (np.array([3.7]), 1),
    (np.array([-1.5, 4.25]), 2),
)


@pytest.mark.parametrize("n_cols", [1, 3])
@pytest.mark.parametrize("n_lines", [0, 1, 7])
def test_line_sum_matches_explicit_loop(n_lines, n_cols, monkeypatch):
    freqs = np.linspace(-2.5, 2.9, n_lines)  # both signs from two lines on
    cos_coef, sin_coef = _random_lines(np.random.default_rng(3), n_lines, n_cols)
    for t, block in _GRIDS:
        assert _grid_block(t) == block
        expected = _explicit_line_sum(t, freqs, cos_coef, sin_coef)
        # a budget below one line's tables puts every line in its own block;
        # the second puts up to 5 lines in a block, most often with a ragged last one
        for chunk in (1, 3 * (t.size + 2 * n_cols)):
            monkeypatch.setattr("zbsim.dynamics._CHUNK", chunk)
            got = _column_line_sums(t, freqs, cos_coef, sin_coef)
            assert got.shape == (t.size, n_cols)
            assert np.max(np.abs(got - expected), initial=0.0) < 1e-13


def test_line_sum_large_phases():
    # phases f t up to about 1e3 rad, 1001 samples in 32 blocks of 32
    t = np.linspace(0.0, 100.0, 1001)
    freqs = np.array([-9.7, -3.1, 0.0, 0.4, 5.5, 10.0])
    cos_coef, sin_coef = _random_lines(np.random.default_rng(5), freqs.size, 2)
    assert _grid_block(t) == 32
    got = _column_line_sums(t, freqs, cos_coef, sin_coef)
    expected = _explicit_line_sum(t, freqs, cos_coef, sin_coef)
    scale = np.sum(np.abs(cos_coef) + np.abs(sin_coef), axis=0)
    assert np.max(np.abs(got - expected) / scale) < 1e-12


def _complex_line_sum(t, freqs, cos_coef, sin_coef):
    """Frozen copy of the earlier line_sum, which took complex C and S and
    returned sum C cos(f t) + S sin(f t) through the real views of C and S."""
    cos_r = np.ascontiguousarray(cos_coef, dtype=complex).view(float)
    sin_r = np.ascontiguousarray(sin_coef, dtype=complex).view(float)
    cols = cos_r.shape[1]
    block = _grid_block(t)
    starts = t[::block]
    offsets = t[:block] - t[:1]
    acc = np.zeros((starts.size, offsets.size * cols))
    step = max(1, (1 << 18) // (starts.size + acc.shape[1]))
    for lo in range(0, freqs.size, step):
        f = freqs[lo : lo + step]
        c = cos_r[lo : lo + step, None, :]
        s = sin_r[lo : lo + step, None, :]
        phase = np.outer(f, offsets)
        cos_offset = np.cos(phase)[:, :, None]
        sin_offset = np.sin(phase)[:, :, None]
        p = (c * cos_offset + s * sin_offset).reshape(f.size, -1)
        q = (s * cos_offset - c * sin_offset).reshape(f.size, -1)
        phase = np.multiply.outer(starts, f)
        acc += np.cos(phase) @ p
        acc += np.sin(phase) @ q
    return acc.reshape(-1, cols)[: t.size].view(complex)


def test_line_sum_is_bitwise_the_complex_kernel_on_fig1():
    # real C and S give the BLAS products the values, in the order, that the
    # complex kernel gave them with C + 0i and 0 + iS
    config = load_preset("fig1")
    t = config.time_grid()
    dec = decompose(config.packet, config.params, config.mode, config.numerics)
    bands = _line_tables(dec)
    assert bands[0][0].size == 5280  # 33 level pairs x 160 distinct |kz| of the 320-node rule
    for freqs, c, s in bands:
        got = line_sum(t, freqs, c, s)
        frozen = _complex_line_sum(t, freqs, c[:, None], 1j * s[:, None])[:, 0]
        assert np.array_equal(got.view(np.uint64), frozen.view(np.uint64))


def test_line_sum_rejects_complex_coefficients():
    t = np.linspace(0.0, 1.0, 300)
    with pytest.raises(TypeError):
        line_sum(t, np.array([1.0]), np.ones(1), 1j * np.ones(1))


def test_ladder_expectation_static_value():
    params = B_ONE
    packet = _fig2_packet(params)
    dec = decompose(packet, params, TWO_PLUS_ONE)
    a0 = band_sums(np.array([0.0]), _line_tables(dec)).sum(axis=0)[0]  # <A(0)>, both bands
    ell = params.magnetic_length
    # operator identity: <a> = <xi>/sqrt(2) = -k0x L / sqrt(2)
    assert a0.real == pytest.approx(-packet.k0x * ell / math.sqrt(2.0), abs=1e-8)
    assert abs(a0.imag) < 1e-14
    # direct 2-d quadrature of <xi>/sqrt(2) over the transverse profile
    kx = np.linspace(-10, 12, 1501)
    y = np.linspace(-12, 12, 1501)
    kk, yy = np.meshgrid(kx, y, indexing="ij")
    density = np.abs(momentum_profile_x(packet, kk)) ** 2 * (
        (math.pi * packet.d_y**2) ** -0.5 * np.exp(-(yy**2) / packet.d_y**2)
    )
    xi = yy / ell - kk * ell
    direct = np.trapezoid(np.trapezoid(density * xi, y, axis=1), kx) / math.sqrt(2.0)
    assert a0.real == pytest.approx(direct, abs=1e-6)


def test_single_level_occupancy_gives_no_motion():
    dec = PacketDecomposition(
        packet=GaussianPacket(d_x=1.0, d_y=1.0),
        params=B_ONE,
        mode=TWO_PLUS_ONE,
        n_max=0,
        kx_nodes=np.array([0.0]),
        kx_weights=np.array([1.0]),
        phi=np.array([[1.0]]),
        u_diag=np.array([1.0]),
        u_band=np.zeros(0),
        tail_mass=0.0,
        kz_nodes=np.array([0.0]),
        kz_weights=np.array([1.0]),
    )
    a = band_sums(np.array([0.0, 1.0, 17.3]), _line_tables(dec)).sum(axis=0)
    assert np.array_equal(a, np.zeros(3))


def test_centred_unkicked_packet_stays_put():
    packet = GaussianPacket(d_x=1.3, d_y=0.8, k0x=0.0)
    dec = decompose(packet, B_ONE, TWO_PLUS_ONE)
    assert np.max(np.abs(dec.u_band)) < 1e-14  # odd in kx, integrates away
    t = np.linspace(0.0, 10.0, 64)
    tr = trajectory(dec, t)
    assert np.max(np.abs(tr.x)) < 1e-12
    assert np.max(np.abs(tr.y)) < 1e-12


def test_position_start_and_reality():
    params = B_ONE
    packet = _fig2_packet(params)
    dec = decompose(packet, params, TWO_PLUS_ONE)
    start = trajectory(dec, np.array([0.0]))
    assert start.x[0] == pytest.approx(0.0, abs=1e-12)
    assert start.y[0] == pytest.approx(-packet.k0x * params.magnetic_length**2, abs=1e-8)
    t = np.linspace(0.0, 30.0, 301)
    tr = trajectory(dec, t)
    assert np.all(np.isfinite(tr.x)) and np.all(np.isfinite(tr.y))


def test_trajectory_grid_refinement_consistency():
    packet = _fig2_packet(B_ONE)
    dec = decompose(packet, B_ONE, TWO_PLUS_ONE)
    coarse = trajectory(dec, np.linspace(0.0, 10.0, 11))
    fine = trajectory(dec, np.linspace(0.0, 10.0, 21))
    assert np.max(np.abs(coarse.x - fine.x[::2])) < 1e-12
    assert np.max(np.abs(coarse.y - fine.y[::2])) < 1e-12

    # one sample is evaluated directly, the 11-sample grid in blocks
    single = trajectory(dec, np.array([0.0]))
    assert single.x[0] == pytest.approx(coarse.x[0], abs=1e-14)
    assert single.y[0] == pytest.approx(coarse.y[0], abs=1e-14)


def test_trajectory_validates_grid():
    dec = decompose(_fig2_packet(B_ONE), B_ONE, TWO_PLUS_ONE)
    with pytest.raises(ValueError):
        trajectory(dec, np.array([]))
    with pytest.raises(ValueError):
        trajectory(dec, np.array([0.0, 0.1, 0.3]))


def test_band_split_sums_to_total_and_anisotropy():
    dec = decompose(_fig2_packet(B_ONE), B_ONE, TWO_PLUS_ONE)
    t = np.linspace(0.0, 40.0, 801)
    tr = trajectory(dec, t)
    assert np.allclose(tr.x, tr.x_intraband + tr.x_interband, atol=0.0)
    assert np.allclose(tr.y, tr.y_intraband + tr.y_interband, atol=0.0)
    # kick along x only: the two traces differ
    assert np.max(np.abs(tr.x - tr.y)) > 0.1 * np.max(np.abs(tr.y))


def test_cyclotron_reference_values():
    p = make_params_dimensionless(0.01)
    packet = GaussianPacket(d_x=1.0, d_y=1.0, k0x=0.1)
    omega_c, radius = cyclotron_reference(packet, p)
    assert abs(omega_c - p.field_ratio_b**2 / 2.0) < p.field_ratio_b**4
    assert radius == pytest.approx(0.1 * p.magnetic_length**2, rel=1e-15)

    omega_c, _ = cyclotron_reference(packet, B_ONE)
    assert omega_c == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-14)


def test_matches_matrix_reference_2plus1():
    params = make_params_dimensionless(2.0503)
    dec = decompose(_fig2_packet(params), params, TWO_PLUS_ONE)
    t = np.linspace(0.0, 20.0, 256)
    analytic = trajectory(dec, t)
    reference = oracle_trajectory(dec, t)
    tol = 1e-6 * params.magnetic_length
    assert np.max(np.abs(analytic.x - reference.x)) < tol
    assert np.max(np.abs(analytic.y - reference.y)) < tol
    # the band split agrees between the two engines as well
    assert np.max(np.abs(analytic.x_interband - reference.x_interband)) < tol
    assert np.max(np.abs(analytic.y_interband - reference.y_interband)) < tol


def test_matches_matrix_reference_3plus1():
    num = Numerics(kz_nodes=32)
    dec = decompose(FIG1_PACKET, FIG1_PARAMS, THREE_PLUS_ONE, num)
    t = np.linspace(0.0, 5.0, 51)
    analytic = trajectory(dec, t)
    # the 32-node rule is summed over its 16 distinct |kz|
    assert (analytic.provenance["kz_nodes"], analytic.provenance["kz_rule_nodes"]) == (16, 32)
    reference = oracle_trajectory(dec, t)
    tol = 1e-6 * FIG1_PARAMS.magnetic_length
    assert np.max(np.abs(analytic.x - reference.x)) < tol
    assert np.max(np.abs(analytic.y - reference.y)) < tol


def test_unit_conversion_to_magnetic_lengths():
    dec = decompose(_fig2_packet(B_ONE), B_ONE, TWO_PLUS_ONE)
    tr = trajectory(dec, np.linspace(0.0, 5.0, 16))
    in_l = tr.in_magnetic_length_units()
    assert in_l.position_unit == "L"
    assert np.allclose(in_l.x * B_ONE.magnetic_length, tr.x, rtol=1e-14, atol=1e-16)
    assert in_l.in_magnetic_length_units() is in_l


@settings(max_examples=10, deadline=None)
@given(
    st.floats(min_value=0.5, max_value=4.0),
    st.floats(min_value=0.6, max_value=1.6),
    st.floats(min_value=0.3, max_value=1.8),
)
def test_matrix_reference_equivalence_property(b, width_ratio, kick):
    """Engines agree over random field strengths, widths and kicks."""
    params = make_params_dimensionless(b)
    ell = params.magnetic_length
    packet = GaussianPacket(d_x=0.9 * width_ratio * ell, d_y=width_ratio * ell,
                            k0x=kick / ell)
    dec = decompose(packet, params, TWO_PLUS_ONE)
    t = np.linspace(0.0, 12.0, 49)
    analytic = trajectory(dec, t)
    reference = oracle_trajectory(dec, t)
    tol = 1e-6 * ell
    assert np.max(np.abs(analytic.x - reference.x)) < tol
    assert np.max(np.abs(analytic.y - reference.y)) < tol


def test_regression_anchor_values():
    """Absolute anchors (cross-validated against the matrix reference when
    frozen) guard conventions that a simultaneous sign drift in both engines
    would hide."""
    params = make_params_dimensionless(2.0503)
    ell = params.magnetic_length
    packet = GaussianPacket(d_x=0.9 * ell, d_y=ell, k0x=math.sqrt(2.0) / ell)
    tr = trajectory(decompose(packet, params, TWO_PLUS_ONE), np.linspace(0.0, 2.5, 3))
    assert tr.x == pytest.approx([0.0, 0.3875080774401247, 0.11599928852255866], abs=1e-8)
    assert tr.y == pytest.approx(
        [-0.9754670041372855, -0.43761904827448384, 0.16267383337473681], abs=1e-8
    )
