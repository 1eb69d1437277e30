"""Decomposition tests against independent brute-force quadrature oracles.

The oracle path evaluates the defining overlap integrals with
scipy.integrate.quad / dense trapezoids and explicit normalised Hermite
functions; expected values below were frozen from it and the oracle is kept
here so they can be regenerated.  The in-house Gauss rules are checked
against scipy.special's and against the exact moments they must integrate.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import roots_hermite, roots_legendre

import zbsim.packet
from zbsim._record import replace
from zbsim.errors import ConvergenceError
from zbsim.packet import (
    KX_NODES,
    MAX_ARRAY,
    MAX_NODES,
    GaussianPacket,
    Numerics,
    _kx_rule,
    _mean_level,
    check_finite_overlaps,
    decompose,
    gauss_hermite,
    gauss_legendre,
    momentum_profile_x,
    oscillator_overlaps,
    overlap_levels,
    u_overlap,
)
from zbsim.params import Dimensionality, SimParams
from zbsim.runner import load_preset

TWO_PLUS_ONE, THREE_PLUS_ONE = Dimensionality.TWO_PLUS_ONE, Dimensionality.THREE_PLUS_ONE
B_ONE = SimParams(1.0)

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


def _phi_oracle(packet, n, kx, params):
    """Phi_n(kx), the y-profile overlap with oscillator level n, by quad."""
    ell = params.magnetic_length

    def integrand(y):
        xi = y / ell - kx * ell
        prof = (math.pi * packet.d_y**2) ** -0.25 * math.exp(-(y * y) / (2 * packet.d_y**2))
        return prof * _psi(n, xi) / math.sqrt(ell)

    val, _ = quad(integrand, -60, 60, limit=400, epsabs=1e-14, epsrel=1e-13)
    return val


def _f_coeff_oracle(packet, n, kx, params):
    return float(momentum_profile_x(packet, kx)) * _phi_oracle(packet, n, kx, params)


def _f_coeffs(packet, n_top, kx):
    """F_n(kx) at b = 1 for n = 0..n_top: the closed-form overlaps times the x profile."""
    phi = oscillator_overlaps(packet, B_ONE, np.array([float(kx)]), n_top)[:, 0]
    return float(momentum_profile_x(packet, kx)) * phi


def test_f_coeff_against_frozen_oracle_values():
    f = _f_coeffs(TRAP_PACKET, len(F_AT_KICK) - 1, 1.0)
    for n, expected in enumerate(F_AT_KICK):
        assert _f_coeff_oracle(TRAP_PACKET, n, 1.0, B_ONE) == pytest.approx(expected, abs=1e-12)
        assert f[n] == pytest.approx(expected, abs=1e-12)


# d_y / L away from 1, where the recurrence's gamma term is non-zero: a
# narrow profile, fig1's 1.346 and a wide one
@pytest.mark.parametrize("width", [0.5, 1.3462588529362678, 2.0])
def test_overlaps_match_quad_oracle_off_the_magnetic_length(width):
    ell = B_ONE.magnetic_length
    packet = GaussianPacket(d_x=ell, d_y=width * ell)
    kx = np.array([0.0, 0.7, -1.5, 3.0]) / ell
    phi = oscillator_overlaps(packet, B_ONE, kx, 12)
    for i, k in enumerate(kx):
        for n in range(13):
            assert phi[n, i] == pytest.approx(_phi_oracle(packet, n, k, B_ONE), abs=1e-12), (n, k)


def test_f_coeff_closed_form_displaced_ground_state():
    # d_y = L: F_n(kx) = xg(kx) e^{-c^2/4} (-c/sqrt2)^n / sqrt(n!) with c = kx L
    for kx in (0.0, 0.5, 1.0, 2.5):
        c = kx * B_ONE.magnetic_length
        xg = float(momentum_profile_x(TRAP_PACKET, kx))
        f = _f_coeffs(TRAP_PACKET, 9, kx)
        for n in range(10):
            expected = xg * math.exp(-c * c / 4.0) * (-c / math.sqrt(2.0)) ** n
            expected /= math.sqrt(math.factorial(n))
            assert f[n] == pytest.approx(expected, abs=1e-13)


def test_ground_state_packet_is_orthogonal_to_excited_levels():
    packet = GaussianPacket(d_x=1.0, d_y=B_ONE.magnetic_length, k0x=0.0)
    f = _f_coeffs(packet, 8, 0.0)
    assert f[0] > 0.5
    for n in range(1, 9):
        assert abs(f[n]) < 1e-13


def test_u_band_against_frozen_2d_oracle():
    dec = decompose(TRAP_PACKET, B_ONE, TWO_PLUS_ONE)
    for n, expected in enumerate(U_BAND):
        assert dec.u_band[n] == pytest.approx(expected, abs=1e-9)
        assert u_overlap(dec, n, n + 1) == pytest.approx(expected, abs=1e-9)


def test_u_completeness_and_symmetry():
    decs = [decompose(packet, B_ONE, TWO_PLUS_ONE) for packet in (
        TRAP_PACKET,
        GaussianPacket(d_x=0.6, d_y=2.3, k0x=0.8),
        GaussianPacket(d_x=2.0, d_y=0.7, k0x=0.0),
    )]
    for dec in decs:
        assert float(np.sum(dec.u_diag)) == pytest.approx(1.0, abs=1e-8)
        assert u_overlap(dec, 2, 5) == pytest.approx(u_overlap(dec, 5, 2), abs=0.0)
    # the second packet needs levels 0..97, past the 0..95 that the default
    # 96-node rule integrates exactly, so it runs again on 192 nodes
    assert (decs[1].n_max, decs[1].kx_nodes.size) == (97, 192)


def test_parseval_at_every_stage():
    packet = TRAP_PACKET
    dec = decompose(packet, B_ONE, TWO_PLUS_ONE)
    # position-space norm is 1 by construction; momentum-space x norm:
    kx = np.linspace(-14, 16, 40001)
    norm_kx = np.trapezoid(np.abs(momentum_profile_x(packet, kx)) ** 2, kx)
    assert norm_kx == pytest.approx(1.0, abs=1e-10)
    # sum_n int |F_n|^2 dkx equals the diagonal sum
    assert float(np.sum(dec.u_diag)) + dec.tail_mass == pytest.approx(1.0, abs=1e-12)
    assert float(np.sum(dec.u_diag)) == pytest.approx(1.0, abs=1e-8)


def test_truncation_behaviour():
    dec = decompose(TRAP_PACKET, B_ONE, TWO_PLUS_ONE)
    with pytest.raises(IndexError, match=f"U_\\(0,{dec.n_max + 1}\\) beyond the truncation n_max={dec.n_max}"):
        u_overlap(dec, 0, dec.n_max + 1)
    # tighter tail tolerance cannot lower the chosen truncation
    dec_tight = decompose(TRAP_PACKET, B_ONE, TWO_PLUS_ONE, Numerics(tail_tol=1e-13))
    assert dec_tight.n_max >= dec.n_max
    assert dec_tight.tail_mass <= dec.tail_mass
    with pytest.raises(ConvergenceError):
        decompose(TRAP_PACKET, B_ONE, TWO_PLUS_ONE, Numerics(n_max_cap=4))


# a narrow x profile (L/d_x = 3) with a raised cap: the tail mass converges
# at level 106, and the overlaps on 2048 kx nodes overflow at level 489
NARROW_PACKET = GaussianPacket(d_x=0.33 * math.sqrt(2.0), d_y=math.sqrt(2.0))
RAISED_CAP = Numerics(n_max_cap=512)


def test_overlap_overflow_above_truncation_is_unused(monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        monkeypatch.setattr(zbsim.packet, "KX_NODES", 2048)  # the kx rule's first node count
        dec = decompose(NARROW_PACKET, B_ONE, TWO_PLUS_ONE, RAISED_CAP)
        assert dec.n_max == 106 and dec.kx_nodes.size == 2048
        assert np.all(np.isfinite(dec.phi)) and np.all(np.isfinite(dec.u_band))
        # a floor that forces the truncation past the overflow names it, on
        # the first rule and on the doubled rule of a rerun: 512 nodes hold
        # levels up to 511, and 1024 nodes overflow at level 871
        with pytest.raises(ConvergenceError, match=r"overflowed at level 489 on 2048 kx nodes"):
            decompose(NARROW_PACKET, B_ONE, TWO_PLUS_ONE, replace(RAISED_CAP, n_max_floor=500))
        monkeypatch.setattr(zbsim.packet, "KX_NODES", 512)
        rerun = Numerics(n_max_cap=1023, n_max_floor=1000)
        with pytest.raises(ConvergenceError, match=r"overflowed at level 871 on 1024 kx nodes"):
            decompose(NARROW_PACKET, B_ONE, TWO_PLUS_ONE, rerun)
        far = np.array([200.0 / math.sqrt(2.0)])
        phi = oscillator_overlaps(NARROW_PACKET, B_ONE, far, 300)
        with pytest.raises(ConvergenceError, match="overflowed at level 268 on 1 kx nodes") as raised:
            check_finite_overlaps(phi, far, NARROW_PACKET, B_ONE)
    # the packet's levels lie far below the overflow: a forced truncation reached it
    assert "(d_x = 0.33 L, d_y = 1 L, k0x = 0 / L) has its mean level at 2.3, below it" in str(raised.value)


@pytest.mark.parametrize("b, d_x, d_y, kick", [
    (1.0, 0.9, 1.0, math.sqrt(2.0)), (1.0, 0.33, 1.0, 0.0), (2.05, 1.6, 0.6, -1.8), (0.3, 3.0, 2.0, 4.0),
])
def test_mean_level_is_the_sum_of_n_u_nn(b, d_x, d_y, kick):
    # the closed form that the overflow message quotes, against the drawn levels
    params = SimParams(b)
    ell = params.magnetic_length
    packet = GaussianPacket(d_x=d_x * ell, d_y=d_y * ell, k0x=kick / ell)
    dec = decompose(packet, params, TWO_PLUS_ONE, Numerics(tail_tol=1e-14))
    drawn = np.arange(dec.n_max + 1) @ dec.u_diag
    assert drawn == pytest.approx(_mean_level(packet, ell), rel=1e-10)


# Gauss-Hermite y nodes of the test-side overlap table: the integrand is a
# Gaussian times a polynomial of degree n, so 136 nodes integrate every
# level up to 2 x 136 - 1 exactly
Y_NODES = 136


def _overlap_table(packet, params, kx, n_top, y_nodes=Y_NODES):
    """All levels 0..n_top at once, by quadrature: the Hermite recurrence on a
    (y_nodes x kx) Gauss-Hermite grid in the completed-square variable."""
    ell = params.magnetic_length
    a = ell * ell / (2.0 * packet.d_y**2)
    s = math.sqrt(2.0 / (2.0 * a + 1.0))
    c = kx * ell
    xi_star = -2.0 * a * c / (2.0 * a + 1.0)
    q_star = a * (xi_star + c) ** 2 + 0.5 * xi_star**2
    pref = math.sqrt(ell) * (math.pi * packet.d_y**2) ** -0.25 * s
    u, w = gauss_hermite(y_nodes)
    xi = xi_star[None, :] + s * u[:, None]
    sums = np.empty((n_top + 1, kx.size))
    t_prev = np.zeros(xi.shape)
    t_cur = np.broadcast_to((w / math.pi**0.25)[:, None], xi.shape).copy()
    sums[0] = t_cur.sum(axis=0)
    for n in range(n_top):
        t_next = math.sqrt(2.0 / (n + 1)) * xi * t_cur - math.sqrt(n / (n + 1.0)) * t_prev
        sums[n + 1] = t_next.sum(axis=0)
        t_prev, t_cur = t_cur, t_next
    return pref * np.exp(-q_star)[None, :] * sums


def _preset_grids(name):
    """Packet, field and the preset's kx rule (nodes and weights) at the
    first node count and at twice it."""
    config = load_preset(name)
    params, packet = config.params, config.packet
    grids = [_kx_rule(packet, params, n) for n in (KX_NODES, 2 * KX_NODES)]
    return config, params, packet, grids


@pytest.mark.parametrize("name", ["fig1", "fig2a"])
def test_overlap_levels_match_the_full_table(name):
    _, params, packet, grids = _preset_grids(name)
    for kx, _ in grids:
        table = _overlap_table(packet, params, kx, 256)
        levels = overlap_levels(packet, params, kx)
        assert np.all(np.isfinite(table))
        rows = np.array([next(levels) for _ in range(257)])
        assert np.max(np.abs(rows - table)) <= 1e-13
        assert np.array_equal(oscillator_overlaps(packet, params, kx, 256), rows)


def _counting_levels(monkeypatch):
    """Rows drawn from each overlap_levels generator decompose creates."""
    counts = []

    def counted(*args):
        counts.append(0)
        for row in overlap_levels(*args):
            counts[-1] += 1
            yield row

    monkeypatch.setattr(zbsim.packet, "overlap_levels", counted)
    return counts


@pytest.mark.parametrize("name", ["fig1", "fig2a", "fig2b", "fig2c"])
def test_decompose_draws_only_the_kept_levels(name, monkeypatch):
    config, params, packet, grids = _preset_grids(name)
    counts = _counting_levels(monkeypatch)
    dec = decompose(packet, params, config.mode, config.numerics)
    assert counts == [dec.n_max + 1]
    # the diagonal and the tail are those of the full n_max_cap table
    kx, weights = grids[0]
    assert np.array_equal(dec.kx_nodes, kx) and np.array_equal(dec.kx_weights, weights)
    cap = config.numerics.n_max_cap
    diag = np.array([row @ weights for row in oscillator_overlaps(packet, params, kx, cap) ** 2])
    cum = np.cumsum(diag)
    assert dec.n_max == np.flatnonzero(1.0 - cum < config.numerics.tail_tol)[0]
    assert np.array_equal(dec.u_diag, diag[: dec.n_max + 1])
    assert dec.tail_mass == 1.0 - cum[dec.n_max]
    # a floor above the natural truncation draws floor + 1 levels
    counts.clear()
    floor = dec.n_max + 7
    raised = decompose(packet, params, config.mode, replace(config.numerics, n_max_floor=floor))
    assert raised.n_max == floor and raised.phi.shape[0] == floor + 1
    assert counts == [floor + 1]
    assert np.array_equal(raised.u_diag, diag[: floor + 1])
    assert np.array_equal(raised.phi[: dec.n_max + 1], dec.phi)
    # a floor at the node count draws every level the rule holds, then runs
    # again on twice the nodes
    counts.clear()
    nodes = KX_NODES
    doubled = decompose(packet, params, config.mode, replace(config.numerics, n_max_floor=nodes))
    assert counts == [nodes, nodes + 1]
    assert doubled.n_max == nodes and np.array_equal(doubled.kx_nodes, grids[1][0])
    # reaching the cap draws every level up to it once
    counts.clear()
    with pytest.raises(ConvergenceError, match="at the cap n_max_cap=4"):
        decompose(packet, params, config.mode, replace(config.numerics, n_max_cap=4))
    assert counts == [5]


def test_node_counts_and_caps_are_bounded():
    # the largest values the tests and the acceptance criteria use, and the
    # largest cap whose overlap array on the first kx rule fits MAX_ARRAY
    largest_cap = MAX_ARRAY // KX_NODES - 1
    Numerics(n_max_cap=512)
    Numerics(kz_rule="legendre", kz_nodes=2048)
    Numerics(kz_nodes=MAX_NODES)
    Numerics(n_max_cap=largest_cap)
    for kwargs, key in (
        ({"kz_nodes": MAX_NODES + 1}, "kz_nodes"),
        ({"n_max_cap": 100000}, "n_max_cap"),
        ({"n_max_cap": largest_cap + 1}, f"n_max_cap = {largest_cap + 1} needs a {largest_cap + 2} x 96 "),
    ):
        with pytest.raises(ValueError, match=key):
            Numerics(**kwargs)
    # the kx rule's node count is not a setting
    with pytest.raises(TypeError, match="unexpected argument 'kx_nodes'"):
        Numerics(kx_nodes=KX_NODES)


def test_rerun_past_the_node_bounds_is_a_convergence_error():
    # 96 nodes doubled four times hold levels up to 1535; the floor needs
    # 1536, and the 2049 x 3072 overlap array of the rerun is above MAX_ARRAY
    num = Numerics(n_max_cap=2048, n_max_floor=1536)
    with pytest.raises(ConvergenceError, match=r"levels past 1535 \(tail mass .*, n_max_floor 1536\) need "
                       r"more than 1536 kx nodes, and 3072 pass the 4194304-element "
                       r"bound of a 2049 x 3072 overlap array"):
        decompose(TRAP_PACKET, B_ONE, TWO_PLUS_ONE, num)


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=0.4, max_value=2.5),
    st.floats(min_value=0.4, max_value=2.5),
    st.floats(min_value=0.0, max_value=1.5),
    st.floats(min_value=0.3, max_value=3.0),
)
def test_quadrature_doubling_is_converged(d_x, d_y, k0x, b):
    # the rule of n_max + 1 nodes is exact for every U_mn it is used for, so
    # a rule of 2 n_max + 3 nodes changes them only by roundoff
    params = SimParams(b)
    ell = params.magnetic_length
    packet = GaussianPacket(d_x=d_x * ell, d_y=d_y * ell, k0x=k0x / ell)
    n_max = decompose(packet, params, TWO_PLUS_ONE).n_max
    u = []
    for nodes in (n_max + 1, 2 * n_max + 3):
        kx, w = _kx_rule(packet, params, nodes)
        phi = oscillator_overlaps(packet, params, kx, n_max)
        u.append((phi * w) @ phi.T)
    assert np.max(np.abs(u[0] - u[1])) <= 1e-14


def test_packet_validation():
    with pytest.raises(ValueError):
        GaussianPacket(d_x=0.0, d_y=1.0)
    with pytest.raises(ValueError):
        GaussianPacket(d_x=1.0, d_y=-1.0)
    with pytest.raises(ValueError):
        GaussianPacket(d_x=1.0, d_y=1.0, d_z=0.0)


@pytest.mark.parametrize(
    ("options", "key", "kwargs"),
    [
        (GaussianPacket, "d_x", {"d_x": math.nan, "d_y": 1.0}),
        (GaussianPacket, "d_y", {"d_x": 1.0, "d_y": math.inf}),
        (GaussianPacket, "d_z", {"d_x": 1.0, "d_y": 1.0, "d_z": math.nan}),
        (Numerics, "tail_tol", {"tail_tol": math.nan}),
        (Numerics, "kz_cutoff_sigmas", {"kz_cutoff_sigmas": math.inf}),
    ],
    ids=["d_x-nan", "d_y-inf", "d_z-nan", "tail_tol-nan", "kz_cutoff_sigmas-inf"],
)
def test_non_finite_fields_rejected(options, key, kwargs):
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        options(**kwargs)


def test_three_plus_one_needs_dz():
    p31 = SimParams(1.0)
    with pytest.raises(ValueError):
        decompose(GaussianPacket(d_x=1.0, d_y=1.0), p31, THREE_PLUS_ONE)
    dec = decompose(GaussianPacket(d_x=1.0, d_y=1.0, d_z=1.5), p31, THREE_PLUS_ONE)
    assert dec.kz_nodes.size > 1
    assert float(np.sum(dec.kz_weights)) == pytest.approx(1.0, abs=1e-12)


def test_decompose_takes_the_mode_explicitly():
    packet = GaussianPacket(d_x=1.0, d_y=1.0, d_z=1.5)
    assert decompose(packet, B_ONE, "3+1").mode is THREE_PLUS_ONE
    with pytest.raises(ValueError):
        decompose(packet, B_ONE, "4+1")
    with pytest.raises(TypeError):
        decompose(packet, B_ONE)


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=0.4, max_value=2.5),
    st.floats(min_value=0.4, max_value=2.5),
    st.floats(min_value=0.0, max_value=1.5),
    st.floats(min_value=0.3, max_value=3.0),
)
def test_completeness_property(d_x, d_y, k0x, b):
    params = SimParams(b)
    packet = GaussianPacket(d_x=d_x * params.magnetic_length,
                            d_y=d_y * params.magnetic_length,
                            k0x=k0x / params.magnetic_length)
    dec = decompose(packet, params, TWO_PLUS_ONE)
    assert float(np.sum(dec.u_diag)) == pytest.approx(1.0, abs=1e-8)


# preset counts (kx 96/192, kz 160/320), the test-side overlap table's 136
# y nodes and the largest a test reaches (a 512-node first kx rule, doubled),
# plus 2048 where weights underflow
RULE_COUNTS = (1, 2, 3, 24, 96, 136, 160, 272, 320, 1024, 2048)


@pytest.mark.parametrize(
    ("rule", "reference", "moment"),
    [
        (gauss_legendre, roots_legendre, lambda k: 2.0 / (2 * k + 1)),
        (gauss_hermite, roots_hermite, lambda k: math.gamma(k + 0.5)),
    ],
    ids=["legendre", "hermite"],
)
def test_gauss_rules_match_scipy_and_are_exact(rule, reference, moment):
    for n in RULE_COUNTS:
        x, w = rule(n)
        x_ref, w_ref = reference(n)
        assert x.shape == w.shape == (n,)
        assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
        assert np.array_equal(x, -x[::-1]) and np.all(np.diff(x) > 0.0)
        assert np.all(np.abs(x - x_ref) <= 1e-13 * np.maximum(1.0, np.abs(x_ref))), n
        # scipy's own endpoint Legendre weight at 2048 is off by 1.4e-7
        big = w_ref >= 1e-280
        assert np.all(np.abs(w[big] - w_ref[big]) <= 1e-6 * w_ref[big]), n
        # exact for polynomials of degree <= 2n - 1
        for k in range(min(8, n)):
            total = math.fsum(w * x ** (2 * k))
            assert abs(total - moment(k)) <= 1e-13 * moment(k), (n, k)


def test_gauss_rules_reject_empty_rules():
    for rule in (gauss_legendre, gauss_hermite):
        with pytest.raises(ValueError, match="at least one node"):
            rule(0)
