import math

import numpy as np
import pytest

from physics_checks import (
    build_matrix,
    check_transform,
    expected_eigenvalues,
    fibre_eigenvalues,
    oracle_trajectory,
    per_node_oracle_check,
)
from zbsim import reference
from zbsim._record import replace
from zbsim.dynamics import _line_tables, trajectory
from zbsim.errors import OracleMismatchError
from zbsim.landau import energies
from zbsim.packet import GaussianPacket, Numerics, decompose, gauss_hermite, oscillator_overlaps
from zbsim.params import Dimensionality, SimParams, make_params
from zbsim.runner import load_preset, parse_config, preset_text
from zbsim.reference import (
    ALPHA_X,
    ALPHA_Z,
    BETA,
    I_ALPHA_Y,
    _block_plan,
    _components,
    _fibre_terms,
    _pair_plan,
    _solve_blocks,
    _line_distance,
    lowering_matrix,
    oracle_check,
)

TWO_PLUS_ONE = Dimensionality.TWO_PLUS_ONE
THREE_PLUS_ONE = Dimensionality.THREE_PLUS_ONE
B_ONE = SimParams(1.0)
FIG1_PARAMS = make_params(2e9)  # the fig1 preset's field


def _scattered_solve(kz, h0, hz):
    """The shared block solve of h0 + kz hz scattered back to the full index
    space: ascending eigenvalues and their eigenvector columns."""
    plan = _block_plan(kz, h0, hz)
    sizes, idx = plan[:2]
    vals, vecs = (x[0] for x in _solve_blocks(plan, np.array([kz])))
    full_vals, full_vecs = np.empty(h0.shape[0]), np.zeros(h0.shape)
    for blk, s in sizes:
        i = idx[blk, :s]
        full_vals[i] = vals[blk, :s]
        full_vecs[i[:, :, None], i[:, None, :]] = vecs[blk, :s, :s]
    ascending = np.argsort(full_vals, kind="stable")
    return full_vals[ascending], full_vecs[:, ascending]


def test_matrix_is_hermitian_and_minimal_case():
    matrix = build_matrix(0.0, 0, B_ONE)
    assert matrix.shape == (4, 4)
    assert np.max(np.abs(matrix - matrix.conj().T)) < 1e-14
    vals = np.sort(fibre_eigenvalues(0.0, 0, B_ONE))
    assert vals == pytest.approx([-1.0, -1.0, 1.0, 1.0], abs=1e-14)


def test_matrix_is_real_symmetric():
    matrix = build_matrix(0.7, 12, B_ONE)
    assert matrix.dtype == np.float64
    assert np.array_equal(matrix, matrix.T)


def test_smallest_positive_eigenvalue_is_rest_energy():
    for n_trunc in (1, 5, 40):
        vals = fibre_eigenvalues(0.0, n_trunc, B_ONE)
        assert np.min(vals[vals > 0]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("b", [0.1, 1.0, 2.0])
@pytest.mark.parametrize("kz", [0.0, 0.5])
def test_spectrum_matches_closed_form(b, kz):
    params = SimParams(b)
    matrix = build_matrix(kz, 40, params)
    computed = fibre_eigenvalues(kz, 40, params)
    expected = expected_eigenvalues(kz, 40, params)
    assert computed.shape == expected.shape
    # all levels, including the accounted-for truncation remnant at +-E_0
    assert np.max(np.abs(computed - expected) / np.abs(expected)) < 1e-10
    # the block solve against a dense one, and as an eigensystem
    vals, vecs = _scattered_solve(kz, *_fibre_terms(40, params))
    assert np.array_equal(vals, computed)  # ascending
    assert np.max(np.abs(vals - np.linalg.eigvalsh(matrix))) < 1e-13
    assert np.max(np.abs(vals - expected)) < 1e-13
    assert np.max(np.abs(vecs.T @ vecs - np.eye(matrix.shape[0]))) < 1e-13
    assert np.max(np.abs(matrix @ vecs - vecs * vals)) < 1e-13


def test_eigenvalues_pair_up():
    vals = np.sort(fibre_eigenvalues(0.7, 24, B_ONE))
    assert vals == pytest.approx(-vals[::-1], abs=1e-11)


def test_single_eigenstate_shows_no_ladder_motion():
    vals, vecs = np.linalg.eigh(build_matrix(0.0, 16, B_ONE))
    # a positive-energy eigenstate in the interior of the spectrum
    idx = int(np.argmin(np.abs(vals - energies(2, 0.0, B_ONE))))
    state = vecs[:, idx]
    a_full = np.kron(np.eye(4), lowering_matrix(16))
    t = np.linspace(0.0, 10.0, 21)
    ct = vecs @ (np.exp(-1j * np.outer(vals, t)) * (vecs.T @ state)[:, None])
    a_t = np.einsum("it,ij,jt->t", ct.conj(), a_full, ct)
    assert np.max(np.abs(a_t)) < 1e-12


def _hermite_kz_rule(packet, numerics):
    """The full, unfolded Gauss-Hermite kz rule of the packet's |g_z|^2."""
    assert numerics.kz_rule == "hermite"
    u, w = gauss_hermite(numerics.kz_nodes)
    return u / packet.d_z, w / math.sqrt(math.pi)


def _literal_oracle(packet, params, dec, n_trunc, t):
    """Positions from a literal loop: per kz node of the full, unfolded rule
    a dense solve that shares no code with the oracle's block solve, each kx
    fibre evolved separately, and <A+> taken from its own operator, not as
    conj <A>."""
    ell = params.magnetic_length
    phi = oscillator_overlaps(packet, params, dec.kx_nodes, n_trunc)
    a_full = np.kron(np.eye(4), lowering_matrix(n_trunc))
    a_t, adag_t = np.zeros(t.size, dtype=complex), np.zeros(t.size, dtype=complex)
    rule = _hermite_kz_rule(packet, dec.numerics) if dec.mode is THREE_PLUS_ONE else ([0.0], [1.0])
    for kz, w_kz in zip(*rule):
        vals, vecs = np.linalg.eigh(build_matrix(float(kz), n_trunc, params))
        for i, w in enumerate(dec.kx_weights):
            c0 = np.zeros(vals.size, dtype=complex)
            c0[n_trunc + 1 : 2 * (n_trunc + 1)] = phi[:, i]
            ct = vecs @ (np.exp(-1j * np.outer(vals, t)) * (vecs.T @ c0)[:, None])
            a_t += w_kz * w * np.sum(ct.conj() * (a_full @ ct), axis=0)
            adag_t += w_kz * w * np.sum(ct.conj() * (a_full.T @ ct), axis=0)
    x = ell * (a_t - adag_t) / (1j * math.sqrt(2.0))
    y = ell * (a_t + adag_t) / math.sqrt(2.0)
    assert max(np.max(np.abs(x.imag)), np.max(np.abs(y.imag))) < 1e-12 * ell
    return x.real, y.real


def test_oracle_equals_explicit_fibre_evolution():
    params = B_ONE
    ell = params.magnetic_length
    packet = GaussianPacket(d_x=0.9 * ell, d_y=ell, k0x=math.sqrt(2.0) / ell)
    dec = decompose(packet, params, TWO_PLUS_ONE)
    n_trunc = dec.n_max + 12
    t = np.linspace(0.0, 8.0, 33)
    fast = oracle_trajectory(dec, t, n_trunc)
    x, y = _literal_oracle(packet, params, dec, n_trunc, t)
    assert np.max(np.abs(x - fast.x)) < 1e-10
    assert np.max(np.abs(y - fast.y)) < 1e-10


def _odd_hermite_3plus1():
    """An odd Hermite kz rule: 4- and 2-blocks at kz != 0, 2- and 1-blocks at
    kz = 0.  The packet, the field and the decomposition."""
    params = SimParams(1.0)
    ell = params.magnetic_length
    packet = GaussianPacket(d_x=0.9 * ell, d_y=ell, d_z=ell, k0x=math.sqrt(2.0) / ell)
    num = Numerics(kz_nodes=5, kz_rule="hermite")
    return packet, params, decompose(packet, params, THREE_PLUS_ONE, num)


def _check_oracle_3plus1():
    packet, params, dec = _odd_hermite_3plus1()
    ell = params.magnetic_length
    # the 5-node rule folds onto its 3 distinct |kz|: kz = 0 at its own
    # weight, the others at twice theirs, the weight sum unchanged
    kz, w = _hermite_kz_rule(packet, dec.numerics)
    assert kz.size == 5 and dec.kz_nodes.size == 3
    assert np.array_equal(dec.kz_nodes, kz[2:]) and dec.kz_nodes[0] == 0.0
    assert dec.kz_weights[0] == w[2] and np.array_equal(dec.kz_weights[1:], 2.0 * w[3:])
    assert math.fsum(dec.kz_weights) == math.fsum(w)
    n_trunc = dec.n_max + 12
    t = np.linspace(0.0, 8.0, 33)
    fast = oracle_trajectory(dec, t, n_trunc)
    x, y = _literal_oracle(packet, params, dec, n_trunc, t)
    assert np.max(np.abs(x - fast.x)) < 1e-10 * ell
    assert np.max(np.abs(y - fast.y)) < 1e-10 * ell
    assert np.max(np.abs(x)) > 0.1 * ell  # the packet moves


def test_oracle_equals_explicit_fibre_evolution_3plus1():
    _check_oracle_3plus1()


def _bound_and_sampled(dec, t):
    """The oracle check over t and the sampled max |analytic - oracle| / L."""
    check = oracle_check(dec, float(t[-1]))
    analytic, oracle = trajectory(dec, t), oracle_trajectory(dec, t)
    sampled = float(np.max(np.abs([analytic.x - oracle.x, analytic.y - oracle.y])))
    return check, sampled / dec.params.magnetic_length


@pytest.mark.parametrize("name", ["small", "fig2a", "odd-hermite-3+1"])
def test_line_table_bound_covers_the_sampled_deviation(name):
    if name == "small":  # test_cli's SMALL_CONFIG
        ell = B_ONE.magnetic_length
        packet = GaussianPacket(d_x=0.9 * ell, d_y=ell, k0x=math.sqrt(2.0) / ell)
        dec = decompose(packet, B_ONE, TWO_PLUS_ONE)
        t = np.linspace(0.0, 30.0, 512)
    elif name == "fig2a":
        config = load_preset("fig2a")
        dec = decompose(config.packet, config.params, config.mode, config.numerics)
        t = config.time_grid()
    else:
        dec = _odd_hermite_3plus1()[2]
        t = np.linspace(0.0, 8.0, 33)
    check, sampled = _bound_and_sampled(dec, t)
    assert 0.0 < sampled <= check.bound <= 1e-6
    assert check.bound == pytest.approx(math.fsum(check.matched + check.truncated), rel=1e-12)
    assert check.n_trunc == dec.n_max + 12
    assert (check.mirror_dev is None) == (dec.mode is TWO_PLUS_ONE)
    assert check.mirror_dev is None or check.mirror_dev <= 1e-12


def _preset_decomposition(name, *replacements):
    """The decomposition of a preset, its text changed by (old, new) pairs,
    and its t_max."""
    text = preset_text(name)
    for old, new in replacements:
        assert old in text
        text = text.replace(old, new)
    config = parse_config(text, name)
    return decompose(config.packet, config.params, config.mode, config.numerics), config.time.t_max


@pytest.mark.parametrize("name, replacements", [
    ("fig2a", ()),
    # perfbench's fig1-oracle workload: 24 folded kz nodes and the mirror
    # pair, in several chunks of one block plan
    ("fig1", [("kz_nodes = 320", "kz_nodes = 48")]),
    # an odd rule: the kz = 0 node on its own plan, then chunks of the other
    ("fig1", [("kz_rule = legendre", "kz_rule = hermite"), ("kz_nodes = 320", "kz_nodes = 61")]),
])
def test_batched_check_equals_the_per_node_check(name, replacements):
    dec, t_max = _preset_decomposition(name, *replacements)
    check, per_node = oracle_check(dec, t_max), per_node_oracle_check(dec, t_max)
    for key in ("bound", "matched", "truncated", "mirror_dev"):
        assert getattr(check, key) == pytest.approx(per_node[key], rel=1e-12, abs=0.0), key
    assert (check.worst, check.n_trunc) == (per_node["worst"], per_node["n_trunc"])
    assert check.mirror_dev is None or check.mirror_dev <= 1e-12
    # the eigenvalues.csv table: the kz = 0 spectrum of the same block solve
    assert np.array_equal(check.eigenvalues, fibre_eigenvalues(0.0, check.n_trunc, dec.params))


def test_weak_field_lines_that_round_alike_are_matched_by_level():
    # at b = 1e-4 neighbouring intraband lines E_{n+1} - E_n round to the same
    # double; each oracle line still joins its own level's line, and the
    # check passes
    params = SimParams(1e-4)
    ell = params.magnetic_length
    packet = GaussianPacket(d_x=0.9 * ell, d_y=ell, k0x=math.sqrt(2.0) / ell)
    dec = decompose(packet, params, TWO_PLUS_ONE)
    _, band, _, freqs, _, _ = _line_tables(dec)
    freqs = freqs[band == 0]
    assert len(set(freqs.tolist())) < freqs.size
    t = np.linspace(0.0, 5 * 2.0 * math.pi / freqs[0], 512)
    check, sampled = _bound_and_sampled(dec, t)
    assert sampled <= check.bound <= 1e-6


def _lines(freqs, cos_coef, sin_coef, n=None, node=0, band=0):
    """(node, band, n, freqs, cos, sin) lines of one node and band, at the
    levels n (0, 1, ... if None)."""
    freqs = np.asarray(freqs, dtype=float)
    n = np.arange(freqs.size) if n is None else np.asarray(n)
    return (np.full(freqs.size, node), np.full(freqs.size, band), n, freqs,
            np.asarray(cos_coef, dtype=float), np.asarray(sin_coef, dtype=float))


def _distance(analytic, oracle, t_max):
    """_line_distance's matched and truncated terms: (values, freqs) each."""
    values, _, _, freqs, part = _line_distance(analytic, oracle, t_max, str)
    return [(values[part == k], freqs[part == k]) for k in (0, 1)]


def test_line_distance_terms_and_failures():
    one = np.ones(1)
    # analytic lines at 1 (level 0) and 2 (level 1); oracle lines at
    # 1 + 1e-12 and 1 (both level 0), and at 3 (level 2, which the analytic
    # table does not hold)
    analytic = _lines([1.0, 2.0], [0.5, 0.25], [0.1, 0.0])
    oracle = _lines([1.0 + 1e-12, 1.0, 3.0], [0.2, 0.3, 0.01], [0.1, -0.02, 0.0], n=[0, 0, 2])
    (matched, f_matched), (truncated, f_truncated) = _distance(analytic, oracle, 10.0)
    drift = 1e-12 * 10.0 * 0.3  # |df| t_max (|C| + |S|) of the shifted line
    assert matched == pytest.approx([0.02 + drift, 0.25], abs=1e-15)
    assert np.array_equal(f_matched, analytic[3])
    assert truncated.tolist() == [0.01] and f_truncated.tolist() == [3.0]
    # two analytic lines at one frequency but at levels 0 and 1: each joins
    # only its own level's oracle line, so swapped amplitudes do not cancel
    same = _lines([1.0, 1.0], [1.0, 0.5], np.zeros(2))
    (matched, f_matched), (truncated, _) = _distance(same, _lines([1.0, 1.0], [0.5, 1.0], np.zeros(2)), 10.0)
    assert matched.tolist() == [0.5, 0.5] and f_matched.tolist() == [1.0, 1.0] and truncated.size == 0
    with pytest.raises(OracleMismatchError, match="is nan: deviation nan"):
        _line_distance(_lines(one, one, one), _lines([np.nan], one, one), 1.0, str)


def test_line_distance_keeps_nodes_and_bands_apart():
    # the same lines at two nodes and in both bands: no line joins across a
    # node or a band, and each (node, band) gives the terms it gives alone
    analytic = _lines([1.0, 2.0], [0.5, 0.25], [0.1, 0.0])
    oracle = _lines([1.0 + 1e-12, 1.0, 3.0], [0.2, 0.3, 0.01], [0.1, -0.02, 0.0], n=[0, 0, 2])
    alone = _line_distance(analytic, oracle, 10.0, str)
    keys = [(0, 0), (0, 1), (1, 0), (1, 1)]
    both = [tuple(np.concatenate(x) for x in zip(*(_lines(*lines[3:], lines[2], node, band) for node, band in keys)))
            for lines in (analytic, oracle)]
    values, node, band, freqs, part = _line_distance(*both, 10.0, str)
    for n, b in keys:
        at = (node == n) & (band == b)
        for got, want in zip((values, freqs, part), (alone[0], alone[3], alone[4])):
            assert np.array_equal(got[at], want)
    # a NaN frequency is named at its node and band
    nan_oracle = _lines([np.nan], [1.0], [1.0], node=1, band=1)
    with pytest.raises(OracleMismatchError, match="interband lines at 1 is nan"):
        _line_distance(both[0], tuple(np.concatenate(x) for x in zip(both[1], nan_oracle)), 1.0, str)


@pytest.mark.parametrize("kz", [0.0, 0.3])
def test_block_levels_are_the_solved_levels_but_the_remnant(kz):
    # a block's level is its largest oscillator index; a plan in which every
    # block is paired with itself (the identity as the ladder) gives it per
    # block.  It is round((E^2 - 1 - kz^2) / b^2) of the energies the block
    # holds, except on the truncation remnant at +-E_0, whose block sits on
    # the top level n_trunc
    n_trunc, b = 20, B_ONE.field_ratio_b
    h0, hz = _fibre_terms(n_trunc, B_ONE)
    plan = _block_plan(kz, h0, hz)
    p, q, level, _ = _pair_plan(plan[1], (np.eye(h0.shape[0]),))
    assert np.array_equal(p, np.arange(plan[1].shape[0])) and np.array_equal(p, q)
    vals = _solve_blocks(plan, np.array([kz]))[0][0]
    remnant = []
    for blk, s in plan[0]:
        solved = np.rint((vals[blk, :s] ** 2 - 1.0 - kz**2) / b**2)
        assert np.all(solved == solved[:, :1])  # one level per block
        off = level[blk] != solved[:, 0]
        assert np.all(level[blk][off] == n_trunc) and np.all(solved[off] == 0.0)
        remnant += vals[blk, :s][off].ravel().tolist()
    assert sorted(remnant) == pytest.approx([-math.sqrt(1.0 + kz**2), math.sqrt(1.0 + kz**2)], rel=1e-14)


def test_oracle_keeps_a_stray_coupling(monkeypatch):
    # joining (component 1, level 3) to level 4 merges two blocks, so the
    # ladder also couples the merged block to itself; the oracle must follow
    # the matrix it is given, diagonal terms K_jj included once
    fibre_terms = reference._fibre_terms

    def stray(n_trunc, params):
        h0, hz = fibre_terms(n_trunc, params)
        i = n_trunc + 1 + 3
        h0[i, i + 1] = h0[i + 1, i] = 0.05
        return h0, hz

    monkeypatch.setattr(reference, "_fibre_terms", stray)
    _check_oracle_3plus1()


def test_pair_plan_keeps_every_coupling():
    rng = np.random.default_rng(5)
    matrix, _ = _hidden_blocks(rng, [1, 2, 3, 3, 5, 2, 4])
    lower = np.where(rng.random(matrix.shape) < 0.05, 1.0 + rng.random(matrix.shape), 0.0)
    ops = (lower, lower.T, np.zeros_like(lower))
    sizes, idx, h0_blk, _ = _block_plan(0.0, matrix, np.zeros_like(matrix))
    p, q, _, pair_ops = _pair_plan(idx, ops)
    assert np.all(p <= q) and len(set(zip(p.tolist(), q.tolist()))) == p.size
    # every entry of `lower` is on some pair, in one orientation or the other,
    # and every pair holds one
    assert set(pair_ops[:2].ravel().tolist()) == set(lower.ravel().tolist())
    assert np.all(np.any(pair_ops[:2] != 0.0, axis=(0, 2, 3)))
    vals = np.concatenate([np.linalg.eigvalsh(h0_blk[blk, :s, :s]).ravel() for blk, s in sizes])
    assert np.max(np.abs(np.sort(vals) - np.linalg.eigvalsh(matrix))) < 1e-12


@pytest.mark.parametrize("kz", [0.0, -0.0, 0.37, -0.37, 5e-324, 1e3])
def test_build_matrix_is_bitwise_the_dirac_sum(kz):
    b, n_trunc = FIG1_PARAMS.field_ratio_b, 45
    a, eye = lowering_matrix(n_trunc), np.eye(n_trunc + 1)
    dirac = (
        -(b / 2.0) * np.kron(ALPHA_X, a + a.T)
        + (b / 2.0) * np.kron(I_ALPHA_Y, a.T - a)
        + kz * np.kron(ALPHA_Z, eye)
        + np.kron(BETA, eye)
    )
    h0, hz = _fibre_terms(n_trunc, FIG1_PARAMS)
    matrix = build_matrix(kz, n_trunc, FIG1_PARAMS)
    for other in (h0 + kz * hz, matrix):  # signed zeros included
        assert np.array_equal(other.view(np.uint64), dirac.view(np.uint64))


def test_oracle_band_split_matches_analytic():
    params = B_ONE
    ell = params.magnetic_length
    packet = GaussianPacket(d_x=0.9 * ell, d_y=ell, k0x=math.sqrt(2.0) / ell)
    dec = decompose(packet, params, TWO_PLUS_ONE)
    t = np.linspace(0.0, 8.0, 33)
    analytic = trajectory(dec, t)
    oracle = oracle_trajectory(dec, t)
    for name in ("x_interband", "y_interband", "x_intraband", "y_intraband"):
        assert np.max(np.abs(getattr(analytic, name) - getattr(oracle, name))) < 1e-8 * ell, name


def test_truncation_doubling_changes_little():
    params = SimParams(2.05)
    ell = params.magnetic_length
    packet = GaussianPacket(d_x=0.9 * ell, d_y=ell, k0x=math.sqrt(2.0) / ell)
    dec = decompose(packet, params, TWO_PLUS_ONE)
    t = np.linspace(0.0, 15.0, 64)
    base = oracle_trajectory(dec, t, dec.n_max + 12)
    double = oracle_trajectory(dec, t, 2 * (dec.n_max + 12))
    assert np.max(np.abs(base.x - double.x)) < 1e-8 * ell
    assert np.max(np.abs(base.y - double.y)) < 1e-8 * ell


def test_transform_check():
    report = check_transform(B_ONE, n_trunc=20)
    assert report.unitarity_dev < 1e-14
    assert report.involution_dev < 1e-14
    assert report.block_form_dev < 1e-13
    assert report.spectrum_dev < 1e-10
    assert report.passed()


@pytest.mark.parametrize("b", [0.1, 1.0, 5.0])
@pytest.mark.parametrize("kz", [0.0, 0.7])
def test_transform_check_passes_across_fields(b, kz):
    report = check_transform(SimParams(b), n_trunc=40, kz=kz)
    assert report.block_form_dev < 1e-13 and report.passed()


def test_transform_report_fails_on_the_block_form():
    # P H P+ off the paper's off-diagonal form fails, whatever the spectrum
    report = replace(check_transform(B_ONE, n_trunc=20), block_form_dev=1.0)
    assert not report.passed()
    assert not replace(report, block_form_dev=float("nan")).passed()


def test_build_matrix_rejects_negative_truncation():
    with pytest.raises(ValueError):
        build_matrix(0.0, -1, B_ONE)
    # and one past MAX_N_TRUNC, whose fibre matrix would pass MAX_ARRAY
    with pytest.raises(ValueError, match=r"n_trunc must be in 0\.\.511, got 512"):
        build_matrix(0.0, 512, B_ONE)


@pytest.mark.parametrize("kz, blocks", [(0.37, {4: 45, 2: 2}), (0.0, {2: 90, 1: 4})])
def test_fig1_fibre_falls_into_small_blocks(kz, blocks):
    h0, hz = _fibre_terms(45, FIG1_PARAMS)  # fig1's oracle truncation, n_max + 12
    _, size = np.unique(_components(h0 + kz * hz), return_counts=True)
    assert dict(zip(*np.unique(size, return_counts=True))) == blocks
    # the plan holds the same blocks, by size ascending
    sizes = _block_plan(kz, h0, hz)[0]
    assert [(s, blk.stop - blk.start) for blk, s in sizes] == sorted(blocks.items())
    # each eigenvector is exactly zero off its block
    vecs = _scattered_solve(kz, h0, hz)[1]
    assert np.count_nonzero(vecs) <= sum(s * s * n for s, n in blocks.items())


def _hidden_blocks(rng, sizes):
    """A random symmetric matrix of the given diagonal blocks, rows and
    columns shuffled by one random permutation, and the block of each index."""
    dim = sum(sizes)
    matrix = np.zeros((dim, dim))
    block = np.repeat(np.arange(len(sizes)), sizes)
    for i in range(len(sizes)):
        idx = np.flatnonzero(block == i)
        m = rng.normal(size=(idx.size, idx.size))
        matrix[np.ix_(idx, idx)] = m + m.T
    perm = rng.permutation(dim)
    return matrix[np.ix_(perm, perm)], block[perm]


@pytest.mark.parametrize("couple", [False, True])
def test_block_solve_of_hidden_blocks_matches_dense_eigh(couple):
    rng = np.random.default_rng(2024)
    sizes = [1, 2, 3, 3, 5, 7, 4, 1]
    matrix, block = _hidden_blocks(rng, sizes)
    if couple:
        # one stray entry joins the 2- and 5-blocks; it must not be dropped
        i, j = np.flatnonzero(block == 1)[0], np.flatnonzero(block == 4)[-1]
        matrix[i, j] = matrix[j, i] = 0.3
        sizes = [1, 3, 3, 7, 7, 4, 1]
    vals, vecs = _scattered_solve(0.0, matrix, np.zeros_like(matrix))
    dense_vals, dense_vecs = np.linalg.eigh(matrix)
    assert np.min(np.diff(dense_vals)) > 1e-3  # so eigenvectors are unique up to sign
    assert np.max(np.abs(vals - dense_vals)) < 1e-13
    assert np.max(np.abs(np.abs(np.sum(vecs * dense_vecs, axis=0)) - 1.0)) < 1e-12
    assert np.max(np.abs(vecs.T @ vecs - np.eye(matrix.shape[0]))) < 1e-13
    assert np.max(np.abs(matrix @ vecs - vecs * vals)) < 1e-13
    assert np.count_nonzero(vecs) == sum(s * s for s in sizes)
