import math

import numpy as np
import pytest

from zbsim import reference
from zbsim.dynamics import trajectory
from zbsim.landau import energy
from zbsim.packet import GaussianPacket, Numerics, decompose, oscillator_overlaps
from zbsim.params import Dimensionality, make_params, make_params_dimensionless
from zbsim.reference import (
    ALPHA_X,
    ALPHA_Z,
    BETA,
    I_ALPHA_Y,
    _block_eigh,
    _components,
    _fibre_terms,
    _pair_plan,
    build_matrix,
    check_transform,
    evolve,
    lowering_matrix,
    oracle_trajectory,
)

B_ONE = make_params_dimensionless(1.0, Dimensionality.TWO_PLUS_ONE)
FIG1_PARAMS = make_params(2e9)  # the fig1 preset's field


def test_matrix_is_hermitian_and_minimal_case():
    ham = build_matrix(0.0, 0, B_ONE)
    assert ham.dimension == 4
    assert np.max(np.abs(ham.matrix - ham.matrix.conj().T)) < 1e-14
    vals = np.sort(ham.eigenvalues())
    assert vals == pytest.approx([-1.0, -1.0, 1.0, 1.0], abs=1e-14)


def test_matrix_is_real_symmetric():
    matrix = build_matrix(0.7, 12, B_ONE).matrix
    assert matrix.dtype == np.float64
    assert np.array_equal(matrix, matrix.T)


def test_smallest_positive_eigenvalue_is_rest_energy():
    for n_trunc in (1, 5, 40):
        ham = build_matrix(0.0, n_trunc, B_ONE)
        vals = ham.eigenvalues()
        assert np.min(vals[vals > 0]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("b", [0.1, 1.0, 2.0])
@pytest.mark.parametrize("kz", [0.0, 0.5])
def test_spectrum_matches_closed_form(b, kz):
    params = make_params_dimensionless(b)
    ham = build_matrix(kz, 40, params)
    computed = np.sort(ham.eigenvalues())
    expected = ham.expected_eigenvalues()
    assert computed.shape == expected.shape
    # all levels, including the accounted-for truncation remnant at +-E_0
    assert np.max(np.abs(computed - expected) / np.abs(expected)) < 1e-10
    # the block solve against a dense one, and as an eigensystem
    vals, vecs = ham.eigensystem()
    assert np.array_equal(vals, computed)
    assert np.max(np.abs(vals - np.linalg.eigvalsh(ham.matrix))) < 1e-13
    assert np.max(np.abs(vals - expected)) < 1e-13
    assert np.max(np.abs(vecs.T @ vecs - np.eye(ham.dimension))) < 1e-13
    assert np.max(np.abs(ham.matrix @ vecs - vecs * vals)) < 1e-13


def test_eigenvalues_pair_up():
    ham = build_matrix(0.7, 24, B_ONE)
    vals = np.sort(ham.eigenvalues())
    assert vals == pytest.approx(-vals[::-1], abs=1e-11)


def test_evolve_identity_phase_and_norm():
    ham = build_matrix(0.2, 12, B_ONE)
    rng = np.random.default_rng(7)
    c0 = rng.normal(size=ham.dimension) + 1j * rng.normal(size=ham.dimension)
    c0 /= np.linalg.norm(c0)

    assert evolve(ham, c0, 0.0) == pytest.approx(c0, abs=1e-13)

    t = np.linspace(0.0, 12.0, 25)
    ct = evolve(ham, c0, t)
    norms = np.linalg.norm(ct, axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-12

    # eigenstate picks up only a phase
    vals, vecs = ham.eigensystem()
    state = vecs[:, 3]
    out = evolve(ham, state, 2.5)
    phase = np.exp(-1j * vals[3] * 2.5)
    assert out == pytest.approx(phase * state, abs=1e-12)


def test_evolve_half_step_composition():
    ham = build_matrix(0.0, 10, B_ONE)
    rng = np.random.default_rng(11)
    c0 = rng.normal(size=ham.dimension) + 1j * rng.normal(size=ham.dimension)
    c0 /= np.linalg.norm(c0)
    half = evolve(ham, c0, 3.0)
    half = evolve(ham, half / np.linalg.norm(half), 3.0)
    full = evolve(ham, c0, 6.0)
    assert half == pytest.approx(full, abs=1e-12)


def test_evolve_rejects_unnormalised_input():
    ham = build_matrix(0.0, 4, B_ONE)
    with pytest.raises(ValueError):
        evolve(ham, np.ones(ham.dimension), 1.0)


def test_single_eigenstate_shows_no_ladder_motion():
    ham = build_matrix(0.0, 16, B_ONE)
    vals, vecs = ham.eigensystem()
    # a positive-energy eigenstate in the interior of the spectrum
    idx = int(np.argmin(np.abs(vals - energy(2, 0.0, B_ONE))))
    state = vecs[:, idx]
    a_full = np.kron(np.eye(4), lowering_matrix(16))
    t = np.linspace(0.0, 10.0, 21)
    ct = evolve(ham, state, t)
    a_t = np.einsum("it,ij,jt->t", ct.conj(), a_full, ct)
    assert np.max(np.abs(a_t)) < 1e-12


def _literal_oracle(packet, params, dec, n_trunc, t):
    """Positions from a literal loop: per kz node a dense solve that shares
    no code with the oracle's block solve, each kx fibre evolved separately,
    and <A+> taken from its own operator, not as conj <A>."""
    ell = params.magnetic_length
    phi = oscillator_overlaps(packet, params, dec.kx_nodes, n_trunc, 64)
    a_full = np.kron(np.eye(4), lowering_matrix(n_trunc))
    a_t, adag_t = np.zeros(t.size, dtype=complex), np.zeros(t.size, dtype=complex)
    for kz, w_kz in zip(dec.kz_nodes, dec.kz_weights):
        ham = build_matrix(float(kz), n_trunc, params)
        vals, vecs = np.linalg.eigh(ham.matrix)
        for i, w in enumerate(dec.kx_weights):
            c0 = np.zeros(ham.dimension, dtype=complex)
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
    dec = decompose(packet, params)
    n_trunc = dec.n_max + 12
    t = np.linspace(0.0, 8.0, 33)
    fast = oracle_trajectory(packet, params, t, decomp=dec, n_trunc=n_trunc)
    x, y = _literal_oracle(packet, params, dec, n_trunc, t)
    assert np.max(np.abs(x - fast.x)) < 1e-10
    assert np.max(np.abs(y - fast.y)) < 1e-10


def _check_oracle_3plus1():
    # an odd Hermite kz rule: 4- and 2-blocks at kz != 0, 2- and 1-blocks at kz = 0
    params = make_params_dimensionless(1.0, Dimensionality.THREE_PLUS_ONE)
    ell = params.magnetic_length
    packet = GaussianPacket(d_x=0.9 * ell, d_y=ell, d_z=ell, k0x=math.sqrt(2.0) / ell)
    dec = decompose(packet, params, Numerics(kx_nodes=32, kz_nodes=5, kz_rule="hermite"))
    assert dec.kz_nodes.size == 5 and 0.0 in dec.kz_nodes.tolist()
    n_trunc = dec.n_max + 12
    t = np.linspace(0.0, 8.0, 33)
    fast = oracle_trajectory(packet, params, t, decomp=dec, n_trunc=n_trunc)
    x, y = _literal_oracle(packet, params, dec, n_trunc, t)
    assert np.max(np.abs(x - fast.x)) < 1e-10 * ell
    assert np.max(np.abs(y - fast.y)) < 1e-10 * ell
    assert np.max(np.abs(x)) > 0.1 * ell  # the packet moves


def test_oracle_equals_explicit_fibre_evolution_3plus1():
    _check_oracle_3plus1()


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
    sizes, h0_blk, _, p, q, pair_ops = _pair_plan(matrix, matrix, np.zeros_like(matrix), ops)
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
        + FIG1_PARAMS.mass_energy * np.kron(BETA, eye)
    )
    h0, hz = _fibre_terms(n_trunc, FIG1_PARAMS)
    matrix = build_matrix(kz, n_trunc, FIG1_PARAMS).matrix
    for other in (h0 + kz * hz, matrix):  # signed zeros included
        assert np.array_equal(other.view(np.uint64), dirac.view(np.uint64))


def test_oracle_band_split_matches_analytic():
    params = B_ONE
    ell = params.magnetic_length
    packet = GaussianPacket(d_x=0.9 * ell, d_y=ell, k0x=math.sqrt(2.0) / ell)
    dec = decompose(packet, params)
    t = np.linspace(0.0, 8.0, 33)
    analytic = trajectory(packet, params, t, decomp=dec)
    oracle = oracle_trajectory(packet, params, t, decomp=dec)
    for name in ("x_interband", "y_interband", "x_intraband", "y_intraband"):
        assert np.max(np.abs(getattr(analytic, name) - getattr(oracle, name))) < 1e-8 * ell, name


def test_truncation_doubling_changes_little():
    params = make_params_dimensionless(2.05, Dimensionality.TWO_PLUS_ONE)
    ell = params.magnetic_length
    packet = GaussianPacket(d_x=0.9 * ell, d_y=ell, k0x=math.sqrt(2.0) / ell)
    dec = decompose(packet, params)
    t = np.linspace(0.0, 15.0, 64)
    base = oracle_trajectory(packet, params, t, decomp=dec, n_trunc=dec.n_max + 12)
    double = oracle_trajectory(packet, params, t, decomp=dec, n_trunc=2 * (dec.n_max + 12))
    assert np.max(np.abs(base.x - double.x)) < 1e-8 * ell
    assert np.max(np.abs(base.y - double.y)) < 1e-8 * ell


def test_transform_check():
    report = check_transform(B_ONE, n_trunc=20)
    assert report.unitarity_dev < 1e-14
    assert report.involution_dev < 1e-14
    assert report.block_form_dev < 1e-13
    assert report.spectrum_dev < 1e-10
    assert report.passed()


def test_build_matrix_rejects_negative_truncation():
    with pytest.raises(ValueError):
        build_matrix(0.0, -1, B_ONE)


@pytest.mark.parametrize("kz, blocks", [(0.37, {4: 45, 2: 2}), (0.0, {2: 90, 1: 4})])
def test_fig1_fibre_falls_into_small_blocks(kz, blocks):
    ham = build_matrix(kz, 45, FIG1_PARAMS)  # fig1's oracle truncation, n_max + 12
    _, size = np.unique(_components(ham.matrix), return_counts=True)
    assert dict(zip(*np.unique(size, return_counts=True))) == blocks
    # each eigenvector is exactly zero off its block
    assert np.count_nonzero(ham.eigensystem()[1]) <= sum(s * s * n for s, n in blocks.items())


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
    vals, vecs = _block_eigh(matrix)
    dense_vals, dense_vecs = np.linalg.eigh(matrix)
    assert np.min(np.diff(dense_vals)) > 1e-3  # so eigenvectors are unique up to sign
    assert np.max(np.abs(vals - dense_vals)) < 1e-13
    assert np.max(np.abs(np.abs(np.sum(vecs * dense_vecs, axis=0)) - 1.0)) < 1e-12
    assert np.max(np.abs(vecs.T @ vecs - np.eye(matrix.shape[0]))) < 1e-13
    assert np.max(np.abs(matrix @ vecs - vecs * vals)) < 1e-13
    assert np.count_nonzero(vecs) == sum(s * s for s in sizes)
