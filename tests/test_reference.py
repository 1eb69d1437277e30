import math

import numpy as np
import pytest

from zbsim.dynamics import trajectory
from zbsim.landau import energy
from zbsim.packet import GaussianPacket, decompose, oscillator_overlaps
from zbsim.params import Dimensionality, make_params_dimensionless
from zbsim.reference import (
    build_matrix,
    check_transform,
    evolve,
    lowering_matrix,
    oracle_trajectory,
)

B_ONE = make_params_dimensionless(1.0, Dimensionality.TWO_PLUS_ONE)


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


def test_oracle_equals_explicit_fibre_evolution():
    params = B_ONE
    ell = params.magnetic_length
    packet = GaussianPacket(d_x=0.9 * ell, d_y=ell, k0x=math.sqrt(2.0) / ell)
    dec = decompose(packet, params)
    n_trunc = dec.n_max + 12
    t = np.linspace(0.0, 8.0, 33)
    fast = oracle_trajectory(packet, params, t, decomp=dec, n_trunc=n_trunc)

    # literal loop: evolve each kx fibre separately and accumulate
    ham = build_matrix(0.0, n_trunc, params)
    phi = oscillator_overlaps(packet, params, dec.kx_nodes, n_trunc, 64)
    a_full = np.kron(np.eye(4), lowering_matrix(n_trunc))
    a_t = np.zeros(t.size, dtype=complex)
    for i, w in enumerate(dec.kx_weights):
        c0 = np.zeros(ham.dimension, dtype=complex)
        c0[n_trunc + 1 : 2 * (n_trunc + 1)] = phi[:, i]
        weight = np.linalg.norm(c0) ** 2
        if weight == 0.0:
            continue
        ct = evolve(ham, c0 / np.sqrt(weight), t)
        a_t += w * weight * np.einsum("it,ij,jt->t", ct.conj(), a_full, ct)
    x = (ell * (a_t - a_t.conj()) / (1j * math.sqrt(2.0))).real
    y = (ell * (a_t + a_t.conj()) / math.sqrt(2.0)).real
    assert np.max(np.abs(x - fast.x)) < 1e-10
    assert np.max(np.abs(y - fast.y)) < 1e-10


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
