"""Brute-force reference path: truncated-matrix evolution of the packet.

The Hamiltonian is assembled directly from the explicit 4x4 Dirac matrices
in a fixed-kx fibre, where the transverse kinetic terms reduce to ladder
operators of the oscillator coordinate xi = y/L - kx L:

    H = -(b/2) alpha_x (a + a+) + (b/2) alpha_y i(a+ - a) + kz alpha_z + beta

in natural units (hbar*omega = b, mc^2 = c = 1).  i alpha_y is real, so the
matrix is real symmetric and is assembled, solved and collapsed in real
arithmetic.  It is independent of kx; kx enters only through the packet
coefficients, so one eigensystem per kz node serves every kx quadrature
fibre.  The matrix falls apart into small connected blocks (4 x 4 at
kz != 0, 2 x 2 at kz = 0), read off its nonzero pattern into a block plan;
one solve, _solve_blocks, diagonalises every block of a plan (one batched
symmetric eigh per block size), so eigenvectors are exactly zero off their
block.  The oracle and fibre_eigenvalues (the eigenvalues.csv table and the
transform check) both go through it.

The oracle evolves the weighted kx ensemble at once.  With the packet's
level overlaps phi_f (spinor component 1) and fibre weights w_f, a kz node
adds <A(t)> = sum_jk A_jk S_jk e^{i (E_j - E_k) t} over its real eigenpairs,
A_jk = v_j . (1 x a) v_k, S_jk = v_j . G v_k, G = sum_f w_f phi_f phi_f^T;
the eigenvectors are real, so <A+(t)> = conj <A(t)>.  Each node's lines
take the per-band line form of zbsim.dynamics and go through its band_sums.
The check's independent part is the assembled matrix and its solve.

Truncating the ladder at level N leaves, besides the exact eigenstates with
n <= N, a two-dimensional remnant on the top oscillator level whose
eigenvalues coincide with +-E_0(kz); expected_eigenvalues accounts for it.
The oracle's default truncation is the decomposition level n_max + 12.

Basis ordering: index = component*(N+1) + n with spinor components 0..3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, _banded_trajectory, band_sums
from .errors import ConfigError
from .landau import energies
from .packet import (
    MAX_ARRAY,
    GaussianPacket,
    Numerics,
    PacketDecomposition,
    check_finite_overlaps,
    decompose,
    oscillator_overlaps,
)
from .params import Dimensionality, SimParams

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
I_SIGMA_Y = np.array([[0.0, 1.0], [-1.0, 0.0]])  # i sigma_y
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_ZERO2 = np.zeros((2, 2))
_EYE2 = np.eye(2)

ALPHA_X = np.block([[_ZERO2, SIGMA_X], [SIGMA_X, _ZERO2]])
I_ALPHA_Y = np.block([[_ZERO2, I_SIGMA_Y], [I_SIGMA_Y, _ZERO2]])  # i alpha_y
ALPHA_Z = np.block([[_ZERO2, SIGMA_Z], [SIGMA_Z, _ZERO2]])
BETA = np.block([[_EYE2, _ZERO2], [_ZERO2, -_EYE2]])

# Line amplitudes at or below this fraction of a kz node's largest entry
# are roundoff and are not evaluated.
_LINE_CUTOFF = 1e-15

# the largest truncation whose 4(n_trunc + 1)-square fibre matrix fits MAX_ARRAY
MAX_N_TRUNC = math.isqrt(MAX_ARRAY) // 4 - 1


def lowering_matrix(n_trunc: int) -> np.ndarray:
    """Truncated ladder operator with <n-1|a|n> = sqrt(n)."""
    a = np.zeros((n_trunc + 1, n_trunc + 1))
    idx = np.arange(1, n_trunc + 1)
    a[idx - 1, idx] = np.sqrt(idx)
    return a


def expected_eigenvalues(kz: float, n_trunc: int, params: SimParams) -> np.ndarray:
    """Closed-form spectrum of the fibre matrix at kz on levels 0..n_trunc, ascending.

    +-E_n appears once for n = 0 and twice for n >= 1 (two spin states),
    plus the +-E_0 truncation-remnant pair.
    """
    n = np.arange(n_trunc + 1)
    e = energies(n, kz, params)
    vals = np.concatenate([np.repeat(e, np.where(n == 0, 1, 2)), e[:1]])  # remnant at +-E_0
    return np.sort(np.concatenate([vals, -vals]))


def _components(matrix: np.ndarray) -> np.ndarray:
    """Per index, the smallest index joined to it by a path of nonzero
    entries: min-label propagation with pointer jumping."""
    pattern = matrix != 0
    rows, cols = np.nonzero(pattern | pattern.T)
    label = np.arange(matrix.shape[0])
    while True:
        new = label.copy()
        np.minimum.at(new, rows, label[cols])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _blocks(matrix: np.ndarray) -> list[np.ndarray]:
    """The connected components of the nonzero pattern of a symmetric
    matrix, one (blocks, size) index array per block size, ascending."""
    label = _components(matrix)
    order = np.argsort(label, kind="stable")
    _, first, size = np.unique(label[order], return_index=True, return_counts=True)
    # np.unique(size) would import numpy.ma
    return [order[first[size == s][:, None] + np.arange(s)] for s in sorted(set(size.tolist()))]


def _fibre_terms(n_trunc: int, params: SimParams) -> tuple[np.ndarray, np.ndarray]:
    """(h0, hz): the fibre Hamiltonian on levels 0..n_trunc is h0 + kz hz (any kx)."""
    if not 0 <= n_trunc <= MAX_N_TRUNC:
        raise ValueError(f"n_trunc must be in 0..{MAX_N_TRUNC}, got {n_trunc}")
    b = params.field_ratio_b
    a = lowering_matrix(n_trunc)
    eye = np.eye(n_trunc + 1)
    h0 = (
        -(b / 2.0) * np.kron(ALPHA_X, a + a.T)
        + (b / 2.0) * np.kron(I_ALPHA_Y, a.T - a)
        + params.mass_energy * np.kron(BETA, eye)
    )
    hz = np.kron(ALPHA_Z, eye)
    if not (np.array_equal(h0, h0.T) and np.array_equal(hz, hz.T)):
        raise AssertionError("assembled Hamiltonian not symmetric")
    return h0, hz


def build_matrix(kz: float, n_trunc: int, params: SimParams) -> np.ndarray:
    """The real symmetric fibre Hamiltonian at kz on levels 0..n_trunc (any kx)."""
    h0, hz = _fibre_terms(n_trunc, params)
    # alpha_z is nonzero only where the other terms vanish: the four-term sum bit for bit
    return h0 + kz * hz


def _block_plan(kz: float, h0: np.ndarray, hz: np.ndarray):
    """(sizes, idx, h0 blocks, hz blocks) for the connected blocks of h0 + kz hz.

    idx holds each block's indices, padded to the widest by repeating its
    last index; sizes holds (slice of blocks, size) per block size, ascending.
    """
    # the nonzero pattern of h0 + kz hz is that of h0 or of h0 + hz
    blocks = _blocks(h0 if kz == 0.0 else h0 + hz)
    width = blocks[-1].shape[1]
    idx = np.concatenate([i[:, np.minimum(np.arange(width), i.shape[1] - 1)] for i in blocks])
    ends = np.cumsum([i.shape[0] for i in blocks]).tolist()
    sizes = [(slice(end - i.shape[0], end), i.shape[1]) for i, end in zip(blocks, ends)]
    rows, cols = idx[:, :, None], idx[:, None, :]
    return sizes, idx, h0[rows, cols], hz[rows, cols]


def _solve_blocks(plan, kz: float) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of h0 + kz hz on each block of a _block_plan,
    one batched eigh per block size; zero on the padding."""
    sizes, _, h0_blk, hz_blk = plan
    vals, vecs = np.zeros(h0_blk.shape[:2]), np.zeros(h0_blk.shape)
    for blk, s in sizes:
        block = h0_blk[blk, :s, :s] + kz * hz_blk[blk, :s, :s]
        vals[blk, :s], vecs[blk, :s, :s] = np.linalg.eigh(block)
    return vals, vecs


def fibre_eigenvalues(kz: float, n_trunc: int, params: SimParams) -> np.ndarray:
    """Ascending eigenvalues of the fibre matrix at kz on levels 0..n_trunc,
    solved block by block as the oracle solves it."""
    h0, hz = _fibre_terms(n_trunc, params)
    plan = _block_plan(kz, h0, hz)
    vals, _ = _solve_blocks(plan, kz)
    vals = np.concatenate([vals[blk, :s].ravel() for blk, s in plan[0]])
    # a stable argsort, as in _blocks: np.sort pages in more numpy code (up to 0.2 MB of RSS)
    return vals[np.argsort(vals, kind="stable")]


def _pair_plan(idx: np.ndarray, ops: tuple):
    """(p, q, ops on the block pairs p <= q that ops[0] or its transpose
    joins) for the padded block indices idx of a _block_plan."""
    label = np.empty(ops[0].shape[0], dtype=int)
    label[idx] = np.arange(idx.shape[0])[:, None]
    coupled = np.zeros((idx.shape[0], idx.shape[0]), dtype=bool)
    rows, cols = np.nonzero(ops[0])
    coupled[label[rows], label[cols]] = True
    p, q = np.nonzero(np.triu(coupled | coupled.T))
    rows, cols = idx[:, :, None], idx[:, None, :]
    return p, q, np.stack([op[rows[p], cols[q]] for op in ops])


def oracle_trajectory(
    packet: GaussianPacket,
    params: SimParams,
    t_grid: np.ndarray,
    mode: Dimensionality | None = None,
    numerics: Numerics | None = None,
    n_trunc: int | None = None,
    decomp: PacketDecomposition | None = None,
) -> Trajectory:
    """Trajectory from truncated-matrix evolution, bin-compatible with the
    analytic engine (same time grid, same position units, same band split).

    Per kz node, A_jk, A_kj and S_jk (module docstring) come from small
    products on the block pairs the ladder couples; each unordered eigenpair
    pair is one line, intraband when both energies have the same sign.
    """
    t = np.asarray(t_grid, dtype=float)
    run_mode = mode if mode is not None else params.dimensionality
    if decomp is None:
        decomp = decompose(packet, params, numerics, run_mode)
    trunc = n_trunc if n_trunc is not None else decomp.n_max + 12
    if n_trunc is None and trunc > MAX_N_TRUNC:  # an explicit n_trunc: _fibre_terms checks it
        raise ConfigError(
            f"[oracle] the reference matrices need the truncation n_max + 12 = "
            f"{trunc}, above {MAX_N_TRUNC}; run without the oracle check"
        )
    phi = oscillator_overlaps(packet, params, decomp.kx_nodes, trunc, max(48, trunc // 2 + 8))
    check_finite_overlaps(phi, decomp.kx_nodes, packet, params)

    h0, hz = _fibre_terms(trunc, params)
    lower = np.kron(np.eye(4), lowering_matrix(trunc))
    gram = np.kron(np.diag([0.0, 1.0, 0.0, 0.0]), (phi * decomp.kx_weights) @ phi.T)
    ops = (lower, lower.T, gram)  # 1 x a, its transpose, G on spinor component 1
    plans = {}  # one block plan at kz = 0 and one for every other kz
    bands = np.zeros((2, t.size), dtype=complex)  # intraband, interband <A>
    for kz, w_kz in zip(decomp.kz_nodes.tolist(), decomp.kz_weights.tolist()):
        if (kz == 0.0) not in plans:
            plan = _block_plan(kz, h0, hz)
            plans[kz == 0.0] = plan, _pair_plan(plan[1], ops)
        plan, (p, q, pair_ops) = plans[kz == 0.0]
        vals, vecs = _solve_blocks(plan, kz)
        a_jk, a_kj, s_jk = np.swapaxes(vecs[p], 1, 2) @ pair_ops @ vecs[q]
        k_jk, k_kj = a_jk * s_jk, a_kj * s_jk
        mag = np.maximum(np.abs(k_jk), np.abs(k_kj))
        once = (p != q)[:, None, None] | np.triu(np.ones(mag.shape[1:], dtype=bool))
        keep = once & (mag > _LINE_CUTOFF * mag.max(initial=0.0))
        # K_jk e^{iwt} + K_kj e^{-iwt} = (K_jk + K_kj) cos wt + i (K_jk - K_kj) sin wt
        # for w = E_j - E_k; the diagonal j = k is the one term K_jj
        diag = ((p == q)[:, None, None] & np.eye(mag.shape[1], dtype=bool))[keep]
        e_j, e_k = vals[p][:, :, None], vals[q][:, None, :]
        amps, mirror = w_kz * k_jk[keep], w_kz * k_kj[keep]
        cos_coef = np.where(diag, amps, amps + mirror)
        freqs, sin_coef = (e_j - e_k)[keep], amps - mirror
        intra = ((e_j > 0.0) == (e_k > 0.0))[keep]
        bands += band_sums(t, ((freqs[sel], cos_coef[sel], sin_coef[sel]) for sel in (intra, ~intra)))

    return _banded_trajectory(t, bands, run_mode, {
        "engine": "matrix-reference", "n_trunc": trunc, "magnetic_length": params.magnetic_length,
    })


@dataclass(frozen=True)
class TransformReport:
    """Deviations measured by the unitary-equivalence check."""

    unitarity_dev: float
    involution_dev: float
    block_form_dev: float
    spectrum_dev: float
    n_trunc: int

    def passed(self, tol_unitary: float = 1e-14, tol_spectrum: float = 1e-10) -> bool:
        """Whether P is unitary and delta an involution within tol_unitary, and
        P H P+ has the off-diagonal form and spectrum within tol_spectrum."""
        return (
            self.unitarity_dev <= tol_unitary
            and self.involution_dev <= tol_unitary
            and self.block_form_dev <= tol_spectrum
            and self.spectrum_dev <= tol_spectrum
        )


def check_transform(params: SimParams, n_trunc: int = 20, kz: float = 0.0) -> TransformReport:
    """Verify the off-diagonalising unitary and the transformed block form.

    With delta = alpha_x alpha_y alpha_z beta and P = delta(delta + beta)/sqrt(2):
    P is unitary, delta^2 = 1, and P H P+ equals the purely off-diagonal
    Hamiltonian whose upper block is

        [[kz - i, -b a], [-b a+, -kz - i]]

    (natural units, fibre momentum term absorbed at kx = 0).  The spectrum is
    compared eigenvalue by eigenvalue.
    """
    alpha_y = -1j * I_ALPHA_Y
    delta = ALPHA_X @ alpha_y @ ALPHA_Z @ BETA
    p = delta @ (delta + BETA) / math.sqrt(2.0)
    unitarity = float(np.max(np.abs(p @ p.conj().T - np.eye(4))))
    involution = float(np.max(np.abs(delta @ delta - np.eye(4))))

    dim_osc = n_trunc + 1
    p_full = np.kron(p, np.eye(dim_osc))
    transformed = p_full @ build_matrix(kz, n_trunc, params) @ p_full.conj().T

    b = params.field_ratio_b
    m = params.mass_energy
    a = lowering_matrix(n_trunc)
    eye = np.eye(dim_osc)
    upper = np.block([[(kz - 1j * m) * eye, -b * a], [-b * a.T, (-kz - 1j * m) * eye]])
    zero = np.zeros_like(upper)
    h_prime = np.block([[zero, upper], [upper.conj().T, zero]])

    block_dev = float(np.max(np.abs(transformed - h_prime)))
    solved = fibre_eigenvalues(kz, n_trunc, params)
    spectrum_dev = float(np.max(np.abs(np.linalg.eigvalsh(h_prime) - solved)))
    return TransformReport(
        unitarity_dev=unitarity,
        involution_dev=involution,
        block_form_dev=block_dev,
        spectrum_dev=spectrum_dev,
        n_trunc=n_trunc,
    )
