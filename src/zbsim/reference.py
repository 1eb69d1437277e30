"""Brute-force reference path: truncated-matrix evolution of the packet.

The Hamiltonian is assembled directly from the explicit 4x4 Dirac matrices
in a fixed-kx fibre, where the transverse kinetic terms reduce to ladder
operators of the oscillator coordinate xi = y/L - kx L:

    H = -(b/2) alpha_x (a + a+) + (b/2) alpha_y i(a+ - a) + kz alpha_z + beta

in natural units (hbar*omega = b, mc^2 = c = 1).  i alpha_y is real, so the
matrix is real symmetric and is assembled, solved and collapsed in real
arithmetic.  It is independent of kx; kx enters only through the packet
coefficients, so one dense symmetric solve per kz node serves every kx
quadrature fibre.

Truncating the ladder at level N leaves, besides the exact eigenstates with
n <= N, a two-dimensional remnant on the top oscillator level whose
eigenvalues coincide with +-E_0(kz); the expected-spectrum helper accounts
for it.

Basis ordering: index = component*(N+1) + n with spinor components 0..3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import Trajectory, _banded_trajectory, line_sum
from .packet import (
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


def lowering_matrix(n_trunc: int) -> np.ndarray:
    """Truncated ladder operator with <n-1|a|n> = sqrt(n)."""
    a = np.zeros((n_trunc + 1, n_trunc + 1))
    idx = np.arange(1, n_trunc + 1)
    a[idx - 1, idx] = np.sqrt(idx)
    return a


@dataclass
class TruncatedHamiltonian:
    """Dense real symmetric Dirac Hamiltonian on the truncated oscillator basis."""

    matrix: np.ndarray
    n_trunc: int
    kz: float
    params: SimParams
    _eig: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached (eigenvalues, real eigenvectors) from a dense symmetric solve."""
        if self._eig is None:
            self._eig = np.linalg.eigh(self.matrix)
        return self._eig

    def eigenvalues(self) -> np.ndarray:
        return self.eigensystem()[0]

    def expected_eigenvalues(self) -> np.ndarray:
        """Closed-form spectrum of the truncated matrix, sorted ascending.

        +-E_n appears once for n = 0 and twice for n >= 1 (two spin states),
        plus the +-E_0 truncation-remnant pair.
        """
        n = np.arange(self.n_trunc + 1)
        e = np.sqrt(self.params.mass_energy**2 + n * self.params.omega**2 + self.kz**2)
        mult = np.where(n == 0, 1, 2)
        vals = np.repeat(e, mult)
        vals = np.concatenate([vals, [e[0]]])  # remnant pair at +-E_0
        return np.sort(np.concatenate([vals, -vals]))


def build_matrix(kz: float, n_trunc: int, params: SimParams) -> TruncatedHamiltonian:
    """Assemble the real symmetric fibre Hamiltonian at kz on levels 0..n_trunc (any kx)."""
    if n_trunc < 0:
        raise ValueError("n_trunc must be non-negative")
    b = params.field_ratio_b
    a = lowering_matrix(n_trunc)
    eye = np.eye(n_trunc + 1)
    h = (
        -(b / 2.0) * np.kron(ALPHA_X, a + a.T)
        + (b / 2.0) * np.kron(I_ALPHA_Y, a.T - a)
        + kz * np.kron(ALPHA_Z, eye)
        + params.mass_energy * np.kron(BETA, eye)
    )
    if not np.array_equal(h, h.T):
        raise AssertionError("assembled Hamiltonian not symmetric")
    return TruncatedHamiltonian(matrix=h, n_trunc=n_trunc, kz=kz, params=params)


def evolve(ham: TruncatedHamiltonian, initial_coeffs: np.ndarray, t) -> np.ndarray:
    """Evolve a normalised coefficient vector: c(t) = V e^{-i E t} V+ c(0).

    Returns shape (dim,) for scalar t, (dim, nt) for an array.  Norm is
    preserved to machine precision; a non-normalised input is rejected.
    """
    c0 = np.asarray(initial_coeffs, dtype=complex)
    if c0.shape != (ham.dimension,):
        raise ValueError(f"coefficient vector must have shape ({ham.dimension},)")
    norm = float(np.linalg.norm(c0))
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"initial coefficients must be normalised, |c| = {norm}")
    vals, vecs = ham.eigensystem()
    proj = vecs.T @ c0
    scalar = np.isscalar(t) or np.asarray(t).ndim == 0
    tarr = np.atleast_1d(np.asarray(t, dtype=float))
    phases = np.exp(-1j * np.outer(vals, tarr)) * proj[:, None]
    out = vecs @ phases
    return out[:, 0] if scalar else out


def _ladder_lines(ham: TruncatedHamiltonian, phi: np.ndarray, weights: np.ndarray):
    """Collapse the weighted fibre ensemble into eigenbasis line amplitudes.

    phi holds the packet's overlaps with levels 0..N per kx fibre; the packet
    lives in spinor component 1 (0-based), so its projections on the real
    eigenvectors are those rows of the eigenvector matrix times phi.
    Returns (vals, K_lower, K_raise, pos_mask) with the real weighted ladder
    expectations

        <A(t)>  = sum_jk K_lower_jk e^{i (E_j - E_k) t},
        <A+(t)> = sum_jk K_raise_jk e^{i (E_j - E_k) t},

    and pos_mask selecting positive-energy eigenvectors for the band split.
    The raising expectation is evolved from its own operator matrix rather
    than transposed, so the reality of the positions is a genuine check.
    This regroups the per-fibre evolution algebraically; every fibre shares
    the kx-independent Hamiltonian.
    """
    vals, vecs = ham.eigensystem()
    n = ham.n_trunc + 1
    a_eig = vecs.T @ np.kron(np.eye(4), lowering_matrix(ham.n_trunc)) @ vecs
    proj = vecs[n : 2 * n].T @ phi  # (dim, n_fib)
    s = (proj * weights[None, :]) @ proj.T  # S_jk = sum_f w_f p_jf p_kf
    return vals, a_eig * s, a_eig.T * s, vals > 0.0


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
    analytic engine (same time grid, same position units, same band split)."""
    t = np.asarray(t_grid, dtype=float)
    run_mode = mode if mode is not None else params.dimensionality
    if decomp is None:
        decomp = decompose(packet, params, numerics, run_mode)
    trunc = n_trunc if n_trunc is not None else decomp.n_max + 12
    phi = oscillator_overlaps(packet, params, decomp.kx_nodes, trunc, max(48, trunc // 2 + 8))
    check_finite_overlaps(phi, decomp.kx_nodes, packet, params)

    # intraband then interband; columns: lowering and raising expectation
    bands = np.zeros((2, t.size, 2), dtype=complex)
    for kz, w_kz in zip(decomp.kz_nodes, decomp.kz_weights):
        ham = build_matrix(float(kz), trunc, params)
        vals, k_low, k_high, pos = _ladder_lines(ham, phi, decomp.kx_weights)
        mag = np.maximum(np.abs(k_low), np.abs(k_high))
        mag = np.maximum(mag, mag.T)
        j, k = np.nonzero(np.triu(mag > _LINE_CUTOFF * mag.max()))
        # the mirror entries (j, k) and (k, j) share the line w = E_j - E_k:
        # K_jk e^{iwt} + K_kj e^{-iwt} = (K_jk + K_kj) cos wt + i (K_jk - K_kj) sin wt
        amps = w_kz * np.stack([k_low[j, k], k_high[j, k]], axis=1)
        mirror = w_kz * np.stack([k_low[k, j], k_high[k, j]], axis=1)
        cos_coef = np.where((j == k)[:, None], amps, amps + mirror)
        sin_coef = 1j * (amps - mirror)
        intra = pos[j] == pos[k]
        for band, sel in zip(bands, (intra, ~intra)):
            band += line_sum(t, vals[j[sel]] - vals[k[sel]], cos_coef[sel], sin_coef[sel])

    return _banded_trajectory(
        t, tuple(bands[0].T), tuple(bands[1].T), run_mode,
        {"engine": "matrix-reference", "n_trunc": trunc, "magnetic_length": params.magnetic_length},
    )


@dataclass(frozen=True)
class TransformReport:
    """Deviations measured by the unitary-equivalence check."""

    unitarity_dev: float
    involution_dev: float
    block_form_dev: float
    spectrum_dev: float
    n_trunc: int

    def passed(self, tol_unitary: float = 1e-14, tol_spectrum: float = 1e-10) -> bool:
        return (
            self.unitarity_dev <= tol_unitary
            and self.involution_dev <= tol_unitary
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

    ham = build_matrix(kz, n_trunc, params)
    dim_osc = n_trunc + 1
    p_full = np.kron(p, np.eye(dim_osc))
    transformed = p_full @ ham.matrix @ p_full.conj().T

    b = params.field_ratio_b
    m = params.mass_energy
    a = lowering_matrix(n_trunc)
    eye = np.eye(dim_osc)
    upper = np.block([[(kz - 1j * m) * eye, -b * a], [-b * a.T, (-kz - 1j * m) * eye]])
    zero = np.zeros_like(upper)
    h_prime = np.block([[zero, upper], [upper.conj().T, zero]])

    block_dev = float(np.max(np.abs(transformed - h_prime)))
    spectrum_dev = float(np.max(np.abs(np.linalg.eigvalsh(h_prime) - ham.eigenvalues())))
    return TransformReport(
        unitarity_dev=unitarity,
        involution_dev=involution,
        block_form_dev=block_dev,
        spectrum_dev=spectrum_dev,
        n_trunc=n_trunc,
    )
