"""Independent checks that the tests compare the program against.

None of these is on a run's path.  Each one restates a claim of the paper
or of the program's construction from the package's own building blocks,
so that a test can hold the program to it:

- build_matrix and expected_eigenvalues: the assembled fibre Hamiltonian
  and its closed-form spectrum (acceptance criterion 1);
- oracle_trajectory: the oracle's line tables evaluated on a time grid, to
  compare with the analytic trajectory sample by sample (criterion 2);
- check_transform: the off-diagonalising unitary of the paper and the
  transformed block form (criterion 7);
- interband_envelope: the trembling envelope in an early and a late window
  (criterion 6);
- dirac_to_trap: the inverse of the trap mapping (criterion 4).

The module is named so that it cannot shadow perfbench's `checks`, which
pytest puts on the same import path.
"""

from __future__ import annotations

import math

import numpy as np

from zbsim import reference
from zbsim._record import Record
from zbsim.dynamics import Trajectory, _banded_trajectory, band_sums
from zbsim.ionmap import TrapConfig
from zbsim.landau import energies
from zbsim.packet import PacketDecomposition
from zbsim.params import SimParams


def build_matrix(kz: float, n_trunc: int, params: SimParams) -> np.ndarray:
    """The real symmetric fibre Hamiltonian at kz on levels 0..n_trunc (any
    kx), looked up through the module so that a patched _fibre_terms shows."""
    h0, hz = reference._fibre_terms(n_trunc, params)
    # alpha_z is nonzero only where the other terms vanish: the four-term sum bit for bit
    return h0 + kz * hz


def expected_eigenvalues(kz: float, n_trunc: int, params: SimParams) -> np.ndarray:
    """Closed-form spectrum of the fibre matrix at kz on levels 0..n_trunc, ascending.

    +-E_n appears once for n = 0 and twice for n >= 1 (two spin states),
    plus the +-E_0 truncation-remnant pair.
    """
    n = np.arange(n_trunc + 1)
    e = energies(n, kz, params)
    vals = np.concatenate([np.repeat(e, np.where(n == 0, 1, 2)), e[:1]])  # remnant at +-E_0
    return np.sort(np.concatenate([vals, -vals]))


def oracle_trajectory(
    decomp: PacketDecomposition, t_grid: np.ndarray, n_trunc: int | None = None
) -> Trajectory:
    """Trajectory from truncated-matrix evolution, bin-compatible with the
    analytic engine (same time grid, same position units, same band split):
    band_sums over the oracle_lines of every kz node."""
    t = np.asarray(t_grid, dtype=float)
    trunc = reference._truncation(decomp, n_trunc)
    bands = np.zeros((2, t.size), dtype=complex)  # intraband, interband <A>
    for _, lines in reference.oracle_lines(decomp, trunc):
        bands += band_sums(t, lines)
    return _banded_trajectory(t, bands, decomp.mode, {
        "engine": "matrix-reference", "n_trunc": trunc, "magnetic_length": decomp.params.magnetic_length,
    })


class TransformReport(Record):
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
    compared eigenvalue by eigenvalue with the oracle's block solve.
    """
    alpha_y = -1j * reference.I_ALPHA_Y
    delta = reference.ALPHA_X @ alpha_y @ reference.ALPHA_Z @ reference.BETA
    p = delta @ (delta + reference.BETA) / math.sqrt(2.0)
    unitarity = float(np.max(np.abs(p @ p.conj().T - np.eye(4))))
    involution = float(np.max(np.abs(delta @ delta - np.eye(4))))

    dim_osc = n_trunc + 1
    p_full = np.kron(p, np.eye(dim_osc))
    transformed = p_full @ build_matrix(kz, n_trunc, params) @ p_full.conj().T

    b = params.field_ratio_b
    m = params.mass_energy
    a = reference.lowering_matrix(n_trunc)
    eye = np.eye(dim_osc)
    upper = np.block([[(kz - 1j * m) * eye, -b * a], [-b * a.T, (-kz - 1j * m) * eye]])
    zero = np.zeros_like(upper)
    h_prime = np.block([[zero, upper], [upper.conj().T, zero]])

    block_dev = float(np.max(np.abs(transformed - h_prime)))
    solved = reference.fibre_eigenvalues(kz, n_trunc, params)
    spectrum_dev = float(np.max(np.abs(np.linalg.eigvalsh(h_prime) - solved)))
    return TransformReport(
        unitarity_dev=unitarity,
        involution_dev=involution,
        block_form_dev=block_dev,
        spectrum_dev=spectrum_dev,
        n_trunc=n_trunc,
    )


class EnvelopeSummary(Record):
    """Interband (trembling) envelope size in an early and a late time window."""

    early_max: float
    late_max: float

    @property
    def ratio(self) -> float:
        return self.late_max / self.early_max if self.early_max > 0.0 else math.inf


def interband_envelope(
    trajectory: Trajectory,
    period: float,
    early: tuple[float, float] = (0.0, 50.0),
    late: tuple[float, float] = (50.0, 100.0),
) -> EnvelopeSummary:
    """Max interband displacement |r| in two windows given in units of `period`:
    decay (3+1) against persistence through decays and revivals (2+1) of the
    trembling motion."""
    r = np.hypot(trajectory.x_interband, trajectory.y_interband)
    t = trajectory.times

    def window_max(lo: float, hi: float) -> float:
        mask = (t >= lo * period) & (t <= hi * period)
        if not np.any(mask):
            raise ValueError(f"trajectory does not cover window [{lo}, {hi}] periods")
        return float(np.max(r[mask]))

    return EnvelopeSummary(early_max=window_max(*early), late_max=window_max(*late))


def dirac_to_trap(params: SimParams, *, eta: float, omega_tilde: float, delta: float) -> TrapConfig:
    """The calcium trap whose carrier coupling realises params: Omega = eta Omega_tilde / sqrt(kappa)."""
    return TrapConfig.from_spread(eta, eta * omega_tilde / math.sqrt(params.kappa), omega_tilde, delta)
