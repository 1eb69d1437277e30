"""Independent checks that the tests compare the program against.

None of these is on a run's path.  Each one restates a claim of the paper
or of the program's construction from the package's own building blocks,
so that a test can hold the program to it:

- build_matrix, fibre_eigenvalues and expected_eigenvalues: the assembled
  fibre Hamiltonian, its block-by-block spectrum and its closed-form
  spectrum (acceptance criterion 1);
- oracle_trajectory: the oracle's line tables evaluated on a time grid, to
  compare with the analytic trajectory sample by sample (criterion 2);
- per_node_oracle_check: the oracle check solved and compared one kz node
  at a time, the reference for the batched reference.oracle_check;
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
from zbsim.dynamics import Trajectory, _banded_trajectory, _line_tables, band_sums
from zbsim.errors import OracleMismatchError
from zbsim.ionmap import TrapConfig
from zbsim.landau import energies
from zbsim.packet import PacketDecomposition, check_finite_overlaps, oscillator_overlaps
from zbsim.params import Dimensionality, SimParams


def build_matrix(kz: float, n_trunc: int, params: SimParams) -> np.ndarray:
    """The real symmetric fibre Hamiltonian at kz on levels 0..n_trunc (any
    kx), looked up through the module so that a patched _fibre_terms shows."""
    h0, hz = reference._fibre_terms(n_trunc, params)
    # alpha_z is nonzero only where the other terms vanish: the four-term sum bit for bit
    return h0 + kz * hz


def fibre_eigenvalues(kz: float, n_trunc: int, params: SimParams) -> np.ndarray:
    """Ascending eigenvalues of the fibre matrix at kz on levels 0..n_trunc,
    solved block by block as the oracle solves it."""
    h0, hz = reference._fibre_terms(n_trunc, params)
    plan = reference._block_plan(kz, h0, hz)
    return reference._ascending(plan, kz)


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
    band_sums over the oracle's lines at every kz node, on levels 0..n_trunc
    (the run's n_max + 12 if None)."""
    t = np.asarray(t_grid, dtype=float)
    trunc = reference._truncation(decomp) if n_trunc is None else n_trunc
    kz, weights = decomp.kz_nodes, decomp.kz_weights
    bands = np.zeros((2, t.size), dtype=complex)  # intraband, interband <A>
    for at_zero, (plan, pairs) in reference._plans(decomp, trunc, kz).items():
        on = (kz == 0.0) == at_zero
        if on.any():
            bands += band_sums(t, reference._node_lines(plan, pairs, kz[on], weights[on]))
    return _banded_trajectory(t, bands, {
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
    m = 1.0  # mc^2
    a = reference.lowering_matrix(n_trunc)
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


def dirac_to_trap(params: SimParams, *, eta: float, omega_tilde_hz: float, delta_m: float) -> TrapConfig:
    """The calcium trap whose carrier coupling realises params: Omega = eta Omega_tilde / sqrt(kappa)."""
    return TrapConfig(eta=eta, omega_carrier_hz=eta * omega_tilde_hz / math.sqrt(params.kappa),
                      omega_tilde_hz=omega_tilde_hz, delta_m=delta_m)


def _solve_node(plan, kz: float) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of h0 + kz hz on each block of a plan at
    one kz, one eigh per block size; zero on the padding."""
    sizes, _, h0_blk, hz_blk = plan
    vals, vecs = np.zeros(h0_blk.shape[:2]), np.zeros(h0_blk.shape)
    for blk, s in sizes:
        block = h0_blk[blk, :s, :s] + kz * hz_blk[blk, :s, :s]
        vals[blk, :s], vecs[blk, :s, :s] = np.linalg.eigh(block)
    return vals, vecs


def _per_node_lines(decomp: PacketDecomposition, trunc: int, nodes):
    """Per (kz, weight) of nodes, the (intraband, interband) (freqs, cos, sin)
    line tables of the truncated-matrix evolution, weighted as the node is,
    each frequency made non-negative by carrying its sign into the sin
    coefficient; each unordered eigenpair pair is one line."""
    packet, params = decomp.packet, decomp.params
    phi = oscillator_overlaps(packet, params, decomp.kx_nodes, trunc)
    check_finite_overlaps(phi, decomp.kx_nodes, packet, params)
    h0, hz = reference._fibre_terms(trunc, params)
    lower = np.kron(np.eye(4), reference.lowering_matrix(trunc))
    gram = np.kron(np.diag([0.0, 1.0, 0.0, 0.0]), (phi * decomp.kx_weights) @ phi.T)
    ops = (lower, lower.T, gram)
    plans = {}
    for kz, w_kz in nodes:
        if (kz == 0.0) not in plans:
            plan = reference._block_plan(kz, h0, hz)
            plans[kz == 0.0] = plan, reference._pair_plan(plan[1], ops)
        plan, (p, q, pair_ops) = plans[kz == 0.0]
        vals, vecs = _solve_node(plan, kz)
        a_jk, a_kj, s_jk = np.swapaxes(vecs[p], 1, 2) @ pair_ops @ vecs[q]
        k_jk, k_kj = a_jk * s_jk, a_kj * s_jk
        mag = np.maximum(np.abs(k_jk), np.abs(k_kj))
        once = (p != q)[:, None, None] | np.triu(np.ones(mag.shape[1:], dtype=bool))
        keep = once & (mag > reference._LINE_CUTOFF * mag.max(initial=0.0))
        diag = ((p == q)[:, None, None] & np.eye(mag.shape[1], dtype=bool))[keep]
        e_j, e_k = vals[p][:, :, None], vals[q][:, None, :]
        amps, mirror = w_kz * k_jk[keep], w_kz * k_kj[keep]
        cos_coef = np.where(diag, amps, amps + mirror)
        freqs = (e_j - e_k)[keep]
        sin_coef = np.copysign(1.0, freqs) * (amps - mirror)
        intra = ((e_j > 0.0) == (e_k > 0.0))[keep]
        yield kz, tuple((np.abs(freqs[sel]), cos_coef[sel], sin_coef[sel]) for sel in (intra, ~intra))


def _per_node_groups(freqs: np.ndarray) -> tuple[np.ndarray, int]:
    """Per frequency, its group label and the group count: ascending, a group
    ends where the next frequency is more than _MATCH_RTOL of itself above."""
    order = np.argsort(freqs, kind="stable")
    f = freqs[order]
    starts = np.ones(f.size, dtype=bool)
    starts[1:] = f[1:] - f[:-1] > reference._MATCH_RTOL * f[1:]
    label = np.empty(f.size, dtype=int)
    label[order] = np.cumsum(starts) - 1
    return label, int(np.count_nonzero(starts))


def _per_node_distance(analytic, oracle, t_max: float, where: str):
    """The line-table distance terms of one band at one kz node:
    ((matched values, freqs), (truncated values, freqs))."""
    fa, ca, sa = analytic
    fo, co, so = oracle
    f = np.concatenate((fa, fo))
    if not np.isfinite(f).all():
        raise OracleMismatchError(f"a line frequency of {where} is {f[~np.isfinite(f)][0]}: deviation nan")
    label, count = _per_node_groups(f)
    owner = np.full(count, fa.size)
    np.minimum.at(owner, label[: fa.size], np.arange(fa.size))
    line = owner[label]
    shared = line < fa.size
    c, s = np.concatenate((-ca, co)), np.concatenate((-sa, so))
    amp = np.abs(c) + np.abs(s)
    at = label[shared]
    drift = np.abs(f[shared] - fa[line[shared]]) * t_max * amp[shared]
    groups = (np.abs(np.bincount(at, c[shared], count)) + np.abs(np.bincount(at, s[shared], count))
              + np.bincount(at, drift, count))
    has, alone = owner < fa.size, ~shared[fa.size :]
    return (groups[has], fa[owner[has]]), (amp[fa.size :][alone], fo[alone])


def per_node_oracle_check(decomp: PacketDecomposition, t_max: float) -> dict:
    """The oracle check of reference.oracle_check, solved and compared one kz
    node and band at a time: its bound, matched, truncated, worst, mirror_dev
    and n_trunc."""
    trunc = reference._truncation(decomp)
    n_kz = decomp.kz_nodes.size
    at, in_band, *analytic = _line_tables(decomp)
    three_d = decomp.mode is Dimensionality.THREE_PLUS_ONE
    nodes = list(zip(decomp.kz_nodes.tolist(), decomp.kz_weights.tolist()))
    if three_d:
        nodes += [(-nodes[-1][0], 1.0), (nodes[-1][0], 1.0)]
    solved = list(_per_node_lines(decomp, trunc, nodes))
    parts = np.zeros((2, 2))
    worst = []
    for i, (kz, bands) in enumerate(solved[:n_kz]):
        node = f"kz = {kz:.6g} (node {i + 1} of {n_kz})"
        for b, (name, lines) in enumerate(zip(("intraband", "interband"), bands)):
            ref = [x[(at == i) & (in_band == b)] for x in analytic]
            terms = _per_node_distance(ref, lines, t_max, f"{name} lines at {node}")
            for part, (values, freqs) in enumerate(terms):
                parts[part, b] += np.sum(values)
                if values.size:
                    k = int(np.argmax(values))
                    worst.append((float(values[k]), name, float(freqs[k]), node))
    value, name, freq, node = max(worst, key=lambda w: math.inf if math.isnan(w[0]) else w[0],
                                  default=(0.0, "no", math.nan, "no node"))
    mirror = None
    if three_d:
        (minus, neg), (_, pos) = solved[n_kz:]
        diffs, amps = [], []
        for n_lines, p_lines in zip(neg, pos):
            label, count = _per_node_groups(np.concatenate((n_lines[0], p_lines[0])))
            sign = np.repeat([1.0, -1.0], (n_lines[0].size, p_lines[0].size))
            for k in (1, 2):
                diffs.append(np.bincount(label, sign * np.concatenate((n_lines[k], p_lines[k])), count))
                amps.append(p_lines[k])
        scale = float(np.max(np.abs(np.concatenate(amps)), initial=0.0))
        diff = float(np.max(np.abs(np.concatenate(diffs)), initial=0.0))
        mirror = diff / scale if diff else 0.0
    return {
        "bound": math.sqrt(2.0) * float(np.sum(parts)),
        "matched": tuple((math.sqrt(2.0) * parts[0]).tolist()),
        "truncated": tuple((math.sqrt(2.0) * parts[1]).tolist()),
        "worst": f"{name} line at f = {freq:.9g}, {node}: {math.sqrt(2.0) * value:.3e} L",
        "mirror_dev": mirror,
        "n_trunc": trunc,
    }
