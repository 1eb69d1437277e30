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
block.  The oracle and fibre_eigenvalues (the eigenvalues.csv table) both go
through it.

The oracle evolves the weighted kx ensemble at once.  With the packet's
level overlaps phi_f (spinor component 1) and fibre weights w_f, a kz node
adds <A(t)> = sum_jk A_jk S_jk e^{i (E_j - E_k) t} over its real eigenpairs,
A_jk = v_j . (1 x a) v_k, S_jk = v_j . G v_k, G = sum_f w_f phi_f phi_f^T;
the eigenvectors are real, so <A+(t)> = conj <A(t)>.  oracle_lines writes
each node's lines in the per-band line form of zbsim.dynamics, frequencies
made non-negative.  The check's independent part is the assembled matrix
and its solve.

The run's check, oracle_check, compares line tables instead of samples.  At
each kz node every oracle line joins the analytic line of its band within
_MATCH_RTOL of its frequency; the summed |dC| + |dS| of the joined lines,
their frequency drift |df| t_max (|C| + |S|), and |C| + |S| of every line
that joins none (the levels above n_max) bound |<A>_analytic - <A>_oracle|
at every 0 <= t <= t_max, and sqrt(2) times that bounds the position
difference in L.  Analytic lines closer than _MATCH_RTOL (weak fields,
where E_{n+1} - E_n rounds alike for neighbouring n) join one group, whose
drift term covers their spread.  Both engines read the folded kz grid of
packet.decompose, so the check also solves the rule's most negative kz
node, which the fold leaves out, and requires its per-frequency line sums
to match its mirror's.

Truncating the ladder at level N leaves, besides the exact eigenstates with
n <= N, a two-dimensional remnant on the top oscillator level whose
eigenvalues coincide with +-E_0(kz), so the solved spectrum holds +-E_0 once
more than the closed-form levels.
The oracle's default truncation is the decomposition level n_max + 12; an
explicit one must lie above n_max, since at or below it the matrix drops
levels the packet occupies or truncates exactly as the analytic engine does.

Like the analytic engine, the oracle takes the packet's PacketDecomposition
as its one input: the packet, the field parameters, the mode, the kx
quadrature and the kz nodes all come from it.

Basis ordering: index = component*(N+1) + n with spinor components 0..3.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ._record import Record
from .dynamics import _line_tables
from .errors import ConfigError, OracleMismatchError
from .packet import MAX_N_TRUNC, PacketDecomposition, check_finite_overlaps, oscillator_overlaps
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

# Lines of one band whose frequencies lie within this fraction of each
# other are compared as one group (_groups).
_MATCH_RTOL = 1e-9
# The line sums at the rule's most negative kz node must match its mirror's
# within this fraction of the largest amplitude there.
_MIRROR_TOL = 1e-12


def lowering_matrix(n_trunc: int) -> np.ndarray:
    """Truncated ladder operator with <n-1|a|n> = sqrt(n)."""
    a = np.zeros((n_trunc + 1, n_trunc + 1))
    idx = np.arange(1, n_trunc + 1)
    a[idx - 1, idx] = np.sqrt(idx)
    return a


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


def _truncation(decomp: PacketDecomposition, n_trunc: int | None) -> int:
    """The oracle's truncation: n_trunc, or n_max + 12; ConfigError unless it
    lies above n_max and within MAX_N_TRUNC."""
    trunc = n_trunc if n_trunc is not None else decomp.n_max + 12
    if n_trunc is None and trunc > MAX_N_TRUNC:  # an explicit n_trunc: _fibre_terms checks it
        raise ConfigError(
            f"[oracle] the reference matrices need the truncation n_max + 12 = "
            f"{trunc}, above {MAX_N_TRUNC}; run without the oracle check"
        )
    if trunc <= decomp.n_max:
        raise ConfigError(
            f"[oracle] n_trunc = {trunc} must be above the decomposition level "
            f"n_max = {decomp.n_max}, or 0 for the automatic n_max + 12"
        )
    return trunc


def oracle_lines(decomp: PacketDecomposition, trunc: int, nodes=None):
    """Per kz node, the (intraband, interband) (freqs, cos, sin) line tables of
    the truncated-matrix evolution, weighted as the node is, each frequency
    made non-negative by carrying its sign into the sin coefficient.

    nodes holds (kz, weight) pairs, by default the decomposition's kz grid.
    Per node, A_jk, A_kj and S_jk (module docstring) come from small
    products on the block pairs the ladder couples; each unordered eigenpair
    pair is one line, intraband when both energies have the same sign.
    """
    packet, params = decomp.packet, decomp.params
    phi = oscillator_overlaps(packet, params, decomp.kx_nodes, trunc)
    check_finite_overlaps(phi, decomp.kx_nodes, packet, params)

    h0, hz = _fibre_terms(trunc, params)
    lower = np.kron(np.eye(4), lowering_matrix(trunc))
    gram = np.kron(np.diag([0.0, 1.0, 0.0, 0.0]), (phi * decomp.kx_weights) @ phi.T)
    ops = (lower, lower.T, gram)  # 1 x a, its transpose, G on spinor component 1
    plans = {}  # one block plan at kz = 0 and one for every other kz
    if nodes is None:
        nodes = zip(decomp.kz_nodes.tolist(), decomp.kz_weights.tolist())
    for kz, w_kz in nodes:
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
        freqs = (e_j - e_k)[keep]
        sin_coef = np.copysign(1.0, freqs) * (amps - mirror)  # sin(-wt) = -sin wt
        intra = ((e_j > 0.0) == (e_k > 0.0))[keep]
        yield kz, tuple((np.abs(freqs[sel]), cos_coef[sel], sin_coef[sel]) for sel in (intra, ~intra))


def _groups(freqs: np.ndarray) -> tuple[np.ndarray, int]:
    """Per frequency, the label 0, 1, ... of its group, and the group count:
    the frequencies ascending, a group ends where the next one is more than
    _MATCH_RTOL of itself above the last."""
    order = np.argsort(freqs, kind="stable")
    f = freqs[order]
    starts = np.ones(f.size, dtype=bool)
    starts[1:] = f[1:] - f[:-1] > _MATCH_RTOL * f[1:]
    label = np.empty(f.size, dtype=int)
    label[order] = np.cumsum(starts) - 1
    return label, int(np.count_nonzero(starts))


def _line_distance(analytic, oracle, t_max: float, where: str):
    """The terms of the line-table distance of one band at one kz node, each
    with its frequency.  The analytic and the oracle lines fall into
    frequency groups (_groups).  Per group that holds an analytic line, at
    frequency f: |dC| + |dS| of its summed coefficients plus t_max |f' - f|
    (|C| + |S|) over its lines at other frequencies f'.  Per oracle line in a
    group without one (a level above n_max): its |C| + |S|.

    |cos f't - cos ft| <= |f' - f| t, so at every t in [0, t_max] the two
    tables' sums differ by at most the sum of the terms.  Analytic lines
    that round to one group are compared as one.
    """
    fa, ca, sa = analytic
    fo, co, so = oracle
    f = np.concatenate((fa, fo))
    if not np.isfinite(f).all():
        raise OracleMismatchError(f"a line frequency of {where} is {f[~np.isfinite(f)][0]}: deviation nan")
    label, count = _groups(f)
    owner = np.full(count, fa.size)  # the first analytic line of each group that has one
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


class OracleCheck(Record):
    """The line-table comparison of the analytic engine with the oracle.

    bound is sqrt(2) times the summed line-table distance (_line_distance)
    over the kz nodes and both bands, so it bounds max |r_analytic - r_oracle|
    / L on 0 <= t <= t_max: y = sqrt(2) L Re<A> and x = sqrt(2) L Im<A>.
    matched and truncated split it per band (intraband, interband) into the
    lines that both tables hold and the oracle's lines of levels above n_max;
    worst names the largest term, and mirror_dev is the relative disagreement
    of the most negative kz node of the rule with its mirror (3+1 only).
    """

    bound: float
    matched: tuple[float, float]
    truncated: tuple[float, float]
    worst: str
    mirror_dev: float | None
    n_trunc: int


def _mirror_deviation(minus, plus) -> float:
    """The largest difference of the per-frequency line sums of the oracle at
    the rule's most negative kz node and at its mirror, two oracle_lines
    items at equal weight, relative to the mirror's largest amplitude;
    OracleMismatchError above _MIRROR_TOL."""
    diffs, amps = [], []
    for neg, pos in zip(minus[1], plus[1]):
        label, count = _groups(np.concatenate((neg[0], pos[0])))
        sign = np.repeat([1.0, -1.0], (neg[0].size, pos[0].size))
        for k in (1, 2):
            diffs.append(np.bincount(label, sign * np.concatenate((neg[k], pos[k])), count))
            amps.append(pos[k])
    scale = float(np.max(np.abs(np.concatenate(amps)), initial=0.0))
    diff = float(np.max(np.abs(np.concatenate(diffs)), initial=0.0))
    dev = diff / scale if diff else 0.0  # a NaN stays NaN
    if not dev <= _MIRROR_TOL:  # a NaN fails
        raise OracleMismatchError(
            f"the oracle's line sums at kz = {minus[0]:.6g} differ from those at its mirror "
            f"kz = {plus[0]:.6g} by {dev:.3e} of the largest amplitude {scale:.3e}, above {_MIRROR_TOL:.0e}"
        )
    return dev


def oracle_check(decomp: PacketDecomposition, t_max: float, n_trunc: int | None = None) -> OracleCheck:
    """Compare the analytic engine's line tables with the oracle's, node by
    node and band by band (OracleCheck); in 3+1 the rule's most negative kz
    node, which the folded grid leaves out, is solved as well and must agree
    with its mirror.  A NaN frequency is an OracleMismatchError, and a NaN
    amplitude makes the bound NaN."""
    trunc = _truncation(decomp, n_trunc)
    n_kz = decomp.kz_nodes.size
    analytic = [[x.reshape(-1, n_kz) for x in band] for band in _line_tables(decomp)]
    three_d = decomp.mode is Dimensionality.THREE_PLUS_ONE
    nodes = list(zip(decomp.kz_nodes.tolist(), decomp.kz_weights.tolist()))
    if three_d:  # the mirror pair at unit weight: an outer weight may underflow to 0
        nodes += [(-nodes[-1][0], 1.0), (nodes[-1][0], 1.0)]
    solved = oracle_lines(decomp, trunc, nodes)
    parts = np.zeros((2, 2))  # (matched, truncated) x (intraband, interband)
    worst = []
    for i, (kz, bands) in enumerate(itertools.islice(solved, n_kz)):
        node = f"kz = {kz:.6g} (node {i + 1} of {n_kz})"
        for b, (name, ref, lines) in enumerate(zip(("intraband", "interband"), analytic, bands)):
            terms = _line_distance([x[:, i] for x in ref], lines, t_max, f"{name} lines at {node}")
            for part, (values, freqs) in enumerate(terms):
                parts[part, b] += np.sum(values)
                if values.size:
                    k = int(np.argmax(values))  # the first NaN, if any
                    worst.append((float(values[k]), name, float(freqs[k]), node))
    bound, parts = math.sqrt(2.0) * float(np.sum(parts)), math.sqrt(2.0) * parts
    # the largest term, a NaN first
    value, name, freq, node = max(worst, key=lambda w: math.inf if math.isnan(w[0]) else w[0],
                                  default=(0.0, "no", math.nan, "no node"))
    mirror = _mirror_deviation(*solved) if three_d else None  # the last two nodes
    return OracleCheck(
        bound=bound,
        matched=tuple(parts[0].tolist()),
        truncated=tuple(parts[1].tolist()),
        worst=f"{name} line at f = {freq:.9g}, {node}: {math.sqrt(2.0) * value:.3e} L",
        mirror_dev=mirror,
        n_trunc=trunc,
    )
