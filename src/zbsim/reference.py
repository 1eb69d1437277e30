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
kz != 0, 2 x 2 at kz = 0), read off its nonzero pattern into a block plan,
one for kz = 0 and one for every other kz.  One solve, _solve_blocks,
diagonalises every block of a plan at many kz nodes at once, one batched
symmetric eigh per block size over (nodes x blocks, s, s), so eigenvectors
are exactly zero off their block.  One more kz = 0 solve, after the check's
nodes, gives the eigenvalues.csv table.

The oracle evolves the weighted kx ensemble at once.  With the packet's
level overlaps phi_f (spinor component 1) and fibre weights w_f, a kz node
adds <A(t)> = sum_jk A_jk S_jk e^{i (E_j - E_k) t} over its real eigenpairs,
A_jk = v_j . (1 x a) v_k, S_jk = v_j . G v_k, G = sum_f w_f phi_f phi_f^T;
the eigenvectors are real, so <A+(t)> = conj <A(t)>.  _node_lines forms
A_jk, A_kj and S_jk of many nodes in one batched product and writes their
lines in the one line record (node, band, n, freqs, cos, sin) of
zbsim.dynamics, frequencies made non-negative.  A line's level n is read
off the assembled matrix, not off the closed form: a block's level is the
largest oscillator index in its basis, and a line's the smaller of its two
blocks' levels.  The check's independent part is the assembled matrix and
its solve.

The run's check, oracle_check, compares the two line records instead of
samples, selecting each chunk's analytic lines by node.  Every oracle line
joins the analytic line of its kz node, band and level; the summed
|dC| + |dS| of the joined lines, their frequency drift |df| t_max
(|C| + |S|), and |C| + |S| of every line that joins none (the levels at or
above n_max) bound |<A>_analytic - <A>_oracle| at every 0 <= t <= t_max,
and sqrt(2) times that bounds the position difference in L.  Both engines
read the folded kz grid of packet.decompose, so the check also solves the
rule's most negative kz node, which the fold leaves out, in the same batch
as its mirror, and requires its line sums per band and level to match its
mirror's.  The nodes go through the solve, the lines and the comparison in
chunks of at most _CHUNK pair-product elements, and the lines of a chunk's
nodes are joined at once: one argsort of the analytic keys, a searchsorted
of the oracle's and bincounts keyed by analytic line.

Truncating the ladder at level N leaves, besides the exact eigenstates with
n <= N, a two-dimensional remnant on the top oscillator level whose
eigenvalues coincide with +-E_0(kz), so the solved spectrum holds +-E_0 once
more than the closed-form levels.  Its block's level is n_trunc, so its
lines join no analytic line.
The oracle's truncation is the decomposition level n_max + 12: above n_max,
since at or below it the matrix drops levels the packet occupies or
truncates exactly as the analytic engine does.

Like the analytic engine, the oracle takes the packet's PacketDecomposition
as its one input: the packet, the field parameters, the mode, the kx
quadrature and the kz nodes all come from it.

Basis ordering: index = component*(N+1) + n with spinor components 0..3.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .dynamics import _line_tables
from .errors import ConfigError, OracleMismatchError
from .landau import BANDS
from .packet import MAX_ARRAY, PacketDecomposition, check_finite_overlaps, oscillator_overlaps
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
# The line sums at the rule's most negative kz node must match its mirror's
# within this fraction of the largest amplitude there.
_MIRROR_TOL = 1e-12
# The pair products of one chunk of kz nodes hold at most this many elements
# (nodes x pairs x width^2, 64 KiB per array).  Chunks of 128 KiB arrays
# raised a run's peak RSS by 0.1-0.2 MB; at this size the oracle's peak
# stays below that of its setup, which assembles the full matrices.
_CHUNK = 1 << 13
# the largest truncation whose 4(n_trunc + 1)-square fibre matrix fits MAX_ARRAY
MAX_N_TRUNC = math.isqrt(MAX_ARRAY) // 4 - 1


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
        + np.kron(BETA, eye)  # the mass term, mc^2 = 1
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


def _solve_blocks(plan, kz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of h0 + kz hz on each block of a _block_plan
    at every node of the 1-d array kz, shaped (nodes, blocks, width[, width]):
    one batched eigh per block size over nodes x blocks; zero on the padding."""
    sizes, _, h0_blk, hz_blk = plan
    vals, vecs = np.zeros(kz.shape + h0_blk.shape[:2]), np.zeros(kz.shape + h0_blk.shape)
    kz = kz[:, None, None, None]
    for blk, s in sizes:
        block = h0_blk[blk, :s, :s] + kz * hz_blk[blk, :s, :s]
        vals[:, blk, :s], vecs[:, blk, :s, :s] = np.linalg.eigh(block)
    return vals, vecs


def _ascending(plan, kz: float) -> np.ndarray:
    """A block plan's eigenvalues at one kz (_solve_blocks), padding dropped, ascending."""
    vals = _solve_blocks(plan, np.array([kz]))[0][0]
    vals = np.concatenate([vals[blk, :s].ravel() for blk, s in plan[0]])
    # a stable argsort, as in _blocks: np.sort pages in more numpy code (up to 0.2 MB of RSS)
    return vals[np.argsort(vals, kind="stable")]


def _pair_plan(idx: np.ndarray, ops: tuple):
    """(p, q, n, ops on the block pairs p <= q that ops[0] or its transpose
    joins) for the padded block indices idx of a _block_plan, where ops[0]
    acts on the basis of 4 (n_trunc + 1) indices.  n is each pair's level,
    the smaller of its two blocks' levels: the largest oscillator index,
    index % (n_trunc + 1), in the block's basis."""
    label = np.empty(ops[0].shape[0], dtype=int)
    label[idx] = np.arange(idx.shape[0])[:, None]
    coupled = np.zeros((idx.shape[0], idx.shape[0]), dtype=bool)
    rows, cols = np.nonzero(ops[0])
    coupled[label[rows], label[cols]] = True
    p, q = np.nonzero(np.triu(coupled | coupled.T))
    level = (idx % (ops[0].shape[0] // 4)).max(axis=1)
    rows, cols = idx[:, :, None], idx[:, None, :]
    return p, q, np.minimum(level[p], level[q]), np.stack([op[rows[p], cols[q]] for op in ops])


def _truncation(decomp: PacketDecomposition) -> int:
    """The oracle's truncation n_max + 12; ConfigError above MAX_N_TRUNC."""
    trunc = decomp.n_max + 12
    if trunc > MAX_N_TRUNC:
        raise ConfigError(
            f"--check-oracle: the reference matrices need the truncation n_max + 12 = "
            f"{trunc}, above {MAX_N_TRUNC}; run without the oracle check"
        )
    return trunc


def _plans(decomp: PacketDecomposition, trunc: int, kz: np.ndarray) -> dict:
    """The fibre matrix on levels 0..trunc as the oracle solves it: per
    kz = 0 (True) and, if kz holds such a node, kz != 0 (False), its block
    plan and the pair plan (_pair_plan) of the operators 1 x a, its
    transpose and G (module docstring), whose products on the block pairs
    give A_jk, A_kj and S_jk (None for the kz = 0 plan of a kz without such
    a node: its one use is the eigenvalue table).  The full matrices are not
    kept."""
    packet, params = decomp.packet, decomp.params
    phi = oscillator_overlaps(packet, params, decomp.kx_nodes, trunc)
    check_finite_overlaps(phi, decomp.kx_nodes, packet, params)
    h0, hz = _fibre_terms(trunc, params)
    lower = np.kron(np.eye(4), lowering_matrix(trunc))
    gram = np.kron(np.diag([0.0, 1.0, 0.0, 0.0]), (phi * decomp.kx_weights) @ phi.T)
    ops = (lower, lower.T, gram)  # G on spinor component 1
    plans = {}
    for value in (0.0, *kz[kz != 0.0][:1].tolist()):
        plan = _block_plan(value, h0, hz)
        plans[value == 0.0] = plan, _pair_plan(plan[1], ops) if (kz == value).any() else None
    return plans


def _node_lines(plan, pairs, kz: np.ndarray, weights: np.ndarray):
    """The oracle's lines at the nodes kz of one block plan (_solve_blocks),
    weighted as the nodes are: (node, band, n, freqs, cos, sin) over the
    lines, node the index into kz, band 0 for intraband (both energies of
    one sign), 1 for interband, and n the level of the line's block pair,
    each frequency made non-negative by carrying its sign into the sin
    coefficient.

    A_jk, A_kj and S_jk of every node come from one batched product on the
    block pairs the ladder couples (pairs, a _pair_plan); each unordered
    eigenpair pair is one line, kept if its amplitude is above _LINE_CUTOFF
    of its node's largest.
    """
    p, q, level, pair_ops = pairs
    vals, vecs = _solve_blocks(plan, kz)
    a_jk, a_kj, s_jk = np.swapaxes(vecs[:, p], 2, 3) @ pair_ops[:, None] @ vecs[:, q]
    # in place: the products are the largest arrays of the chunk
    k_jk, k_kj = np.multiply(a_jk, s_jk, out=a_jk), np.multiply(a_kj, s_jk, out=a_kj)
    mag = np.maximum(np.abs(k_jk), np.abs(k_kj), out=s_jk)
    once = (p != q)[:, None, None] | np.triu(np.ones(mag.shape[2:], dtype=bool))
    keep = once & (mag > _LINE_CUTOFF * mag.max(axis=(1, 2, 3), initial=0.0)[:, None, None, None])
    node = np.repeat(np.arange(kz.size), np.count_nonzero(keep.reshape(kz.size, -1), axis=1))
    # K_jk e^{iwt} + K_kj e^{-iwt} = (K_jk + K_kj) cos wt + i (K_jk - K_kj) sin wt
    # for w = E_j - E_k; the diagonal j = k is the one term K_jj
    diag = np.broadcast_to((p == q)[:, None, None] & np.eye(mag.shape[-1], dtype=bool), keep.shape)[keep]
    e_j, e_k = vals[:, p, :, None], vals[:, q, None, :]
    amps, mirror = weights[node] * k_jk[keep], weights[node] * k_kj[keep]
    cos_coef = np.where(diag, amps, amps + mirror)
    freqs = (e_j - e_k)[keep]
    sin_coef = np.copysign(1.0, freqs) * (amps - mirror)  # sin(-wt) = -sin wt
    band = ((e_j > 0.0) != (e_k > 0.0))[keep].astype(np.intp)
    n = np.broadcast_to(level[:, None, None], keep.shape)[keep]
    return node, band, n, np.abs(freqs), cos_coef, sin_coef


def _line_distance(analytic, oracle, t_max: float, where):
    """The terms of the line-table distance at every node and band, from the
    (node, band, n, freqs, cos, sin) lines of the analytic engine and of the
    oracle.  Each oracle line joins the analytic line of its node, band and
    level n.  Per analytic line, at frequency f: |dC| + |dS| of its
    coefficients against the summed ones of its oracle lines, plus
    t_max |f' - f| (|C| + |S|) over its oracle lines at frequencies f'.  Per
    oracle line that joins none (a level at or above n_max): its |C| + |S|.
    Returns (values, node, band, freqs, part) over the terms, part 0 for the
    first kind (matched lines, in analytic line order) and 1 for the second
    (truncated lines, in line order).

    |cos f't - cos ft| <= |f' - f| t, so at every t in [0, t_max] the two
    tables' sums at a node and band differ by at most the sum of its terms.
    A frequency that is not finite is an OracleMismatchError that names its
    band and, through where, its node.
    """
    node, band, n, f = (np.concatenate(x) for x in zip(analytic[:4], oracle[:4]))
    bad = np.flatnonzero(~np.isfinite(f))
    if bad.size:  # the first, analytic lines first
        k = bad[0]
        raise OracleMismatchError(
            f"a line frequency of {BANDS[band[k]]} lines at {where(node[k])} is {f[k]}: deviation nan")
    na = analytic[3].size
    key = (2 * node + band) * (int(n.max(initial=0)) + 1) + n  # one integer per (node, band, n)
    order = np.argsort(key[:na], kind="stable")
    ranked = key[:na][order]
    pos = np.searchsorted(ranked, key[na:])
    joined = pos < na
    joined[joined] = ranked[pos[joined]] == key[na:][joined]
    own = order[pos[joined]]  # the analytic line of each joined oracle line
    f_o, c_o, s_o = (x[joined] for x in oracle[3:])
    amp = np.abs(oracle[4]) + np.abs(oracle[5])
    drift = np.abs(f_o - analytic[3][own]) * t_max * amp[joined]
    matched = (np.abs(np.bincount(own, c_o, na) - analytic[4]) + np.abs(np.bincount(own, s_o, na) - analytic[5])
               + np.bincount(own, drift, na))
    alone = np.flatnonzero(~joined)
    at = np.concatenate((np.arange(na), na + alone))
    part = np.repeat([0, 1], (na, alone.size))
    return np.concatenate((matched, amp[alone])), node[at], band[at], f[at], part


class OracleCheck(Record):
    """The line-table comparison of the analytic engine with the oracle.

    bound is sqrt(2) times the summed line-table distance (_line_distance)
    over the kz nodes and both bands, so it bounds max |r_analytic - r_oracle|
    / L on 0 <= t <= t_max: y = sqrt(2) L Re<A> and x = sqrt(2) L Im<A>.
    matched and truncated split it per band (intraband, interband) into the
    lines that both tables hold and the oracle's lines of levels above n_max;
    worst names the largest term, and mirror_dev is the relative disagreement
    of the most negative kz node of the rule with its mirror (3+1 only).
    eigenvalues is the ascending spectrum of the fibre matrix at kz = 0 on the
    check's truncation, solved as the oracle solves it (eigenvalues.csv).
    """

    bound: float
    matched: tuple[float, float]
    truncated: tuple[float, float]
    worst: str
    mirror_dev: float | None
    n_trunc: int
    eigenvalues: np.ndarray


def _mirror_deviation(lines, kz: np.ndarray) -> float:
    """The largest difference of the line sums per band and level of the
    oracle at the rule's most negative kz node and at its mirror, the lines
    of the nodes kz[-2] and kz[-1] at equal weight, relative to the mirror's
    largest amplitude; OracleMismatchError above _MIRROR_TOL."""
    node, band, n, _, cos_coef, sin_coef = lines
    sign, plus = np.where(node == kz.size - 2, 1.0, -1.0), node == kz.size - 1
    sums = np.concatenate([np.bincount(2 * n + band, sign * x) for x in (cos_coef, sin_coef)])
    diff = float(np.max(np.abs(sums), initial=0.0))
    scale = float(np.max(np.abs(np.concatenate((cos_coef[plus], sin_coef[plus]))), initial=0.0))
    dev = diff / scale if diff else 0.0  # a NaN stays NaN
    if not dev <= _MIRROR_TOL:  # a NaN fails
        raise OracleMismatchError(
            f"the oracle's line sums at kz = {kz[-2]:.6g} differ from those at its mirror "
            f"kz = {kz[-1]:.6g} by {dev:.3e} of the largest amplitude {scale:.3e}, above {_MIRROR_TOL:.0e}"
        )
    return dev


def oracle_check(decomp: PacketDecomposition, t_max: float) -> OracleCheck:
    """Compare the analytic engine's line record with the oracle's at every
    node and band (OracleCheck); in 3+1 the rule's most negative kz node,
    which the folded grid leaves out, is solved as well, in the same batch
    as its mirror, and must agree with it.  A NaN frequency is an
    OracleMismatchError, and a NaN amplitude makes the bound NaN.

    The nodes go through the solve, the lines and the comparison in chunks
    of consecutive nodes that share a block plan, each at most _CHUNK
    pair-product elements; a chunk leaves only its terms' sums, its largest
    term and its lines of the mirror pair.
    """
    trunc = _truncation(decomp)
    kz, weights, n_kz = decomp.kz_nodes, decomp.kz_weights, decomp.kz_nodes.size
    three_d = decomp.mode is Dimensionality.THREE_PLUS_ONE
    if three_d:  # the mirror pair at unit weight: an outer weight may underflow to 0
        kz, weights = np.append(kz, [-kz[-1], kz[-1]]), np.append(weights, [1.0, 1.0])
    analytic = _line_tables(decomp)

    def where(i) -> str:
        return f"kz = {kz[i]:.6g} (node {i + 1} of {n_kz})"

    plans = _plans(decomp, trunc, kz)
    zero = kz == 0.0
    parts = np.zeros(4)  # (matched, truncated) x (intraband, interband)
    worst, mirror, lo = [], [], 0
    while lo < kz.size:
        plan, pairs = plans[bool(zero[lo])]
        step = max(1, _CHUNK // pairs[3][0].size)
        other = np.flatnonzero(zero[lo : lo + step] != zero[lo])
        hi = lo + (int(other[0]) if other.size else min(step, kz.size - lo))
        lines = _node_lines(plan, pairs, kz[lo:hi], weights[lo:hi])
        lines = (lines[0] + lo, *lines[1:])
        own = int(np.count_nonzero(lines[0] < n_kz))  # the lines come node by node
        mirror.append([x[own:].copy() for x in lines])
        if lo < n_kz:
            chunk = (analytic[0] >= lo) & (analytic[0] < hi)
            values, node, band, freqs, part = _line_distance(
                [x[chunk] for x in analytic], [x[:own] for x in lines], t_max, where)
            parts += np.bincount(2 * part + band, values, 4)
            if values.size:  # the largest term, a NaN first
                k = np.argmax(values)
                worst.append((float(values[k]), BANDS[band[k]], float(freqs[k]), where(node[k])))
        lo = hi
    bound, parts = math.sqrt(2.0) * float(np.sum(parts)), math.sqrt(2.0) * parts.reshape(2, 2)
    # the largest term, a NaN first; the chunks come in node order
    value, name, freq, node = max(worst, key=lambda w: math.inf if math.isnan(w[0]) else w[0],
                                  default=(0.0, "no", math.nan, "no node"))
    return OracleCheck(
        bound=bound,
        matched=tuple(parts[0].tolist()),
        truncated=tuple(parts[1].tolist()),
        worst=f"{name} line at f = {freq:.9g}, {node}: {math.sqrt(2.0) * value:.3e} L",
        mirror_dev=_mirror_deviation([np.concatenate(x) for x in zip(*mirror)], kz) if three_d else None,
        n_trunc=trunc,
        eigenvalues=_ascending(plans[True][0], 0.0),
    )
