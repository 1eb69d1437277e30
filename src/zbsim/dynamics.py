"""Analytic trajectory engine for the packet centre of mass.

The ladder expectation is an explicit trigonometric sum over level pairs
(n, n+1) and kz quadrature nodes; no time stepping is involved.  Per level
pair the four kz integrals are

    Ic+- = Int (1 +- E_n/E_{n+1}) |g_z|^2 cos[(E_{n+1} -+ E_n) t] dkz,
    Is+- = Int (1/E_n +- 1/E_{n+1}) |g_z|^2 sin[(E_{n+1} -+ E_n) t] dkz,

(in units mc^2 = 1) and the lowering/raising expectations are

    <A(t)>  = 1/2 sum_n sqrt(n+1) U_{n,n+1} (Ic+ + Ic- - i Is+ + i Is-),
    <A+(t)> = 1/2 sum_n sqrt(n+1) U_{n+1,n} (Ic+ + Ic- + i Is+ - i Is-).

The sign carried by Is+ makes the intraband part rotate with the phase
e^{-i omega_c t} required by Heisenberg evolution of a lowering operator;
it is validated against the brute-force matrix evolution in the tests.
Positions follow from the relative-coordinate operators

    Y = L (<A> + <A+>)/sqrt(2),    X = L (<A> - <A+>)/(i sqrt(2)).

These exclude the guiding-centre offset kx L^2, so a packet kicked by k0x
starts at Y(0) = -k0x L^2 and circles the origin.

Both engines write <A(t)> in one line form, per band: the intraband
(cyclotron) lines at the difference frequencies E_{n+1} - E_n and the
interband (trembling) lines at the sums E_{n+1} + E_n, each band a
(freqs, cos, sin) table with <A> = sum cos cos(f t) + i sin sin(f t).
band_sums evaluates the pair of tables into a (2, samples) array through the
one kernel line_sum.  The matrix oracle (zbsim.reference) builds the same
tables per kz node and is checked against these tables line by line, not
sample by sample.

The engine's one input is the packet's PacketDecomposition (packet.decompose):
it holds the packet, the field parameters, the mode, the overlap tables and
the kz quadrature, so a trajectory cannot mix the tables of one packet or
field with the parameters of another.  The lines depend on kz only through
kz^2, and the 3+1 quadrature comes folded onto its distinct |kz|, so each
line at kz != 0 is evaluated once at twice its weight.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record, replace
from .errors import ConvergenceError
from .landau import energies
from .packet import GaussianPacket, PacketDecomposition
from .params import Dimensionality, SimParams

_CHUNK = 1 << 18  # element budget of one line block's tables
_POSITION_FIELDS = ("x", "y", "x_interband", "y_interband", "x_intraband", "y_intraband")


class Trajectory(Record):
    """Uniformly sampled expectation-value trajectory with band split.

    Positions are in the unit named by position_unit ("lambda_c" or "L");
    x = x_intraband + x_interband holds exactly, same for y.
    """

    times: np.ndarray
    x: np.ndarray
    y: np.ndarray
    x_interband: np.ndarray
    y_interband: np.ndarray
    x_intraband: np.ndarray
    y_intraband: np.ndarray
    position_unit: str
    provenance: dict

    def in_magnetic_length_units(self) -> "Trajectory":
        """Rescale positions from Compton wavelengths to the magnetic length L."""
        if self.position_unit == "L":
            return self
        ell = self.provenance["magnetic_length"]
        scaled = {name: getattr(self, name) / ell for name in _POSITION_FIELDS}
        return replace(self, position_unit="L", **scaled)


def _line_tables(decomp: PacketDecomposition):
    """The packet's (intraband, interband) line tables, one line per level
    pair and kz node, with w = 1/2 sqrt(n+1) U_{n,n+1} times the kz weight:

        intraband (E_{n+1} - E_n, w (1 + E_n/E_{n+1}), -w (1/E_n + 1/E_{n+1})),
        interband (E_{n+1} + E_n, w (1 - E_n/E_{n+1}),  w (1/E_n - 1/E_{n+1})),

    the intraband sin coefficients carrying the sign of their -i Is+ term.
    """
    n_idx = np.arange(decomp.n_max)[:, None]  # pairs (n, n+1) with n+1 <= n_max
    base = 0.5 * np.sqrt(n_idx + 1.0) * decomp.u_band[: decomp.n_max, None]
    e_lo = energies(n_idx, decomp.kz_nodes, decomp.params)
    e_hi = energies(n_idx + 1, decomp.kz_nodes, decomp.params)
    bw = base * decomp.kz_weights
    intra = (e_hi - e_lo, bw * (1.0 + e_lo / e_hi), -(bw * (1.0 / e_lo + 1.0 / e_hi)))
    inter = (e_hi + e_lo, bw * (1.0 - e_lo / e_hi), bw * (1.0 / e_lo - 1.0 / e_hi))
    return tuple(tuple(x.ravel() for x in band) for band in (intra, inter))


def _grid_block(t: np.ndarray) -> int:
    """Samples per block for t[m B + j] = t[m B] + (t[j] - t[0]): about
    sqrt(t.size) if every t[i] is within 4 ulp of max|t| of t[0] + i dt, so
    the factored times are as exact as the samples; else 1 (direct)."""
    n = t.size
    if n < 2:
        return 1
    uniform = t[0] + np.arange(n) * ((t[-1] - t[0]) / (n - 1))
    if not np.max(np.abs(t - uniform)) <= 4.0 * np.spacing(np.max(np.abs(t))):
        return 1
    return math.isqrt(n - 1) + 1


def line_sum(t: np.ndarray, freqs: np.ndarray, cos_coef: np.ndarray, sin_coef: np.ndarray):
    """Evaluate one set of spectral lines on the samples t.

    Returns the complex samples

        sum_l cos_coef[l] cos(freqs[l] t) + i sin_coef[l] sin(freqs[l] t)

    for real coefficients C, S.  With the samples in M blocks of B
    (_grid_block), t = T_m + tau_j, the angle-sum identities give
    sum_l cos fT_m [C cos f tau_j + i S sin f tau_j] + sin fT_m [-C sin f tau_j + i S cos f tau_j]:
    trig of (M x lines) and (lines x B) tables, and real BLAS products over
    lines of the start tables with the brackets, stored as (re, im) pairs.
    With B = 1 the brackets are C + 0i and 0 + iS: the direct evaluation.
    Lines go in blocks whose tables hold at most _CHUNK elements.
    """
    block = _grid_block(t)
    starts = t[::block]
    offsets = t[:block] - t[:1]
    acc = np.zeros((starts.size, offsets.size * 2))
    step = max(1, _CHUNK // (starts.size + acc.shape[1]))
    lines = min(step, freqs.size)
    # reused: fresh tables would be paged in again for every block, and a
    # block's new offset tables would be allocated while the last block's
    # are still bound; the bracket buffer holds p until its product is
    # taken, then q, and the start table is formed again for the sin pass
    # rather than kept
    start_buf = np.empty(starts.size * lines)
    pq_buf = np.empty(lines * acc.shape[1])
    phase_buf = np.empty(lines * offsets.size)
    cos_buf = np.empty(lines * offsets.size)
    for lo in range(0, freqs.size, step):
        f = freqs[lo : lo + step]
        c = cos_coef[lo : lo + step, None]
        s = sin_coef[lo : lo + step, None]
        shape = (f.size, offsets.size)
        phase = np.multiply.outer(f, offsets, out=phase_buf[: f.size * offsets.size].reshape(shape))
        cos_offset = np.cos(phase, out=cos_buf[: f.size * offsets.size].reshape(shape))
        sin_offset = np.sin(phase, out=phase)
        pq = pq_buf[: f.size * acc.shape[1]].reshape(f.size, offsets.size, 2)
        trig = start_buf[: starts.size * f.size].reshape(starts.size, f.size)
        np.multiply(c, cos_offset, out=pq[..., 0])
        np.multiply(s, sin_offset, out=pq[..., 1])
        acc += np.cos(np.multiply.outer(starts, f, out=trig), out=trig) @ pq.reshape(f.size, -1)
        np.multiply(-c, sin_offset, out=pq[..., 0])
        np.multiply(s, cos_offset, out=pq[..., 1])
        acc += np.sin(np.multiply.outer(starts, f, out=trig), out=trig) @ pq.reshape(f.size, -1)
    return acc.ravel()[: 2 * t.size].view(complex)


def band_sums(t: np.ndarray, bands) -> np.ndarray:
    """The (2, samples) complex <A(t)> of the intraband and the interband
    lines, from their (freqs, cos, sin) tables."""
    return np.array([line_sum(t, *lines) for lines in bands])


def _banded_trajectory(t, bands: np.ndarray, provenance: dict):
    """Trajectory in Compton wavelengths from the (2, samples) <A> of the
    intraband and the interband lines (band_sums); positions that are not
    finite are a ConvergenceError.  With <A+> = conj <A>, the positions
    y = L (<A> + <A+>)/sqrt(2) and x = L (<A> - <A+>)/(i sqrt(2)) are real."""
    ell, root_half = provenance["magnetic_length"], 1.0 / math.sqrt(2.0)
    x_intra, x_inter = ell * (2.0 * bands.imag) * root_half
    y_intra, y_inter = ell * (2.0 * bands.real) * root_half
    x, y = x_intra + x_inter, y_intra + y_inter
    bad = ~(np.isfinite(x) & np.isfinite(y))
    if bad.any():
        raise ConvergenceError(
            f"the position sums are not finite at {int(bad.sum())} of {t.size} samples, "
            f"first at t = {t[np.argmax(bad)]:.6g}"
        )
    return Trajectory(
        times=t,
        x=x,
        y=y,
        x_interband=x_inter,
        y_interband=y_inter,
        x_intraband=x_intra,
        y_intraband=y_intra,
        position_unit="lambda_c",
        provenance=provenance,
    )


def trajectory(decomp: PacketDecomposition, t_grid: np.ndarray) -> Trajectory:
    """Batch trajectory of the decomposed packet over a uniform time grid,
    with the band split.

    Deterministic for a fixed configuration and BLAS thread count: the line
    sums are BLAS products, whose summation order can change with the number
    of threads.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("t_grid must be a non-empty 1-d array")
    if t.size > 2:
        dt = np.diff(t)
        if np.max(np.abs(dt - dt[0])) > 1e-9 * max(abs(dt[0]), 1e-30):
            raise ValueError("t_grid must be uniform")

    bands = band_sums(t, _line_tables(decomp))
    provenance = {
        "magnetic_length": decomp.params.magnetic_length,
        "n_max": decomp.n_max,
        "kz_nodes": int(decomp.kz_nodes.size),  # the distinct |kz| summed
        "kz_rule_nodes": decomp.numerics.kz_nodes if decomp.mode is Dimensionality.THREE_PLUS_ONE else 1,
    }
    return _banded_trajectory(t, bands, provenance)


def cyclotron_reference(packet: GaussianPacket, params: SimParams) -> tuple[float, float]:
    """Reference cyclotron frequency (E_1 - E_0)/hbar at kz = 0 and orbit radius.

    The radius is the guiding-centre displacement k0x L^2 of the kicked
    packet; in the non-relativistic limit the frequency tends to
    hbar*eB/m = b^2/2 in natural units.
    """
    e0, e1 = energies([0, 1], 0.0, params)
    omega_c = float(e1 - e0)
    radius = packet.k0x * params.magnetic_length**2
    return omega_c, radius
