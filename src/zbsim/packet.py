"""Gaussian packet and its expansion over the Landau eigenbasis.

The packet is an ellipsoidal Gaussian in the second spinor component,

    f(x, y, z) = f_z(z) * f_xy(x, y),
    f_xy = (pi dx^2)^(-1/4) (pi dy^2)^(-1/4)
           * exp(-x^2/(2 dx^2) + i k0x x) * exp(-y^2/(2 dy^2)),
    f_z  = (pi dz^2)^(-1/4) exp(-z^2/(2 dz^2)),

all L2-normalised.  The kz rules of _kz_grid integrate against the
longitudinal momentum density |g_z(kz)|^2 = (dz/sqrt(pi)) exp(-kz^2 dz^2).
Expanded over plane waves in x (wavenumber kx) and the oscillator functions
of xi = y/L - kx L, the transverse coefficients factor into a Gaussian in kx
times an oscillator overlap:

    F_n(kx) = (dx^2/pi)^(1/4) exp(-(kx-k0x)^2 dx^2 / 2) * Phi_n(kx),
    Phi_n(kx) = sqrt(L) (pi dy^2)^(-1/4)
                * Integral exp(-a (xi + kx L)^2) psi_n(xi) dxi,  a = L^2/(2 dy^2),

with psi_n the unit-normalised oscillator function
psi_n(xi) = exp(-xi^2/2) H_n(xi) / C_n, C_n = (2^n n! sqrt(pi))^(1/2).
The xi-integral has a closed form, the Fock-state expansion of a squeezed,
displaced state (H. P. Yuen, Phys. Rev. A 13, 2226 (1976)): with c = kx L,
beta = -a c / (a + 1/2) and gamma = (1/2 - a) / (a + 1/2), the Hermite
generating function turns it into

    Phi_n(kx) = sqrt(L) (pi dy^2)^(-1/4) sqrt(pi / (a + 1/2)) pi^(-1/4)
                * exp(-a c^2 / (2a + 1)) d_n,
    d_0 = 1,  d_{n+1} = beta sqrt(2/(n+1)) d_n + gamma sqrt(n/(n+1)) d_{n-1},

a scalar three-term recurrence on each kx node.  beta is linear in kx and
gamma constant, so d_n is a polynomial of degree n in kx, and each overlap

    U_{m,n} = Integral F_m(kx)* F_n(kx) dkx = Integral |g_x|^2 Phi_m Phi_n dkx
            = C Integral exp(-s^2 (kx - k*)^2) d_m d_n dkx,
    s^2 = dx^2 + 2 a L^2 / (2a + 1),  k* = dx^2 k0x / s^2,

integrates a Gaussian times a polynomial of degree m + n.  The N-node
Gauss-Hermite rule on kx = k* + u/s, with weights
w_i dx/(s sqrt(pi)) exp(u_i^2 - dx^2 (kx_i - k0x)^2), is exact for it
whenever m + n <= 2N - 1: for every pair of levels below N.

The overlaps are evaluated level by level: overlap_levels runs the
recurrence one step per level, and decompose draws levels only until the
tail mass 1 - sum_{n<=n_max} U_{n,n} falls below the tolerance, so no level
above the truncation n_max is computed.  It draws levels while its rule is
exact for them, and starts again on twice the nodes if it needs more.

The Gauss rules are computed here with numpy alone.  Both refine their
non-negative nodes by Newton's method on the three-term recurrence of the
orthonormal polynomials and mirror them; the weights are the Christoffel
numbers 1 / sum_{k<n} p_k(x)^2, which vary slowly near a node, so rounding of
the node hardly moves them.  Gauss-Legendre starts from
cos(pi (i - 1/4) / (n + 1/2)); Gauss-Hermite starts from the square roots of
the generalised Laguerre Jacobi eigenvalues (the squared Hermite zeros) and
carries a log scale through the recurrence, so no weight becomes NaN however
far out its node lies.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

import numpy as np

from ._record import Record
from .errors import ConvergenceError, QuadratureError, TruncationError
from .params import Dimensionality, SimParams

_PI_QUARTER = math.pi ** 0.25
_NEWTON_STEPS = 50
_RESCALE_EVERY = 16  # recurrence steps between rescalings; |p| grows < (1.5|x| + 1)^16 between

# The largest dense float64 array (32 MiB) that a node count, level cap or
# matrix truncation may imply; larger settings are rejected before anything
# is allocated.
MAX_ARRAY = 1 << 22
# the largest oracle truncation whose 4(n_trunc + 1)-square fibre matrix fits MAX_ARRAY
MAX_N_TRUNC = math.isqrt(MAX_ARRAY) // 4 - 1
# An n-node Gauss-Hermite rule solves an (n/2) x (n/2) Jacobi matrix.
MAX_NODES = 2 * math.isqrt(MAX_ARRAY)
# the kx rule's first node count; decompose doubles it as its levels need,
# and the rule is exact for every level it draws, so the start sets only
# where the doubling begins
KX_NODES = 96
# the Legendre kz cutoff, in packet widths, past which |g_z|^2 at the
# interval's ends is below the smallest normal double
MAX_CUTOFF_SIGMAS = math.sqrt(-2.0 * math.log(np.finfo(float).tiny))
# the largest share of the packet's kz mass a kz rule may lose; the
# truncated Legendre rule drops erfc(c / sqrt(2)), 1.97e-9 at c = 6
KZ_MASS_TOL = 1e-8


def _recurrence(x: np.ndarray, n: int, a: np.ndarray, p0: float):
    """p_n(x), p_{n-1}(x), sum_{k<n} p_k(x)^2 and a log scale.

    p_k are the orthonormal polynomials of x p_k = a[k+1] p_{k+1} + a[k] p_{k-1},
    p_0 = p0.  The true values are the first two times exp(scale) and the
    sum times exp(2 scale).
    """
    p_prev, p = np.zeros_like(x), np.full_like(x, p0)
    squares = np.zeros_like(x)
    scale = np.zeros_like(x)
    for k in range(n):
        squares += p * p
        p_prev, p = p, (x * p - a[k] * p_prev) / a[k + 1]
        if k % _RESCALE_EVERY == _RESCALE_EVERY - 1:
            m = np.maximum(np.abs(p), np.abs(p_prev))
            p /= m
            p_prev /= m
            squares /= m * m
            scale += np.log(m)
    return p, p_prev, squares, scale


def _gauss_rule(start: np.ndarray, n: int, a: np.ndarray, p0: float, derivative):
    """Ascending nodes and log weights of the symmetric n-point Gauss rule.

    start holds the ceil(n/2) non-negative nodes, ascending (exactly 0 first
    for odd n); derivative(x, p_n, p_{n-1}) gives p_n'(x) on the same scale.
    """
    x = start
    for _ in range(_NEWTON_STEPS):
        p, p_prev, squares, scale = _recurrence(x, n, a, p0)
        step = p / derivative(x, p, p_prev)
        if np.all(np.abs(step) <= 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(x))):
            break
        x = x - step
    else:
        raise QuadratureError(f"the {n}-point Gauss rule did not converge")
    log_w = -np.log(squares) - 2.0 * scale
    k = n // 2
    return np.concatenate((-x[::-1][:k], x)), np.concatenate((log_w[::-1][:k], log_w))


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1] (weights sum to 2)."""
    if n < 1:
        raise ValueError(f"a Gauss rule needs at least one node, got {n}")
    k = np.arange(n + 1.0)
    a = k / np.sqrt(np.maximum(4.0 * k * k - 1.0, 1.0))  # a[0] = 0
    start = np.cos(math.pi * (np.arange((n + 1) // 2, 0, -1) - 0.25) / (n + 0.5))
    if n % 2:
        start[0] = 0.0

    def derivative(x, p, p_prev):  # (1 - x^2) P_n' = n (P_{n-1} - x P_n), orthonormal
        return ((2 * n + 1) * a[n] * p_prev - n * x * p) / ((1.0 - x) * (1.0 + x))

    x, log_w = _gauss_rule(start, n, a, 1.0 / math.sqrt(2.0), derivative)
    return x, np.exp(log_w)


def _hermite_log_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Hermite nodes and log weights; a weight too small for a
    double keeps its log."""
    if n < 1:
        raise ValueError(f"a Gauss rule needs at least one node, got {n}")
    a = np.sqrt(np.arange(n + 1) / 2.0)
    # the positive zeros squared are the zeros of L_{n//2}^(alpha), alpha = -+1/2
    m, alpha = n // 2, n % 2 - 0.5
    k = np.arange(m)
    jacobi = np.diag(2.0 * k + alpha + 1.0) + np.diag(np.sqrt(k[1:] * (k[1:] + alpha)), 1)
    start = np.sqrt(np.linalg.eigvalsh(jacobi, UPLO="U"))
    if n % 2:
        start = np.concatenate(([0.0], start))
    root = math.sqrt(2.0 * n)  # p_n' = sqrt(2n) p_{n-1}
    return _gauss_rule(start, n, a, 1.0 / _PI_QUARTER, lambda x, p, p_prev: root * p_prev)


def gauss_hermite(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Hermite nodes and weights for the weight exp(-x^2) (sum sqrt(pi))."""
    x, log_w = _hermite_log_rule(n)
    return x, np.exp(log_w)


class GaussianPacket(Record):
    """Ellipsoidal Gaussian packet with an x-direction momentum kick.

    Widths are in Compton wavelengths, k0x in 1/lambda_c.  d_z may be None
    for purely transverse (2+1) runs.  Only the second spinor component is
    supported; the dynamics formulas are specialised to it.
    """

    d_x: float
    d_y: float
    d_z: float | None = None
    k0x: float = 0.0

    def __post_init__(self) -> None:
        widths = {"d_x": self.d_x, "d_y": self.d_y, "d_z": self.d_z}
        for name, value in widths.items():
            if value is not None and not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"width {name} must be finite and positive, got {value!r}")
        if not math.isfinite(self.k0x):
            raise ValueError("k0x must be finite")


class Numerics(Record):
    """Quadrature and truncation knobs shared by decomposition and dynamics.

    The kz rule is the only quadrature with a node count to set: the kx rule
    starts on KX_NODES and doubles as the levels need (decompose), and the
    oscillator overlaps are evaluated in closed form.
    """

    n_max_cap: int = 256
    n_max_floor: int = 0  # force at least this many levels (capped)
    kz_nodes: int = 160
    kz_rule: str = "hermite"  # "hermite" (default) or "legendre" for long runs
    kz_cutoff_sigmas: float = 6.0
    tail_tol: float = 1e-10

    def __post_init__(self) -> None:
        for name, least in (("n_max_cap", 1), ("n_max_floor", 0), ("kz_nodes", 2)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.kz_rule not in ("hermite", "legendre"):
            raise ValueError(f"unknown kz rule {self.kz_rule!r}")
        for name in ("kz_cutoff_sigmas", "tail_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if self.kz_cutoff_sigmas > MAX_CUTOFF_SIGMAS:
            raise ValueError(
                f"kz_cutoff_sigmas = {self.kz_cutoff_sigmas!r} is above {MAX_CUTOFF_SIGMAS:g}, "
                f"where |g_z|^2 underflows"
            )
        # the largest arrays are the Jacobi matrix of the kz rule and the
        # (levels x kx) overlap table
        if self.kz_nodes > MAX_NODES:
            raise ValueError(
                f"kz_nodes = {self.kz_nodes} needs a Gauss rule of {self.kz_nodes} nodes, above {MAX_NODES}"
            )
        if (self.n_max_cap + 1) * KX_NODES > MAX_ARRAY:
            raise ValueError(
                f"n_max_cap = {self.n_max_cap} needs a {self.n_max_cap + 1} x {KX_NODES} overlap array, "
                f"above {MAX_ARRAY} elements"
            )


def momentum_profile_x(packet: GaussianPacket, kx) -> np.ndarray | float:
    """Fourier amplitude of the x profile, centred at the kick k0x."""
    dx = packet.d_x
    return (dx * dx / math.pi) ** 0.25 * np.exp(
        -0.5 * ((np.asarray(kx) - packet.k0x) * dx) ** 2
    )


def overlap_levels(
    packet: GaussianPacket, params: SimParams, kx: np.ndarray
) -> Iterator[np.ndarray]:
    """Phi_n(kx_i), the overlap of the y profile with oscillator level n, for n = 0, 1, 2, ...

    Each level costs one step of the closed-form recurrence (module
    docstring) on the kx nodes, so a caller draws only the levels it keeps.
    Where d_n overflows the levels are not finite (inf, or NaN where the
    Gaussian factor underflowed to 0); the caller silences the overflow
    warnings (np.errstate) around its draws.
    """
    ell = params.magnetic_length
    a = ell * ell / (2.0 * packet.d_y**2)
    c = np.asarray(kx) * ell
    beta = -a * c / (a + 0.5)
    gamma = (0.5 - a) / (a + 0.5)
    pref = math.sqrt(ell) * (math.pi * packet.d_y**2) ** -0.25 * math.sqrt(math.pi / (a + 0.5))
    factor = pref / _PI_QUARTER * np.exp(-a * c * c / (2.0 * a + 1.0))
    d_prev, d = np.zeros(c.shape), np.ones(c.shape)  # d_{-1} = 0 starts the recurrence
    for n in itertools.count():
        yield factor * d
        d_next = math.sqrt(2.0 / (n + 1)) * beta * d + gamma * math.sqrt(n / (n + 1.0)) * d_prev
        d_prev, d = d, d_next


def oscillator_overlaps(
    packet: GaussianPacket, params: SimParams, kx: np.ndarray, n_top: int
) -> np.ndarray:
    """Phi[n, i] for n = 0..n_top: the first n_top + 1 rows of overlap_levels.

    Exact up to roundoff.  Levels where the recurrence overflowed are not
    finite (see check_finite_overlaps).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        levels = overlap_levels(packet, params, kx)
        return np.array(list(itertools.islice(levels, n_top + 1)))


def _mean_level(packet: GaussianPacket, ell: float) -> float:
    """The packet's mean oscillator level <a+a> = (<xi^2> + <p_xi^2> - 1)/2
    with xi = y/L - kx L, in closed form: (d_y^2/L^2 + L^2/d_y^2 + L^2/d_x^2
    + 2 (k0x L)^2 - 2)/4."""
    dx, dy, kick = packet.d_x / ell, packet.d_y / ell, packet.k0x * ell
    return (dy * dy + 1.0 / (dy * dy) + 1.0 / (dx * dx) + 2.0 * kick * kick - 2.0) / 4.0


def check_finite_overlaps(values: np.ndarray, kx: np.ndarray, packet: GaussianPacket, params: SimParams):
    """ConvergenceError naming the first level (axis 0) whose overlaps
    overflowed, and the packet in magnetic lengths with its mean level: at or
    past the overflow no level cap can hold the packet, below it only a
    truncation forced past the packet's tail reaches the overflow."""
    bad = np.flatnonzero(~np.isfinite(values).reshape(len(values), -1).all(axis=1))
    if bad.size:
        ell = params.magnetic_length
        mean = _mean_level(packet, ell)
        if mean < bad[0]:
            cause = ("below it, so only a truncation forced past the packet's tail "
                     "(n_max_floor, or the oracle's n_trunc) draws levels this high")
        else:
            cause = ("and a truncation needs more levels than that, so no level cap can hold it; "
                     "bring the widths nearer one magnetic length and the kick nearer 0")
        raise ConvergenceError(
            f"the Hermite recurrence of the oscillator overlaps overflowed at level {bad[0]} on "
            f"{kx.size} kx nodes (L/d_y = {ell / packet.d_y:.3g}, max |kx| L = "
            f"{np.max(np.abs(kx)) * ell:.3g}); the packet (d_x = {packet.d_x / ell:.3g} L, "
            f"d_y = {packet.d_y / ell:.3g} L, k0x = {packet.k0x * ell:.3g} / L) has its mean "
            f"level at {mean:.3g}, {cause}"
        )


class PacketDecomposition(Record):
    """Eigenbasis expansion tables of one packet at fixed field parameters.

    phi[n, i] are the oscillator overlaps on the kx nodes and kx_weights the
    weights of _kx_rule, so that U_{m,n} = sum_i kx_weights[i] phi[m, i] phi[n, i]
    exactly for m + n < 2 kx_nodes.size.
    """

    packet: GaussianPacket
    params: SimParams
    mode: Dimensionality
    n_max: int
    kx_nodes: np.ndarray
    kx_weights: np.ndarray
    phi: np.ndarray
    u_diag: np.ndarray
    u_band: np.ndarray
    tail_mass: float
    kz_nodes: np.ndarray
    kz_weights: np.ndarray
    numerics: Numerics = Numerics()

    def f_table(self) -> np.ndarray:
        """F[n, i] = x-Gaussian(kx_i) * phi[n, i] on the kx grid."""
        return np.asarray(momentum_profile_x(self.packet, self.kx_nodes))[None, :] * self.phi


def u_overlap(decomp: PacketDecomposition, m: int, n: int) -> float:
    """Overlap matrix entry U_{m,n}; symmetric and real for these packets."""
    if m < 0 or n < 0:
        raise ValueError("indices must be non-negative")
    if m > decomp.n_max or n > decomp.n_max:
        raise TruncationError(
            f"U_({m},{n}) beyond the truncation n_max={decomp.n_max}"
        )
    lo, hi = sorted((m, n))  # fixed operand order keeps U exactly symmetric
    return float(np.sum(decomp.kx_weights * decomp.phi[lo] * decomp.phi[hi]))


def _kz_grid(packet: GaussianPacket, numerics: Numerics) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights approximating Integral h(kz) |g_z(kz)|^2 dkz."""
    dz = packet.d_z
    if dz is None:
        raise ValueError("3+1 decomposition requires a longitudinal width d_z")
    if numerics.kz_rule == "hermite":
        u, w = gauss_hermite(numerics.kz_nodes)
        return u / dz, w / math.sqrt(math.pi)
    # truncated Gauss-Legendre for long-horizon runs with oscillatory kernels
    sigma = 1.0 / (math.sqrt(2.0) * dz)
    cutoff = numerics.kz_cutoff_sigmas * sigma
    x, w = gauss_legendre(numerics.kz_nodes)
    kz = cutoff * x
    weights = cutoff * w * (dz / math.sqrt(math.pi)) * np.exp(-((kz * dz) ** 2))
    return kz, weights


def _folded(kz: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The kz >= 0 nodes of a mirrored rule, ascending, each kz > 0 node at
    twice its weight; an odd rule's kz = 0 node keeps its own.  Every
    integrand of the engines depends on kz only through kz^2, so the folded
    rule integrates it as the full one does."""
    k = kz.size // 2
    if not (np.array_equal(kz[:k], -kz[::-1][:k]) and np.array_equal(weights[:k], weights[::-1][:k])):
        raise AssertionError("the kz rule does not mirror its nodes and weights")
    return kz[k:], np.where(kz[k:] > 0.0, 2.0, 1.0) * weights[k:]


def _kx_rule(packet: GaussianPacket, params: SimParams, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes-node Gauss-Hermite rule for Integral |g_x(kx)|^2 h(kx) dkx
    placed on the Gaussian of |g_x|^2 Phi_m Phi_n, so that it is exact for
    h = Phi_m Phi_n with m + n <= 2 nodes - 1 (module docstring).  Each weight
    is one exponential of its summed logs, so no factor of it overflows."""
    ell = params.magnetic_length
    a = ell * ell / (2.0 * packet.d_y**2)
    dx2 = packet.d_x**2
    s = math.sqrt(dx2 + 2.0 * a * ell * ell / (2.0 * a + 1.0))
    u, log_w = _hermite_log_rule(nodes)
    kx = dx2 * packet.k0x / (s * s) + u / s
    log_scale = math.log(packet.d_x / (s * math.sqrt(math.pi)))
    return kx, np.exp(log_w + u * u - dx2 * (kx - packet.k0x) ** 2 + log_scale)


def decompose(
    packet: GaussianPacket,
    params: SimParams,
    mode: Dimensionality,
    numerics: Numerics | None = None,
) -> PacketDecomposition:
    """Expand the packet over the Landau basis and build the overlap tables.

    The run's mode enters here and only here: a 3+1 decomposition carries a
    kz quadrature of the packet's longitudinal profile, a 2+1 one the single
    node kz = 0.  The engines and the peak labels read the packet, the field
    parameters and the mode from the decomposition.  The 3+1 rule is folded
    onto its distinct |kz| (_folded): it must mirror its nodes and weights
    exactly, and the engines and the oracle read only its kz >= 0 half, so
    numerics.kz_nodes counts the rule's nodes and kz_nodes.size the nodes
    evaluated.  A kz rule whose weights miss more than KZ_MASS_TOL of the
    packet's kz mass is a QuadratureError.

    The truncation n_max is the smallest level, at least
    min(n_max_floor, n_max_cap), with tail mass below numerics.tail_tol
    (ConvergenceError if the cap is too small).  Levels are drawn one at a
    time until then; none above n_max is evaluated.  The N-node kx rule
    (_kx_rule) is exact for the levels below N, so starting from
    N = KX_NODES, a truncation that needs more runs again on 2N nodes
    (ConvergenceError past the node and array bounds).  An overlap overflow
    at or below n_max is a ConvergenceError.
    """
    mode = Dimensionality(mode)  # "2+1" or "3+1" as well; anything else is a ValueError
    num = numerics if numerics is not None else Numerics()
    kz_nodes, kz_weights = np.array([0.0]), np.array([1.0])
    if mode is Dimensionality.THREE_PLUS_ONE:
        kz_nodes, kz_weights = _folded(*_kz_grid(packet, num))
        lost = 1.0 - math.fsum(kz_weights)
        if not abs(lost) <= KZ_MASS_TOL:  # a NaN fails
            raise QuadratureError(
                f"the kz rule ([numerics] kz_rule = {num.kz_rule}, kz_nodes = {num.kz_nodes}, "
                f"kz_cutoff_sigmas = {num.kz_cutoff_sigmas:g}) has weights summing to "
                f"{1.0 - lost:.6g}, more than {KZ_MASS_TOL:.0e} from the packet's kz mass 1"
            )

    least = min(num.n_max_floor, num.n_max_cap)
    ell = params.magnetic_length
    for nodes in (KX_NODES << k for k in itertools.count()):  # KX_NODES, twice it, ...
        kx, weights = _kx_rule(packet, params, nodes)
        rows, diag = [], []
        cum = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            levels = zip(range(min(num.n_max_cap, nodes - 1) + 1), overlap_levels(packet, params, kx))
            for n_max, row in levels:
                rows.append(row)
                diag.append(row**2 @ weights)
                check_finite_overlaps(np.array(diag), kx, packet, params)
                cum += diag[-1]
                if n_max >= least and 1.0 - cum < num.tail_tol:
                    break
            else:
                if n_max == num.n_max_cap:
                    raise ConvergenceError(
                        f"tail mass {1.0 - cum:.3e} above {num.tail_tol:.1e} at the "
                        f"cap n_max_cap={num.n_max_cap}; raise the cap, or bring the packet "
                        f"(d_x = {packet.d_x / ell:.3g} L, d_y = {packet.d_y / ell:.3g} L, "
                        f"k0x = {packet.k0x * ell:.3g} / L) nearer one magnetic length"
                    )
                if 2 * nodes > MAX_NODES or (num.n_max_cap + 1) * 2 * nodes > MAX_ARRAY:
                    raise ConvergenceError(
                        f"levels past {n_max} (tail mass {1.0 - cum:.3e}, n_max_floor {num.n_max_floor}) need "
                        f"more than {nodes} kx nodes, and {2 * nodes} pass {MAX_NODES} nodes or the "
                        f"{MAX_ARRAY}-element bound of a {num.n_max_cap + 1} x {2 * nodes} overlap array"
                    )
                continue
        break

    phi = np.array(rows)
    return PacketDecomposition(
        packet=packet,
        params=params,
        mode=mode,
        n_max=n_max,
        kx_nodes=kx,
        kx_weights=weights,
        phi=phi,
        u_diag=np.array(diag),
        u_band=(phi[:-1] * phi[1:]) @ weights if n_max >= 1 else np.zeros(0),
        tail_mass=float(1.0 - cum),
        kz_nodes=kz_nodes,
        kz_weights=kz_weights,
        numerics=num,
    )
