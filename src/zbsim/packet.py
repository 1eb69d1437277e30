"""Gaussian packet and its expansion over the Landau eigenbasis.

The packet is an ellipsoidal Gaussian in the second spinor component,

    f(x, y, z) = f_z(z) * f_xy(x, y),
    f_xy = (pi dx^2)^(-1/4) (pi dy^2)^(-1/4)
           * exp(-x^2/(2 dx^2) + i k0x x) * exp(-y^2/(2 dy^2)),
    f_z  = (pi dz^2)^(-1/4) exp(-z^2/(2 dz^2)),

all L2-normalised.  Expanded over plane waves in x (wavenumber kx) and the
oscillator functions of xi = y/L - kx L, the transverse coefficients factor
into a Gaussian in kx times an oscillator overlap:

    F_n(kx) = (dx^2/pi)^(1/4) exp(-(kx-k0x)^2 dx^2 / 2) * Phi_n(kx),
    Phi_n(kx) = sqrt(L) (pi dy^2)^(-1/4)
                * Integral exp(-a (xi + kx L)^2) psi_n(xi) dxi,  a = L^2/(2 dy^2),

with psi_n the unit-normalised oscillator function
psi_n(xi) = exp(-xi^2/2) H_n(xi) / C_n, C_n = (2^n n! sqrt(pi))^(1/2).
The xi-integral is a combined Gaussian times a degree-n polynomial, so a
Gauss-Hermite rule in the completed-square variable is exact once the node
count exceeds (n+1)/2.  Overlap matrix entries are then

    U_{m,n} = Integral F_m(kx)* F_n(kx) dkx = sum_i w_i Phi_m(kx_i) Phi_n(kx_i)

on a Gauss-Hermite kx grid scaled to the packet momentum width, with
probability-normalised weights w_i (sum_i w_i = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import roots_hermite, roots_legendre

from .errors import ConvergenceError, QuadratureError, TruncationError
from .params import Dimensionality, SimParams

_PI_QUARTER = math.pi ** 0.25


@dataclass(frozen=True)
class GaussianPacket:
    """Ellipsoidal Gaussian packet with an x-direction momentum kick.

    Widths are in Compton wavelengths, k0x in 1/lambda_c.  d_z may be None
    for purely transverse (2+1) runs.  Only the second spinor component is
    supported; the dynamics formulas are specialised to it.
    """

    d_x: float
    d_y: float
    d_z: float | None = None
    k0x: float = 0.0
    component: int = 2

    def __post_init__(self) -> None:
        widths = {"d_x": self.d_x, "d_y": self.d_y, "d_z": self.d_z}
        for name, value in widths.items():
            if value is not None and not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"width {name} must be finite and positive, got {value!r}")
        if self.component not in (1, 2, 3, 4):
            raise ValueError(f"spinor component must be 1..4, got {self.component}")
        if not math.isfinite(self.k0x):
            raise ValueError("k0x must be finite")


@dataclass(frozen=True)
class Numerics:
    """Quadrature and truncation knobs shared by decomposition and dynamics."""

    n_max_cap: int = 256
    n_max_floor: int = 0  # force at least this many levels (capped)
    kx_nodes: int = 96
    y_nodes: int = 0  # 0 = automatic (exact for the oscillator family)
    kz_nodes: int = 160
    kz_rule: str = "hermite"  # "hermite" (default) or "legendre" for long runs
    kz_cutoff_sigmas: float = 6.0
    tail_tol: float = 1e-10
    convergence_check: bool = True
    convergence_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.n_max_cap < 1 or self.kx_nodes < 4 or self.kz_nodes < 2:
            raise ValueError("node counts out of range")
        if self.kz_rule not in ("hermite", "legendre"):
            raise ValueError(f"unknown kz rule {self.kz_rule!r}")
        for name in ("kz_cutoff_sigmas", "tail_tol", "convergence_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")

    def resolved_y_nodes(self) -> int:
        if self.y_nodes > 0:
            return self.y_nodes
        return max(48, self.n_max_cap // 2 + 8)

    def doubled(self) -> "Numerics":
        return replace(
            self,
            kx_nodes=2 * self.kx_nodes,
            y_nodes=2 * self.resolved_y_nodes(),
            kz_nodes=2 * self.kz_nodes,
            convergence_check=False,
        )


def g_z(packet: GaussianPacket, kz) -> np.ndarray | float:
    """Fourier amplitude of the longitudinal profile, (dz^2/pi)^(1/4) e^(-kz^2 dz^2/2).

    |g_z|^2 integrates to one over kz.  Requires a packet with d_z set.
    """
    if packet.d_z is None:
        raise ValueError("g_z requires a longitudinal width (3+1 packet)")
    dz = packet.d_z
    return (dz * dz / math.pi) ** 0.25 * np.exp(-0.5 * (np.asarray(kz) * dz) ** 2)


def momentum_profile_x(packet: GaussianPacket, kx) -> np.ndarray | float:
    """Fourier amplitude of the x profile, centred at the kick k0x."""
    dx = packet.d_x
    return (dx * dx / math.pi) ** 0.25 * np.exp(
        -0.5 * ((np.asarray(kx) - packet.k0x) * dx) ** 2
    )


def _weighted_hermite_sums(
    xi_star: np.ndarray, scale: float, n_top: int, y_nodes: int
) -> np.ndarray:
    """S[n, i] = sum_j w_j h_n(xi_star_i + scale*u_j) for GH nodes (u_j, w_j).

    h_n is the normalised Hermite polynomial H_n / C_n.  The recurrence is
    seeded with the quadrature weights so intermediate products stay
    representable even where w_j underflows and h_n overflows separately.
    """
    u, w = roots_hermite(y_nodes)
    xi = xi_star[None, :] + scale * u[:, None]  # (y_nodes, n_kx)
    out = np.empty((n_top + 1, xi_star.size))
    t_prev = np.zeros(xi.shape)  # h_{-1} = 0 starts the recurrence
    t_cur = np.broadcast_to((w / _PI_QUARTER)[:, None], xi.shape).copy()
    out[0] = t_cur.sum(axis=0)
    for n in range(n_top):
        t_next = math.sqrt(2.0 / (n + 1)) * xi * t_cur - math.sqrt(n / (n + 1.0)) * t_prev
        out[n + 1] = t_next.sum(axis=0)
        t_prev, t_cur = t_cur, t_next
    return out


def oscillator_overlaps(
    packet: GaussianPacket,
    params: SimParams,
    kx: np.ndarray,
    n_top: int,
    y_nodes: int,
) -> np.ndarray:
    """Phi[n, i]: overlap of the y profile with oscillator level n at kx_i.

    Exact (up to roundoff) for y_nodes >= (n_top + 1)/2 since the integrand
    is a single Gaussian times a polynomial of degree n.  Levels where the
    recurrence overflowed are not finite (see check_finite_overlaps).
    """
    ell = params.magnetic_length
    a = ell * ell / (2.0 * packet.d_y**2)
    s = math.sqrt(2.0 / (2.0 * a + 1.0))
    c = np.asarray(kx) * ell
    xi_star = -2.0 * a * c / (2.0 * a + 1.0)
    q_star = a * (xi_star + c) ** 2 + 0.5 * xi_star**2
    pref = math.sqrt(ell) * (math.pi * packet.d_y**2) ** -0.25 * s
    with np.errstate(over="ignore", invalid="ignore"):
        sums = _weighted_hermite_sums(xi_star, s, n_top, y_nodes)
        return pref * np.exp(-q_star)[None, :] * sums


def check_finite_overlaps(values: np.ndarray, kx: np.ndarray, packet: GaussianPacket, params: SimParams):
    """ConvergenceError naming the first level (axis 0) whose overlaps overflowed."""
    bad = np.flatnonzero(~np.isfinite(values).reshape(len(values), -1).all(axis=1))
    if bad.size:
        ell = params.magnetic_length
        raise ConvergenceError(
            f"the Hermite recurrence of the oscillator overlaps overflowed at level {bad[0]} on "
            f"{kx.size} kx nodes (L/d_y = {ell / packet.d_y:.3g}, max |kx| L = "
            f"{np.max(np.abs(kx)) * ell:.3g}); the field is too weak for this packet"
        )


def f_coeff(
    packet: GaussianPacket,
    n: int,
    kx: float,
    params: SimParams,
    y_nodes: int = 0,
) -> float:
    """Single expansion coefficient F_n(kx) of the transverse profile.

    Real for packets without a y kick.  Checks its own quadrature by
    doubling the node count and raises QuadratureError on disagreement.
    """
    if n < 0:
        raise ValueError(f"Landau index must be non-negative, got {n}")
    nodes = y_nodes if y_nodes > 0 else max(32, n // 2 + 8)
    karr = np.asarray([float(kx)])
    phi = oscillator_overlaps(packet, params, karr, n, nodes)[n, 0]
    phi2 = oscillator_overlaps(packet, params, karr, n, 2 * nodes)[:, 0]
    check_finite_overlaps(phi2, karr, packet, params)
    phi2 = phi2[n]
    if not abs(phi - phi2) <= 1e-10 * max(1.0, abs(phi2)):
        raise QuadratureError(
            f"F_{n}({kx}) not converged: {phi} vs {phi2} at {nodes}/{2*nodes} nodes"
        )
    return float(momentum_profile_x(packet, kx)) * phi2


@dataclass(frozen=True)
class PacketDecomposition:
    """Eigenbasis expansion tables of one packet at fixed field parameters.

    phi[n, i] are the oscillator overlaps on the kx grid and kx_weights the
    probability-normalised quadrature weights, so that
    U_{m,n} = sum_i kx_weights[i] phi[m, i] phi[n, i].
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
    numerics: Numerics = field(default_factory=Numerics)

    def f_table(self) -> np.ndarray:
        """F[n, i] = x-Gaussian(kx_i) * phi[n, i] on the kx grid."""
        return np.asarray(momentum_profile_x(self.packet, self.kx_nodes))[None, :] * self.phi

    def occupied_levels(self, threshold: float = 1e-6) -> list[int]:
        """Indices n whose diagonal occupation exceeds `threshold`."""
        return [int(n) for n in np.nonzero(self.u_diag > threshold)[0]]


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
        u, w = roots_hermite(numerics.kz_nodes)
        return u / dz, w / math.sqrt(math.pi)
    # truncated Gauss-Legendre for long-horizon runs with oscillatory kernels
    sigma = 1.0 / (math.sqrt(2.0) * dz)
    cutoff = numerics.kz_cutoff_sigmas * sigma
    x, w = roots_legendre(numerics.kz_nodes)
    kz = cutoff * x
    weights = cutoff * w * (dz / math.sqrt(math.pi)) * np.exp(-((kz * dz) ** 2))
    return kz, weights


def decompose(
    packet: GaussianPacket,
    params: SimParams,
    numerics: Numerics | None = None,
    mode: Dimensionality | None = None,
) -> PacketDecomposition:
    """Expand the packet over the Landau basis and build the overlap tables.

    The truncation n_max is the smallest level with tail mass below
    numerics.tail_tol (ConvergenceError if the cap is too small).  With
    convergence_check on, the kx/y quadratures are re-run at doubled node
    counts and must agree to numerics.convergence_tol.  Only an overlap
    overflow at or below n_max is a ConvergenceError.
    """
    if packet.component != 2:
        raise NotImplementedError(
            "only packets in the second spinor component are supported"
        )
    num = numerics if numerics is not None else Numerics()
    run_mode = mode if mode is not None else params.dimensionality

    def build(n: Numerics):
        u, w = roots_hermite(n.kx_nodes)
        kx = packet.k0x + u / packet.d_x
        weights = w / math.sqrt(math.pi)
        phi = oscillator_overlaps(packet, params, kx, n.n_max_cap, n.resolved_y_nodes())
        with np.errstate(over="ignore", invalid="ignore"):
            diag_full = phi**2 @ weights
        return kx, weights, phi, diag_full

    kx, weights, phi, diag_full = build(num)
    cum = np.cumsum(diag_full)
    ok = np.nonzero(1.0 - cum < num.tail_tol)[0]
    n_max = max(int(ok[0]) if ok.size else num.n_max_cap, min(num.n_max_floor, num.n_max_cap))
    check_finite_overlaps(diag_full[: n_max + 1], kx, packet, params)
    if ok.size == 0:
        raise ConvergenceError(
            f"tail mass {1.0 - cum[-1]:.3e} above {num.tail_tol:.1e} at the "
            f"cap n_max_cap={num.n_max_cap}; raise the cap"
        )
    tail = float(1.0 - cum[n_max])

    if num.convergence_check:
        kx2, _, _, diag2 = build(num.doubled())
        check_finite_overlaps(diag2[: n_max + 1], kx2, packet, params)
        dev = float(np.max(np.abs(diag2[: n_max + 1] - diag_full[: n_max + 1])))
        if dev > num.convergence_tol:
            raise QuadratureError(
                f"decomposition quadrature not converged: diagonal shift {dev:.3e} "
                f"on doubling (tolerance {num.convergence_tol:.1e})"
            )

    phi = phi[: n_max + 1]
    u_diag = diag_full[: n_max + 1]
    u_band = (phi[:-1] * phi[1:]) @ weights if n_max >= 1 else np.zeros(0)

    if run_mode is Dimensionality.THREE_PLUS_ONE:
        kz_nodes, kz_weights = _kz_grid(packet, num)
    else:
        kz_nodes = np.array([0.0])
        kz_weights = np.array([1.0])

    return PacketDecomposition(
        packet=packet,
        params=params,
        mode=run_mode,
        n_max=n_max,
        kx_nodes=kx,
        kx_weights=weights,
        phi=phi,
        u_diag=u_diag,
        u_band=np.asarray(u_band),
        tail_mass=tail,
        kz_nodes=kz_nodes,
        kz_weights=kz_weights,
        numerics=num,
    )
