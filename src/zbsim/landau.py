"""Closed-form Landau-level spectrum of the Dirac equation in a uniform field.

Energies, state norms, spin/branch weight factors and allowed transition
frequencies.  All quantities are in natural units (see :mod:`zbsim.params`):

    E(n, kz) = sqrt(1 + n b^2 + kz^2),

with the level ladder frequency omega_n = b*sqrt(n).  The energy branch is
labelled by eps = +-1 and the spin index by s = +-1; the energy itself does
not depend on s.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .params import SimParams


class NonexistentStateError(ValueError):
    """Raised for quantum-number combinations that label a vanishing state."""


class ForbiddenTransitionError(ValueError):
    """Raised for transitions violating the |n - n'| = 1 selection rule."""


class TransitionKind(enum.Enum):
    INTRABAND = "intraband"  # same energy branch: classical cyclotron lines
    INTERBAND = "interband"  # opposite branches: trembling-motion lines


@dataclass(frozen=True)
class LandauLabel:
    """The five quantum numbers (n, kx, kz, eps, s) of one eigenstate.

    Construction rejects labels of states that do not exist: the lowest
    level n = 0 supports only s = -1, and (n = 0, kz = 0, eps = -1) has
    vanishing norm.
    """

    n: int
    kx: float
    kz: float
    eps: int
    s: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"Landau index must be non-negative, got {self.n}")
        if self.eps not in (-1, 1):
            raise ValueError(f"energy branch eps must be +-1, got {self.eps}")
        if self.s not in (-1, 1):
            raise ValueError(f"spin index s must be +-1, got {self.s}")
        if self.n == 0 and self.s == 1:
            # All four spinor components vanish identically for (n=0, s=+1).
            raise NonexistentStateError("the n = 0 level exists only for s = -1")
        if self.n == 0 and self.kz == 0.0 and self.eps == -1:
            raise NonexistentStateError(
                "(n=0, kz=0, eps=-1) has zero norm and is not a state"
            )


@dataclass(frozen=True)
class SpectrumPoint:
    """Energy, ladder frequency, norm and branch weight of one level."""

    energy: float
    omega_n: float
    norm: float
    chi: float


def energy(n: int, kz: float, params: SimParams) -> float:
    """Level energy sqrt((mc^2)^2 + n (hbar omega)^2 + (hbar kz c)^2) in mc^2."""
    if n < 0:
        raise ValueError(f"Landau index must be non-negative, got {n}")
    b = params.field_ratio_b
    # hypot is overflow-safe for large n and |kz|
    return math.hypot(params.mass_energy, math.sqrt(n) * b, kz)


def energies(n, kz, params: SimParams) -> np.ndarray:
    """Vectorised :func:`energy`, broadcast over arrays of levels n and kz:
    sqrt(m^2 + (n omega^2 + kz^2)), the rounding of the line tables."""
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError(f"Landau index must be non-negative, got {n.min()}")
    return np.sqrt(params.mass_energy**2 + (n * params.omega**2 + np.asarray(kz) ** 2))


def norm_and_chi(n: int, eps: int, kz: float, params: SimParams) -> tuple[float, float]:
    """State norm N = sqrt(2E^2 + 2 eps mc^2 E) and weight chi = (eps E + mc^2)/N.

    Raises NonexistentStateError for the zero-norm combination
    (n = 0, kz = 0, eps = -1).
    """
    if eps not in (-1, 1):
        raise ValueError(f"energy branch eps must be +-1, got {eps}")
    e = energy(n, kz, params)
    m = params.mass_energy
    if eps == 1:
        nsq = 2.0 * e * (e + m)
        norm = math.sqrt(nsq)
        return norm, (e + m) / norm
    # eps = -1: E - mc^2 = p^2 / (E + mc^2) with p = sqrt(n b^2 + kz^2) taken
    # by hypot, which neither cancels at small b nor underflows at tiny kz
    p = math.hypot(math.sqrt(n) * params.field_ratio_b, kz)
    if p == 0.0:
        raise NonexistentStateError(
            "(n=0, kz=0, eps=-1) has zero norm and is not a state"
        )
    return p * math.sqrt(2.0 * e / (e + m)), -p / math.sqrt(2.0 * e * (e + m))


def spectrum_point(n: int, eps: int, kz: float, params: SimParams) -> SpectrumPoint:
    """Bundle energy, omega_n, norm and chi for one (n, eps, kz)."""
    norm, chi = norm_and_chi(n, eps, kz, params)
    return SpectrumPoint(
        energy=energy(n, kz, params),
        omega_n=params.omega * math.sqrt(n),
        norm=norm,
        chi=chi,
    )


def transition_frequency(
    n: int,
    n_prime: int,
    eps: int,
    eps_prime: int,
    kz: float,
    params: SimParams,
) -> tuple[float, TransitionKind]:
    """Frequency |eps' E_{n'} - eps E_n| of an allowed line and its kind.

    Only |n - n'| = 1 is allowed; anything else raises
    ForbiddenTransitionError.  Same-branch lines are intraband (cyclotron),
    opposite-branch lines interband (trembling motion).
    """
    if abs(n - n_prime) != 1:
        raise ForbiddenTransitionError(
            f"transition n={n} -> n'={n_prime} violates the n' = n +- 1 rule"
        )
    for e in (eps, eps_prime):
        if e not in (-1, 1):
            raise ValueError(f"energy branch must be +-1, got {e}")
    lo, hi = min(n, n_prime), max(n, n_prime)
    e_lo = energy(lo, kz, params)
    e_hi = energy(hi, kz, params)
    if eps == eps_prime:
        freq = e_hi - e_lo  # positive; difference of adjacent levels
        kind = TransitionKind.INTRABAND
    else:
        freq = e_hi + e_lo
        kind = TransitionKind.INTERBAND
    return freq, kind
