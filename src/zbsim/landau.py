"""Closed-form Landau-level spectrum of the Dirac equation in a uniform field.

Level energies, state norms and spin/branch weight factors.  All
quantities are in natural units (see :mod:`zbsim.params`):

    E(n, kz) = sqrt(1 + n b^2 + kz^2),

with the level ladder frequency omega_n = b*sqrt(n).  The energy branch is
labelled by eps = +-1 and the spin index by s = +-1; the energy itself does
not depend on s.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from ._record import Record
from .params import SimParams


class NonexistentStateError(ValueError):
    """Raised for quantum-number combinations that label a vanishing state."""


class TransitionKind(enum.Enum):
    INTRABAND = "intraband"  # same energy branch: classical cyclotron lines
    INTERBAND = "interband"  # opposite branches: trembling-motion lines


class LandauLabel(Record):
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


def energies(n, kz, params: SimParams) -> np.ndarray:
    """Level energy E(n, kz) = sqrt(m^2 + (n omega^2 + kz^2)) in mc^2.

    Broadcasts over arrays of levels n and wavenumbers kz.  This is the one
    implementation of the spectrum: the line tables, the oracle's expected
    eigenvalues, the peak labels and the cyclotron reference all call it.
    """
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
    e = float(energies(n, kz, params))
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
