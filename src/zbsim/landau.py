"""Closed-form Landau-level spectrum of the Dirac equation in a uniform field.

The level energies and the two kinds of transition between them.  All
quantities are in natural units (see :mod:`zbsim.params`):

    E(n, kz) = sqrt(1 + n b^2 + kz^2),

with the level ladder frequency omega_n = b*sqrt(n).  The energy does not
depend on the branch eps = +-1 beyond its sign, nor on the spin.  A
transition within one branch (E_{n+1} - E_n) is intraband, one across the
branches (E_{n+1} + E_n) interband.
"""

from __future__ import annotations

import enum

import numpy as np

from .params import SimParams


class TransitionKind(enum.Enum):
    INTRABAND = "intraband"  # same energy branch: classical cyclotron lines
    INTERBAND = "interband"  # opposite branches: trembling-motion lines


def energies(n, kz, params: SimParams) -> np.ndarray:
    """Level energy E(n, kz) = sqrt(m^2 + (n omega^2 + kz^2)) in mc^2.

    Broadcasts over arrays of levels n and wavenumbers kz.  This is the one
    implementation of the spectrum: the line tables, the peak labels and the
    cyclotron reference all call it.
    """
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError(f"Landau index must be non-negative, got {n.min()}")
    return np.sqrt(params.mass_energy**2 + (n * params.omega**2 + np.asarray(kz) ** 2))
