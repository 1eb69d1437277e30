"""Mapping between trapped-ion drive parameters and the simulated wave equation.

A four-level ion driven by carrier, Jaynes-Cummings (JC) and anti-JC (AJC)
interactions realises the transformed Hamiltonian with effective parameters

    c_sim = 2 eta Delta Omega_tilde,   (mc^2)_sim = hbar Omega,   L = sqrt(2) Delta,

where eta is the Lamb-Dicke parameter, Omega the carrier and Omega_tilde the
sideband coupling strength, and Delta = sqrt(hbar / 2 M nu) the ground-state
spread of an ion of mass M in a trap of frequency nu.  The simulated field
strength is the single dimensionless ratio

    kappa = hbar eB / (m 2 mc^2) = (eta Omega_tilde / Omega)^2,

equivalently b = 2 eta Omega_tilde / Omega.  The excitation plan lists the
interaction terms needed to realise the coupled equation; the transverse
(2+1) plan takes 8 laser-excitation pairs and the full 3+1 plan 12.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

from .errors import ConfigError
from .params import (
    ELECTRON_MASS_SI,
    HBAR_SI,
    Dimensionality,
    SimParams,
    make_params_dimensionless,
)

ATOMIC_MASS_KG = 1.66053906660e-27  # CODATA 2018
# singly charged ions: atomic mass minus one electron
CA40_ION_MASS_KG = (39.962590863 * ATOMIC_MASS_KG) - ELECTRON_MASS_SI
MG25_ION_MASS_KG = (24.985836976 * ATOMIC_MASS_KG) - ELECTRON_MASS_SI

ION_MASSES_KG = {"ca40": CA40_ION_MASS_KG, "mg25": MG25_ION_MASS_KG}


@dataclass(frozen=True)
class TrapConfig:
    """Trapped-ion drive and motional parameters (SI units, angular frequencies)."""

    eta: float
    omega_carrier: float  # Omega [rad/s]
    omega_tilde: float  # Omega_tilde [rad/s]
    delta: float  # ground-state spread [m]
    ion_mass: float  # [kg]
    trap_freq: float  # nu [rad/s]

    def __post_init__(self) -> None:
        for name in ("eta", "omega_carrier", "omega_tilde", "delta", "ion_mass", "trap_freq"):
            value = getattr(self, name)
            # a derived trap_freq or delta can under- or overflow; a NaN fails
            if not sys.float_info.min <= value <= sys.float_info.max:
                raise ValueError(f"{name} must be a positive normal float, got {value!r}")
        expected = math.sqrt(HBAR_SI / (2.0 * self.ion_mass * self.trap_freq))
        if abs(self.delta - expected) > 1e-12 * expected:
            raise ValueError(
                f"delta={self.delta} inconsistent with sqrt(hbar/2M nu)={expected}"
            )

    @staticmethod
    def from_spread(
        eta: float, omega_carrier: float, omega_tilde: float, delta: float,
        ion_mass: float = CA40_ION_MASS_KG,
    ) -> "TrapConfig":
        """Derive the trap frequency from the ground-state spread."""
        trap_freq = HBAR_SI / (2.0 * ion_mass * delta * delta)
        return TrapConfig(eta, omega_carrier, omega_tilde, delta, ion_mass, trap_freq)

    @staticmethod
    def from_trap_frequency(
        eta: float, omega_carrier: float, omega_tilde: float, trap_freq: float,
        ion_mass: float = CA40_ION_MASS_KG,
    ) -> "TrapConfig":
        """Derive the ground-state spread from the trap frequency."""
        delta = math.sqrt(HBAR_SI / (2.0 * ion_mass * trap_freq))
        return TrapConfig(eta, omega_carrier, omega_tilde, delta, ion_mass, trap_freq)


@dataclass(frozen=True)
class SimulatedScales:
    """SI values taken by the simulated wave-equation constants."""

    speed: float  # c_sim [m/s]
    rest_energy: float  # (mc^2)_sim [J]
    compton_length: float  # lambda_c_sim [m]
    time_unit: float  # t_c_sim [s]
    magnetic_length: float  # L_sim [m]


def kappa_of(trap: TrapConfig) -> float:
    """Simulated field ratio kappa = (eta Omega_tilde / Omega)^2."""
    if trap.omega_carrier == 0.0:
        raise ValueError("carrier coupling must be non-zero")
    return (trap.eta * trap.omega_tilde / trap.omega_carrier) ** 2


def trap_to_dirac(trap: TrapConfig) -> tuple[SimParams, SimulatedScales]:
    """Simulated-equation parameters plus the SI scales they correspond to."""
    c_sim = 2.0 * trap.eta * trap.delta * trap.omega_tilde
    rest = HBAR_SI * trap.omega_carrier
    b = 2.0 * trap.eta * trap.omega_tilde / trap.omega_carrier
    params = make_params_dimensionless(b)
    scales = SimulatedScales(
        speed=c_sim,
        rest_energy=rest,
        compton_length=c_sim / trap.omega_carrier,
        time_unit=1.0 / trap.omega_carrier,
        magnetic_length=math.sqrt(2.0) * trap.delta,
    )
    return params, scales


def dirac_to_trap(
    params: SimParams,
    *,
    eta: float,
    omega_tilde: float,
    ion_mass: float = CA40_ION_MASS_KG,
    delta: float | None = None,
    trap_freq: float | None = None,
) -> TrapConfig:
    """Invert the mapping: solve the carrier coupling for a target kappa.

    Exactly one of delta / trap_freq must be given to fix the motional scale;
    anything else is under- or over-determined.
    """
    if (delta is None) == (trap_freq is None):
        raise ConfigError("specify exactly one of delta and trap_freq")
    if eta <= 0.0 or omega_tilde <= 0.0:
        raise ConfigError("eta and omega_tilde must be positive")
    omega_carrier = eta * omega_tilde / math.sqrt(params.kappa)
    if delta is not None:
        return TrapConfig.from_spread(eta, omega_carrier, omega_tilde, delta, ion_mass)
    return TrapConfig.from_trap_frequency(eta, omega_carrier, omega_tilde, trap_freq, ion_mass)


class InteractionKind(enum.Enum):
    JC = "JC"
    AJC = "AJC"
    CARRIER = "carrier"
    SIGMA_X_MOMENTUM = "sigma_x momentum"


@dataclass(frozen=True)
class ExcitationTerm:
    """One interaction term of the plan.

    momentum_axis is set only for sigma_x momentum terms; `phase` is the
    laser phase of a bare JC/AJC term and `pauli` the realised Pauli flavour
    of carrier/momentum terms.
    """

    kind: InteractionKind
    level_pair: str  # one of ad, bc, ac, bd
    sign: int = 1
    phase: float | None = None
    momentum_axis: str | None = None
    pauli: str | None = None

    def primitive_pairs(self) -> list[tuple[str, str, float]]:
        """Expand into (interaction, level pair, phase) laser-excitation pairs.

        A sigma_x momentum term is composed from one JC and one AJC pair in
        phase quadrature; bare JC/AJC and carrier terms are single pairs.
        """
        if self.kind is InteractionKind.SIGMA_X_MOMENTUM:
            return [
                ("JC", self.level_pair, -math.pi / 2.0),
                ("AJC", self.level_pair, math.pi / 2.0),
            ]
        if self.kind is InteractionKind.CARRIER:
            return [("carrier", self.level_pair, -math.pi / 2.0)]
        return [(self.kind.value, self.level_pair, float(self.phase))]


@dataclass(frozen=True)
class ExcitationPlan:
    """Ordered interaction terms realising the simulated wave equation."""

    dimensionality: Dimensionality
    interactions: tuple[ExcitationTerm, ...]

    @property
    def pair_count(self) -> int:
        return sum(len(term.primitive_pairs()) for term in self.interactions)

    def table(self) -> list[str]:
        """Human-readable rows: term, level pair, pairs used."""
        rows = []
        for term in self.interactions:
            detail = []
            if term.momentum_axis:
                detail.append(f"p_{term.momentum_axis}")
            if term.pauli:
                detail.append(term.pauli)
            if term.phase is not None:
                detail.append(f"phase={term.phase:.3f}")
            sign = "-" if term.sign < 0 else "+"
            rows.append(
                f"{sign} {term.kind.value:>16s} ({term.level_pair})"
                f" [{', '.join(detail)}] pairs={len(term.primitive_pairs())}"
            )
        return rows


def excitation_plan(dimensionality: Dimensionality) -> ExcitationPlan:
    """The interaction set: momentum couplings, one JC + one AJC magnetic
    ladder pair, and two carrier terms; the longitudinal momentum terms are
    dropped in 2+1."""
    terms = [
        ExcitationTerm(InteractionKind.SIGMA_X_MOMENTUM, "ad", momentum_axis="x", pauli="sigma_x"),
        ExcitationTerm(InteractionKind.SIGMA_X_MOMENTUM, "bc", momentum_axis="x", pauli="sigma_x"),
        ExcitationTerm(InteractionKind.JC, "ad", phase=math.pi),
        ExcitationTerm(InteractionKind.AJC, "bc", phase=math.pi),
    ]
    if dimensionality is Dimensionality.THREE_PLUS_ONE:
        terms += [
            ExcitationTerm(InteractionKind.SIGMA_X_MOMENTUM, "ac", momentum_axis="z", pauli="sigma_x"),
            ExcitationTerm(InteractionKind.SIGMA_X_MOMENTUM, "bd", sign=-1, momentum_axis="z", pauli="sigma_x"),
        ]
    terms += [
        ExcitationTerm(InteractionKind.CARRIER, "ac", pauli="sigma_y"),
        ExcitationTerm(InteractionKind.CARRIER, "bd", pauli="sigma_y"),
    ]
    return ExcitationPlan(dimensionality=dimensionality, interactions=tuple(terms))
