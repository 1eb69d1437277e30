"""Mapping between trapped-ion drive parameters and the simulated wave equation.

A four-level ion driven by carrier, Jaynes-Cummings (JC) and anti-JC (AJC)
interactions realises the transformed Hamiltonian with effective parameters

    c_sim = 2 eta Delta Omega_tilde,   (mc^2)_sim = hbar Omega,   L = sqrt(2) Delta,

where eta is the Lamb-Dicke parameter, Omega the carrier and Omega_tilde the
sideband coupling strength, and Delta = sqrt(hbar / 2 M nu) the ground-state
spread of an ion of mass M in a trap of frequency nu.  The simulated field
strength is the single dimensionless ratio

    kappa = hbar eB / (m 2 mc^2) = (eta Omega_tilde / Omega)^2,

equivalently b = 2 eta Omega_tilde / Omega.  TrapConfig is the one trap
record: its fields are the keys of a config's [trap] section, in their own
units, and its properties derive the SI values from them.  trap_to_dirac
maps a trap onto the field parameters of the simulated equation, b alone.
The excitation plan lists the interaction terms needed to realise the
coupled equation, each with the count of laser-excitation pairs it takes:
a sigma_x momentum term two, every other term one, so the transverse (2+1)
plan takes 8 pairs and the full 3+1 plan 12.
"""

from __future__ import annotations

import math
import sys

from ._record import Record, fields
from .params import ELECTRON_MASS_SI, HBAR_SI, Dimensionality, SimParams

ATOMIC_MASS_KG = 1.66053906660e-27  # CODATA 2018
# singly charged ions: atomic mass minus one electron
CA40_ION_MASS_KG = (39.962590863 * ATOMIC_MASS_KG) - ELECTRON_MASS_SI
MG25_ION_MASS_KG = (24.985836976 * ATOMIC_MASS_KG) - ELECTRON_MASS_SI

ION_MASSES_KG = {"ca40": CA40_ION_MASS_KG, "mg25": MG25_ION_MASS_KG}

# every [trap] number, in its own unit (the values derived from them are checked too)
TRAP_RANGE = (1e-100, 1e100)


class TrapConfig(Record):
    """A trap as the [trap] section gives it: frequencies in Hz, the spread
    in metres, the mass in kg.  The SI values of the mapping (angular
    frequencies in rad/s) are the properties below, derived in this one place."""

    eta: float | None = None
    omega_tilde_hz: float | None = None
    omega_carrier_hz: float | None = None
    ion_mass_kg: float | None = None  # overrides ion
    delta_m: float | None = None  # or trap_freq_hz, exactly one of them
    trap_freq_hz: float | None = None
    ion: str = "ca40"

    def __post_init__(self) -> None:
        lo, hi = TRAP_RANGE
        for name in fields(self):
            value = getattr(self, name)
            if isinstance(value, float) and not lo <= value <= hi:
                raise ValueError(f"{name} = {value!r} must be within [{lo:g}, {hi:g}]")
        if None in (self.eta, self.omega_tilde_hz, self.omega_carrier_hz):
            raise ValueError("eta, omega_tilde_hz and omega_carrier_hz are required")
        if self.ion_mass_kg is None and self.ion not in ION_MASSES_KG:
            raise ValueError(f"unknown ion {self.ion!r}; use ca40, mg25 or ion_mass_kg")
        if (self.delta_m is None) == (self.trap_freq_hz is None):
            raise ValueError("give exactly one of delta_m and trap_freq_hz")
        mass_key = "ion_mass_kg" if self.ion_mass_kg is not None else "ion"
        source = "delta_m" if self.delta_m is not None else "trap_freq_hz"
        for name in ("delta", "trap_freq"):  # the derived one can under- or overflow
            value = getattr(self, name)
            if not sys.float_info.min <= value <= sys.float_info.max:
                raise ValueError(
                    f"{name} must be a positive normal float, got {value!r}, derived from "
                    f"{source} and {mass_key} ({source} = {getattr(self, source)!r}, "
                    f"{mass_key} = {getattr(self, mass_key)!r})"
                )

    @property
    def omega_carrier(self) -> float:
        """Omega [rad/s]."""
        return 2.0 * math.pi * self.omega_carrier_hz

    @property
    def omega_tilde(self) -> float:
        """Omega_tilde [rad/s]."""
        return 2.0 * math.pi * self.omega_tilde_hz

    @property
    def ion_mass(self) -> float:
        """M [kg]."""
        return self.ion_mass_kg if self.ion_mass_kg is not None else ION_MASSES_KG[self.ion]

    @property
    def trap_freq(self) -> float:
        """nu [rad/s], given or hbar / (2 M Delta^2)."""
        if self.trap_freq_hz is not None:
            return 2.0 * math.pi * self.trap_freq_hz
        return HBAR_SI / (2.0 * self.ion_mass * self.delta_m * self.delta_m)

    @property
    def delta(self) -> float:
        """The ground-state spread Delta [m], given or sqrt(hbar / 2 M nu)."""
        if self.delta_m is not None:
            return self.delta_m
        return math.sqrt(HBAR_SI / (2.0 * self.ion_mass * self.trap_freq))


def trap_to_dirac(trap: TrapConfig) -> SimParams:
    """The simulated equation's field parameters, b = 2 eta Omega_tilde / Omega;
    a b outside B_RANGE is an error that names the keys it was derived from."""
    try:
        return SimParams(2.0 * trap.eta * trap.omega_tilde / trap.omega_carrier)
    except ValueError as exc:
        raise ValueError(
            f"eta = {trap.eta!r}, omega_tilde_hz = {trap.omega_tilde_hz:g}, "
            f"omega_carrier_hz = {trap.omega_carrier_hz:g}: {exc}"
        ) from exc


class ExcitationTerm(Record):
    """One interaction term of the plan.

    kind is "sigma_x momentum", "JC", "AJC" or "carrier".  momentum_axis is
    set only for sigma_x momentum terms; `phase` is the laser phase of a bare
    JC/AJC term and `pauli` the realised Pauli flavour of carrier/momentum
    terms.
    """

    kind: str
    level_pair: str  # one of ad, bc, ac, bd
    sign: int = 1
    phase: float | None = None
    momentum_axis: str | None = None
    pauli: str | None = None

    @property
    def pairs(self) -> int:
        """Laser-excitation pairs: a sigma_x momentum term is one JC and one
        AJC pair in phase quadrature; bare JC/AJC and carrier terms are one."""
        return 2 if self.kind == "sigma_x momentum" else 1


class ExcitationPlan(Record):
    """Ordered interaction terms realising the simulated wave equation."""

    interactions: tuple[ExcitationTerm, ...]

    @property
    def pair_count(self) -> int:
        return sum(term.pairs for term in self.interactions)

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
            rows.append(f"{sign} {term.kind:>16s} ({term.level_pair}) [{', '.join(detail)}] pairs={term.pairs}")
        return rows


def excitation_plan(dimensionality: Dimensionality) -> ExcitationPlan:
    """The interaction set: momentum couplings, one JC + one AJC magnetic
    ladder pair, and two carrier terms; the longitudinal momentum terms are
    dropped in 2+1."""
    terms = [
        ExcitationTerm("sigma_x momentum", "ad", momentum_axis="x", pauli="sigma_x"),
        ExcitationTerm("sigma_x momentum", "bc", momentum_axis="x", pauli="sigma_x"),
        ExcitationTerm("JC", "ad", phase=math.pi),
        ExcitationTerm("AJC", "bc", phase=math.pi),
    ]
    if dimensionality is Dimensionality.THREE_PLUS_ONE:
        terms += [
            ExcitationTerm("sigma_x momentum", "ac", momentum_axis="z", pauli="sigma_x"),
            ExcitationTerm("sigma_x momentum", "bd", sign=-1, momentum_axis="z", pauli="sigma_x"),
        ]
    terms += [
        ExcitationTerm("carrier", "ac", pauli="sigma_y"),
        ExcitationTerm("carrier", "bd", pauli="sigma_y"),
    ]
    return ExcitationPlan(interactions=tuple(terms))
