"""Units, physical constants and derived field quantities.

Everything downstream works in natural units: mc^2 = 1, c = 1, hbar = 1.
Lengths are measured in (reduced) Compton wavelengths lambda_c = hbar/mc and
times in t_c = hbar/mc^2.  SI quantities appear only at the boundary, i.e.
when a magnetic field is given in tesla or when trap parameters are mapped.

The single dimensionless knob is

    b = hbar*omega / mc^2,    omega = sqrt(2) c / L,    L = sqrt(hbar/eB),

so that in internal units L = sqrt(2)/b and the (non-relativistic) cyclotron
quantum is hbar*omega_c = b^2/2, i.e. kappa = hbar*omega_c / (2 mc^2) = b^2/4.

SimParams holds the field alone.  The dimensionality of a run is not a
field property: it enters once, as the mode argument of packet.decompose,
and the decomposition carries it to the engines and the peak labels.
"""

from __future__ import annotations

import enum
import math

from ._record import Record


class Dimensionality(enum.Enum):
    """Spatial dimensionality of the simulated wave equation."""

    TWO_PLUS_ONE = "2+1"
    THREE_PLUS_ONE = "3+1"


class ParticleConstants(Record):
    """SI constants of the particle used at the unit boundary (CODATA 2018)."""

    mass_kg: float
    charge_c: float
    compton_m: float  # reduced Compton wavelength hbar/(m c)
    time_unit_s: float  # hbar/(m c^2)


HBAR_SI = 1.054571817e-34  # J s
C_SI = 299792458.0  # m/s (exact)
E_CHARGE_SI = 1.602176634e-19  # C (exact)
ELECTRON_MASS_SI = 9.1093837015e-31  # kg

ELECTRON = ParticleConstants(
    mass_kg=ELECTRON_MASS_SI,
    charge_c=E_CHARGE_SI,
    compton_m=HBAR_SI / (ELECTRON_MASS_SI * C_SI),
    time_unit_s=HBAR_SI / (ELECTRON_MASS_SI * C_SI**2),
)


# Field bounds, checked before any derived arithmetic: b^2, the magnetic
# length sqrt(2)/b and its square stay far inside the float range.  The
# tesla range maps into the b range (b = 0.95 at 2e9 T, b grows as sqrt(B)).
B_RANGE = (1e-8, 1e8)
TESLA_RANGE = (1e-6, 1e25)


class SimParams(Record):
    """Field-strength parameters of the problem in natural units.

    Attributes
    ----------
    mass_energy : float
        Rest energy mc^2; always 1 internally.
    field_ratio_b : float
        b = hbar*omega/mc^2 with omega = sqrt(2) c/L.
    magnetic_length : float
        L in Compton wavelengths; equals sqrt(2)/b.
    kappa : float
        hbar*omega_c/(2 mc^2) = b^2/4.
    """

    mass_energy: float
    field_ratio_b: float
    magnetic_length: float
    kappa: float

    def __post_init__(self) -> None:
        if self.field_ratio_b <= 0.0 or self.magnetic_length <= 0.0:
            raise ValueError("field_ratio_b and magnetic_length must be positive")
        ident = self.field_ratio_b - math.sqrt(2.0) / self.magnetic_length
        if abs(ident) > 1e-12 * self.field_ratio_b:
            raise ValueError("b and L are inconsistent: b must equal sqrt(2)/L")
        if abs(self.kappa - self.field_ratio_b**2 / 4.0) > 1e-12 * max(self.kappa, 1.0):
            raise ValueError("kappa must equal b^2/4")

    @property
    def omega(self) -> float:
        """Ladder (oscillator) angular frequency in 1/t_c; equals b."""
        return self.field_ratio_b  # hbar = mc^2 = 1


def make_params_dimensionless(b: float) -> SimParams:
    """Build parameters directly from the dimensionless field ratio b."""
    if not B_RANGE[0] <= b <= B_RANGE[1]:  # a NaN fails
        raise ValueError(f"field ratio b must be in [{B_RANGE[0]:g}, {B_RANGE[1]:g}], got {b!r}")
    return SimParams(
        mass_energy=1.0,
        field_ratio_b=b,
        magnetic_length=math.sqrt(2.0) / b,
        kappa=b * b / 4.0,
    )


def make_params(field_tesla: float, particle: ParticleConstants = ELECTRON) -> SimParams:
    """Build parameters from a magnetic field in tesla.

    L = sqrt(hbar/eB) is converted to Compton wavelengths and b = sqrt(2)
    lambda_c / L.  Raises ValueError for a field outside TESLA_RANGE.
    """
    if not TESLA_RANGE[0] <= field_tesla <= TESLA_RANGE[1]:  # a NaN fails
        raise ValueError(
            f"magnetic field must be in [{TESLA_RANGE[0]:g}, {TESLA_RANGE[1]:g}] T, "
            f"got {field_tesla!r}"
        )
    length_si = math.sqrt(HBAR_SI / (particle.charge_c * field_tesla))
    b = math.sqrt(2.0) * particle.compton_m / length_si
    return make_params_dimensionless(b)


def magnetic_length_si(field_tesla: float, particle: ParticleConstants = ELECTRON) -> float:
    """Magnetic length sqrt(hbar/eB) in metres."""
    if field_tesla <= 0.0:
        raise ValueError("magnetic field must be positive")
    return math.sqrt(HBAR_SI / (particle.charge_c * field_tesla))


def cyclotron_quantum_ev(field_tesla: float, particle: ParticleConstants = ELECTRON) -> float:
    """Non-relativistic cyclotron quantum hbar*eB/m in electronvolts."""
    if field_tesla <= 0.0:
        raise ValueError("magnetic field must be positive")
    return HBAR_SI * particle.charge_c * field_tesla / particle.mass_kg / E_CHARGE_SI
