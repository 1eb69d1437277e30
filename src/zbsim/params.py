"""Units, physical constants and derived field quantities.

Everything downstream works in natural units: mc^2 = 1, c = 1, hbar = 1.
Lengths are measured in (reduced) Compton wavelengths lambda_c = hbar/mc and
times in t_c = hbar/mc^2.  SI quantities appear only at the boundary, i.e.
when a magnetic field is given in tesla or when trap parameters are mapped.

The single dimensionless knob is

    b = hbar*omega / mc^2,    omega = sqrt(2) c / L,    L = sqrt(hbar/eB),

so that in internal units L = sqrt(2)/b and the (non-relativistic) cyclotron
quantum is hbar*omega_c = b^2/2, i.e. kappa = hbar*omega_c / (2 mc^2) = b^2/4.

SimParams holds b alone; L, kappa and omega are read off it.  The
dimensionality of a run is not a field property: it enters once, as the
mode argument of packet.decompose, and the decomposition carries it to the
engines and the peak labels.
"""

from __future__ import annotations

import enum
import math

from ._record import Record


class Dimensionality(enum.Enum):
    """Spatial dimensionality of the simulated wave equation."""

    TWO_PLUS_ONE = "2+1"
    THREE_PLUS_ONE = "3+1"


# SI constants of the electron at the unit boundary (CODATA 2018)
HBAR_SI = 1.054571817e-34  # J s
C_SI = 299792458.0  # m/s (exact)
E_CHARGE_SI = 1.602176634e-19  # C (exact)
ELECTRON_MASS_SI = 9.1093837015e-31  # kg
COMPTON_M = HBAR_SI / (ELECTRON_MASS_SI * C_SI)  # reduced Compton wavelength hbar/(m c)


# Field bounds, checked before any derived arithmetic: b^2, the magnetic
# length sqrt(2)/b and its square stay far inside the float range.  The
# tesla range maps into the b range (b = 0.95 at 2e9 T, b grows as sqrt(B)).
B_RANGE = (1e-8, 1e8)
TESLA_RANGE = (1e-6, 1e25)


class SimParams(Record):
    """The field in natural units: b = hbar*omega/mc^2 with omega = sqrt(2) c/L,
    within B_RANGE."""

    field_ratio_b: float

    mass_energy = 1.0  # rest energy mc^2, the unit of energy

    def __post_init__(self) -> None:
        b = self.field_ratio_b
        if not B_RANGE[0] <= b <= B_RANGE[1]:  # a NaN fails
            raise ValueError(f"field ratio b must be in [{B_RANGE[0]:g}, {B_RANGE[1]:g}], got {b!r}")

    @property
    def magnetic_length(self) -> float:
        """L in Compton wavelengths, sqrt(2)/b."""
        return math.sqrt(2.0) / self.field_ratio_b

    @property
    def kappa(self) -> float:
        """hbar*omega_c/(2 mc^2) = b^2/4."""
        return self.field_ratio_b * self.field_ratio_b / 4.0

    @property
    def omega(self) -> float:
        """Ladder (oscillator) angular frequency in 1/t_c; equals b."""
        return self.field_ratio_b  # hbar = mc^2 = 1


def make_params_dimensionless(b: float) -> SimParams:
    """Build parameters directly from the dimensionless field ratio b."""
    return SimParams(b)


def make_params(field_tesla: float) -> SimParams:
    """Build parameters from a magnetic field in tesla.

    L = sqrt(hbar/eB) is converted to Compton wavelengths and b = sqrt(2)
    lambda_c / L.  Raises ValueError for a field outside TESLA_RANGE.
    """
    if not TESLA_RANGE[0] <= field_tesla <= TESLA_RANGE[1]:  # a NaN fails
        raise ValueError(
            f"magnetic field must be in [{TESLA_RANGE[0]:g}, {TESLA_RANGE[1]:g}] T, "
            f"got {field_tesla!r}"
        )
    length_si = math.sqrt(HBAR_SI / (E_CHARGE_SI * field_tesla))
    b = math.sqrt(2.0) * COMPTON_M / length_si
    return make_params_dimensionless(b)
