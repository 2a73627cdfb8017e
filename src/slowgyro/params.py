"""Physical inputs and single-atom/field derived scales.

Everything is SI.  A three-level atom in a Lambda configuration (ground
states |1>, |3>, excited state |2>) rides a ring of radius R while a probe
beam propagates along the ring periphery and a control beam crosses it.
The quantities derived here (recoil velocity, momentum-transfer parameter
and the collective light-matter coupling) feed every other module.

Nothing here is dimensionless beyond the momentum transfer eta and the
input saturation s(0): tan^2(theta), xi and the loss kappa are derived
once, by propagation.RingMedium, so there is exactly one canonical unit
system.
"""

import math
from dataclasses import dataclass

from ._constants import c, epsilon_0, hbar
from .errors import ParameterError

__all__ = [
    "AtomSpecies",
    "ProbeControlFields",
    "RingGeometry",
    "DerivedScales",
    "recoil_velocity",
    "derived_scales",
    "dipole_from_gamma",
    "rest_energy_ratio",
    "RB87",
    "NA23",
]

# Rim speed above this fraction of c is rejected; the model is built on
# non-relativistic kinematics.
MAX_RIM_SPEED_FRACTION = 1e-3


@dataclass(frozen=True)
class AtomSpecies:
    """Atomic inputs: mass, probe-transition dipole moment and decay rates.

    gamma1 and gamma3 are the radiative rates from the excited state into
    the two ground states; gamma13 is the dephasing rate of the ground-state
    coherence.  The total excited-state decay gamma2 = gamma1 + gamma3 is
    derived, never stored.
    """

    mass: float            # kg
    dipole_p: float        # C*m, probe transition |1> <-> |2>
    gamma1: float          # 1/s, decay |2> -> |1>
    gamma3: float          # 1/s, decay |2> -> |3>
    gamma13: float = 0.0   # 1/s, ground-coherence dephasing

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not self.mass > 0:
            raise ParameterError(f"mass must be positive, got {self.mass}")
        if not self.dipole_p >= 0:
            raise ParameterError(f"dipole_p must be >= 0, got {self.dipole_p}")
        if not (self.gamma1 >= 0 and self.gamma3 >= 0 and self.gamma13 >= 0):
            raise ParameterError("decay and dephasing rates must be >= 0")

    @property
    def gamma2(self) -> float:
        """Total decay rate out of the excited state."""
        return self.gamma1 + self.gamma3


@dataclass(frozen=True)
class ProbeControlFields:
    """Probe and control field parameters.

    k_p and omega_p are derived from the probe wavelength, which keeps the
    vacuum dispersion relation omega_p = c*k_p exact by construction.
    k_c_parallel is the projection of the control wavevector on the ring
    tangent; perpendicular control beams have k_c_parallel = 0.
    """

    lambda_p: float          # m
    rabi_p0: float           # rad/s, |probe Rabi frequency| at the source
    rabi_c: float            # rad/s, |control Rabi frequency|
    k_c_parallel: float = 0.0  # 1/m
    delta2: float = 0.0      # rad/s, one-photon detuning (recoil included)
    delta3: float = 0.0      # rad/s, two-photon detuning (recoil included)

    def __post_init__(self):
        if not self.lambda_p > 0:
            raise ParameterError(f"probe wavelength must be positive, got {self.lambda_p}")
        if not self.rabi_c > 0:
            raise ParameterError("control Rabi frequency must be positive (EIT needs a control field)")
        if not self.rabi_p0 >= 0:
            raise ParameterError("probe Rabi frequency magnitude must be >= 0")
        if not all(map(math.isfinite, (self.k_c_parallel, self.delta2,
                                       self.delta3))):
            raise ParameterError("k_c_parallel, delta2 and delta3 must be finite")
        # the saturation and the mixing angle divide by rabi_c^2; squares
        # overflow above about 1.34e154 and underflow below about 2.2e-162
        if not (self.rabi_p0 * self.rabi_p0 < math.inf
                and 0.0 < self.rabi_c * self.rabi_c < math.inf):
            raise ParameterError(
                f"Rabi frequencies must have a finite square, and rabi_c a "
                f"nonzero one (got rabi_p0 = {self.rabi_p0:g}, rabi_c = "
                f"{self.rabi_c:g} rad/s)")

    @property
    def k_p(self) -> float:
        return 2.0 * math.pi / self.lambda_p

    @property
    def omega_p(self) -> float:
        return c * self.k_p

    @property
    def saturation0(self) -> float:
        """Input saturation parameter s(0) = |rabi_p0|^2 / |rabi_c|^2."""
        return (self.rabi_p0 / self.rabi_c) ** 2


@dataclass(frozen=True)
class RingGeometry:
    """Ring radius, medium extent along the periphery, probe cross-section,
    atomic density and the rotation rate of the platform."""

    radius: float          # m
    medium_length: float   # m, <= 2*pi*radius
    cross_section: float   # m^2
    atom_density: float    # 1/m^3
    rotation_rate: float = 0.0  # rad/s

    def __post_init__(self):
        if not self.radius > 0:
            raise ParameterError(f"radius must be positive, got {self.radius}")
        circumference = 2.0 * math.pi * self.radius
        if not 0.0 < self.medium_length <= circumference * (1.0 + 1e-12):
            raise ParameterError(
                f"medium_length must lie in (0, 2*pi*R]; got {self.medium_length} "
                f"with circumference {circumference:.6g}"
            )
        if not self.cross_section > 0:
            raise ParameterError("cross_section must be positive")
        if not self.atom_density >= 0:
            raise ParameterError("atom_density must be >= 0")
        if not abs(self.rotation_rate) * self.radius / c <= MAX_RIM_SPEED_FRACTION:
            raise ParameterError(
                "rim speed |rotation_rate|*radius exceeds 1e-3 c; "
                "non-relativistic treatment no longer applies"
            )

    @property
    def area(self) -> float:
        """Interferometer area convention A = R * L_M."""
        return self.radius * self.medium_length


@dataclass(frozen=True)
class DerivedScales:
    """Derived single-atom and collective scales.

    g2rho is the collective coupling d^2 * omega_p * density / (2 hbar eps0),
    i.e. the numerator of tan^2(theta).  Only this product is kept, so the
    per-atom normalization volume never enters any observable.
    """

    v_rec: float   # m/s
    eta: float     # dimensionless momentum-transfer parameter
    g2rho: float   # (rad/s)^2


def recoil_velocity(atom: AtomSpecies, lambda_p: float) -> float:
    """Recoil velocity v_rec = hbar k_p / m of one probe photon."""
    return hbar * (2.0 * math.pi / lambda_p) / atom.mass


def derived_scales(atom: AtomSpecies, fields: ProbeControlFields,
                   geometry: RingGeometry) -> DerivedScales:
    """v_rec, eta = (k_p - k_c_parallel) / k_p, and g2rho = g^2 F density,
    with g = d12 * sqrt(omega_p / (2 hbar eps0 F)) the per-atom coupling
    over the probe cross-section F: the combination that enters
    tan^2(theta) = g2rho / |rabi_c|^2."""
    k_p = fields.k_p
    g = atom.dipole_p * math.sqrt(
        fields.omega_p / (2.0 * hbar * epsilon_0 * geometry.cross_section))
    return DerivedScales(
        v_rec=recoil_velocity(atom, fields.lambda_p),
        eta=(k_p - fields.k_c_parallel) / k_p,
        g2rho=g * g * geometry.cross_section * geometry.atom_density)


def dipole_from_gamma(gamma: float, omega_p: float) -> float:
    """Probe-transition dipole moment from its radiative decay rate,
    d_p = sqrt(3 pi eps0 hbar c^3 gamma / omega_p^3)."""
    if not 0 < omega_p < math.inf:
        raise ParameterError(f"omega_p must be finite and > 0, got {omega_p}")
    if not 0 <= gamma < math.inf:
        raise ParameterError(f"gamma must be finite and >= 0, got {gamma}")
    return math.sqrt(gamma * 3.0 * math.pi * epsilon_0 * hbar * c**3 / omega_p**3)


def rest_energy_ratio(atom: AtomSpecies, fields: ProbeControlFields) -> float:
    """m c^2 / (hbar omega_p): the per-unit-area advantage of a matter wave
    over a light wave in a rotation measurement (~1e10..1e11 for alkali
    atoms and optical photons)."""
    return atom.mass * c**2 / (hbar * fields.omega_p)


# Reference probe lines (D2) of the species presets.
REFERENCE_WAVELENGTHS = {"rb87": 780.24e-9, "na23": 589.0e-9}


def _species(name, mass, gamma_rad, gamma13):
    """Species preset with equal decay branches gamma1 = gamma3 = gamma_rad
    and the dipole moment implied by gamma_rad on the reference line."""
    omega = c * 2.0 * math.pi / REFERENCE_WAVELENGTHS[name]
    return AtomSpecies(
        mass=mass,
        dipole_p=dipole_from_gamma(gamma_rad, omega),
        gamma1=gamma_rad,
        gamma3=gamma_rad,
        gamma13=gamma13,
    )


# Standard alkali data (D2 lines); ground-coherence dephasing defaults to the
# kHz regime typical of cold-gas experiments.
RB87 = _species("rb87", mass=1.4432e-25, gamma_rad=2.0 * math.pi * 6.07e6,
                gamma13=1.0e3)
NA23 = _species("na23", mass=3.8176e-26, gamma_rad=2.0 * math.pi * 9.79e6,
                gamma13=1.0e3)

SPECIES_PRESETS = {"rb87": RB87, "na23": NA23}

# State-of-the-art circular BEC waveguides: ring diameters 3 mm and 96 mm,
# toroid cross-section ~1e-2 cm^2, BEC density 1e14 cm^-3, the medium
# filling the full ring (L_M = 2*pi*R).
RING_PRESETS = {
    name: RingGeometry(radius=radius, medium_length=2.0 * math.pi * radius,
                       cross_section=1e-6, atom_density=1e20)
    for name, radius in (("gupta", 1.5e-3), ("arnold", 48e-3))}
