"""Azimuthal modes of atoms on a rotating ring and the preparation gate.

An atom free to move along a ring of radius R has winding-number states
with energies eps_n = n*hbar*Omega + n^2 hbar^2 / (2 m R^2) in the rotating
frame (the small centrifugal shift is dropped throughout).  Whether the
medium contributes a matter-wave rotational phase depends entirely on how
it is prepared:

* a superfluid ring (BEC with periodic boundary conditions) stays in a
  single winding mode whose phase does not follow the rotation, so the
  matter-wave term survives;
* a thermal ring gas equilibrates into co-rotation and every internal
  state picks up the same average phase, cancelling the matter term;
* a longitudinally trapped gas is dragged along by the trap, likewise
  cancelling the matter term.

matter_term_gate() encodes that trichotomy as a 0/1 factor used by all
downstream phase formulas.
"""

import enum
import math
import warnings
from dataclasses import dataclass

from ._constants import hbar, k_B
from .errors import ParameterError, ThermalRegimeWarning

__all__ = [
    "Preparation",
    "MediumPreparation",
    "thermal_phase",
    "boltzmann_mean_winding",
    "matter_term_gate",
]


class Preparation(enum.Enum):
    SUPERFLUID_RING = "superfluid_ring"
    THERMAL_RING = "thermal_ring"
    LONGITUDINAL_TRAP = "longitudinal_trap"


@dataclass(frozen=True)
class MediumPreparation:
    """Preparation of the atomic medium; temperature is only meaningful for
    a thermal ring gas, and must be finite and >= 0 for every kind."""

    kind: Preparation
    temperature: float = 0.0  # K, ThermalRing only

    def __post_init__(self):
        t, thermal = self.temperature, self.kind is Preparation.THERMAL_RING
        if not (0 < t < math.inf or t == 0 and not thermal):
            raise ParameterError(f"{self.kind.value} temperature must be "
                                 f"finite and >= 0 (> 0 if thermal), got {t}")


def _check_thermal(rotation_rate: float, radius: float, mass: float,
                   temperature: float) -> None:
    if not (math.isfinite(rotation_rate) and 0 < temperature < math.inf
            and 0 < radius < math.inf and 0 < mass < math.inf):
        raise ParameterError("thermal ring gas needs a finite Omega and "
                             f"finite T, R, m > 0, got {rotation_rate} rad/s, "
                             f"{temperature} K, {radius} m, {mass} kg")


def _mean_winding(rotation_rate: float, radius: float, mass: float,
                  temperature: float) -> tuple[float, float]:
    """(<n>, n_0).  The weights exp(-(n - n_0)^2 / (2v)), v = k_B T m R^2 /
    hbar^2, are a sampled Gaussian: by Poisson summation <n> - n_0 is below
    1e-40 of n_0 for v >= 5, so <n> is n_0 in float64.  Below that, round(n_0)
    +- j, j <= 30, weigh w and w*(1 + e) relative to round(n_0), e = expm1(.),
    and add -j*w*e to the mean: nothing cancels, and the rest is < 1e-37."""
    _check_thermal(rotation_rate, radius, mass, temperature)
    n0 = -mass * rotation_rate * radius * radius / hbar
    v = k_B * temperature * mass * radius * radius / hbar**2
    if not (v > 0 and math.isfinite(n0)):
        raise ParameterError(f"n_0 = {n0} or v = {v} is out of float range")
    if v >= 5.0:
        return n0, n0
    center = round(n0)
    f = abs(n0 - center)
    pairs = [(j, math.exp(-j * (j - 2 * f) / (2 * v)),
              math.expm1(-2 * j * f / v)) for j in range(1, 31)]
    num = math.fsum(-j * up * e for j, up, e in pairs)
    den = math.fsum([1.0] + [up * (2.0 + e) for _, up, e in pairs])
    return center + math.copysign(num / den, n0 - center), n0


def boltzmann_mean_winding(rotation_rate: float, radius: float, mass: float,
                           temperature: float) -> float:
    """Thermal average <n> over the winding-number ladder, whose mode
    energies eps_n = n*hbar*Omega + n^2 hbar^2 / (2 m R^2) form a parabola
    with its minimum at n_0 = -m*Omega*R^2/hbar.  Exact to rounding at any
    T: n_0 itself from 10 level spacings hbar^2/(2 m R^2) up, round(n_0) far
    below one.  Refuses a non-finite Omega and T, R or m not finite and > 0."""
    return _mean_winding(rotation_rate, radius, mass, temperature)[0]


def thermal_phase(rotation_rate: float, radius: float, mass: float,
                  temperature: float) -> float:
    """Average rotational phase of a thermal ring gas per round trip,
    2*pi*Omega*R^2 / (hbar/m) = -2*pi*n_0, with n_0 the minimum of the
    mode-energy parabola (see boltzmann_mean_winding).  Warns when the
    Boltzmann mean <n> is off n_0 by over 1e-12 relative, below at most 3.3
    level spacings and never at Omega = 0; refuses what that refuses."""
    mean, n0 = _mean_winding(rotation_rate, radius, mass, temperature)
    if abs(mean - n0) > 1e-12 * abs(n0):
        warnings.warn(f"k_B T is within a few ring level spacings: <n> is "
                      f"off n_0, and the phase, by {abs(mean / n0 - 1):.2g} "
                      "relative", ThermalRegimeWarning, stacklevel=2)
    return -2.0 * math.pi * n0


def matter_term_gate(prep: MediumPreparation) -> float:
    """1.0 when the matter-wave rotational phase survives (superfluid ring),
    0.0 when it is cancelled (thermal gas or longitudinal trap)."""
    return 1.0 if prep.kind is Preparation.SUPERFLUID_RING else 0.0
