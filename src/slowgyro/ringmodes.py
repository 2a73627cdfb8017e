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

import numpy as np

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
    a thermal ring gas."""

    kind: Preparation
    temperature: float = 0.0  # K, ThermalRing only

    def __post_init__(self):
        if self.kind is Preparation.THERMAL_RING and not self.temperature > 0:
            raise ParameterError("thermal ring preparation needs temperature > 0")


def boltzmann_mean_winding(rotation_rate: float, radius: float, mass: float,
                           temperature: float) -> float:
    """Thermal average <n> over the winding-number ladder, whose mode
    energies eps_n = n*hbar*Omega + n^2 hbar^2 / (2 m R^2) form a parabola
    with its minimum at n_0 = -m*Omega*R^2/hbar.

    Direct Boltzmann sum around n_0; the window is widened until the
    discarded tails are below 1e-15 of the running sums.  Serves as the
    brute-force cross-check of the closed-form thermal phase, and far
    below the level spacing it returns the ground winding number.
    """
    if temperature <= 0:
        raise ParameterError("temperature must be positive")
    if radius <= 0 or mass <= 0:
        raise ParameterError("radius and mass must be positive")
    kT = k_B * temperature
    center = -mass * rotation_rate * radius**2 / hbar
    # Gaussian width of the Boltzmann weight in winding number
    sigma = math.sqrt(kT * mass * radius**2) / hbar
    half = max(10, int(math.ceil(12.0 * sigma)))
    while True:
        n = np.arange(math.floor(center) - half, math.floor(center) + half + 1,
                      dtype=float)
        energy = (n * hbar * rotation_rate
                  + n * n * hbar**2 / (2.0 * mass * radius**2))
        energy -= energy.min()
        w = np.exp(-energy / kT)
        total = w.sum()
        if w[0] + w[-1] <= 1e-15 * total or half > 10**7:
            return float((n * w).sum() / total)
        half *= 2


def thermal_phase(rotation_rate: float, radius: float, mass: float,
                  temperature: float) -> float:
    """Average rotational phase of a thermal ring gas per round trip,
    2*pi*Omega*R^2 / (hbar/m) = -2*pi*n_0, with n_0 the minimum of the
    mode-energy parabola (see boltzmann_mean_winding).

    Valid when k_B T is large against both hbar*Omega and the level spacing
    hbar^2/(2 m R^2); warns otherwise.  Use boltzmann_mean_winding for the
    finite-temperature average.
    """
    if temperature <= 0:
        raise ParameterError("temperature must be positive")
    scale = hbar * abs(rotation_rate) + hbar**2 / (2.0 * mass * radius**2)
    if k_B * temperature < 10.0 * scale:
        warnings.warn(
            "k_B T is not large against the ring level scale; the closed-form "
            "thermal phase may be inaccurate",
            ThermalRegimeWarning, stacklevel=2)
    return 2.0 * math.pi * rotation_rate * radius**2 * mass / hbar


def matter_term_gate(prep: MediumPreparation) -> float:
    """1.0 when the matter-wave rotational phase survives (superfluid ring),
    0.0 when it is cancelled (thermal gas or longitudinal trap)."""
    return 1.0 if prep.kind is Preparation.SUPERFLUID_RING else 0.0
