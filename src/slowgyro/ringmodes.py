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
    "RingMode",
    "Preparation",
    "MediumPreparation",
    "mode_energy",
    "n_min",
    "ground_mode",
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
        if self.kind is Preparation.THERMAL_RING and self.temperature <= 0:
            raise ParameterError("thermal ring preparation needs temperature > 0")


@dataclass(frozen=True)
class RingMode:
    """One winding-number eigenstate on the ring."""

    n: int
    energy: float  # J

    @classmethod
    def at(cls, n: int, rotation_rate: float, radius: float,
           mass: float) -> "RingMode":
        return cls(n=n, energy=mode_energy(n, rotation_rate, radius, mass))


def mode_energy(n: float, rotation_rate: float, radius: float, mass: float) -> float:
    """Energy of winding number n in the rotating frame:
    n*hbar*Omega + n^2 hbar^2 / (2 m R^2)."""
    if radius <= 0 or mass <= 0:
        raise ParameterError("radius and mass must be positive")
    return n * hbar * rotation_rate + n * n * hbar**2 / (2.0 * mass * radius**2)


def n_min(rotation_rate: float, radius: float, mass: float) -> float:
    """Continuous minimizer of the mode-energy parabola, -m*Omega*R^2/hbar."""
    if radius <= 0 or mass <= 0:
        raise ParameterError("radius and mass must be positive")
    return -mass * rotation_rate * radius**2 / hbar


def ground_mode(rotation_rate: float, radius: float, mass: float) -> int:
    """Integer winding number with the lowest energy.

    Equals 0 while |n_min| < 1/2.  Exact half-integer ties are broken toward
    the smaller |n| (toward zero); they only occur on a measure-zero set of
    rotation rates.
    """
    nm = n_min(rotation_rate, radius, mass)
    lo, hi = math.floor(nm), math.ceil(nm)
    if lo == hi:
        return lo
    e_lo = mode_energy(lo, rotation_rate, radius, mass)
    e_hi = mode_energy(hi, rotation_rate, radius, mass)
    # tie detection against the term magnitudes, not the (possibly
    # cancelling) energies themselves
    kin = hbar**2 / (2.0 * mass * radius**2)
    scale = (abs(lo) + abs(hi)) * hbar * abs(rotation_rate) \
        + (lo * lo + hi * hi) * kin
    if abs(e_lo - e_hi) <= 1e-12 * scale:
        return lo if abs(lo) < abs(hi) else hi
    return lo if e_lo < e_hi else hi


def boltzmann_mean_winding(rotation_rate: float, radius: float, mass: float,
                           temperature: float, n_cut: int = 0) -> float:
    """Thermal average <n> over the winding-number ladder.

    Direct Boltzmann sum; the window is widened until the discarded tails are
    below 1e-15 of the running sums (or to +-n_cut when given explicitly).
    Serves as the brute-force cross-check of the closed-form thermal phase.
    """
    if temperature <= 0:
        raise ParameterError("temperature must be positive")
    kT = k_B * temperature
    center = n_min(rotation_rate, radius, mass)
    # Gaussian width of the Boltzmann weight in winding number
    sigma = math.sqrt(kT * mass * radius**2) / hbar
    if n_cut <= 0:
        half = max(10, int(math.ceil(12.0 * sigma)))
    else:
        half = n_cut
    while True:
        n = np.arange(math.floor(center) - half, math.floor(center) + half + 1,
                      dtype=float)
        energy = n * hbar * rotation_rate + n**2 * hbar**2 / (2.0 * mass * radius**2)
        energy -= energy.min()
        w = np.exp(-energy / kT)
        total = w.sum()
        tail = w[0] + w[-1]
        if n_cut > 0 or tail <= 1e-15 * total or half > 10**7:
            return float((n * w).sum() / total)
        half *= 2


def thermal_phase(rotation_rate: float, radius: float, mass: float,
                  temperature: float) -> float:
    """Average rotational phase of a thermal ring gas per round trip,
    2*pi*Omega*R^2 / (hbar/m) = -2*pi*n_min.

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
