"""Shot-noise-limited sensitivity of the slow-light ring gyroscope.

The counted quanta at the detector set the phase noise 1/sqrt(n_D); the
matter-wave signal phase saturates with probe power while the noise keeps
falling, so the signal-to-noise ratio has a low-intensity maximum.  In the
uniform-medium estimate (saturation frozen at its input value, losses at
their power-independent bound) the SNR factorizes as

    SNR = (Omega * A / (hbar/m)) * sqrt(F * rho * v_rec * t) * g(s, xi; a)

    g(s, xi; a) = sqrt(xi * s) * (1+s) * exp(-a/xi) / (xi * (1+s)^3 + 1)

with the loss parameter a = gamma13 * L_M / v_rec and area A = R * L_M.
Setting d ln g / d ln s = d ln g / d ln xi = 0 gives xi = 6 a s and, with
t = 3 s - 1, (2a/27) t (1+t) (4+t)^3 / (2+t) = 1, whose one root t > 0 is
the maximum of g.  For a >> 1, t ~ 27/(64a): the maximum sits at s = 1/3,
xi = 2a with g_max ~ 0.1393 / sqrt(a).  The minimum detectable rotation
rate follows by setting SNR = 1,

    Omega_min = (hbar/m) / A * (F rho v_rec t)^(-1/2) * f * sqrt(a),

where f = 1 / (g_max(a) * sqrt(a)) tends to about 7.18 for large a.
Omega_min is computed as 1 / SNR(Omega = 1) at the optimum, so the SNR
there is one up to rounding (a few ulp).

The SNR here keeps only the dominant matter-wave phase and composes with
the per-beam signal phase of the propagation module (its light/matter
split), not with the doubled counter-propagating differential.
"""

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._constants import hbar
from .errors import BoundaryHitError, LowCountWarning, ParameterError
from .params import (REFERENCE_WAVELENGTHS, RING_PRESETS, SPECIES_PRESETS,
                     RingGeometry, recoil_velocity)

__all__ = [
    "detector_photons",
    "shape_factor",
    "snr",
    "OptimumPoint",
    "optimize_snr",
    "omega_min",
    "SensitivityReport",
    "sensitivity_budget",
    "case_study",
]

S_RANGE = (1e-4, 1e2)
XI_RANGE_FACTOR = 1e3  # xi trusted in [a/1e3, a*1e3]
_MAX_ITER = 100


def detector_photons(cross_section: float, density: float, v_rec: float,
                     t: float, xi: float, s, a: float):
    """Quanta counted in time t: F * rho * v_rec * t * xi * s * e^(-2a/xi).

    s may be a scalar or an array (one count per saturation, a float for a
    scalar).  Warns, once per call, when fewer than one quantum arrives,
    where the shot-noise formula stops being meaningful.
    """
    s = np.asarray(s, dtype=float)
    if not (cross_section >= 0 and density >= 0 and v_rec >= 0 and t >= 0
            and xi > 0 and a >= 0 and np.all(s >= 0)):
        raise ParameterError("detector_photons needs xi > 0, all else >= 0")
    n_d = cross_section * density * v_rec * t * xi * s * math.exp(-2.0 * a / xi)
    low = int(np.count_nonzero(n_d < 1.0))
    if low:
        warnings.warn(f"n_D < 1 at {low} of {n_d.size} saturations "
                      f"(smallest {n_d.min():.3g}): shot-noise formula is "
                      "suspect there", LowCountWarning, stacklevel=2)
    return n_d if n_d.ndim else float(n_d)


def shape_factor(s, xi, a):
    """Dimensionless SNR factor g(s, xi; a); accepts arrays."""
    s = np.asarray(s, dtype=float)
    xi = np.asarray(xi, dtype=float)
    val = (np.sqrt(xi * s) * (1.0 + s) * np.exp(-a / xi)
           / (xi * (1.0 + s) ** 3 + 1.0))
    return val if val.ndim else float(val)


def snr(rotation_rate: float, area: float, cross_section: float,
        density: float, v_rec: float, t: float, s: float, xi: float,
        a: float, mass: float) -> float:
    """Matter-wave signal-to-noise ratio of the uniform-medium estimate."""
    if not (area > 0 and cross_section > 0 and density > 0 and v_rec > 0
            and t > 0 and mass > 0 and s >= 0 and xi > 0 and a >= 0):
        raise ParameterError("snr needs s, a >= 0; area, F, rho, v_rec, t, "
                             "xi, mass > 0")
    flux = math.sqrt(cross_section * density * v_rec * t)
    return (rotation_rate * area * mass / hbar) * flux * shape_factor(s, xi, a)


@dataclass(frozen=True)
class OptimumPoint:
    """Maximum of the SNR shape factor for one loss parameter."""

    a: float
    s_opt: float
    xi_opt: float
    g_max: float

    @property
    def f_estimate(self) -> float:
        """Prefactor 1 / (g_max * sqrt(a)); tends to ~7.18 for large a."""
        return 1.0 / (self.g_max * math.sqrt(self.a))


def optimize_snr(a: float) -> OptimumPoint:
    """Maximum of the SNR shape factor g(s, xi; a) over s, xi > 0.

    d ln g / d ln s = d ln g / d ln xi = 0 gives xi = 6 a s and, with
    t = 3 s - 1 > 0, (2a/27) t (1+t) (4+t)^3 / (2+t) = 1.  The left side
    rises strictly from 0 to infinity and g vanishes on every edge of the
    (s, xi) quadrant, so its one root is the global maximum.  Newton's
    method finds it in u = ln t, where the logarithm of the equation is
    convex with slope in [1, 5), starting from the smaller asymptotic root,
    27/(64a) or (27/(2a))^(1/4); both lie above the root, so the iterates
    fall to it monotonically, and a step that leaves the bracket of the
    residual signs seen (only possible through rounding) bisects instead.
    Raises BoundaryHitError when s falls outside S_RANGE or xi outside
    [a/XI_RANGE_FACTOR, a*XI_RANGE_FACTOR], where the estimate is trusted.
    """
    if not (a > 0 and math.isfinite(a)):
        raise ParameterError(f"loss parameter a must be positive and finite, "
                             f"got {a}")
    log_a = math.log(a)
    log_c = math.log(2.0 / 27.0) + log_a
    tol = 16.0 * sys.float_info.epsilon * (1.0 + abs(log_c))  # residual rounding
    u = min(math.log(27.0 / 64.0) - log_a, 0.25 * (math.log(13.5) - log_a))
    lo, hi = -math.inf, math.inf
    for _ in range(_MAX_ITER):
        t = math.exp(u)
        resid = (log_c + u + math.log1p(t) + 3.0 * math.log(4.0 + t)
                 - math.log(2.0 + t))
        if resid > 0.0:
            hi = u
        else:
            lo = u
        slope = 1.0 + t / (1.0 + t) + 3.0 * t / (4.0 + t) - t / (2.0 + t)
        new_u = u - resid / slope
        if not lo <= new_u <= hi:
            new_u = 0.5 * (lo + hi)
        if abs(new_u - u) <= tol:
            break
        u = new_u
    else:
        raise BoundaryHitError(f"SNR optimum for a = {a} did not converge "
                               f"in {_MAX_ITER} Newton steps")

    s_opt = (1.0 + math.exp(new_u)) / 3.0
    xi_opt = 6.0 * a * s_opt
    if not (S_RANGE[0] <= s_opt <= S_RANGE[1]
            and 1.0 / XI_RANGE_FACTOR <= xi_opt / a <= XI_RANGE_FACTOR):
        raise BoundaryHitError(
            f"SNR optimum for a = {a} lies outside the trusted box "
            f"(s = {s_opt:.3g}, xi = {xi_opt:.3g})")
    return OptimumPoint(a=a, s_opt=s_opt, xi_opt=xi_opt,
                        g_max=float(shape_factor(s_opt, xi_opt, a)))


def omega_min(area: float, cross_section: float, density: float, v_rec: float,
              t: float, a: float, mass: float) -> float:
    """Minimum detectable rotation rate, the rate at which the SNR at the
    optimum (s, xi) for this a is one: 1 / snr(1, ...), refused where snr
    refuses.  It equals (hbar/m) / A * (F rho v_rec t)^(-1/2) * f * sqrt(a).
    """
    return _omega_min_at(optimize_snr(a), area, cross_section, density,
                         v_rec, t, mass)


def _omega_min_at(opt: OptimumPoint, area: float, cross_section: float,
                  density: float, v_rec: float, t: float, mass: float) -> float:
    """omega_min at an optimum already solved for its loss parameter."""
    return 1.0 / snr(1.0, area, cross_section, density, v_rec, t, opt.s_opt,
                     opt.xi_opt, opt.a, mass)


@dataclass
class SensitivityReport:
    """Full sensitivity budget at the optimum operating point opt, with
    every assumption spelled out."""

    opt: OptimumPoint
    n_d: float
    delta_phi_noise: float
    snr: float
    omega_min: float
    assumptions: list = field(default_factory=list)


def sensitivity_budget(geometry: RingGeometry, v_rec: float, t: float,
                       a: float, mass: float,
                       area_convention: str = "ring") -> SensitivityReport:
    """Budget at the optimum operating point for loss parameter a: the
    optimum (s, xi), Omega_min, the count n_D there, the phase noise
    1/sqrt(n_D) and the SNR at Omega_min (one up to rounding), with the
    budget's own assumptions.  The geometry gives F, rho and the area:
    A = R * L_M for area_convention "ring", pi R^2 for "disk"."""
    if area_convention == "ring":
        area, formula = geometry.area, "R*L_M"
    elif area_convention == "disk":
        area, formula = math.pi * geometry.radius**2, "pi*R^2"
    else:
        raise ParameterError(f"unknown area convention {area_convention!r}")
    cross_section, density = geometry.cross_section, geometry.atom_density
    opt = optimize_snr(a)
    om = _omega_min_at(opt, area, cross_section, density, v_rec, t, mass)
    n_d = detector_photons(cross_section, density, v_rec, t, opt.xi_opt,
                           opt.s_opt, a)
    return SensitivityReport(
        opt=opt, n_d=n_d, delta_phi_noise=1.0 / math.sqrt(n_d),
        snr=snr(om, area, cross_section, density, v_rec, t, opt.s_opt,
                opt.xi_opt, a, mass),
        omega_min=om, assumptions=[
            f"area convention {area_convention}: A = {formula} = "
            f"{area:.6g} m^2",
            f"exact optimizer prefactor f = {opt.f_estimate:.5g} "
            "(SNR at omega_min is 1)",
            "matter-wave term only; shot noise only (no technical noise)"])


def case_study(name: str, species: str = "na23", a: float = 2.9,
               t: float = 1.0, area_convention: str = "ring") -> SensitivityReport:
    """Sensitivity budget for one of the circular-waveguide case studies
    (params.RING_PRESETS).

    The species, loss parameter and detection time are free choices (the
    quoted benchmark numbers do not pin them down); the defaults (sodium,
    a = 2.9, t = 1 s, full-ring area A = R * L_M = 2 pi R^2) reproduce the
    ~1.4e-9 rad/s/sqrt(Hz) figure for the 3 mm ring.  area_convention
    "disk" selects pi R^2 instead.
    """
    key = name.lower()
    if key not in RING_PRESETS:
        raise ParameterError(f"unknown case {name!r}; known: {sorted(RING_PRESETS)}")
    if species not in SPECIES_PRESETS:
        raise ParameterError(f"unknown species {species!r}; "
                             f"known: {sorted(SPECIES_PRESETS)}")
    geometry = RING_PRESETS[key]
    atom = SPECIES_PRESETS[species]
    lambda_p = REFERENCE_WAVELENGTHS[species]
    v_rec = recoil_velocity(atom, lambda_p)
    report = sensitivity_budget(geometry, v_rec, t, a, atom.mass,
                                area_convention)
    report.assumptions[:0] = [
        f"case={key}: ring radius {geometry.radius} m (waveguide diameter "
        f"{2*geometry.radius*1e3:.0f} mm), full ring L_M = 2*pi*R",
        f"species={species}: mass {atom.mass} kg, probe line {lambda_p*1e9:.2f} nm, "
        f"v_rec {v_rec:.4g} m/s",
        f"density={geometry.atom_density:g} /m^3 and "
        f"cross_section={geometry.cross_section:g} m^2 (toroidal BEC figures)",
        f"loss parameter a={a} (free choice; not fixed by the benchmark numbers)",
        f"detection time t={t} s, so omega_min is per sqrt(Hz)",
    ]
    return report
