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
The exact optimizer result is used by default so that the SNR evaluated at
Omega_min is exactly one; the large-a prefactor is available separately.

The SNR here keeps only the dominant matter-wave phase and composes with
the per-beam signal phase of the propagation module (its light/matter
split), not with the doubled counter-propagating differential.
"""

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._constants import c, epsilon_0, hbar
from .errors import BoundaryHitError, LowCountWarning, ParameterError
from .params import REFERENCE_WAVELENGTHS, SPECIES_PRESETS

__all__ = [
    "loss_parameter",
    "detector_photons",
    "detector_photons_from_power",
    "shape_factor",
    "snr",
    "OptimumPoint",
    "optimize_snr",
    "prefactor_f",
    "omega_min",
    "SensitivityReport",
    "case_study",
    "CASE_PRESETS",
]

S_RANGE = (1e-4, 1e2)
XI_RANGE_FACTOR = 1e3  # xi trusted in [a/1e3, a*1e3]
_MAX_ITER = 100


def loss_parameter(gamma13: float, medium_length: float, v_rec: float) -> float:
    """a = gamma13 * L_M / v_rec, the ground-coherence decay accumulated
    over the medium at recoil speed."""
    if medium_length <= 0 or v_rec <= 0:
        raise ParameterError("medium_length and v_rec must be positive")
    if gamma13 < 0:
        raise ParameterError("gamma13 must be >= 0")
    return gamma13 * medium_length / v_rec


def detector_photons(cross_section: float, density: float, v_rec: float,
                     t: float, xi: float, s: float, a: float) -> float:
    """Quanta counted in time t: F * rho * v_rec * t * xi * s * e^(-2a/xi).

    Warns when fewer than one quantum arrives, where the shot-noise formula
    stops being meaningful.
    """
    if min(cross_section, density, v_rec, t) < 0 or xi <= 0 or s < 0 or a < 0:
        raise ParameterError("detector_photons arguments must be positive")
    n_d = cross_section * density * v_rec * t * xi * s * math.exp(-2.0 * a / xi)
    if n_d < 1.0:
        warnings.warn(f"n_D = {n_d:.3g} < 1: shot-noise formula is suspect",
                      LowCountWarning, stacklevel=2)
    return n_d


def detector_photons_from_power(rabi_p0: float, dipole_p: float,
                                cross_section: float, omega_p: float,
                                t: float, kappa: float,
                                medium_length: float) -> float:
    """Same count from the raw beam power,
    (2 eps0 F c / (hbar omega_p)) * (hbar rabi_p0 / d_p)^2 * t * e^(-2 kappa L_M).
    Must agree with detector_photons for consistent inputs."""
    power_flux = 2.0 * epsilon_0 * cross_section * c * (hbar * rabi_p0 / dipole_p) ** 2
    return power_flux / (hbar * omega_p) * t * math.exp(-2.0 * kappa * medium_length)


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
    if min(area, cross_section, density, v_rec, t, mass) <= 0:
        raise ParameterError("snr arguments must be positive")
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


def prefactor_f(a: float = 1e4) -> float:
    """Large-a prefactor f = 1 / (g_max(a) sqrt(a)), evaluated at a = 1e4
    by default where it has converged to three digits (~7.18)."""
    return optimize_snr(a).f_estimate


def omega_min(area: float, cross_section: float, density: float, v_rec: float,
              t: float, a: float, mass: float,
              f_mode: str = "exact") -> float:
    """Minimum detectable rotation rate
    (hbar/m) / A * (F rho v_rec t)^(-1/2) * f * sqrt(a).

    f_mode="exact" uses the optimizer value f = 1/(g_max(a) sqrt(a)) so that
    the SNR at Omega_min is exactly one for this a; f_mode="asymptotic"
    uses the large-a constant from prefactor_f().
    """
    if min(area, cross_section, density, v_rec, t, mass) <= 0 or a <= 0:
        raise ParameterError("omega_min arguments must be positive")
    if f_mode == "exact":
        f_val = optimize_snr(a).f_estimate
    elif f_mode == "asymptotic":
        f_val = prefactor_f()
    else:
        raise ParameterError(f"unknown f_mode {f_mode!r}")
    flux = math.sqrt(cross_section * density * v_rec * t)
    return hbar / mass / area / flux * f_val * math.sqrt(a)


@dataclass
class SensitivityReport:
    """Full sensitivity budget at the optimum operating point, with every
    assumption spelled out."""

    n_d: float
    delta_phi_noise: float
    snr: float
    s_opt: float
    xi_opt: float
    g_max: float
    f: float
    omega_min: float
    assumptions: list = field(default_factory=list)


# State-of-the-art circular BEC waveguides used for the case studies:
# ring diameters 3 mm and 96 mm, toroid cross-section ~1e-2 cm^2, BEC
# density 1e14 cm^-3.
CASE_PRESETS = {
    "gupta": {"radius": 1.5e-3},
    "arnold": {"radius": 48e-3},
}
CASE_DENSITY = 1e20        # 1/m^3
CASE_CROSS_SECTION = 1e-6  # m^2


def case_study(name: str, species: str = "na23", a: float = 2.9,
               t: float = 1.0, area_convention: str = "ring",
               f_mode: str = "exact") -> SensitivityReport:
    """Sensitivity budget for one of the circular-waveguide case studies.

    The species, loss parameter and detection time are free choices (the
    quoted benchmark numbers do not pin them down); the defaults (sodium,
    a = 2.9, t = 1 s, full-ring area A = R * L_M = 2 pi R^2) reproduce the
    ~1.4e-9 rad/s/sqrt(Hz) figure for the 3 mm ring.  area_convention
    "disk" selects pi R^2 instead.
    """
    key = name.lower()
    if key not in CASE_PRESETS:
        raise ParameterError(f"unknown case {name!r}; known: {sorted(CASE_PRESETS)}")
    if species not in SPECIES_PRESETS:
        raise ParameterError(f"unknown species {species!r}; "
                             f"known: {sorted(SPECIES_PRESETS)}")
    if f_mode not in ("exact", "asymptotic"):
        raise ParameterError(f"unknown f_mode {f_mode!r}")
    radius = CASE_PRESETS[key]["radius"]
    atom = SPECIES_PRESETS[species]
    lambda_p = REFERENCE_WAVELENGTHS[species]
    k_p = 2.0 * math.pi / lambda_p
    v_rec = hbar * k_p / atom.mass
    length = 2.0 * math.pi * radius
    if area_convention == "ring":
        area = radius * length
    elif area_convention == "disk":
        area = math.pi * radius**2
    else:
        raise ParameterError(f"unknown area convention {area_convention!r}")

    opt = optimize_snr(a)
    f_val = opt.f_estimate if f_mode == "exact" else prefactor_f()
    flux = math.sqrt(CASE_CROSS_SECTION * CASE_DENSITY * v_rec * t)
    om = hbar / atom.mass / area / flux * f_val * math.sqrt(a)
    n_d = detector_photons(CASE_CROSS_SECTION, CASE_DENSITY, v_rec, t,
                           opt.xi_opt, opt.s_opt, a)
    noise = 1.0 / math.sqrt(n_d)
    snr_at_min = snr(om, area, CASE_CROSS_SECTION, CASE_DENSITY, v_rec, t,
                     opt.s_opt, opt.xi_opt, a, atom.mass)

    assumptions = [
        f"case={key}: ring radius {radius} m (waveguide diameter {2*radius*1e3:.0f} mm)",
        f"species={species}: mass {atom.mass} kg, probe line {lambda_p*1e9:.2f} nm, "
        f"v_rec {v_rec:.4g} m/s",
        f"density={CASE_DENSITY:g} /m^3 and cross_section={CASE_CROSS_SECTION:g} m^2 "
        "(toroidal BEC figures)",
        f"loss parameter a={a} (free choice; not fixed by the benchmark numbers)",
        f"detection time t={t} s, so omega_min is per sqrt(Hz)",
        f"area convention {area_convention}: A = {area:.6g} m^2 "
        + ("(A = R*L_M with L_M = 2*pi*R)" if area_convention == "ring"
           else "(disk, pi R^2)"),
        f"f_mode={f_mode}: f = {f_val:.5g}",
        "matter-wave term only; shot noise only (no technical noise)",
    ]
    return SensitivityReport(n_d=n_d, delta_phi_noise=noise, snr=snr_at_min,
                             s_opt=opt.s_opt, xi_opt=opt.xi_opt,
                             g_max=opt.g_max, f=f_val, omega_min=om,
                             assumptions=assumptions)
