"""Dressed-medium optics: mixing angle, group velocity, saturation and the
all-order rotational susceptibility.

The probe propagates as a dark-state polariton whose matter fraction is set
by the mixing angle, tan^2(theta) = g2rho / |rabi_c|^2.  Two dimensionless
numbers control everything downstream:

    s  = |rabi_p|^2 / |rabi_c|^2          probe saturation
    xi = cot^2(theta) / cot^2(theta_crit) group-velocity parameter,
         with tan^2(theta_crit) = c / v_rec

xi ~ v_gr / v_rec - eta for v_gr << c, so xi -> 0 marks the polariton
slowing to the atomic recoil velocity where the rotational phase becomes
that of a matter wave.

The susceptibility returned here is the rotation-induced one at line
center: chi' is odd in the rotation rate and saturates with probe power,
chi'' is the residual EIT absorption due to ground-coherence decay.
chi'' is stored as a positive magnitude with the absorptive orientation
(intensity decays as exp(-2 kappa x)); propagation uses the power-
independent upper bound kappa = gamma13 / (v_rec * xi), which slightly
overestimates the loss at finite probe power.
"""

import math
import warnings
from dataclasses import dataclass, field

from ._constants import c
from .errors import EITConditionWarning, ParameterError

__all__ = [
    "PolaritonState",
    "Susceptibility",
    "mixing_angle",
    "tan2_theta",
    "group_velocity",
    "xi_exact",
    "xi_approx",
    "susceptibility",
    "absorption_bound",
    "absorption_exact",
    "polariton_state",
]


@dataclass(frozen=True)
class PolaritonState:
    """Dimensionless operating point of the dressed medium.

    kappa is the working (bound) amplitude absorption coefficient used by
    the propagation module.  theta_crit_ratio = tan^2(theta)/(c/v_rec) = 1/xi
    flags the regime where the polariton turns into a propagating spin wave
    and the neglected kinetic dispersion matters.
    """

    tan2_theta: float
    v_gr: float            # m/s
    xi: float
    s: float
    kappa: float           # 1/m
    theta_crit_ratio: float
    eta: float = 1.0
    xi_is_infinite: bool = field(default=False)


def tan2_theta(g2rho: float, rabi_c: float) -> float:
    """tan^2 of the polariton mixing angle, g2rho / rabi_c^2."""
    if rabi_c <= 0:
        raise ParameterError("control Rabi frequency must be positive")
    if g2rho < 0:
        raise ParameterError("g2rho must be >= 0")
    return g2rho / rabi_c**2


def mixing_angle(g2rho: float, rabi_c: float) -> float:
    """Polariton mixing angle theta in [0, pi/2)."""
    return math.atan(math.sqrt(tan2_theta(g2rho, rabi_c)))


def group_velocity(theta: float, eta: float, v_rec: float) -> float:
    """Polariton group velocity c cos^2(theta) + eta v_rec sin^2(theta)."""
    if not 0.0 <= theta <= 0.5 * math.pi:
        raise ParameterError(f"theta must lie in [0, pi/2], got {theta}")
    # cos(theta)**2 rather than 1 - sin^2: no cancellation near pi/2
    return c * math.cos(theta) ** 2 + eta * v_rec * math.sin(theta) ** 2


def xi_exact(theta: float, v_rec: float) -> float:
    """Group-velocity parameter cot^2(theta) / cot^2(theta_crit)
    = c / (v_rec tan^2(theta)).  Returns inf at theta = 0 (no medium)."""
    if v_rec <= 0:
        raise ParameterError("v_rec must be positive")
    t2 = math.tan(theta) ** 2
    if t2 == 0.0:
        return math.inf
    return c / (v_rec * t2)


def xi_approx(v_gr: float, v_rec: float, eta: float) -> float:
    """Slow-light approximation v_gr / v_rec - eta, valid for v_gr << c.
    Relates to the exact form by xi_approx/xi_exact = 1 - v_gr/c."""
    if v_rec <= 0:
        raise ParameterError("v_rec must be positive")
    return v_gr / v_rec - eta


@dataclass(frozen=True)
class Susceptibility:
    """Line-center susceptibility of the rotating dressed medium.

    chi_prime is signed (odd in the rotation rate); chi_double_prime is the
    absorptive magnitude.  beta is the polariton normalization from the
    first-order drift correction.  warnings lists validity conditions that
    the operating point violates.
    """

    chi_prime: float
    chi_double_prime: float
    beta: float
    warnings: tuple = ()


def susceptibility(rabi_p: float, rabi_c: float, g2rho: float, gamma13: float,
                   rotation_rate: float, radius: float, k_p: float,
                   v_rec: float, matter_gate: float = 1.0,
                   gamma1: float = 0.0, delta2: float = 0.0,
                   delta3: float = 0.0) -> Susceptibility:
    """All-order rotational susceptibility at the local probe power.

    chi'  = beta^-1 (Omega R / c) (1 + gate * T / (1+s)^2)
    chi'' = beta^-1 (gamma13 / (k_p c)) * T / (1+s)^2
    beta  = 1 + (v_rec / c) * T / (1+s)^3

    with T = tan^2(theta) = g2rho / rabi_c^2 and s the saturation parameter.
    The matter-wave term of chi' carries the preparation gate; beta does
    not, because the group-velocity drag survives for any preparation.
    Validity assumes line center and a control power large against
    gamma13*gamma1; violations attach warnings rather than failing.
    """
    notes = []
    if delta2 != 0.0 or delta3 != 0.0:
        notes.append("nonzero detuning: closed form is a line-center result")
    if gamma1 > 0 and rabi_c**2 < 100.0 * gamma13 * gamma1:
        notes.append("EIT condition rabi_c^2 >> gamma13*gamma1 violated")
    if notes:
        warnings.warn("; ".join(notes), EITConditionWarning, stacklevel=2)

    t2 = tan2_theta(g2rho, rabi_c)
    s = (rabi_p / rabi_c) ** 2
    sat2 = t2 / (1.0 + s) ** 2
    beta = 1.0 + (v_rec / c) * t2 / (1.0 + s) ** 3
    chi_p = (rotation_rate * radius / c) * (1.0 + matter_gate * sat2) / beta
    chi_pp = (gamma13 / (k_p * c)) * sat2 / beta
    return Susceptibility(chi_prime=chi_p, chi_double_prime=chi_pp,
                          beta=beta, warnings=tuple(notes))


def absorption_bound(xi: float, gamma13: float, v_rec: float) -> float:
    """Power-independent upper bound gamma13 / (v_rec * xi) on the amplitude
    absorption coefficient; this is the working kappa of the propagation
    module (losses slightly overestimated at finite probe power)."""
    if xi <= 0:
        raise ParameterError("xi must be positive")
    if v_rec <= 0:
        raise ParameterError("v_rec must be positive")
    if math.isinf(xi):
        return 0.0
    return gamma13 / (v_rec * xi)


def absorption_exact(state: "PolaritonState", gamma13: float, v_rec: float,
                     k_p: float) -> float:
    """Exact k_p * chi'' at the state's saturation; always <= the bound."""
    sat2 = state.tan2_theta / (1.0 + state.s) ** 2
    beta = 1.0 + (v_rec / c) * state.tan2_theta / (1.0 + state.s) ** 3
    return (gamma13 / c) * sat2 / beta


def polariton_state(g2rho: float, rabi_c: float, rabi_p: float, eta: float,
                    v_rec: float, gamma13: float) -> PolaritonState:
    """Bundle the dimensionless operating point for a given medium/fields.

    xi is computed directly from tan^2(theta) rather than through the angle,
    avoiding the tan/atan round trip."""
    t2 = tan2_theta(g2rho, rabi_c)
    theta = math.atan(math.sqrt(t2))
    v_gr = group_velocity(theta, eta, v_rec)
    xi = math.inf if t2 == 0.0 else c / (v_rec * t2)
    s = (rabi_p / rabi_c) ** 2
    kappa = 0.0 if gamma13 == 0.0 else absorption_bound(xi, gamma13, v_rec)
    return PolaritonState(tan2_theta=t2, v_gr=v_gr, xi=xi, s=s, kappa=kappa,
                          theta_crit_ratio=t2 * v_rec / c, eta=eta,
                          xi_is_infinite=math.isinf(xi))
