"""Probe-field propagation around the rotating ring.

Integrates the log-amplitude of the probe in both directions, either in the
weak-field limit (power-independent phase rates) or to all orders in the
probe power (saturating susceptibility re-evaluated from the local
amplitude), and splits the accumulated rotational phase into its light and
matter-wave parts.

Sign and normalization conventions, fixed once here:

* direction = +1 labels the beam whose propagation sense co-rotates with a
  positive rotation rate; it accumulates positive rotational phase.
* phase_cw / phase_ccw are the per-beam phases of the +1 / -1 beams; the
  differential signal is delta_phi_sig = phase_cw - phase_ccw, which in
  vacuum equals the textbook value 4*pi*Omega*R*L_M / (lambda*c), i.e. the
  ring-interferometer phase with area convention A = R * L_M.
* light_part and matter_part are the split of ONE beam's phase (the beam
  selected by `direction`), so light_part + matter_part = phase of that
  beam = delta_phi_sig / 2.  The shot-noise analysis in the sensitivity
  module composes with these per-beam phases.

Counter-propagation flips the sign of the rotation rate, which negates
every phase increment and leaves the amplitude unchanged.  The
counter-propagating beam is therefore the mirror of the co-propagating run
(conjugate log-amplitude, phase_ccw = -phase_cw) and is not integrated a
second time.

check_validity decides the model's domain in one place: propagate_weak,
propagate_allorder and frozen_phases each pass through it once, and
`omega-min` calls it for the matter-wave sensitivity.
"""

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from ._constants import c, epsilon_0, hbar
from .errors import (EITConditionWarning, IntegrationError, ParameterError,
                     WeakFieldWarning)
from .params import (RB87, REFERENCE_WAVELENGTHS, RING_PRESETS, AtomSpecies,
                     ProbeControlFields, RingGeometry, derived_scales,
                     recoil_velocity)
from .ringmodes import MediumPreparation, matter_term_gate

__all__ = [
    "PropagationGrid",
    "RingMedium",
    "PropagationResult",
    "check_validity",
    "propagate_weak",
    "propagate_allorder",
    "signal_phase",
    "frozen_phases",
    "bare_sagnac_phase",
]

MAX_STEP_CHANGE = 0.1   # per-step |d ln|rabi_p|| above which the step fails
_MAX_REFINE = 64        # refinement floor: give up past this many substeps
# the largest saturation s the model answers for: every saturating phase
# rate divides by (1+s)^3, which overflows a float near s = 5.6e102
MAX_SATURATION = 1e100


@dataclass(frozen=True)
class PropagationGrid:
    """n_points uniform sample points along the medium, x in [0, length]."""

    length: float
    n_points: int

    def __post_init__(self):
        if not self.length > 0:
            raise ParameterError("grid length must be positive")
        if self.n_points < 64:
            raise ParameterError(f"n_points must be >= 64, got {self.n_points}")

    @classmethod
    def uniform(cls, length: float, n_points: int) -> "PropagationGrid":
        return cls(length, n_points)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.n_points)

    @property
    def spacing(self) -> float:
        return self.length / (self.n_points - 1)


class RingMedium:
    """Atom + fields + geometry bundle with the derived EIT quantities.

    The one home of the dimensionless numbers every propagation formula
    needs:

    * tan2_theta = g2rho / rabi_c^2, tan^2 of the polariton mixing angle;
    * xi = c / (v_rec * tan2_theta), the group-velocity parameter (inf
      without a medium); xi < 1 puts the mixing angle beyond its critical
      value tan^2(theta_crit) = c / v_rec;
    * kappa = gamma13 * tan2_theta / c, the amplitude loss per metre.  It
      is the power-independent bound on the exact loss
      kappa / ((1+s)^2 * beta), beta = 1 + (1/xi) / (1+s)^3, so it
      overstates the loss by the factor (1+s)^2 * beta, about 1.78 at the
      SNR optimum's s = 1/3;
    * loss_parameter a = gamma13 * L_M / v_rec.  v_rec and the
      momentum-transfer parameter eta are in `scales`.
    """

    def __init__(self, atom: AtomSpecies, fields: ProbeControlFields,
                 geometry: RingGeometry):
        self.atom = atom
        self.fields = fields
        self.geometry = geometry
        self.scales = derived_scales(atom, fields, geometry)
        self.tan2_theta = self.scales.g2rho / fields.rabi_c**2
        if not self.tan2_theta < math.inf:
            raise ParameterError(
                f"tan^2(theta) = g2rho / rabi_c^2 overflows (g2rho = "
                f"{self.scales.g2rho:g} rad^2/s^2, rabi_c = "
                f"{fields.rabi_c:g} rad/s)")
        self.xi = (math.inf if self.tan2_theta == 0.0
                   else c / (self.scales.v_rec * self.tan2_theta))
        self.kappa = atom.gamma13 * self.tan2_theta / c

    @property
    def loss_parameter(self) -> float:
        """a = gamma13 * L_M / v_rec."""
        return self.atom.gamma13 * self.geometry.medium_length / self.scales.v_rec

    @classmethod
    def from_dimensionless(cls, a: float, xi: float, s0: float,
                           rotation_rate: float = 0.0) -> "RingMedium":
        """Rb-87 medium on the gupta ring (params.RING_PRESETS, control
        Rabi frequency 1e6 rad/s) realizing prescribed (a, xi, s0).

        Chooses the atomic density to hit xi (xi = inf: no atoms) and the
        ground-coherence dephasing to hit a, keeping every stored quantity
        SI.  Refuses a outside [0, inf), xi <= 0 and s0 < 0, NaN included.
        """
        if not (0 <= a < math.inf and xi > 0 and s0 >= 0):
            raise ParameterError(f"need 0 <= a < inf, xi > 0 and s0 >= 0; "
                                 f"got a = {a}, xi = {xi}, s0 = {s0}")
        ring = RING_PRESETS["gupta"]
        rabi_c = 1.0e6
        probe = ProbeControlFields(lambda_p=REFERENCE_WAVELENGTHS["rb87"],
                                   rabi_p0=math.sqrt(s0) * rabi_c,
                                   rabi_c=rabi_c)
        v_rec = recoil_velocity(RB87, probe.lambda_p)
        if math.isinf(xi):
            density = 0.0
        else:
            tan2 = c / (v_rec * xi)
            density = (tan2 * rabi_c**2 * 2.0 * hbar * epsilon_0
                       / (RB87.dipole_p**2 * probe.omega_p))
        atom = replace(RB87, gamma13=a * v_rec / ring.medium_length)
        return cls(atom, probe, replace(ring, atom_density=density,
                                        rotation_rate=rotation_rate))


@dataclass
class PropagationResult:
    """Phases and transmission of one propagation, and the log-amplitude
    ln(rabi_p(x) / rabi_p(0)) at the grid points of the beam selected by
    `direction`: its real part is the log of the amplitude ratio, its
    imaginary part the phase.  light_part and matter_part split that beam's
    phase (see the module docstring); delta_phi_sig is the full
    counter-propagating differential phase."""

    phase_cw: float
    amplitude_ratio: float
    light_part: float
    matter_part: float
    log_amplitude: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def phase_ccw(self) -> float:
        return -self.phase_cw

    @property
    def delta_phi_sig(self) -> float:
        return 2.0 * self.phase_cw


def check_validity(medium: RingMedium, prep: MediumPreparation, mode: str):
    """Refuse (ParameterError) or warn where the line-center EIT model
    does not answer for this medium.  mode is "weak", "saturating"
    (all-order), "frozen-s" (saturation given, not the fields' s(0)) or
    "sensitivity" (the matter-wave SNR).  Refuses eta != 1 outside weak
    mode, s(0) above MAX_SATURATION in weak and saturating mode, and a
    preparation that gates the matter term to zero in sensitivity mode.
    Warns for a nonzero detuning or rabi_c^2 < 100 gamma13 gamma1
    (EITConditionWarning), for xi < 1, beyond the critical mixing angle
    (UserWarning), and in weak mode for s(0) > 0.01 (WeakFieldWarning)."""
    if mode != "weak" and not abs(medium.scales.eta - 1.0) <= 1e-9:
        raise ParameterError(
            f"the {mode} model requires eta = 1 (perpendicular control), "
            f"got eta = {medium.scales.eta}")
    if mode == "sensitivity" and matter_term_gate(prep) == 0.0:
        raise ParameterError(
            f"preparation {prep.kind.value} gates the matter term to zero; "
            "the matter-wave sensitivity needs a superfluid_ring")
    fields, atom = medium.fields, medium.atom
    # s(0) = (rabi_p0/rabi_c)^2 compared without squaring, which may overflow
    if mode in ("weak", "saturating") and not (
            fields.rabi_p0 <= math.sqrt(MAX_SATURATION) * fields.rabi_c):
        raise ParameterError(
            f"input saturation s(0) = (rabi_p0/rabi_c)^2 must be <= "
            f"{MAX_SATURATION:g}, where (1+s)^3 stays finite (got rabi_p0 "
            f"= {fields.rabi_p0:g}, rabi_c = {fields.rabi_c:g} rad/s)")
    if fields.delta2 != 0.0 or fields.delta3 != 0.0:
        warnings.warn("nonzero detuning: the phase rates are line-center "
                      "results", EITConditionWarning, stacklevel=3)
    if fields.rabi_c**2 < 100.0 * atom.gamma13 * atom.gamma1:
        warnings.warn("EIT condition rabi_c^2 >> gamma13*gamma1 violated",
                      EITConditionWarning, stacklevel=3)
    if medium.xi < 1.0:
        warnings.warn(
            f"tan^2(theta) = {1.0 / medium.xi:.3g} * (c/v_rec) exceeds "
            "the critical mixing angle; neglected kinetic dispersion "
            "matters here (xi < 1)", UserWarning, stacklevel=3)
    if mode == "weak" and fields.saturation0 > 0.01:
        warnings.warn(f"s(0) = {fields.saturation0:.3g} > 0.01: outside the "
                      "weak-field regime", WeakFieldWarning, stacklevel=3)


def bare_sagnac_phase(rotation_rate: float, radius: float, medium_length: float,
                      lambda_p: float) -> float:
    """Vacuum differential phase 4*pi*Omega*R*L_M/(lambda*c): the ring
    interferometer value with area convention A = R * L_M."""
    return 4.0 * math.pi * rotation_rate * radius * medium_length / (lambda_p * c)


def _phase_rates(medium: RingMedium, s, gate: float):
    """Per-beam light and matter phase rates (rad/m) at saturation s.

    Written in terms of q = tan^2(theta) * v_rec / c = 1/xi so the vacuum
    limit (no medium) is regular.  The weak-field rates are the s = 0
    values, valid at any momentum transfer eta.
    """
    pref = (medium.fields.k_p * medium.geometry.rotation_rate
            * medium.geometry.radius / c)
    eta = medium.scales.eta
    t2 = medium.tan2_theta
    q = t2 * medium.scales.v_rec / c
    denom = 1.0 + eta * q / (1.0 + s) ** 3
    light = pref / denom
    matter = gate * pref * eta * t2 / (1.0 + s) ** 2 / denom
    return light, matter


def frozen_phases(medium: RingMedium, prep: MediumPreparation, s):
    """Per-beam (light, matter) phases of the co-propagating beam with the
    saturation frozen at s along the whole medium: each phase is its rate
    times L_M.  s may be a scalar or an array.  Requires full momentum
    transfer (eta = 1), where the saturating rates hold."""
    check_validity(medium, prep, "frozen-s")
    light_rate, matter_rate = _phase_rates(medium, s, matter_term_gate(prep))
    length = medium.geometry.medium_length
    return light_rate * length, matter_rate * length


def _uniform_result(medium: RingMedium, grid: PropagationGrid, gate: float,
                    direction: int, phases, kappa: float,
                    mode: str) -> PropagationResult:
    """Result for phase rates that are constant along the medium, from the
    co-propagating beam's (light, matter) phases: the phase grows linearly
    in x and ends on the beam phase, the amplitude decays as
    exp(-kappa x)."""
    light, matter = (direction * phase for phase in phases)
    beam = light + matter
    x = grid.x
    length = medium.geometry.medium_length
    return PropagationResult(
        phase_cw=beam if direction == 1 else -beam,
        amplitude_ratio=math.exp(-kappa * length),
        light_part=light, matter_part=matter,
        log_amplitude=-kappa * x + 1j * (beam * (x / length)),
        diagnostics={"mode": mode, "gate": gate},
    )


def propagate_weak(medium: RingMedium, prep: MediumPreparation,
                   grid: PropagationGrid, direction: int = 1) -> PropagationResult:
    """Weak-field propagation: power-independent phase, no absorption.

    The matter term carries the preparation gate; for a longitudinally
    trapped medium only the light part survives, which is the same formula
    with the gate at zero.  Warns when the input saturation exceeds the
    weak-field regime s(0) <= 0.01.
    """
    if direction not in (1, -1):
        raise ParameterError("direction must be +1 or -1")
    check_validity(medium, prep, "weak")
    gate = matter_term_gate(prep)
    length = medium.geometry.medium_length
    phases = [rate * length for rate in _phase_rates(medium, 0.0, gate)]
    return _uniform_result(medium, grid, gate, direction, phases, 0.0, "weak")


def _rhs(y, loss, pref, tan2, rc2, vrec_c, gate):
    s = math.exp(2.0 * y.real) / rc2
    d1 = 1.0 + s
    sat2 = tan2 / (d1 * d1)
    sat3 = sat2 / d1
    return complex(-loss, pref * (1.0 + gate * sat2) / (1.0 + vrec_c * sat3))


def _rk4(y0, h, n_steps, loss, pref, tan2, rc2, vrec_c, gate):
    """Integrate d/dx ln(rabi_p) = -loss + i*k_p*chi'(s) over n_steps of
    size h with fixed-step fourth-order Runge-Kutta, re-evaluating the
    saturation s from the local amplitude.  Returns the log-amplitude
    samples at the n_steps+1 grid points."""
    out = np.empty(n_steps + 1, dtype=complex)
    y = complex(y0)
    out[0] = y
    for i in range(n_steps):
        k1 = _rhs(y, loss, pref, tan2, rc2, vrec_c, gate)
        k2 = _rhs(y + 0.5 * h * k1, loss, pref, tan2, rc2, vrec_c, gate)
        k3 = _rhs(y + 0.5 * h * k2, loss, pref, tan2, rc2, vrec_c, gate)
        k4 = _rhs(y + h * k3, loss, pref, tan2, rc2, vrec_c, gate)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = y
    return out


def propagate_allorder(medium: RingMedium, prep: MediumPreparation,
                       grid: PropagationGrid,
                       direction: int = 1) -> PropagationResult:
    """Propagation with the saturating susceptibility re-evaluated at the
    local probe amplitude and the power-independent loss bound.

    Fixed-step fourth-order integration.  Re d ln(rabi_p)/dx = -kappa
    everywhere, so a step of size h changes ln|rabi_p| by exactly kappa*h:
    the substeps per grid cell are the smallest power of two that keeps
    that change <= 0.1, decided before integrating.  Past 64 substeps, that
    is kappa * grid.spacing > 6.4, an IntegrationError is raised instead.
    The result carries a Richardson convergence estimate (one more
    halving) in diagnostics["richardson_phase"].  The kernel runs for the
    co-propagating beam only; the counter-propagating one is its mirror
    (see the module docstring).  A zero probe keeps s = 0 along the whole
    medium, which is the exact solution; it is answered in closed form
    (frozen_phases at s = 0).  Requires full momentum transfer (eta = 1).
    """
    if direction not in (1, -1):
        raise ParameterError("direction must be +1 or -1")
    gate = matter_term_gate(prep)
    if medium.fields.rabi_p0 == 0.0:
        return _uniform_result(medium, grid, gate, direction,
                               frozen_phases(medium, prep, 0.0), medium.kappa,
                               "allorder")
    check_validity(medium, prep, "saturating")
    loss = medium.kappa
    n_cells = grid.n_points - 1
    refine = 1
    while (grid.spacing / refine * loss > MAX_STEP_CHANGE
           and refine < _MAX_REFINE):
        refine *= 2
    max_step = grid.spacing / refine * loss
    if max_step > MAX_STEP_CHANGE:
        raise IntegrationError(
            f"per-step change {max_step:.3g} stays above {MAX_STEP_CHANGE} "
            f"after refinement to {refine} substeps per cell "
            f"({n_cells} cells)", max_step=max_step, n_points=grid.n_points)

    # the run at `refine` and one more halving for the Richardson
    # comparison; keep the finer result
    pref = (medium.fields.k_p * medium.geometry.rotation_rate
            * medium.geometry.radius / c)
    coeffs = (loss, pref, medium.tan2_theta, medium.fields.rabi_c**2,
              medium.scales.v_rec / c, gate)
    y0 = complex(math.log(medium.fields.rabi_p0), 0.0)
    coarse = _rk4(y0, grid.spacing / refine, n_cells * refine, *coeffs)
    y_cw = _rk4(y0, grid.spacing / (2 * refine), n_cells * 2 * refine,
                *coeffs)[:: 2 * refine]
    phase_cw = float((y_cw[-1] - y_cw[0]).imag)
    richardson = abs(phase_cw - float((coarse[-1] - coarse[0]).imag)) / 15.0

    y_sel = y_cw if direction == 1 else y_cw.conjugate()
    s_profile = np.exp(2.0 * y_sel.real) / medium.fields.rabi_c**2
    light, matter = _split_phase(medium, gate, s_profile, grid, direction,
                                 2 * refine)
    log_amplitude = y_sel - y_sel[0]

    return PropagationResult(
        phase_cw=phase_cw,
        amplitude_ratio=float(np.exp(log_amplitude[-1].real)),
        light_part=light, matter_part=matter,
        log_amplitude=log_amplitude,
        diagnostics={"mode": "allorder", "gate": gate,
                     "richardson_phase": richardson,
                     "max_step": max_step},
    )


def _split_phase(medium, gate, s_profile, grid, direction, substeps):
    """Light and matter phase integrals over s(x) by the rule the RK4 kernel
    applies to the beam phase: Simpson's rule with midpoints on each of
    `substeps` equal steps per grid cell.  ln s is linear in x, so s inside
    a cell follows exactly from its end values."""
    t = np.linspace(0.0, 1.0, 2 * substeps + 1)
    s = s_profile[:-1, None] ** (1.0 - t) * s_profile[1:, None] ** t
    weights = np.ones(t.size)
    weights[1::2] = 4.0
    weights[2:-1:2] = 2.0
    scale = direction * grid.spacing / (6.0 * substeps)
    light_rate, matter_rate = _phase_rates(medium, s, gate)
    return (scale * float(np.sum(light_rate @ weights)),
            scale * float(np.sum(matter_rate @ weights)))


def signal_phase(medium: RingMedium, prep: MediumPreparation,
                 grid: PropagationGrid) -> PropagationResult:
    """Differential Sagnac signal with its light/matter split: the
    co-propagating beam of propagate_allorder (self-consistent s(x),
    eta = 1 required), labelled mode "signal"."""
    result = propagate_allorder(medium, prep, grid)
    result.diagnostics["mode"] = "signal"
    return result

