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

Counter-propagation is modeled by flipping the sign of the rotation rate
in the co-rotating equations; both directions run through the same
integrator.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._constants import c, epsilon_0, hbar
from .errors import IntegrationError, ParameterError, WeakFieldWarning
from .params import (RB87, AtomSpecies, ProbeControlFields, RingGeometry,
                     all_scales)
from .polariton import PolaritonState, polariton_state
from .ringmodes import MediumPreparation, matter_term_gate

__all__ = [
    "PropagationGrid",
    "RingMedium",
    "PropagationResult",
    "propagate_weak",
    "propagate_allorder",
    "signal_phase",
    "dispersion_regime_check",
    "bare_sagnac_phase",
    "write_profile_csv",
]

MAX_STEP_CHANGE = 0.1   # per-step |d ln(rabi_p)| above which the step fails
_MAX_REFINE = 64        # refinement floor: give up past this many substeps


@dataclass(frozen=True)
class PropagationGrid:
    """Uniform sample points along the medium, x in [0, L_M]."""

    n_points: int
    x: np.ndarray

    def __post_init__(self):
        if self.n_points < 64:
            raise ParameterError(f"n_points must be >= 64, got {self.n_points}")
        dx = np.diff(self.x)
        if dx.size == 0 or not np.allclose(dx, dx[0], rtol=1e-9, atol=0.0):
            raise ParameterError("grid spacing must be uniform")

    @classmethod
    def uniform(cls, length: float, n_points: int = 256) -> "PropagationGrid":
        if length <= 0:
            raise ParameterError("grid length must be positive")
        return cls(n_points=n_points, x=np.linspace(0.0, length, n_points))

    @property
    def spacing(self) -> float:
        return float(self.x[1] - self.x[0])


class RingMedium:
    """Atom + fields + geometry bundle with the derived EIT quantities.

    Exposes the dimensionless numbers every propagation formula needs:
    tan2_theta, xi, the loss parameter a = gamma13 * L_M / v_rec, and the
    momentum-transfer parameter eta.
    """

    def __init__(self, atom: AtomSpecies, fields: ProbeControlFields,
                 geometry: RingGeometry):
        self.atom = atom
        self.fields = fields
        self.geometry = geometry
        self.scales = all_scales(atom, fields, geometry)
        self.state0 = polariton_state(
            self.scales.g2rho, fields.rabi_c, fields.rabi_p0,
            self.scales.eta, self.scales.v_rec, atom.gamma13)

    @property
    def tan2_theta(self) -> float:
        return self.state0.tan2_theta

    @property
    def xi(self) -> float:
        return self.state0.xi

    @property
    def eta(self) -> float:
        return self.scales.eta

    @property
    def loss_parameter(self) -> float:
        """a = gamma13 * L_M / v_rec."""
        return self.atom.gamma13 * self.geometry.medium_length / self.scales.v_rec

    def state(self, rabi_p: float) -> PolaritonState:
        return polariton_state(self.scales.g2rho, self.fields.rabi_c, rabi_p,
                               self.scales.eta, self.scales.v_rec,
                               self.atom.gamma13)

    @classmethod
    def from_dimensionless(cls, a: float, xi: float, s0: float,
                           rotation_rate: float = 0.0, radius: float = 1.5e-3,
                           medium_length: float | None = None,
                           rabi_c: float = 1.0e6,
                           atom: AtomSpecies = RB87,
                           cross_section: float = 1.0e-6) -> "RingMedium":
        """Medium realizing prescribed (a, xi, s0) on a physical backbone.

        Chooses the atomic density to hit xi and the ground-coherence
        dephasing to hit a, keeping every stored quantity SI.
        """
        if medium_length is None:
            medium_length = 2.0 * math.pi * radius
        lambda_p = {"rb87": 780.24e-9, "na23": 589.0e-9}.get(atom.name, 780.24e-9)
        probe = ProbeControlFields(lambda_p=lambda_p,
                                   rabi_p0=math.sqrt(s0) * rabi_c,
                                   rabi_c=rabi_c)
        v_rec = hbar * probe.k_p / atom.mass
        if xi <= 0 or math.isinf(xi):
            density = 0.0
        else:
            tan2 = c / (v_rec * xi)
            density = (tan2 * rabi_c**2 * 2.0 * hbar * epsilon_0
                       / (atom.dipole_p**2 * probe.omega_p))
        gamma13 = a * v_rec / medium_length
        atom_a = AtomSpecies(mass=atom.mass, dipole_p=atom.dipole_p,
                             gamma1=atom.gamma1, gamma3=atom.gamma3,
                             gamma13=gamma13, name=atom.name)
        geom = RingGeometry(radius=radius, medium_length=medium_length,
                            cross_section=cross_section, atom_density=density,
                            rotation_rate=rotation_rate)
        return cls(atom_a, probe, geom)


@dataclass
class PropagationResult:
    """Phases, transmission and operating-point profiles of one propagation.

    light_part and matter_part split the phase of the beam selected by the
    `direction` argument (see the module docstring); delta_phi_sig is the
    full counter-propagating differential phase.
    """

    phase_cw: float
    phase_ccw: float
    amplitude_ratio: float
    delta_phi_sig: float
    light_part: float
    matter_part: float
    s_profile: np.ndarray
    xi_profile: np.ndarray
    x: np.ndarray
    phase_profile: np.ndarray = field(default=None)
    amplitude_profile: np.ndarray = field(default=None)
    diagnostics: dict = field(default_factory=dict)


def bare_sagnac_phase(rotation_rate: float, radius: float, medium_length: float,
                      lambda_p: float) -> float:
    """Vacuum differential phase 4*pi*Omega*R*L_M/(lambda*c): the ring
    interferometer value with area convention A = R * L_M."""
    return 4.0 * math.pi * rotation_rate * radius * medium_length / (lambda_p * c)


def _phase_rates(medium: RingMedium, s, gate: float, rotation_rate: float):
    """Per-beam light and matter phase rates (rad/m) at saturation s.

    Written in terms of q = tan^2(theta) * v_rec / c = 1/xi so the vacuum
    limit (no medium) is regular.
    """
    pref = medium.fields.k_p * rotation_rate * medium.geometry.radius / c
    t2 = medium.tan2_theta
    q = t2 * medium.scales.v_rec / c
    denom = 1.0 + q / (1.0 + s) ** 3
    light = pref / denom
    matter = gate * pref * t2 / (1.0 + s) ** 2 / denom
    return light, matter


def _weak_rates(medium: RingMedium, gate: float, rotation_rate: float):
    """Weak-field per-beam rates for general momentum transfer eta."""
    pref = medium.fields.k_p * rotation_rate * medium.geometry.radius / c
    eta = medium.eta
    q = medium.tan2_theta * medium.scales.v_rec / c
    denom = 1.0 + eta * q
    light = pref / denom
    matter = gate * pref * eta * medium.tan2_theta / denom
    return light, matter


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
    s0 = medium.fields.saturation0
    if s0 > 0.01:
        warnings.warn(f"s(0) = {s0:.3g} > 0.01: outside the weak-field regime",
                      WeakFieldWarning, stacklevel=2)
    gate = matter_term_gate(prep)
    omega = medium.geometry.rotation_rate
    light_rate, matter_rate = _weak_rates(medium, gate, omega)
    length = medium.geometry.medium_length
    light = direction * light_rate * length
    matter = direction * matter_rate * length
    beam = light + matter
    phase_cw = beam if direction == 1 else -beam
    n = grid.n_points
    return PropagationResult(
        phase_cw=phase_cw, phase_ccw=-phase_cw,
        amplitude_ratio=1.0,
        delta_phi_sig=2.0 * phase_cw,
        light_part=light, matter_part=matter,
        s_profile=np.full(n, s0), xi_profile=np.full(n, medium.xi),
        x=grid.x.copy(),
        phase_profile=direction * (light_rate + matter_rate) * grid.x,
        amplitude_profile=np.ones(n),
        diagnostics={"mode": "weak", "gate": gate},
    )


def _require_full_transfer(medium: RingMedium, what: str):
    """The saturating susceptibility holds only for full momentum transfer
    (eta = 1); refuse other media rather than answer for a different model."""
    if abs(medium.eta - 1.0) > 1e-9:
        raise ParameterError(
            f"{what} requires eta = 1 (perpendicular control), got "
            f"eta = {medium.eta}")


def _rhs(y, loss, pref, tan2, rc2, vrec_c, gate):
    s = math.exp(2.0 * y.real) / rc2
    d1 = 1.0 + s
    sat2 = tan2 / (d1 * d1)
    sat3 = sat2 / d1
    return complex(-loss, pref * (1.0 + gate * sat2) / (1.0 + vrec_c * sat3))


def _rk4(y0, h, n_steps, loss, pref, tan2, rc2, vrec_c, gate):
    """Integrate d/dx ln(rabi_p) = -loss + i*k_p*chi'(s) over n_steps of
    size h with fixed-step fourth-order Runge-Kutta, re-evaluating the
    saturation s from the local amplitude.

    Returns (log-amplitude samples at the n_steps+1 grid points,
    largest per-step increment |h * dy/dx| seen).
    """
    out = np.empty(n_steps + 1, dtype=complex)
    y = complex(y0)
    out[0] = y
    max_step = 0.0
    for i in range(n_steps):
        k1 = _rhs(y, loss, pref, tan2, rc2, vrec_c, gate)
        k2 = _rhs(y + 0.5 * h * k1, loss, pref, tan2, rc2, vrec_c, gate)
        k3 = _rhs(y + 0.5 * h * k2, loss, pref, tan2, rc2, vrec_c, gate)
        k4 = _rhs(y + h * k3, loss, pref, tan2, rc2, vrec_c, gate)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = y
        step = abs(h * k1)
        if step > max_step:
            max_step = step
    return out, max_step


def _integrate_beam(medium: RingMedium, gate: float, rotation_rate: float,
                    rabi_p0: float, grid: PropagationGrid):
    """Run the kernel for one beam with automatic refinement and one
    extra halving for the convergence certificate.  Returns the samples on
    the grid points, the beam phase, its Richardson error estimate, the
    largest per-step change and the number of kernel steps per grid cell."""
    t2 = medium.tan2_theta
    loss = medium.atom.gamma13 * t2 / c
    pref = medium.fields.k_p * rotation_rate * medium.geometry.radius / c
    rc2 = medium.fields.rabi_c**2
    vrec_c = medium.scales.v_rec / c
    y0 = complex(math.log(rabi_p0), 0.0)
    n_cells = grid.n_points - 1

    refine = 1
    while True:
        h = grid.spacing / refine
        y, max_step = _rk4(y0, h, n_cells * refine, loss, pref,
                           t2, rc2, vrec_c, gate)
        if max_step <= MAX_STEP_CHANGE:
            break
        refine *= 2
        if refine > _MAX_REFINE:
            raise IntegrationError(
                f"per-step change {max_step:.3g} stays above "
                f"{MAX_STEP_CHANGE} after refinement to {refine // 2} "
                f"substeps per cell ({n_cells} cells)",
                max_step=max_step, n_points=grid.n_points)

    # one more halving for the Richardson comparison; keep the finer result
    h2 = grid.spacing / (2 * refine)
    y2, _ = _rk4(y0, h2, n_cells * 2 * refine, loss, pref,
                 t2, rc2, vrec_c, gate)
    coarse = float((y[-1] - y[0]).imag)
    fine = float((y2[-1] - y2[0]).imag)
    samples = y2[:: 2 * refine]
    richardson = abs(fine - coarse) / 15.0
    return samples, fine, richardson, max_step, 2 * refine


def propagate_allorder(medium: RingMedium, prep: MediumPreparation,
                       grid: PropagationGrid, direction: int = 1,
                       rabi_p0: float | None = None) -> PropagationResult:
    """Propagation with the saturating susceptibility re-evaluated at the
    local probe amplitude and the power-independent loss bound.

    Fixed-step fourth-order integration with automatic substep refinement;
    the per-step change must stay below 0.1 or an IntegrationError with
    diagnostics is raised.  The result carries a Richardson convergence
    estimate in diagnostics["richardson_phase"].  Requires full momentum
    transfer (eta = 1), as signal_phase does.
    """
    if direction not in (1, -1):
        raise ParameterError("direction must be +1 or -1")
    _require_full_transfer(medium, "all-order propagation")
    if rabi_p0 is None:
        rabi_p0 = medium.fields.rabi_p0
    if rabi_p0 <= 0:
        raise ParameterError("all-order propagation needs rabi_p0 > 0")
    gate = matter_term_gate(prep)
    omega = medium.geometry.rotation_rate

    y_cw, phase_cw, rich_cw, step_cw, substeps = _integrate_beam(
        medium, gate, omega, rabi_p0, grid)
    y_ccw, phase_ccw, rich_ccw, _, _ = _integrate_beam(
        medium, gate, -omega, rabi_p0, grid)

    y_sel = y_cw if direction == 1 else y_ccw
    amp = np.exp(y_sel.real - y_sel.real[0])
    s_profile = np.exp(2.0 * y_sel.real) / medium.fields.rabi_c**2
    light, matter = _split_phase(medium, gate, omega, s_profile, grid,
                                 direction, substeps)

    return PropagationResult(
        phase_cw=phase_cw, phase_ccw=phase_ccw,
        amplitude_ratio=float(amp[-1]),
        delta_phi_sig=phase_cw - phase_ccw,
        light_part=light, matter_part=matter,
        s_profile=s_profile, xi_profile=np.full(grid.n_points, medium.xi),
        x=grid.x.copy(),
        phase_profile=(y_sel.imag - y_sel.imag[0]),
        amplitude_profile=amp,
        diagnostics={"mode": "allorder", "gate": gate,
                     "richardson_phase": max(rich_cw, rich_ccw),
                     "max_step": step_cw},
    )


def _split_phase(medium, gate, rotation_rate, s_profile, grid, direction,
                 substeps=1):
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
    light_rate, matter_rate = _phase_rates(medium, s, gate, rotation_rate)
    return (scale * float(np.sum(light_rate @ weights)),
            scale * float(np.sum(matter_rate @ weights)))


def signal_phase(medium: RingMedium, prep: MediumPreparation,
                 grid: PropagationGrid, rabi_p0: float | None = None,
                 frozen_s: bool = False) -> PropagationResult:
    """Differential Sagnac signal with its light/matter split.

    Evaluates the two phase integrals on the grid over the saturation
    profile s(x).  By default s(x) is the self-consistent profile from the
    all-order propagation; frozen_s=True pins s(x) at its input value,
    which reproduces the uniform-medium analytic estimate used for the
    sensitivity optimization.  Requires full momentum transfer (eta = 1),
    the regime in which the saturating susceptibility holds.
    """
    _require_full_transfer(medium, "signal_phase")
    if rabi_p0 is None:
        rabi_p0 = medium.fields.rabi_p0
    gate = matter_term_gate(prep)
    omega = medium.geometry.rotation_rate
    s0 = (rabi_p0 / medium.fields.rabi_c) ** 2

    if frozen_s or rabi_p0 == 0.0:
        s_profile = np.full(grid.n_points, s0)
        kappa = medium.state(rabi_p0).kappa
        amp_ratio = math.exp(-kappa * medium.geometry.medium_length)
        amp_profile = np.exp(-kappa * grid.x)
        light, matter = _split_phase(medium, gate, omega, s_profile, grid, 1)
        diag = {"mode": "signal-frozen", "gate": gate}
    else:
        base = propagate_allorder(medium, prep, grid, direction=1,
                                  rabi_p0=rabi_p0)
        s_profile = base.s_profile
        amp_ratio = base.amplitude_ratio
        amp_profile = base.amplitude_profile
        light, matter = base.light_part, base.matter_part
        diag = dict(base.diagnostics, mode="signal")

    beam = light + matter
    light_rate, matter_rate = _phase_rates(medium, s_profile, gate, omega)
    return PropagationResult(
        phase_cw=beam, phase_ccw=-beam,
        amplitude_ratio=amp_ratio,
        delta_phi_sig=2.0 * beam,
        light_part=light, matter_part=matter,
        s_profile=s_profile, xi_profile=np.full(grid.n_points, medium.xi),
        x=grid.x.copy(),
        phase_profile=np.concatenate(
            ([0.0], np.cumsum(np.diff(grid.x) * 0.5
                              * ((light_rate + matter_rate)[1:]
                                 + (light_rate + matter_rate)[:-1])))),
        amplitude_profile=amp_profile,
        diagnostics=diag,
    )


def dispersion_regime_check(state: PolaritonState) -> str | None:
    """Warn when tan^2(theta) exceeds c/v_rec (theta beyond critical):
    there the neglected kinetic dispersion of the matter component becomes
    important and first-order propagation is unreliable.  Returns the
    warning text, or None when the operating point is safe."""
    if state.theta_crit_ratio > 1.0:
        msg = (f"tan^2(theta) = {state.theta_crit_ratio:.3g} * (c/v_rec) "
               "exceeds the critical mixing angle; neglected kinetic "
               "dispersion matters here (xi < 1)")
        warnings.warn(msg, UserWarning, stacklevel=2)
        return msg
    return None


def write_profile_csv(result: PropagationResult, path, rabi_p0: float = 1.0):
    """Per-sample profile (x, |rabi_p|, phase, s, xi) as CSV."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x_m", "abs_rabi_p_rad_s", "phase_rad",
                         "saturation", "xi"])
        amp = (result.amplitude_profile if result.amplitude_profile is not None
               else np.ones_like(result.x))
        phase = (result.phase_profile if result.phase_profile is not None
                 else np.zeros_like(result.x))
        for i in range(result.x.size):
            writer.writerow([repr(float(result.x[i])),
                             repr(float(rabi_p0 * amp[i])),
                             repr(float(phase[i])),
                             repr(float(result.s_profile[i])),
                             repr(float(result.xi_profile[i]))])
