"""Slow-light ring gyroscope simulator.

Computes the rotational (Sagnac) phase, EIT absorption, shot-noise-limited
signal-to-noise ratio and minimum detectable rotation rate of a hybrid
light/matter-wave gyroscope: a probe beam propagating through a ring-shaped
ultra-cold three-level gas under electromagnetically induced transparency.
"""

__version__ = "0.1.0"

from .bloch import (BlochGenerator, DensityMatrix, build_generator,
                    coherence_rho21, first_order_correction, steady_state)
from .params import (NA23, RB87, AtomSpecies, DerivedScales,
                     ProbeControlFields, RingGeometry, coupling_constant,
                     derive_recoil, dipole_from_gamma, gamma_from_dipole,
                     rest_energy_ratio)
from .polariton import (PolaritonState, Susceptibility, absorption_bound,
                        group_velocity, mixing_angle, polariton_state,
                        susceptibility, xi_approx, xi_exact)
from .propagation import (PropagationGrid, PropagationResult, RingMedium,
                          bare_sagnac_phase, propagate_allorder,
                          propagate_weak, signal_phase)
from .ringmodes import (MediumPreparation, Preparation, ground_mode,
                        matter_term_gate, mode_energy, n_min, thermal_phase)
from .sensitivity import (OptimumPoint, SensitivityReport, case_study,
                          detector_photons, omega_min, optimize_snr,
                          prefactor_f, shape_factor, snr)
