"""Dark-state polariton quantities of the dressed medium: the mixing angle,
xi and the loss kappa that RingMedium owns, and the group velocity and
rotational dispersion that its phase rates carry.

The polariton group velocity v_gr = c cos^2(theta) + eta v_rec sin^2(theta)
is written out here, independent of the program: the weak-field phase of
one beam is k_p Omega R L_M / v_gr at eta = 1, and its light part is
k_p Omega R L_M cos^2(theta) / v_gr at any eta.
"""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.constants import c, epsilon_0, hbar

from _oracles import absorption_exact
from slowgyro.errors import EITConditionWarning, ParameterError
from slowgyro.params import (RB87, AtomSpecies, ProbeControlFields,
                             RingGeometry, rest_energy_ratio)
from slowgyro.propagation import (PropagationGrid, RingMedium, check_validity,
                                  frozen_phases, propagate_weak, signal_phase)
from slowgyro.ringmodes import MediumPreparation, Preparation

LAMBDA = 780.24e-9
K_P = 2 * math.pi / LAMBDA
V_REC = hbar * K_P / RB87.mass
RADIUS = 1.5e-3
LENGTH = 2 * math.pi * RADIUS
SUPERFLUID = MediumPreparation(Preparation.SUPERFLUID_RING)
THERMAL = MediumPreparation(Preparation.THERMAL_RING, temperature=1e-6)


def medium_with(tan2, rabi_c=1e6, rabi_p0=0.0, gamma13=1e2, omega=1e-4,
                k_c_parallel=0.0):
    """Medium whose density makes tan^2(theta) = g2rho / rabi_c^2 = tan2,
    with g2rho = d^2 omega_p rho / (2 hbar eps0) written out here.  The
    default rabi_c^2 = 1e12 clears the EIT condition 100 gamma13 gamma1
    (3.8e11 at gamma13 = 100/s)."""
    fields = ProbeControlFields(lambda_p=LAMBDA, rabi_p0=rabi_p0,
                                rabi_c=rabi_c, k_c_parallel=k_c_parallel)
    atom = AtomSpecies(mass=RB87.mass, dipole_p=RB87.dipole_p,
                       gamma1=RB87.gamma1, gamma3=RB87.gamma3,
                       gamma13=gamma13)
    density = tan2 * rabi_c**2 * 2 * hbar * epsilon_0 / (
        RB87.dipole_p**2 * c * K_P)
    geometry = RingGeometry(radius=RADIUS, medium_length=LENGTH,
                            cross_section=1e-6, atom_density=density,
                            rotation_rate=omega)
    return RingMedium(atom, fields, geometry)


def medium_at_xi(xi, **kwargs):
    return medium_with(c / (V_REC * xi), **kwargs)


def v_gr(tan2, eta=1.0):
    theta = math.atan(math.sqrt(tan2))
    return c * math.cos(theta) ** 2 + eta * V_REC * math.sin(theta) ** 2


def weak_beam_phase(medium):
    grid = PropagationGrid.uniform(LENGTH, 64)
    res = propagate_weak(medium, SUPERFLUID, grid)
    return res.light_part + res.matter_part


def beyond_critical():
    """The gate's warning for a medium past the critical mixing angle."""
    return pytest.warns(UserWarning, match="xi < 1")


class TestMixingAngle:
    def test_no_medium(self):
        medium = medium_with(0.0)
        assert medium.tan2_theta == 0.0
        assert math.isinf(medium.xi)

    def test_equal_coupling(self):
        # g2rho = rabi_c^2 puts the mixing angle at pi/4
        medium = medium_with(1.0)
        assert medium.tan2_theta == pytest.approx(1.0, rel=1e-8)
        assert math.atan(math.sqrt(medium.tan2_theta)) == \
            pytest.approx(math.pi / 4, rel=1e-8)

    def test_critical_angle_ratio(self):
        medium = medium_with(c / V_REC)
        assert medium.tan2_theta * V_REC / c == pytest.approx(1.0, rel=1e-8)
        assert medium.xi == pytest.approx(1.0, rel=1e-8)

    def test_control_required(self):
        with pytest.raises(ParameterError):
            ProbeControlFields(lambda_p=LAMBDA, rabi_p0=0.0, rabi_c=0.0)


class TestGroupVelocity:
    def test_vacuum(self):
        # no medium: the probe is light at v_gr = c
        phase = weak_beam_phase(medium_with(0.0))
        assert phase == pytest.approx(K_P * 1e-4 * RADIUS * LENGTH / c,
                                      rel=1e-12)

    def test_pure_matter_wave(self):
        # theta -> pi/2: the polariton moves at the recoil velocity
        with beyond_critical():
            phase = weak_beam_phase(medium_at_xi(1e-9))
        assert phase == pytest.approx(K_P * 1e-4 * RADIUS * LENGTH / V_REC,
                                      rel=1e-6)

    def test_critical_angle_value(self):
        # cos^2(theta_crit) = v_rec/(c+v_rec): v_gr = 2 c v_rec/(c+v_rec)
        medium = medium_with(c / V_REC)
        with (beyond_critical() if medium.xi < 1.0
              else contextlib.nullcontext()):
            phase = weak_beam_phase(medium)
        expected_v = 2 * c * V_REC / (c + V_REC)
        assert phase == pytest.approx(K_P * 1e-4 * RADIUS * LENGTH
                                      / expected_v, rel=1e-8)

    def test_monotone_decreasing_in_theta(self):
        # denser medium, larger theta, slower polariton, larger phase,
        # on through the critical angle at tan^2(theta) = c/v_rec ~ 5e10
        with beyond_critical():
            phases = [weak_beam_phase(medium_with(t2))
                      for t2 in np.geomspace(1e-6, 1e16, 200)]
        assert all(b > a for a, b in zip(phases, phases[1:]))


class TestXi:
    def test_critical_angle_is_one(self):
        assert medium_with(c / V_REC).xi == pytest.approx(1.0, rel=1e-8)

    def test_approx_slow_light(self):
        # xi ~ v_gr / v_rec - eta for v_gr << c
        medium = medium_at_xi(2.0)
        assert medium.xi == pytest.approx(
            v_gr(medium.tan2_theta) / V_REC - 1.0, rel=1e-8)

    def test_reciprocal_scaling(self):
        assert medium_with(10.0 * c / V_REC).xi == \
            pytest.approx(0.1, rel=1e-8)

    def test_infinite_sentinel_at_zero_angle(self):
        medium = medium_with(0.0, gamma13=1e3)
        assert math.isinf(medium.xi)
        assert medium.kappa == 0.0

    @given(st.floats(min_value=1e-3, max_value=math.pi / 2 - 1e-3))
    def test_exact_approx_identity(self, theta):
        # (v_gr/v_rec - eta) / xi = 1 - v_gr/c holds exactly, so the
        # relative gap between the slow-light form and xi is v_gr/c
        medium = medium_with(math.tan(theta) ** 2)
        speed = v_gr(medium.tan2_theta)
        approx = speed / V_REC - 1.0
        assert approx / medium.xi == pytest.approx(1.0 - speed / c, rel=1e-6)


class TestSusceptibility:
    """The rotational dispersion chi' as the phase rates carry it, through
    frozen_phases (each phase is its rate times L_M)."""

    def test_no_rotation_no_dispersion(self):
        medium = medium_at_xi(2.0, rabi_p0=1e5, omega=0.0)
        assert frozen_phases(medium, SUPERFLUID, 0.01) == (0.0, 0.0)

    def test_perfect_eit_no_absorption(self):
        # no loss: the all-order s(x) stays at its input value, so the
        # self-consistent phases are the frozen-s closed form
        medium = medium_at_xi(2.0, rabi_p0=1e5, gamma13=0.0)
        assert medium.kappa == 0.0
        grid = PropagationGrid.uniform(LENGTH, 64)
        res = signal_phase(medium, SUPERFLUID, grid)
        assert res.amplitude_ratio == 1.0
        light, matter = frozen_phases(medium, SUPERFLUID,
                                      medium.fields.saturation0)
        assert res.light_part + res.matter_part == \
            pytest.approx(light + matter, rel=1e-12)

    def test_strong_probe_approaches_bare_light(self):
        medium = medium_at_xi(1e5)
        bare = K_P * 1e-4 * RADIUS * LENGTH / c
        deviations = []
        for s in (1e2, 1e4, 1e6):
            light, matter = frozen_phases(medium, SUPERFLUID, s)
            deviations.append(abs((light + matter) / bare - 1.0))
        assert all(b < a for a, b in zip(deviations, deviations[1:]))
        assert deviations[-1] < 1e-3

    def test_chi_prime_odd_in_rotation(self):
        plus = frozen_phases(medium_at_xi(2.0, omega=3e-4), SUPERFLUID, 0.04)
        minus = frozen_phases(medium_at_xi(2.0, omega=-3e-4), SUPERFLUID,
                              0.04)
        assert plus == (-minus[0], -minus[1])

    def test_chi_double_prime_even_in_rotation(self):
        plus = medium_at_xi(2.0, omega=3e-4).kappa
        minus = medium_at_xi(2.0, omega=-3e-4).kappa
        assert plus == minus
        assert plus > 0.0

    def test_weak_field_limit_reproduces_two_term_phase_rate(self):
        # the s = 0 phase must equal (2 pi Omega R L_M / lambda c) *
        # [xi/(xi+1) + (m c^2 / hbar omega_p) / (xi+1)] over a wide xi range
        fields = ProbeControlFields(lambda_p=LAMBDA, rabi_p0=0.0, rabi_c=1e6)
        ratio = rest_energy_ratio(RB87, fields)
        omega = 7.29e-5
        with beyond_critical():  # the range runs down to xi = 1e-3
            for xi in np.geomspace(1e-3, 1e3, 31):
                medium = medium_at_xi(float(xi), omega=omega)
                light, matter = frozen_phases(medium, SUPERFLUID, 0.0)
                expected = (2 * math.pi * omega * RADIUS * LENGTH
                            / (LAMBDA * c)) \
                    * (xi / (xi + 1.0) + ratio / (xi + 1.0))
                assert light + matter == pytest.approx(expected, rel=1e-6)

    def test_thermal_gate_leaves_light_dispersion(self):
        medium = medium_at_xi(2.0)
        light, matter = frozen_phases(medium, THERMAL, 0.0)
        # matter term removed, polariton drag 1 + 1/xi kept
        assert matter == 0.0
        assert light == pytest.approx(K_P * 1e-4 * RADIUS * LENGTH / c
                                      / (1.0 + 1.0 / 2.0), rel=1e-8)

    def test_eit_condition_warning_attached(self):
        # a control field with rabi_c^2 < 100 gamma13 gamma1 leaves EIT
        medium = medium_at_xi(2.0, rabi_c=1e3, rabi_p0=1e2)
        with pytest.warns(EITConditionWarning):
            check_validity(medium, SUPERFLUID, "saturating")


class TestAbsorption:
    def test_perfect_coherence_no_loss(self):
        assert medium_at_xi(2.0, gamma13=0.0).kappa == 0.0

    def test_bound_value(self):
        # gamma13 / (v_rec xi) with v_rec = 5.885e-3 m/s
        assert medium_at_xi(2.0, gamma13=1e3).kappa == \
            pytest.approx(8.496e4, rel=1e-3)

    def test_exact_below_bound_random_sweep(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            xi = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e4))))
            s = float(np.exp(rng.uniform(np.log(1e-6), np.log(1e3))))
            gamma13 = float(np.exp(rng.uniform(np.log(1.0), np.log(1e5))))
            medium = medium_at_xi(xi, gamma13=gamma13)
            exact = absorption_exact(medium.tan2_theta, s, gamma13, V_REC)
            assert exact <= medium.kappa * (1 + 1e-12)

    def test_exact_tends_to_bound_at_zero_saturation(self):
        # beta -> 1 for xi >> 1, where the s = 0 absorption meets the bound
        for xi, tol in ((1e3, 2e-3), (1e6, 2e-6)):
            medium = medium_at_xi(xi, gamma13=1e3)
            exact = absorption_exact(medium.tan2_theta, 0.0, 1e3, V_REC)
            assert exact == pytest.approx(medium.kappa, rel=tol)
            assert exact <= medium.kappa


class TestPolaritonState:
    def test_group_velocity_identity(self):
        # eta = 0.7: the light part is the photonic fraction cos^2(theta)
        # of a wave moving at v_gr
        medium = medium_with(50.0, k_c_parallel=0.3 * K_P)
        grid = PropagationGrid.uniform(LENGTH, 64)
        light = propagate_weak(medium, SUPERFLUID, grid).light_part
        cos2 = 1.0 / (1.0 + medium.tan2_theta)
        assert light == pytest.approx(
            K_P * 1e-4 * RADIUS * LENGTH * cos2
            / v_gr(medium.tan2_theta, medium.scales.eta), rel=1e-12)

    def test_kappa_is_bound(self):
        medium = medium_with(5e7, gamma13=1e3)
        assert medium.kappa == pytest.approx(
            1e3 / (medium.scales.v_rec * medium.xi), rel=1e-15)

    def test_saturation(self):
        medium = medium_with(5e7, rabi_p0=5e5)
        assert medium.fields.saturation0 == pytest.approx(0.25, rel=1e-12)
