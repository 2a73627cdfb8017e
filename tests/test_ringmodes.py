import math

import numpy as np
import pytest
from scipy.constants import hbar, k as k_B

from slowgyro.errors import ParameterError, ThermalRegimeWarning
from slowgyro.params import RB87
from slowgyro.ringmodes import (MediumPreparation, Preparation,
                                boltzmann_mean_winding, matter_term_gate,
                                mode_energy, n_min, thermal_phase)

MASS = RB87.mass
EARTH = 7.29e-5


class TestModeEnergy:
    def test_zero_winding(self):
        assert mode_energy(0, 1e-3, 1.5e-3, MASS) == 0.0

    def test_pure_kinetic_term(self):
        radius = 1.5e-3
        assert mode_energy(1, 0.0, radius, MASS) == \
            pytest.approx(hbar**2 / (2 * MASS * radius**2), rel=1e-12)

    def test_both_terms_n_minus_one(self):
        # n = -1, R = 1.5 mm, Omega = 1e-3: rotational term -1.0546e-37 J,
        # kinetic term +1.7124e-38 J
        radius, omega = 1.5e-3, 1e-3
        value = mode_energy(-1, omega, radius, MASS)
        assert value == pytest.approx(-1.0545718e-37 + 1.71244e-38, rel=1e-4)

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            mode_energy(1, 0.0, -1.0, MASS)

    def test_ring_mode_carries_its_energy(self):
        # an array of winding numbers gets each mode's own energy, bit for
        # bit (the Boltzmann ladder evaluates it that way)
        modes = np.arange(-240.0, -219.0)
        energies = mode_energy(modes, EARTH, 48e-3, MASS)
        assert energies.tolist() == [mode_energy(n, EARTH, 48e-3, MASS)
                                     for n in modes.tolist()]


class TestNMin:
    def test_zero_rotation(self):
        assert n_min(0.0, 48e-3, MASS) == 0.0

    def test_earth_rotation_48mm_ring(self):
        assert n_min(EARTH, 48e-3, MASS) == pytest.approx(-229.858, rel=1e-4)

    @pytest.mark.parametrize("omega", [1e-6, 3.7e-4, 1e-2])
    def test_odd_in_rotation(self, omega):
        assert n_min(-omega, 48e-3, MASS) == -n_min(omega, 48e-3, MASS)


def ground_winding(omega, radius):
    """Integer winding number of lowest mode energy, found by a scan of
    mode_energy around n_min."""
    nm = n_min(omega, radius, MASS)
    candidates = range(math.floor(nm) - 3, math.ceil(nm) + 4)
    return min(candidates, key=lambda n: mode_energy(n, omega, radius, MASS))


class TestGroundMode:
    """The mode-energy parabola has its integer minimum at the integer
    nearest n_min."""

    def test_zero_while_nmin_below_half(self):
        # pick Omega so |n_min| = 0.3
        radius = 48e-3
        omega = 0.3 * hbar / (MASS * radius**2)
        assert abs(n_min(omega, radius, MASS)) == pytest.approx(0.3, rel=1e-12)
        assert ground_winding(omega, radius) == 0

    def test_rounds_to_nearest_integer(self):
        assert ground_winding(EARTH, 48e-3) == -230
        assert round(n_min(EARTH, 48e-3, MASS)) == -230

    def test_scan_confirms_minimum(self):
        radius = 48e-3
        nm = n_min(EARTH, radius, MASS)
        e_best = mode_energy(round(nm), EARTH, radius, MASS)
        for n in range(math.floor(nm) - 3, math.ceil(nm) + 4):
            assert e_best <= mode_energy(n, EARTH, radius, MASS) + 1e-60

    @pytest.mark.parametrize("omega", [1e-5, EARTH, 9e-4])
    def test_antisymmetric_away_from_ties(self, omega):
        assert ground_winding(-omega, 48e-3) == -ground_winding(omega, 48e-3)


class TestThermalPhase:
    def test_zero_rotation(self, recwarn):
        assert thermal_phase(0.0, 48e-3, MASS, 1e-6) == 0.0

    def test_earth_value(self):
        phase = thermal_phase(EARTH, 48e-3, MASS, 1e-6)
        assert phase == pytest.approx(1444.24, rel=1e-4)
        assert phase == pytest.approx(-2 * math.pi * n_min(EARTH, 48e-3, MASS),
                                      rel=1e-12)

    def test_warns_when_too_cold(self):
        radius = 48e-3
        spacing = hbar**2 / (2 * MASS * radius**2)
        cold = 10 * spacing / k_B
        with pytest.warns(ThermalRegimeWarning):
            thermal_phase(EARTH, radius, MASS, cold)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ParameterError):
            thermal_phase(EARTH, 48e-3, MASS, 0.0)
        with pytest.raises(ParameterError):
            boltzmann_mean_winding(EARTH, 48e-3, MASS, -1.0)

    def test_matches_brute_force_boltzmann_sum(self):
        # independent oracle: direct sum over n in [-1e5, 1e5] at
        # k_B T = 1e4 level spacings
        radius = 48e-3
        spacing = hbar**2 / (2 * MASS * radius**2)
        temp = 1e4 * spacing / k_B
        n = np.arange(-10**5, 10**5 + 1, dtype=float)
        energy = n * hbar * EARTH + n**2 * spacing
        energy -= energy.min()
        w = np.exp(-energy / (k_B * temp))
        mean_oracle = float((n * w).sum() / w.sum())

        closed = thermal_phase(EARTH, radius, MASS, temp)
        assert -2 * math.pi * mean_oracle == pytest.approx(closed, rel=0.01)

        mean_module = boltzmann_mean_winding(EARTH, radius, MASS, temp)
        assert mean_module == pytest.approx(mean_oracle, rel=1e-9)

    def test_boltzmann_mean_converges_monotonically(self):
        radius = 48e-3
        spacing = hbar**2 / (2 * MASS * radius**2)
        target = n_min(EARTH, radius, MASS)
        errors = []
        for factor in (1.0, 10.0, 100.0, 1e4):
            mean = boltzmann_mean_winding(EARTH, radius, MASS,
                                          factor * spacing / k_B)
            errors.append(abs(mean - target))
        for a, b in zip(errors, errors[1:]):
            assert b <= a + 1e-9


class TestPreparationGate:
    def test_superfluid_keeps_matter_term(self):
        assert matter_term_gate(MediumPreparation(Preparation.SUPERFLUID_RING)) == 1.0

    def test_thermal_cancels_matter_term(self):
        prep = MediumPreparation(Preparation.THERMAL_RING, temperature=1e-6)
        assert matter_term_gate(prep) == 0.0

    def test_trap_cancels_matter_term(self):
        assert matter_term_gate(MediumPreparation(Preparation.LONGITUDINAL_TRAP)) == 0.0

    def test_thermal_needs_temperature(self):
        with pytest.raises(ParameterError):
            MediumPreparation(Preparation.THERMAL_RING)
