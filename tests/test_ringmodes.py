import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import hbar, k as k_B

from slowgyro import ringmodes
from slowgyro.errors import ParameterError, ThermalRegimeWarning
from slowgyro.params import NA23, RB87
from slowgyro.ringmodes import (MediumPreparation, Preparation,
                                boltzmann_mean_winding, matter_term_gate,
                                thermal_phase)

MASS = RB87.mass
EARTH = 7.29e-5


def n_min(omega, radius):
    """Minimum of the mode-energy parabola, -m*Omega*R^2/hbar, read off the
    closed-form thermal phase -2*pi*n_min."""
    return -thermal_phase(omega, radius, MASS, 1e-6) / (2 * math.pi)


def ground_winding(omega, radius):
    """Mean winding number at 1% of the level spacing hbar^2/(2 m R^2),
    where the Boltzmann weight sits on the lowest mode."""
    spacing = hbar**2 / (2 * MASS * radius**2)
    return boltzmann_mean_winding(omega, radius, MASS, 1e-2 * spacing / k_B)


class TestModeEnergy:
    """The ladder eps_n = n*hbar*Omega + n^2 hbar^2/(2 m R^2) that
    boltzmann_mean_winding sums."""

    def test_zero_winding(self):
        # without rotation n = 0 is the lowest mode
        assert ground_winding(0.0, 1.5e-3) == pytest.approx(0.0, abs=1e-12)

    def test_pure_kinetic_term(self):
        # at hbar*Omega = hbar^2/(2 m R^2) the kinetic energy of n = -1
        # cancels its rotational term: modes 0 and -1 share the population
        radius = 1.5e-3
        omega = hbar / (2 * MASS * radius**2)
        assert ground_winding(omega, radius) == pytest.approx(-0.5, abs=1e-9)

    def test_both_terms_n_minus_one(self):
        # R = 1.5 mm, Omega = 1e-3: rotational term -1.0546e-37 J and
        # kinetic term +1.7124e-38 J at n = -1; a direct Boltzmann sum over
        # those literal energies at k_B T = one kinetic unit
        radius, omega = 1.5e-3, 1e-3
        n = np.arange(-40.0, 41.0)
        energy = n * 1.0545718e-37 + n**2 * 1.71244e-38
        w = np.exp(-(energy - energy.min()) / 1.71244e-38)
        oracle = float((n * w).sum() / w.sum())
        mean = boltzmann_mean_winding(omega, radius, MASS, 1.71244e-38 / k_B)
        assert mean == pytest.approx(oracle, rel=1e-4)

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            boltzmann_mean_winding(0.0, -1.0, MASS, 1e-6)
        with pytest.raises(ParameterError):
            boltzmann_mean_winding(0.0, 1.5e-3, -MASS, 1e-6)


class TestBoltzmannWindow:
    """The one window n_0 +- max(10, ceil(12 sigma)) that
    boltzmann_mean_winding sums, sigma = sqrt(k_B T m) R / hbar."""

    @settings(max_examples=300, deadline=None)
    @given(mass=st.sampled_from([RB87.mass, NA23.mass]),
           radius=st.floats(-4, -1), omega=st.floats(-7, -1),
           sign=st.sampled_from([-1.0, 1.0]),
           twelve_sigma=st.floats(-1, 5))
    def test_edge_weights_negligible(self, mass, radius, omega, sign,
                                     twelve_sigma):
        # the window's edge weights are below 1e-15 of its sum, so a wider
        # window would not change the mean; half-windows up to 1e5 drawn
        # as decimal exponents, the weights read off the one np.exp call
        radius, omega = 10.0**radius, sign * 10.0**omega
        sigma = 10.0**twelve_sigma / 12.0
        temp = (sigma * hbar / radius) ** 2 / mass / k_B
        seen, real_exp = [], np.exp

        def exp(x):
            seen.append(real_exp(x))
            return seen[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ringmodes.np, "exp", exp)
            boltzmann_mean_winding(omega, radius, mass, temp)
        [w] = seen
        assert w.size <= 2 * 10**5 + 1
        assert w[0] + w[-1] <= 1e-15 * w.sum()

    @pytest.mark.parametrize("temp", [1e-2, 1.0, math.inf])
    def test_wide_window_refused_before_any_array(self, monkeypatch, temp):
        # on a 1.5 mm ring 12 sigma is 7.6e6 winding numbers at 1 mK, so
        # 10 mK and up need a half-window over 1e7; no array may be built
        def arange(*args, **kwargs):
            raise AssertionError("array built")

        monkeypatch.setattr(ringmodes.np, "arange", arange)
        with pytest.raises(ParameterError, match="thermal_phase"):
            boltzmann_mean_winding(EARTH, 1.5e-3, MASS, temp)


class TestNMin:
    def test_zero_rotation(self):
        assert n_min(0.0, 48e-3) == 0.0

    def test_earth_rotation_48mm_ring(self):
        assert n_min(EARTH, 48e-3) == pytest.approx(-229.858, rel=1e-4)

    @pytest.mark.parametrize("omega", [1e-6, 3.7e-4, 1e-2])
    def test_odd_in_rotation(self, omega):
        assert n_min(-omega, 48e-3) == -n_min(omega, 48e-3)


class TestGroundMode:
    """Far below the level spacing the Boltzmann mean sits on the integer
    nearest n_min, the lowest point of the mode-energy ladder."""

    def test_zero_while_nmin_below_half(self):
        # pick Omega so |n_min| = 0.3
        radius = 48e-3
        omega = 0.3 * hbar / (MASS * radius**2)
        assert abs(n_min(omega, radius)) == pytest.approx(0.3, rel=1e-12)
        assert ground_winding(omega, radius) == pytest.approx(0.0, abs=1e-9)

    def test_rounds_to_nearest_integer(self):
        assert ground_winding(EARTH, 48e-3) == pytest.approx(-230, abs=1e-9)
        assert round(n_min(EARTH, 48e-3)) == -230

    def test_scan_confirms_minimum(self):
        # rates whose n_min stays at least 0.1 from a half-integer tie
        for omega in np.linspace(1e-5, 1e-3, 40):
            nm = n_min(omega, 48e-3)
            if abs(nm - math.floor(nm) - 0.5) < 0.1:
                continue
            assert ground_winding(omega, 48e-3) == \
                pytest.approx(round(nm), abs=1e-9)

    @pytest.mark.parametrize("omega", [1e-5, EARTH, 9e-4])
    def test_antisymmetric_away_from_ties(self, omega):
        assert ground_winding(-omega, 48e-3) == \
            pytest.approx(-ground_winding(omega, 48e-3), abs=1e-9)


class TestThermalPhase:
    def test_zero_rotation(self, recwarn):
        assert thermal_phase(0.0, 48e-3, MASS, 1e-6) == 0.0

    def test_earth_value(self):
        phase = thermal_phase(EARTH, 48e-3, MASS, 1e-6)
        assert phase == pytest.approx(1444.24, rel=1e-4)
        assert phase == pytest.approx(
            2 * math.pi * EARTH * (48e-3) ** 2 * MASS / hbar, rel=1e-12)

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
        target = n_min(EARTH, radius)
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
