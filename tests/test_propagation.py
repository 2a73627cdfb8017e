import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import c, hbar

from slowgyro.errors import IntegrationError, ParameterError, WeakFieldWarning
from slowgyro.params import RB87, ProbeControlFields, rest_energy_ratio
from slowgyro.propagation import (PropagationGrid, RingMedium,
                                  bare_sagnac_phase, dispersion_regime_check,
                                  propagate_allorder, propagate_weak,
                                  signal_phase, write_profile_csv)
from slowgyro.ringmodes import MediumPreparation, Preparation

SUPERFLUID = MediumPreparation(Preparation.SUPERFLUID_RING)
THERMAL = MediumPreparation(Preparation.THERMAL_RING, temperature=1e-6)
TRAPPED = MediumPreparation(Preparation.LONGITUDINAL_TRAP)
EARTH = 7.29e-5


def medium_for(a=1.0, xi=2.0, s0=1e-6, omega=EARTH, radius=1.5e-3):
    return RingMedium.from_dimensionless(a=a, xi=xi, s0=s0,
                                         rotation_rate=omega, radius=radius)


def grid_for(medium, n=128):
    return PropagationGrid.uniform(medium.geometry.medium_length, n)


class TestGrid:
    def test_minimum_size_enforced(self):
        with pytest.raises(ParameterError):
            PropagationGrid.uniform(1.0, 32)

    def test_nonuniform_rejected(self):
        x = np.concatenate([np.linspace(0, 0.5, 40), np.linspace(0.51, 1.0, 40)])
        with pytest.raises(ParameterError):
            PropagationGrid(n_points=80, x=x)

    def test_spacing(self):
        grid = PropagationGrid.uniform(1.0, 101)
        assert grid.spacing == pytest.approx(0.01, rel=1e-12)


class TestVacuumLimit:
    def test_weak_reproduces_ring_interferometer_phase(self):
        medium = medium_for(a=0.0, xi=math.inf)
        grid = grid_for(medium)
        res = propagate_weak(medium, SUPERFLUID, grid)
        bare = bare_sagnac_phase(EARTH, 1.5e-3,
                                 medium.geometry.medium_length, 780.24e-9)
        assert res.delta_phi_sig == pytest.approx(bare, rel=1e-12)
        assert res.matter_part == 0.0
        assert res.amplitude_ratio == 1.0

    def test_allorder_matches_vacuum(self):
        medium = medium_for(a=0.0, xi=math.inf)
        grid = grid_for(medium)
        res = propagate_allorder(medium, SUPERFLUID, grid)
        bare = bare_sagnac_phase(EARTH, 1.5e-3,
                                 medium.geometry.medium_length, 780.24e-9)
        assert res.delta_phi_sig == pytest.approx(bare, rel=1e-9)

    def test_no_rotation_no_phase(self):
        medium = medium_for(a=1.0, xi=2.0, omega=0.0)
        grid = grid_for(medium)
        for res in (propagate_weak(medium, SUPERFLUID, grid),
                    propagate_allorder(medium, SUPERFLUID, grid),
                    signal_phase(medium, SUPERFLUID, grid)):
            assert res.phase_cw == 0.0
            assert res.phase_ccw == 0.0
            assert res.delta_phi_sig == 0.0


class TestWeakField:
    def test_constant_xi_matter_part_closed_form(self):
        medium = medium_for(a=0.0, xi=3.0)
        grid = grid_for(medium)
        res = propagate_weak(medium, SUPERFLUID, grid)
        length = medium.geometry.medium_length
        expected = (EARTH * 1.5e-3 * length * RB87.mass / hbar) / (3.0 + 1.0)
        assert res.matter_part == pytest.approx(expected, rel=1e-9)

    def test_slow_polariton_recovers_full_matter_phase(self):
        medium = medium_for(a=0.0, xi=1e-9)
        grid = grid_for(medium)
        res = propagate_weak(medium, SUPERFLUID, grid)
        length = medium.geometry.medium_length
        full_matter = EARTH * 1.5e-3 * length * RB87.mass / hbar
        assert res.matter_part == pytest.approx(full_matter, rel=1e-6)

    def test_matter_to_light_enhancement_is_rest_energy_ratio(self):
        slow = medium_for(a=0.0, xi=1e-12, s0=1e-12)
        vacuum = medium_for(a=0.0, xi=math.inf, s0=1e-12)
        grid = grid_for(slow)
        matter = propagate_weak(slow, SUPERFLUID, grid).matter_part
        light = propagate_weak(vacuum, SUPERFLUID, grid).light_part
        expected = rest_energy_ratio(slow.atom, slow.fields)
        assert matter / light == pytest.approx(expected, rel=1e-9)

    def test_warns_outside_weak_regime(self):
        medium = medium_for(a=0.0, xi=2.0, s0=0.5)
        with pytest.warns(WeakFieldWarning):
            propagate_weak(medium, SUPERFLUID, grid_for(medium))

    def test_general_momentum_transfer(self):
        # eta = 0.5: matter term scales as eta/(xi+eta)
        base = medium_for(a=0.0, xi=2.0)
        fields = ProbeControlFields(lambda_p=780.24e-9,
                                    rabi_p0=base.fields.rabi_p0,
                                    rabi_c=base.fields.rabi_c,
                                    k_c_parallel=0.5 * base.fields.k_p)
        medium = RingMedium(base.atom, fields, base.geometry)
        assert medium.eta == pytest.approx(0.5, rel=1e-12)
        res = propagate_weak(medium, SUPERFLUID, grid_for(medium))
        length = medium.geometry.medium_length
        expected = (EARTH * 1.5e-3 * length * RB87.mass / hbar) \
            * 0.5 / (2.0 + 0.5)
        assert res.matter_part == pytest.approx(expected, rel=1e-9)


class TestAllOrder:
    @pytest.mark.parametrize("a,xi", [(1.0, 2.0), (5.0, 10.0), (50.0, 100.0)])
    def test_loss_law(self, a, xi):
        medium = medium_for(a=a, xi=xi, s0=1e-4, omega=0.0)
        res = propagate_allorder(medium, SUPERFLUID, grid_for(medium))
        assert res.amplitude_ratio == pytest.approx(math.exp(-a / xi), rel=1e-6)

    def test_optimum_transmission_is_inverse_sqrt_e(self):
        medium = medium_for(a=1.0, xi=2.0, s0=1e-4, omega=0.0)
        res = propagate_allorder(medium, SUPERFLUID, grid_for(medium))
        assert res.amplitude_ratio == pytest.approx(1.0 / math.sqrt(math.e),
                                                    rel=1e-9)

    @pytest.mark.parametrize("xi", [0.1, 1.0, 10.0, 100.0])
    def test_weak_regime_overlap(self, xi):
        medium = medium_for(a=0.0, xi=xi, s0=1e-5)
        grid = grid_for(medium)
        weak = propagate_weak(medium, SUPERFLUID, grid)
        full = propagate_allorder(medium, SUPERFLUID, grid)
        assert full.delta_phi_sig == pytest.approx(weak.delta_phi_sig, rel=1e-4)

    def test_deviation_scales_with_saturation(self):
        medium_lo = medium_for(a=0.0, xi=2.0, s0=1e-6)
        medium_hi = medium_for(a=0.0, xi=2.0, s0=1e-5)
        grid = grid_for(medium_lo)
        def deviation(medium):
            weak = propagate_weak(medium, SUPERFLUID, grid)
            full = propagate_allorder(medium, SUPERFLUID, grid)
            return abs(full.delta_phi_sig / weak.delta_phi_sig - 1.0)
        d_lo, d_hi = deviation(medium_lo), deviation(medium_hi)
        assert d_hi / d_lo == pytest.approx(10.0, rel=0.05)

    def test_saturation_suppresses_matter_term(self):
        # lossless medium keeps s(x) uniform, so the closed-form suppression
        # (1+s)^-2 * (xi+1) / (xi + (1+s)^-3) is exact
        xi, s = 2.0, 10.0
        weak_m = propagate_allorder(medium_for(a=0.0, xi=xi, s0=1e-8),
                                    SUPERFLUID,
                                    grid_for(medium_for(a=0.0, xi=xi))).matter_part
        strong = propagate_allorder(medium_for(a=0.0, xi=xi, s0=s),
                                    SUPERFLUID,
                                    grid_for(medium_for(a=0.0, xi=xi))).matter_part
        expected = (1 + s) ** -2 * (xi + 1.0) / (xi + (1 + s) ** -3)
        assert strong / weak_m == pytest.approx(expected, rel=1e-6)

    def test_antisymmetry_in_rotation(self):
        plus = medium_for(a=1.0, xi=2.0, s0=0.3, omega=EARTH)
        minus = medium_for(a=1.0, xi=2.0, s0=0.3, omega=-EARTH)
        grid = grid_for(plus)
        res_p = propagate_allorder(plus, SUPERFLUID, grid)
        res_m = propagate_allorder(minus, SUPERFLUID, grid)
        assert res_m.delta_phi_sig == pytest.approx(-res_p.delta_phi_sig,
                                                    rel=1e-9)

    def test_grid_convergence(self):
        medium = medium_for(a=2.0, xi=4.0, s0=0.3)
        coarse = propagate_allorder(medium, SUPERFLUID, grid_for(medium, 256))
        fine = propagate_allorder(medium, SUPERFLUID, grid_for(medium, 512))
        assert fine.delta_phi_sig == pytest.approx(coarse.delta_phi_sig,
                                                   rel=1e-6)

    def test_split_sums_to_beam_phase(self):
        medium = medium_for(a=1.0, xi=2.0, s0=0.3)
        res = propagate_allorder(medium, SUPERFLUID, grid_for(medium))
        assert res.light_part + res.matter_part == \
            pytest.approx(res.phase_cw, rel=1e-8)
        assert res.delta_phi_sig == res.phase_cw - res.phase_ccw

    def test_counterpropagating_beam_profile(self):
        medium = medium_for(a=1.0, xi=2.0, s0=0.3)
        res = propagate_allorder(medium, SUPERFLUID, grid_for(medium),
                                 direction=-1)
        assert res.light_part + res.matter_part == \
            pytest.approx(res.phase_ccw, rel=1e-8)

    def test_zero_probe_rejected(self):
        medium = medium_for(a=1.0, xi=2.0, s0=0.0)
        with pytest.raises(ParameterError):
            propagate_allorder(medium, SUPERFLUID, grid_for(medium))

    def test_step_failure_raises_with_diagnostics(self):
        medium = medium_for(a=1e6, xi=0.5, s0=1e-4, omega=0.0)
        with pytest.raises(IntegrationError) as err:
            propagate_allorder(medium, SUPERFLUID, grid_for(medium, 64))
        assert err.value.max_step > 0.1
        assert err.value.n_points == 64


class TestSignalPhase:
    def test_zero_saturation_reduces_to_weak_split(self):
        medium = medium_for(a=0.0, xi=2.0, s0=0.0)
        grid = grid_for(medium)
        weak = propagate_weak(medium, SUPERFLUID, grid)
        sig = signal_phase(medium, SUPERFLUID, grid)
        assert sig.light_part == pytest.approx(weak.light_part, rel=1e-9)
        assert sig.matter_part == pytest.approx(weak.matter_part, rel=1e-9)

    def test_uniform_saturation_closed_form(self):
        # frozen s = 1/3 and xi = 2: per-beam matter part equals
        # (Omega R L m / hbar) * (9/16) / (2 + 27/64)
        medium = medium_for(a=0.5, xi=2.0, s0=1.0 / 3.0)
        grid = grid_for(medium)
        res = signal_phase(medium, SUPERFLUID, grid, frozen_s=True)
        length = medium.geometry.medium_length
        base = EARTH * 1.5e-3 * length * RB87.mass / hbar
        expected = base * (9.0 / 16.0) / (2.0 + 27.0 / 64.0)
        assert res.matter_part == pytest.approx(expected, rel=1e-9)

    def test_strong_field_limits(self):
        medium_weak = medium_for(a=0.0, xi=2.0, s0=1e-8)
        grid = grid_for(medium_weak)
        light_scale = (2 * math.pi * EARTH * 1.5e-3
                       / (780.24e-9 * c)) * medium_weak.geometry.medium_length
        matter_ref = signal_phase(medium_weak, SUPERFLUID, grid).matter_part
        ratios = []
        for s0 in (1e2, 1e4):
            medium = medium_for(a=0.0, xi=2.0, s0=s0)
            res = signal_phase(medium, SUPERFLUID, grid)
            ratios.append((res.light_part / light_scale,
                           res.matter_part / matter_ref))
        assert abs(ratios[-1][0] - 1.0) < 1e-3   # light term -> bare value
        assert ratios[0][1] > ratios[1][1]       # matter term -> 0
        assert ratios[1][1] < 1e-7

    def test_self_consistent_vs_frozen_saturation(self):
        # with loss the local s(x) decays, so the self-consistent matter
        # term is larger than the frozen-s estimate
        medium = medium_for(a=2.0, xi=4.0, s0=1.0)
        grid = grid_for(medium)
        self_consistent = signal_phase(medium, SUPERFLUID, grid)
        frozen = signal_phase(medium, SUPERFLUID, grid, frozen_s=True)
        assert self_consistent.matter_part > frozen.matter_part

    @pytest.mark.filterwarnings("ignore::slowgyro.errors.WeakFieldWarning")
    def test_thermal_and_trapped_media_lose_matter_term(self):
        medium = medium_for(a=1.0, xi=2.0, s0=0.2)
        grid = grid_for(medium)
        for prep in (THERMAL, TRAPPED):
            for res in (signal_phase(medium, prep, grid),
                        propagate_weak(medium, prep, grid),
                        propagate_allorder(medium, prep, grid)):
                assert res.matter_part == 0.0
                assert res.light_part != 0.0

    def test_trapped_medium_keeps_light_dispersion_structure(self):
        # light-only phase: (2 pi Omega R/lambda c) * L * xi/(xi+1) at s=0
        medium = medium_for(a=0.0, xi=2.0, s0=0.0)
        grid = grid_for(medium)
        res = signal_phase(medium, TRAPPED, grid)
        length = medium.geometry.medium_length
        expected = (2 * math.pi * EARTH * 1.5e-3 / (780.24e-9 * c)) \
            * length * 2.0 / 3.0
        assert res.light_part == pytest.approx(expected, rel=1e-9)

    def test_requires_full_momentum_transfer(self):
        base = medium_for(a=0.0, xi=2.0)
        fields = ProbeControlFields(lambda_p=780.24e-9,
                                    rabi_p0=base.fields.rabi_p0,
                                    rabi_c=base.fields.rabi_c,
                                    k_c_parallel=0.3 * base.fields.k_p)
        medium = RingMedium(base.atom, fields, base.geometry)
        with pytest.raises(ParameterError):
            signal_phase(medium, SUPERFLUID, grid_for(medium))


class TestDispersionRegimeCheck:
    def test_silent_below_critical(self):
        medium = medium_for(a=0.0, xi=2.0)
        assert dispersion_regime_check(medium.state0) is None

    def test_warns_above_critical(self):
        medium = medium_for(a=0.0, xi=0.5)
        with pytest.warns(UserWarning):
            msg = dispersion_regime_check(medium.state0)
        assert msg is not None

    def test_boundary_at_xi_one(self):
        just_below = medium_for(a=0.0, xi=1.0000001)
        assert dispersion_regime_check(just_below.state0) is None
        just_above = medium_for(a=0.0, xi=0.9999999)
        with pytest.warns(UserWarning):
            assert dispersion_regime_check(just_above.state0) is not None


class TestKernelProperties:
    """Over the operating ranges of a ring scan: the counter-propagating
    beam is the exact mirror of the co-propagating one, and the light/matter
    split integrates the same phase as the kernel."""

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(min_value=0.1, max_value=1e3),
           xi_over_a=st.floats(min_value=0.5, max_value=20.0),
           s0=st.floats(min_value=1e-3, max_value=10.0),
           n=st.sampled_from([256, 1024, 4096]),
           direction=st.sampled_from([1, -1]))
    def test_mirror_and_split(self, a, xi_over_a, s0, n, direction):
        medium = medium_for(a=a, xi=a * xi_over_a, s0=s0)
        res = propagate_allorder(medium, SUPERFLUID, grid_for(medium, n),
                                 direction=direction)
        assert res.phase_ccw == -res.phase_cw
        beam = res.phase_cw if direction == 1 else res.phase_ccw
        assert res.light_part + res.matter_part == \
            pytest.approx(beam, rel=1e-12, abs=0.0)


class TestProfiles:
    def test_profile_csv(self, tmp_path):
        medium = medium_for(a=1.0, xi=2.0, s0=0.3)
        res = propagate_allorder(medium, SUPERFLUID, grid_for(medium))
        path = tmp_path / "profile.csv"
        write_profile_csv(res, path, medium.fields.rabi_p0)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x_m", "abs_rabi_p_rad_s", "phase_rad",
                           "saturation", "xi"]
        assert len(rows) == 1 + res.x.size
        assert float(rows[1][1]) == pytest.approx(medium.fields.rabi_p0)
        assert float(rows[-1][3]) == pytest.approx(res.s_profile[-1])

    def test_saturation_profile_decays_with_loss(self):
        medium = medium_for(a=2.0, xi=2.0, s0=0.5, omega=0.0)
        res = propagate_allorder(medium, SUPERFLUID, grid_for(medium))
        assert res.s_profile[0] == pytest.approx(0.5, rel=1e-9)
        assert res.s_profile[-1] == pytest.approx(0.5 * math.exp(-2.0), rel=1e-6)
