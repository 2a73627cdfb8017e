import contextlib
import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.constants import c, hbar

from slowgyro import cli, propagation
from slowgyro.errors import (EITConditionWarning, IntegrationError,
                             ParameterError, WeakFieldWarning)
from slowgyro.params import RB87, ProbeControlFields, rest_energy_ratio
from slowgyro.propagation import (PropagationGrid, RingMedium,
                                  bare_sagnac_phase, check_validity,
                                  frozen_phases, propagate_allorder,
                                  propagate_weak, signal_phase)
from slowgyro.ringmodes import MediumPreparation, Preparation

SUPERFLUID = MediumPreparation(Preparation.SUPERFLUID_RING)
THERMAL = MediumPreparation(Preparation.THERMAL_RING, temperature=1e-6)
TRAPPED = MediumPreparation(Preparation.LONGITUDINAL_TRAP)
EARTH = 7.29e-5


def medium_for(a=1.0, xi=2.0, s0=1e-6, omega=EARTH):
    return RingMedium.from_dimensionless(a=a, xi=xi, s0=s0,
                                         rotation_rate=omega)


def grid_for(medium, n=128):
    return PropagationGrid.uniform(medium.geometry.medium_length, n)


def beyond_critical():
    """The gate's warning for a medium past the critical mixing angle."""
    return pytest.warns(UserWarning, match="xi < 1")


class TestGrid:
    def test_minimum_size_enforced(self):
        with pytest.raises(ParameterError):
            PropagationGrid.uniform(1.0, 32)

    def test_spacing(self):
        grid = PropagationGrid.uniform(1.0, 101)
        assert grid.spacing == pytest.approx(0.01, rel=1e-12)


@pytest.mark.parametrize("a,xi,s0", [
    (math.nan, 2.0, 0.1), (math.inf, 2.0, 0.1), (1.0, math.nan, 0.1),
    (1.0, 0.0, 0.1), (1.0, -1.0, 0.1), (1.0, 2.0, math.nan), (1.0, 2.0, -0.1)])
def test_from_dimensionless_refuses_out_of_range(a, xi, s0):
    # a = 0 and xi = inf (no loss, no medium) stay valid
    with pytest.raises(ParameterError):
        RingMedium.from_dimensionless(a=a, xi=xi, s0=s0)


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
        with beyond_critical():
            res = propagate_weak(medium, SUPERFLUID, grid)
        length = medium.geometry.medium_length
        full_matter = EARTH * 1.5e-3 * length * RB87.mass / hbar
        assert res.matter_part == pytest.approx(full_matter, rel=1e-6)

    def test_matter_to_light_enhancement_is_rest_energy_ratio(self):
        slow = medium_for(a=0.0, xi=1e-12, s0=1e-12)
        vacuum = medium_for(a=0.0, xi=math.inf, s0=1e-12)
        grid = grid_for(slow)
        with beyond_critical():
            matter = propagate_weak(slow, SUPERFLUID, grid).matter_part
        light = propagate_weak(vacuum, SUPERFLUID, grid).light_part
        expected = rest_energy_ratio(slow.atom, slow.fields)
        assert matter / light == pytest.approx(expected, rel=1e-9)

    def test_warns_outside_weak_regime(self):
        medium = medium_for(a=0.0, xi=2.0, s0=0.5)
        with pytest.warns(WeakFieldWarning):
            propagate_weak(medium, SUPERFLUID, grid_for(medium))

    @pytest.mark.filterwarnings("ignore::slowgyro.errors.WeakFieldWarning")
    def test_profiles_hold_input_saturation_and_unit_amplitude(self):
        medium = medium_for(a=1.0, xi=2.0, s0=0.3)
        res = propagate_weak(medium, SUPERFLUID, grid_for(medium))
        # no loss: s = s0 e^(2 Re ln(rabi_p / rabi_p0)) stays s0
        assert np.all(np.exp(res.log_amplitude.real) == 1.0)
        assert np.all(medium.fields.saturation0
                      * np.exp(2.0 * res.log_amplitude.real)
                      == medium.fields.saturation0)
        assert res.amplitude_ratio == 1.0

    def test_general_momentum_transfer(self):
        # eta = 0.5: matter term scales as eta/(xi+eta)
        base = medium_for(a=0.0, xi=2.0)
        fields = ProbeControlFields(lambda_p=780.24e-9,
                                    rabi_p0=base.fields.rabi_p0,
                                    rabi_c=base.fields.rabi_c,
                                    k_c_parallel=0.5 * base.fields.k_p)
        medium = RingMedium(base.atom, fields, base.geometry)
        assert medium.scales.eta == pytest.approx(0.5, rel=1e-12)
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
        # the overlap holds past the critical angle too, where the gate warns
        medium = medium_for(a=0.0, xi=xi, s0=1e-5)
        grid = grid_for(medium)
        with (beyond_critical() if medium.xi < 1.0
              else contextlib.nullcontext()):
            weak = propagate_weak(medium, SUPERFLUID, grid)
            full = propagate_allorder(medium, SUPERFLUID, grid)
        assert full.delta_phi_sig == pytest.approx(weak.delta_phi_sig, rel=1e-4)

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(min_value=0.1, max_value=100.0),
           xi_over_a=st.floats(min_value=1.0, max_value=20.0),
           s0=st.floats(min_value=1e-8, max_value=1e-3))
    def test_weak_limit_of_allorder(self, a, xi_over_a, s0):
        # in the domain (xi >= 1, EIT condition held) the all-order phase
        # leaves the weak-field one by at most the leading saturation
        # correction, 2 s0 for a matter-dominated phase
        assume(a * xi_over_a >= 1.01)
        medium = medium_for(a=a, xi=a * xi_over_a, s0=s0)
        grid = grid_for(medium, 256)
        weak = propagate_weak(medium, SUPERFLUID, grid).phase_cw
        full = propagate_allorder(medium, SUPERFLUID, grid).phase_cw
        assert abs(full - weak) <= 2.0 * s0 * abs(weak)

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

    @settings(max_examples=25, deadline=None)
    @given(xi=st.floats(min_value=1.01, max_value=2e3),
           s0=st.floats(min_value=1e-3, max_value=10.0),
           n=st.sampled_from([64, 256, 1024]),
           direction=st.sampled_from([1, -1]))
    def test_lossless_allorder_is_frozen(self, xi, s0, n, direction):
        # a lossless medium keeps s(x) = s0, so the all-order phases are the
        # frozen-s closed form, whose matter term the saturation suppresses
        # by (1+s)^-2 * (xi+1) / (xi + (1+s)^-3)
        medium = medium_for(a=0.0, xi=xi, s0=s0)
        res = propagate_allorder(medium, SUPERFLUID, grid_for(medium, n),
                                 direction=direction)
        light, matter = frozen_phases(medium, SUPERFLUID, s0)
        for value, ref in ((res.phase_cw, light + matter),
                           (res.light_part, direction * light),
                           (res.matter_part, direction * matter)):
            assert value == pytest.approx(ref, rel=1e-12, abs=0.0)
        _, weak_matter = frozen_phases(medium, SUPERFLUID, 0.0)
        xi = medium.xi
        assert matter / weak_matter == pytest.approx(
            (1 + s0) ** -2 * (xi + 1.0) / (xi + (1 + s0) ** -3), rel=1e-12)

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
        # the mirror of the co-propagating beam: conjugate log-amplitude
        cw = propagate_allorder(medium, SUPERFLUID, grid_for(medium))
        assert np.array_equal(res.log_amplitude, cw.log_amplitude.conj())
        assert res.log_amplitude[-1].imag == \
            pytest.approx(res.phase_ccw, rel=1e-12)

    @pytest.mark.parametrize("direction", [1, -1])
    def test_zero_probe_is_uniform_closed_form(self, direction):
        # s = 0 along the whole medium is the exact all-order solution
        medium = medium_for(a=1.0, xi=2.0, s0=0.0)
        grid = grid_for(medium)
        res = propagate_allorder(medium, SUPERFLUID, grid,
                                 direction=direction)
        light, matter = frozen_phases(medium, SUPERFLUID, 0.0)
        assert (res.light_part, res.matter_part) == \
            (direction * light, direction * matter)
        assert res.phase_cw == light + matter == -res.phase_ccw
        assert np.array_equal(res.log_amplitude.real,
                              -medium.kappa * grid.x)
        assert res.amplitude_ratio == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_step_failure_raises_with_diagnostics(self):
        # a loss far beyond the grid's resolution, in a medium past both
        # the critical angle and the EIT condition
        medium = medium_for(a=1e6, xi=0.5, s0=1e-4, omega=0.0)
        with pytest.raises(IntegrationError) as err, \
                pytest.warns(EITConditionWarning, match="EIT condition"), \
                beyond_critical():
            propagate_allorder(medium, SUPERFLUID, grid_for(medium, 64))
        assert err.value.max_step > 0.1
        assert err.value.n_points == 64

    def test_step_failure_is_decided_before_integrating(self, monkeypatch):
        def kernel_must_not_run(*args):
            raise AssertionError("the kernel ran on a refused grid")

        monkeypatch.setattr(propagation, "_rk4", kernel_must_not_run)
        medium = medium_for(a=1e6, xi=0.5, s0=1e-4, omega=0.0)
        with pytest.raises(IntegrationError, match="64 substeps per cell"), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            propagate_allorder(medium, SUPERFLUID, grid_for(medium, 64))


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
        _, matter = frozen_phases(medium, SUPERFLUID,
                                  medium.fields.saturation0)
        length = medium.geometry.medium_length
        base = EARTH * 1.5e-3 * length * RB87.mass / hbar
        expected = base * (9.0 / 16.0) / (2.0 + 27.0 / 64.0)
        assert matter == pytest.approx(expected, rel=1e-9)

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
        _, frozen = frozen_phases(medium, SUPERFLUID,
                                  medium.fields.saturation0)
        assert self_consistent.matter_part > frozen

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

    def test_allorder_profile_ends_on_phase(self):
        medium = medium_for(a=3.0, xi=1.5, s0=1.0)
        res = signal_phase(medium, SUPERFLUID, grid_for(medium, 256))
        assert res.log_amplitude[-1].imag == \
            pytest.approx(res.phase_cw, rel=1e-12)

    @pytest.mark.filterwarnings("ignore::slowgyro.errors.WeakFieldWarning")
    def test_uniform_profiles_end_on_phase(self):
        # zero-probe all-order and weak-field profiles reach the beam
        # phase exactly
        for a in (0.1, 3.0, 300.0):
            for xi in (1.5, 20.0, 2e3):
                for s0 in (0.0, 1e-3, 0.3, 1.0, 10.0):
                    medium = medium_for(a=a, xi=xi, s0=s0)
                    grid = grid_for(medium, 256)
                    kernels = (propagate_weak, propagate_allorder) \
                        if s0 == 0.0 else (propagate_weak,)
                    for propagate in kernels:
                        for direction in (1, -1):
                            res = propagate(medium, SUPERFLUID, grid,
                                            direction=direction)
                            assert res.log_amplitude[-1].imag == \
                                res.light_part + res.matter_part

    def test_requires_full_momentum_transfer(self):
        base = medium_for(a=0.0, xi=2.0)
        fields = ProbeControlFields(lambda_p=780.24e-9,
                                    rabi_p0=base.fields.rabi_p0,
                                    rabi_c=base.fields.rabi_c,
                                    k_c_parallel=0.3 * base.fields.k_p)
        medium = RingMedium(base.atom, fields, base.geometry)
        with pytest.raises(ParameterError):
            signal_phase(medium, SUPERFLUID, grid_for(medium))
        # a NaN control projection, which would give eta = NaN, is refused
        # by the fields themselves
        with pytest.raises(ParameterError):
            ProbeControlFields(lambda_p=780.24e-9, rabi_p0=1e5, rabi_c=1e6,
                               k_c_parallel=math.nan)


def xi_warnings(medium):
    """Messages of the xi < 1 warnings the validity gate raises for this
    medium."""
    with warnings.catch_warnings(record=True) as records:
        warnings.simplefilter("always")
        check_validity(medium, SUPERFLUID, "saturating")
    return [str(w.message) for w in records if "xi < 1" in str(w.message)]


class TestDispersionRegimeCheck:
    """xi < 1 (mixing angle beyond critical) is flagged by check_validity,
    which every propagation and sensitivity command passes through."""

    def test_silent_below_critical(self):
        assert xi_warnings(medium_for(a=0.0, xi=2.0)) == []

    def test_warns_above_critical(self):
        medium = medium_for(a=0.0, xi=0.5)
        assert medium.xi == pytest.approx(0.5, rel=1e-12)
        assert len(xi_warnings(medium)) == 1

    def test_boundary_at_xi_one(self):
        assert xi_warnings(medium_for(a=0.0, xi=1.0000001)) == []
        assert len(xi_warnings(medium_for(a=0.0, xi=0.9999999))) == 1


class TestValidityGate:
    def test_detuned_signal_phase_warns(self):
        base = medium_for(a=1.0, xi=2.0, s0=1e-2)
        fields = ProbeControlFields(lambda_p=780.24e-9,
                                    rabi_p0=base.fields.rabi_p0,
                                    rabi_c=base.fields.rabi_c, delta2=1e6)
        medium = RingMedium(base.atom, fields, base.geometry)
        with pytest.warns(EITConditionWarning, match="nonzero detuning"):
            signal_phase(medium, SUPERFLUID, grid_for(medium))


class TestKernelProperties:
    """Over the in-domain operating ranges of a ring scan: the
    counter-propagating beam is the exact mirror of the co-propagating one
    (checked against a run of the same medium at -Omega), and the
    light/matter split integrates the same phase as the kernel."""

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(min_value=0.1, max_value=400.0),
           xi_over_a=st.floats(min_value=0.5, max_value=20.0),
           s0=st.floats(min_value=1e-3, max_value=10.0),
           n=st.sampled_from([256, 1024, 4096]),
           direction=st.sampled_from([1, -1]))
    def test_mirror_and_split(self, a, xi_over_a, s0, n, direction):
        # inside the model's domain: xi >= 1, and a <= 400 keeps
        # rabi_c^2 = 1e12 above 100 gamma13 gamma1
        assume(a * xi_over_a >= 1.01)
        medium = medium_for(a=a, xi=a * xi_over_a, s0=s0)
        res = propagate_allorder(medium, SUPERFLUID, grid_for(medium, n),
                                 direction=direction)
        assert res.phase_ccw == -res.phase_cw
        mirrored = medium_for(a=a, xi=a * xi_over_a, s0=s0, omega=-EARTH)
        mir = propagate_allorder(mirrored, SUPERFLUID, grid_for(mirrored, n),
                                 direction=direction)
        assert mir.phase_cw == -res.phase_cw
        assert mir.light_part == -res.light_part
        assert np.array_equal(mir.log_amplitude, res.log_amplitude.conj())
        beam = res.phase_cw if direction == 1 else res.phase_ccw
        assert res.light_part + res.matter_part == \
            pytest.approx(beam, rel=1e-12, abs=0.0)


class TestStepRule:
    """Re d ln(rabi_p)/dx = -kappa, so a step of size h changes
    ln|rabi_p| by kappa*h: the substeps per cell are the smallest power of
    two r with kappa * spacing / r <= 0.1, and the grid is refused past
    r = 64."""

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(min_value=0, max_value=7),
           offset=st.floats(min_value=-1e-3, max_value=1e-3),
           a=st.floats(min_value=1.0, max_value=1e3),
           n=st.sampled_from([64, 128]))
    def test_step_change_straddling_each_refinement(self, k, offset, a, n):
        # kappa * L = a / xi, so this xi puts kappa * spacing at
        # 0.1 * 2**k * (1 + offset)
        medium = medium_for(a=a, xi=a / ((n - 1) * 0.1 * 2**k * (1 + offset)),
                            s0=1e-3)
        grid = grid_for(medium, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if grid.spacing / 64 * medium.kappa > 0.1:
                with pytest.raises(IntegrationError) as err:
                    propagate_allorder(medium, SUPERFLUID, grid)
                assert err.value.max_step == grid.spacing / 64 * medium.kappa
                return
            res = propagate_allorder(medium, SUPERFLUID, grid)
        r = 1
        while grid.spacing / r * medium.kappa > 0.1:
            r *= 2
        assert res.diagnostics["max_step"] == grid.spacing / r * medium.kappa


class TestProfiles:
    def test_profile_csv(self, tmp_path):
        # the CLI derives the columns from the beam's log-amplitude
        path = tmp_path / "profile.csv"
        assert cli.main(["propagate", "--profile-out", str(path)]) == 0
        config = cli.normalize_config({})
        medium = config.medium()
        res = propagate_allorder(medium, config.preparation, config.grid())
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x_m", "abs_rabi_p_rad_s", "phase_rad",
                           "saturation", "xi"]
        assert len(rows) == 1 + res.log_amplitude.size
        assert float(rows[1][1]) == pytest.approx(medium.fields.rabi_p0)
        assert float(rows[-1][2]) == pytest.approx(res.phase_cw)
        assert float(rows[-1][3]) == pytest.approx(
            medium.fields.saturation0 * res.amplitude_ratio**2)
        assert float(rows[-1][4]) == medium.xi

    def test_saturation_profile_decays_with_loss(self):
        medium = medium_for(a=2.0, xi=2.0, s0=0.5, omega=0.0)
        res = propagate_allorder(medium, SUPERFLUID, grid_for(medium))
        s = medium.fields.saturation0 * np.exp(2.0 * res.log_amplitude.real)
        assert s[0] == pytest.approx(0.5, rel=1e-9)
        assert s[-1] == pytest.approx(0.5 * math.exp(-2.0), rel=1e-6)
