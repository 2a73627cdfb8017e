import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import hbar

from _oracles import brute_optimum, detector_photons_from_power
from slowgyro import sensitivity
from slowgyro.errors import BoundaryHitError, LowCountWarning, ParameterError
from slowgyro.params import NA23, RING_PRESETS, RingGeometry
from slowgyro.propagation import RingMedium, frozen_phases
from slowgyro.ringmodes import MediumPreparation, Preparation
from slowgyro.sensitivity import (case_study, detector_photons, omega_min,
                                  optimize_snr, shape_factor, snr)

V_REC_NA = 2.9468e-2


class TestDetectorPhotons:
    def test_no_probe_no_counts(self):
        with pytest.warns(LowCountWarning):
            assert detector_photons(1e-6, 1e20, V_REC_NA, 1.0, 2.0, 0.0, 1.0) == 0.0

    def test_lossless_limit(self):
        n_d = detector_photons(1e-6, 1e20, V_REC_NA, 1.0, 2.0, 0.5, 0.0)
        assert n_d == pytest.approx(1e-6 * 1e20 * V_REC_NA * 2.0 * 0.5, rel=1e-12)

    def test_reference_value(self):
        n_d = detector_photons(1e-6, 1e20, 2.946e-2, 1.0, 2.0, 1.0 / 3.0, 1.0)
        assert n_d == pytest.approx(7.225e11, rel=1e-3)

    def test_agrees_with_raw_power_form(self):
        # same count from (F, rho, v_rec, xi, s, a) and from the beam power
        # expressed through the source Rabi frequency and dipole moment
        medium = RingMedium.from_dimensionless(a=1.5, xi=3.0, s0=0.2)
        geom, fields, atom = medium.geometry, medium.fields, medium.atom
        scales = medium.scales
        a = medium.loss_parameter
        n_1 = detector_photons(geom.cross_section, geom.atom_density,
                               scales.v_rec, 1.0, medium.xi,
                               fields.saturation0, a)
        kappa = atom.gamma13 / (scales.v_rec * medium.xi)
        n_2 = detector_photons_from_power(fields.rabi_p0, atom.dipole_p,
                                          geom.cross_section, fields.omega_p,
                                          1.0, kappa, geom.medium_length)
        assert n_1 == pytest.approx(n_2, rel=1e-9)

    def test_low_count_warning(self):
        # a scalar count warns in the same words as an array of one
        with pytest.warns(LowCountWarning, match=r"n_D < 1 at 1 of 1 "
                          r"saturations \(smallest 3\.97e-11\)"):
            detector_photons(1e-6, 1e2, V_REC_NA, 1.0, 2.0, 1e-3, 5.0)

    def test_array_matches_scalar_calls_and_warns_once(self):
        s = np.geomspace(1e-3, 1e2, 40)
        with warnings.catch_warnings(record=True) as records:
            warnings.simplefilter("always")
            counts = detector_photons(1e-6, 1e9, V_REC_NA, 1.0, 2.0, s, 5.0)
            scalar = [detector_photons(1e-6, 1e9, V_REC_NA, 1.0, 2.0,
                                       float(v), 5.0) for v in s]
        assert counts.tolist() == scalar
        low = sum(n < 1.0 for n in scalar)
        assert 0 < low < s.size
        assert len(records) == 1 + low
        assert records[0].category is LowCountWarning
        assert f"{low} of {s.size}" in str(records[0].message)

    def test_negative_saturation_in_array_rejected(self):
        with pytest.raises(ParameterError):
            detector_photons(1e-6, 1e20, V_REC_NA, 1.0, 2.0,
                             np.array([0.1, -0.1]), 1.0)


class TestSnr:
    def test_zero_rotation(self):
        assert snr(0.0, 1e-5, 1e-6, 1e20, V_REC_NA, 1.0, 1 / 3, 10.0, 5.0,
                   NA23.mass) == 0.0

    def test_sqrt_time_scaling(self):
        args = (1e-6, 1e-5, 1e-6, 1e20, V_REC_NA)
        one = snr(*args, 1.0, 1 / 3, 10.0, 5.0, NA23.mass)
        two = snr(*args, 2.0, 1 / 3, 10.0, 5.0, NA23.mass)
        assert two == pytest.approx(math.sqrt(2.0) * one, rel=1e-12)

    def test_shape_factor_reference_point(self):
        # direct evaluation at s = 1/3, xi = 2a, a = 50, and the
        # large-a asymptote 0.1393/sqrt(a) within one percent
        value = shape_factor(1.0 / 3.0, 100.0, 50.0)
        assert value == pytest.approx(0.0196149, rel=1e-4)
        assert value == pytest.approx(0.1393 / math.sqrt(50.0), rel=0.01)

    def test_loss_parameter(self):
        medium = RingMedium.from_dimensionless(a=1.0, xi=2.0, s0=0.1)
        length = medium.geometry.medium_length
        assert length == 2 * math.pi * medium.geometry.radius  # full ring
        expected = (medium.atom.gamma13 * length) / medium.scales.v_rec
        assert medium.loss_parameter == pytest.approx(expected, rel=1e-12)
        assert medium.loss_parameter == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(ParameterError):
            RingGeometry(radius=1.5e-3, medium_length=-1.0,
                         cross_section=1e-6, atom_density=0.0)


class TestOptimizer:
    @pytest.mark.parametrize("a,s_ref,xi_ref,g_ref", [
        (50.0, 0.336117, 100.835, 0.0196155),
        (500.0, 0.333614, 1000.84, 0.00622632),
        (5000.0, 0.333361, 10000.8, 0.00196968),
    ])
    def test_frozen_optima(self, a, s_ref, xi_ref, g_ref):
        opt = optimize_snr(a)
        assert opt.s_opt == pytest.approx(s_ref, rel=1e-4)
        assert opt.xi_opt == pytest.approx(xi_ref, rel=1e-4)
        assert opt.g_max == pytest.approx(g_ref, rel=1e-5)

    def test_matches_brute_force_oracle(self):
        for a in (0.5, 5.0, 50.0):
            opt = optimize_snr(a)
            s_o, xi_o, g_o = brute_optimum(a)
            assert opt.s_opt == pytest.approx(s_o, rel=1e-5)
            assert opt.xi_opt == pytest.approx(xi_o, rel=1e-5)
            assert opt.g_max == pytest.approx(g_o, rel=1e-8)

    def test_large_a_analytic_point(self):
        opt = optimize_snr(5000.0)
        assert opt.s_opt == pytest.approx(1.0 / 3.0, rel=5e-3)
        assert opt.xi_opt == pytest.approx(1e4, rel=5e-3)

    def test_small_a_bounded_deviation(self):
        opt = optimize_snr(0.05)
        assert opt.s_opt == pytest.approx(0.945545, rel=1e-3)
        assert opt.xi_opt == pytest.approx(0.283664, rel=1e-3)
        assert 0.05 / 1e3 < opt.xi_opt < 0.05 * 1e3

    def test_stationarity_by_central_differences(self):
        for a in (1.0, 50.0, 5000.0):
            opt = optimize_snr(a)
            h = 1e-5
            ds = (shape_factor(opt.s_opt * (1 + h), opt.xi_opt, a)
                  - shape_factor(opt.s_opt * (1 - h), opt.xi_opt, a)) / (2 * h)
            dx = (shape_factor(opt.s_opt, opt.xi_opt * (1 + h), a)
                  - shape_factor(opt.s_opt, opt.xi_opt * (1 - h), a)) / (2 * h)
            assert abs(ds) <= 1e-6 * opt.g_max
            assert abs(dx) <= 1e-6 * opt.g_max

    def test_boundary_hit_raises(self, monkeypatch):
        # clamp the s range below the true optimum: the maximizer must
        # report the boundary instead of returning an edge point silently
        monkeypatch.setattr(sensitivity, "S_RANGE", (1e-4, 0.05))
        with pytest.raises(BoundaryHitError):
            optimize_snr(50.0)

    def test_invalid_loss_parameter(self):
        for a in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ParameterError):
                optimize_snr(a)

    @pytest.mark.parametrize("a", [1e-6, 1e-3, 0.05, 2.9, 50.0, 1e4, 1e8,
                                   1e12])
    def test_analytic_gradient_vanishes(self, a):
        # partials of ln g written out here, independent of the optimizer
        opt = optimize_snr(a)
        s, xi = opt.s_opt, opt.xi_opt
        p = xi * (1 + s) ** 3
        d_ln_s = 0.5 + s / (1 + s) - 3 * s * p / ((1 + s) * (p + 1))
        d_ln_xi = 0.5 + a / xi - p / (p + 1)
        assert abs(d_ln_s) <= 1e-12
        assert abs(d_ln_xi) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(log_a=st.floats(min_value=math.log(1e-8),
                           max_value=math.log(1e12)))
    def test_no_better_neighbour(self, log_a):
        a = math.exp(log_a)
        opt = optimize_snr(a)
        for ds in (-1e-3, 0.0, 1e-3):
            for dx in (-1e-3, 0.0, 1e-3):
                assert opt.g_max >= shape_factor(opt.s_opt * (1 + ds),
                                                 opt.xi_opt * (1 + dx), a)

    def test_tiny_loss_parameter_hits_s_boundary(self):
        # the optimum s grows without bound as a -> 0 and leaves S_RANGE
        with pytest.raises(BoundaryHitError):
            optimize_snr(1e-10)

    def test_narrow_xi_range_raises(self, monkeypatch):
        # xi_opt ~ 2a lies outside [a/1.5, 1.5a]
        monkeypatch.setattr(sensitivity, "XI_RANGE_FACTOR", 1.5)
        with pytest.raises(BoundaryHitError):
            optimize_snr(50.0)


class TestPrefactor:
    """The large-a prefactor f = 1 / (g_max sqrt(a)), read at a = 1e4 where
    it has converged to three digits."""

    def test_value_in_quoted_band(self):
        f = optimize_snr(1e4).f_estimate
        assert 7.1 <= f <= 7.3

    def test_matches_analytic_asymptote(self):
        # closed form at s = 1/3, xi = 2a:
        # g ~ (4/(3 sqrt(3))) * (27/128) * sqrt(2) * e^(-1/2) / sqrt(a)
        g_asym = (4.0 / (3.0 * math.sqrt(3.0))) * (27.0 / 128.0) \
            * math.sqrt(2.0) * math.exp(-0.5)
        assert optimize_snr(1e4).f_estimate == \
            pytest.approx(1.0 / g_asym, rel=2e-4)

    def test_converged_between_decades(self):
        f3 = optimize_snr(1e3).f_estimate
        f4 = optimize_snr(1e4).f_estimate
        assert abs(f4 - f3) / f3 < 0.005


class TestOmegaMin:
    AREA = 2 * math.pi * (1.5e-3) ** 2

    def test_area_scaling(self):
        base = omega_min(self.AREA, 1e-6, 1e20, V_REC_NA, 1.0, 2.9, NA23.mass)
        double = omega_min(2 * self.AREA, 1e-6, 1e20, V_REC_NA, 1.0, 2.9,
                           NA23.mass)
        assert double == pytest.approx(base / 2.0, rel=1e-12)

    def test_density_scaling(self):
        base = omega_min(self.AREA, 1e-6, 1e20, V_REC_NA, 1.0, 2.9, NA23.mass)
        quad = omega_min(self.AREA, 1e-6, 4e20, V_REC_NA, 1.0, 2.9, NA23.mass)
        assert quad == pytest.approx(base / 2.0, rel=1e-12)

    def test_snr_is_unity_at_omega_min(self):
        a = 2.9
        om = omega_min(self.AREA, 1e-6, 1e20, V_REC_NA, 1.0, a, NA23.mass)
        opt = optimize_snr(a)
        value = snr(om, self.AREA, 1e-6, 1e20, V_REC_NA, 1.0, opt.s_opt,
                    opt.xi_opt, a, NA23.mass)
        assert value == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(area=st.floats(-9, 0), cross_section=st.floats(-14, -4),
           density=st.floats(14, 24), v_rec=st.floats(-4, 0),
           t=st.floats(-3, 3), a=st.floats(-2, 4), mass=st.floats(-27, -24))
    def test_omega_min_inverts_snr(self, area, cross_section, density, v_rec,
                                   t, a, mass):
        # omega_min is 1 / snr(1, ...) at the optimum: the SNR there is one
        # up to the ten roundings of the two evaluations, half an ulp each,
        # and the rate is the closed form (hbar/m)/A (F rho v_rec t)^-1/2 f
        # sqrt(a).  Arguments are drawn as decimal exponents.
        args = [10.0**e for e in (area, cross_section, density, v_rec, t)]
        a, mass = 10.0**a, 10.0**mass
        om = omega_min(*args, a, mass)
        opt = optimize_snr(a)
        value = snr(om, *args, opt.s_opt, opt.xi_opt, a, mass)
        assert abs(value - 1.0) <= 5 * math.ulp(1.0)
        flux = math.sqrt(args[1] * args[2] * args[3] * args[4])
        closed = hbar / mass / args[0] / flux * opt.f_estimate * math.sqrt(a)
        assert om == pytest.approx(closed, rel=1e-14)

    @pytest.mark.parametrize("a", [0.0, -1.0, math.nan, math.inf])
    def test_bad_loss_parameter_is_named(self, a):
        with pytest.raises(ParameterError, match="loss parameter a"):
            omega_min(self.AREA, 1e-6, 1e20, V_REC_NA, 1.0, a, NA23.mass)

    def test_asymptotic_mode(self):
        exact = omega_min(self.AREA, 1e-6, 1e20, V_REC_NA, 1.0, 2.9, NA23.mass)
        # the same rate with the large-a prefactor in place of the exact one
        asym = exact / optimize_snr(2.9).f_estimate \
            * optimize_snr(1e4).f_estimate
        # at a = 2.9 the exact prefactor sits ~6.5% above the asymptote
        assert asym < exact < 1.15 * asym


class TestCaseStudies:
    def test_gupta_sodium_reproduces_benchmark(self):
        report = case_study("gupta", species="na23", a=2.9, t=1.0)
        assert report.omega_min == pytest.approx(1.4826e-9, rel=1e-3)
        assert report.omega_min == pytest.approx(1.4e-9, rel=0.1)

    def test_gupta_rubidium_within_factor_three(self):
        report = case_study("gupta", species="rb87", a=1.0, t=1.0)
        assert 1.4e-9 / 3.0 <= report.omega_min <= 1.4e-9 * 3.0

    def test_arnold_scales_by_area_ratio(self):
        gupta = case_study("gupta", species="na23", a=2.9)
        arnold = case_study("arnold", species="na23", a=2.9)
        assert gupta.omega_min / arnold.omega_min == \
            pytest.approx((96.0 / 3.0) ** 2, rel=1e-12)
        assert arnold.omega_min == pytest.approx(1.4e-12, rel=0.1)

    def test_ratio_independent_of_species_and_a(self):
        for species, a in (("rb87", 1.0), ("na23", 7.0)):
            gupta = case_study("gupta", species=species, a=a)
            arnold = case_study("arnold", species=species, a=a)
            assert gupta.omega_min / arnold.omega_min == \
                pytest.approx(1024.0, rel=1e-12)

    def test_report_consistency(self):
        report = case_study("gupta", species="na23", a=2.9)
        assert report.delta_phi_noise == pytest.approx(
            1.0 / math.sqrt(report.n_d), rel=1e-12)
        assert report.snr == pytest.approx(1.0, abs=1e-6)
        assert len(report.assumptions) >= 5
        assert any("a=2.9" in line for line in report.assumptions)

    def test_disk_area_convention(self):
        ring = case_study("gupta", species="na23", a=2.9)
        disk = case_study("gupta", species="na23", a=2.9,
                          area_convention="disk")
        assert disk.omega_min == pytest.approx(2.0 * ring.omega_min, rel=1e-12)

    def test_unknown_case_rejected(self):
        with pytest.raises(ParameterError):
            case_study("unknown")

    def test_budget_solves_the_optimum_once(self, monkeypatch):
        calls = []
        solve = sensitivity.optimize_snr

        def counted(a):
            calls.append(a)
            return solve(a)

        monkeypatch.setattr(sensitivity, "optimize_snr", counted)
        case_study("gupta", species="na23", a=2.9)
        assert calls == [2.9]

    def test_prefactor_agrees_with_omega_min(self):
        report = case_study("gupta", species="na23", a=2.9)
        v_rec = hbar * (2.0 * math.pi / 589.0e-9) / NA23.mass
        area = 1.5e-3 * (2.0 * math.pi * 1.5e-3)
        gupta = RING_PRESETS["gupta"]
        assert report.omega_min == omega_min(
            area, gupta.cross_section, gupta.atom_density, v_rec, 1.0, 2.9,
            NA23.mass)
        assert (f"exact optimizer prefactor f = {report.opt.f_estimate:.5g} "
                "(SNR at omega_min is 1)") in report.assumptions


class TestComposedPipeline:
    def test_closed_form_snr_matches_composed_signal_over_noise(self):
        # compose the per-beam matter phase from the propagation module with
        # the shot noise from the detector count; must match the closed-form
        # SNR under the frozen-s, uniform-xi simplifications
        a = 5.0
        opt = optimize_snr(a)
        omega = 1e-6
        medium = RingMedium.from_dimensionless(a=a, xi=opt.xi_opt,
                                               s0=opt.s_opt,
                                               rotation_rate=omega)
        prep = MediumPreparation(Preparation.SUPERFLUID_RING)
        _, matter = frozen_phases(medium, prep, medium.fields.saturation0)
        geom = medium.geometry
        n_d = detector_photons(geom.cross_section, geom.atom_density,
                               medium.scales.v_rec, 1.0, medium.xi,
                               medium.fields.saturation0,
                               medium.loss_parameter)
        composed = matter * math.sqrt(n_d)
        closed = snr(omega, geom.area, geom.cross_section, geom.atom_density,
                     medium.scales.v_rec, 1.0, opt.s_opt, opt.xi_opt, a,
                     medium.atom.mass)
        assert composed == pytest.approx(closed, rel=0.05)
        # under the exact same simplifications they agree far better
        assert composed == pytest.approx(closed, rel=1e-6)
