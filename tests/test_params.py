import math

import pytest
from hypothesis import given, strategies as st
from scipy.constants import c, hbar

from _oracles import gamma_from_dipole
from slowgyro._constants import epsilon_0  # CODATA 2022, as the package
from slowgyro.errors import ParameterError
from slowgyro.params import (NA23, RB87, RING_PRESETS, AtomSpecies,
                             ProbeControlFields, RingGeometry, derived_scales,
                             dipole_from_gamma, recoil_velocity,
                             rest_energy_ratio)
from slowgyro.propagation import PropagationGrid
from slowgyro.ringmodes import (MediumPreparation, Preparation,
                                boltzmann_mean_winding, thermal_phase)
from slowgyro.sensitivity import (case_study, detector_photons, omega_min,
                                  sensitivity_budget, snr)


def fields_for(lambda_p, rabi_p0=1e5, rabi_c=1e6, k_c_parallel=0.0):
    return ProbeControlFields(lambda_p=lambda_p, rabi_p0=rabi_p0,
                              rabi_c=rabi_c, k_c_parallel=k_c_parallel)


GEOM = RingGeometry(radius=1.5e-3, medium_length=9e-3, cross_section=1e-6,
                    atom_density=1e20)


def scales(atom, fields, geometry=GEOM):
    return derived_scales(atom, fields, geometry)


class TestRecoil:
    def test_rb87_recoil_velocity(self):
        v_rec = scales(RB87, fields_for(780.24e-9)).v_rec
        assert v_rec == pytest.approx(5.8844e-3, rel=1e-4)
        assert recoil_velocity(RB87, 780.24e-9) == v_rec

    def test_na23_recoil_velocity(self):
        v_rec = scales(NA23, fields_for(589.0e-9)).v_rec
        assert v_rec == pytest.approx(2.9468e-2, rel=1e-4)
        assert recoil_velocity(NA23, 589.0e-9) == v_rec

    def test_recoil_velocity_definition(self):
        k = 2 * math.pi / 780.24e-9
        assert recoil_velocity(RB87, 780.24e-9) == \
            pytest.approx(hbar * k / RB87.mass, rel=1e-12)

    def test_eta_zero_when_wavevectors_match(self):
        fields = fields_for(780.24e-9)
        fields = ProbeControlFields(lambda_p=780.24e-9, rabi_p0=1e5, rabi_c=1e6,
                                    k_c_parallel=fields.k_p)
        assert scales(RB87, fields).eta == 0.0

    def test_eta_one_for_perpendicular_control(self):
        assert scales(RB87, fields_for(780.24e-9)).eta == 1.0

    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_eta_scale_invariance(self, factor):
        base = ProbeControlFields(lambda_p=780e-9, rabi_p0=1e5, rabi_c=1e6,
                                  k_c_parallel=3e6)
        scaled = ProbeControlFields(lambda_p=780e-9 / factor, rabi_p0=1e5,
                                    rabi_c=1e6, k_c_parallel=3e6 * factor)
        eta0 = scales(RB87, base).eta
        eta1 = scales(RB87, scaled).eta
        assert eta1 == pytest.approx(eta0, rel=1e-12)

    def test_invalid_mass_rejected(self):
        with pytest.raises(ParameterError):
            AtomSpecies(mass=-1.0, dipole_p=1e-29, gamma1=1e7, gamma3=1e7)

    def test_invalid_wavelength_rejected(self):
        with pytest.raises(ParameterError):
            fields_for(-780e-9)


class TestCoupling:
    def test_zero_dipole_zero_coupling(self):
        atom = AtomSpecies(mass=RB87.mass, dipole_p=0.0, gamma1=1e7, gamma3=1e7)
        assert scales(atom, fields_for(780.24e-9)).g2rho == 0.0

    def test_g2rho_independent_of_cross_section(self):
        fields = fields_for(780.24e-9)
        geom2 = RingGeometry(radius=1.5e-3, medium_length=9e-3,
                             cross_section=7e-6, atom_density=1e20)
        assert scales(RB87, fields, geom2).g2rho == \
            pytest.approx(scales(RB87, fields).g2rho, rel=1e-12)

    def test_round_trip_through_einstein_a(self):
        fields = fields_for(780.24e-9)
        gamma = 2 * math.pi * 6.07e6
        d = dipole_from_gamma(gamma, fields.omega_p)
        atom = AtomSpecies(mass=RB87.mass, dipole_p=d, gamma1=gamma, gamma3=gamma)
        d_back = dipole_from_gamma(gamma_from_dipole(d, fields.omega_p), fields.omega_p)
        back = AtomSpecies(mass=RB87.mass, dipole_p=d_back, gamma1=gamma,
                           gamma3=gamma)
        assert scales(back, fields).g2rho == \
            pytest.approx(scales(atom, fields).g2rho, rel=1e-12)


class TestEinsteinA:
    def test_zero_dipole(self):
        assert gamma_from_dipole(0.0, 2.4e15) == 0.0

    def test_quadratic_scaling(self):
        g1 = gamma_from_dipole(1e-29, 2.4e15)
        g2 = gamma_from_dipole(2e-29, 2.4e15)
        assert g2 == pytest.approx(4.0 * g1, rel=1e-12)

    def test_rb_d2_dipole_moment(self):
        d = dipole_from_gamma(3.81e7, 2.414e15)
        assert d == pytest.approx(2.534e-29, rel=1e-3)

    @given(st.floats(min_value=1e-32, max_value=1e-27),
           st.floats(min_value=1e14, max_value=1e16))
    def test_mutual_inverses(self, d, omega):
        assert dipole_from_gamma(gamma_from_dipole(d, omega), omega) == \
            pytest.approx(d, rel=1e-12)


class TestRestEnergyRatio:
    def test_rb87_value(self):
        ratio = rest_energy_ratio(RB87, fields_for(780.24e-9))
        assert ratio == pytest.approx(5.0947e10, rel=1e-4)
        assert 1e10 < ratio < 1e12  # alkali + optical photon: order 1e11

    def test_na23_value(self):
        assert rest_energy_ratio(NA23, fields_for(589.0e-9)) == \
            pytest.approx(1.0174e10, rel=1e-4)

    def test_mass_doubling(self):
        fields = fields_for(780.24e-9)
        atom2 = AtomSpecies(mass=2 * RB87.mass, dipole_p=RB87.dipole_p,
                            gamma1=RB87.gamma1, gamma3=RB87.gamma3)
        assert rest_energy_ratio(atom2, fields) == \
            pytest.approx(2 * rest_energy_ratio(RB87, fields), rel=1e-12)


class TestGeometry:
    def test_medium_cannot_exceed_circumference(self):
        with pytest.raises(ParameterError):
            RingGeometry(radius=1e-3, medium_length=0.1, cross_section=1e-6,
                         atom_density=0.0)

    def test_relativistic_rim_speed_rejected(self):
        with pytest.raises(ParameterError):
            RingGeometry(radius=1.0, medium_length=1.0, cross_section=1e-6,
                         atom_density=0.0, rotation_rate=1e6)

    def test_full_ring_area_convention(self):
        geom = RingGeometry(radius=2e-3, medium_length=2 * math.pi * 2e-3,
                            cross_section=1e-6, atom_density=0.0)
        assert geom.area == pytest.approx(2 * math.pi * (2e-3) ** 2, rel=1e-12)

    def test_gamma2_is_sum_of_branches(self):
        atom = AtomSpecies(mass=RB87.mass, dipole_p=1e-29, gamma1=3e6, gamma3=8e6)
        assert atom.gamma2 == 1.1e7

    def test_control_field_required(self):
        with pytest.raises(ParameterError):
            ProbeControlFields(lambda_p=780e-9, rabi_p0=1e5, rabi_c=0.0)


def test_dimensional_consistency_of_all_scales():
    fields = fields_for(780.24e-9)
    derived = scales(RB87, fields)
    k = fields.k_p
    assert fields.omega_p == pytest.approx(c * k, rel=1e-12)
    assert derived.v_rec == pytest.approx(hbar * k / RB87.mass, rel=1e-12)
    # g2rho = d^2 omega_p rho / (2 hbar eps0), free of the cross-section
    assert derived.g2rho == pytest.approx(
        RB87.dipole_p**2 * fields.omega_p * GEOM.atom_density
        / (2 * hbar * epsilon_0), rel=1e-12)


# valid arguments of each input class with a range check
VALID = {
    AtomSpecies: dict(mass=RB87.mass, dipole_p=RB87.dipole_p, gamma1=1e7,
                      gamma3=1e7, gamma13=1e3),
    ProbeControlFields: dict(lambda_p=780e-9, rabi_p0=1e5, rabi_c=1e6,
                             k_c_parallel=0.0, delta2=0.0, delta3=0.0),
    RingGeometry: dict(radius=1.5e-3, medium_length=9e-3, cross_section=1e-6,
                       atom_density=1e20, rotation_rate=7.29e-5),
    PropagationGrid: dict(length=9e-3, n_points=64),
    MediumPreparation: dict(kind=Preparation.THERMAL_RING, temperature=1e-6),
}


@pytest.mark.parametrize(
    "cls,name,value",
    [(cls, name, math.nan) for cls, kwargs in VALID.items()
     for name, v in kwargs.items() if isinstance(v, float)]
    + [(AtomSpecies, "dipole_p", -1e-29)]
    + [(ProbeControlFields, name, value) for name in
       ("k_c_parallel", "delta2", "delta3") for value in (math.inf, -math.inf)],
    ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
def test_range_checks_refuse_nan(cls, name, value):
    # the library refuses what the CLI refuses before building
    cls(**VALID[cls])
    with pytest.raises(ParameterError):
        cls(**{**VALID[cls], name: value})


V_REC_NA = 2.9468e-2
# valid arguments of each library call with a domain check, and the
# arguments that a NaN must make it refuse
CALLS = {
    detector_photons: (dict(cross_section=1e-6, density=1e20, v_rec=V_REC_NA,
                            t=1.0, xi=2.0, s=0.5, a=1.0),
                       ["cross_section", "density", "v_rec", "t", "xi", "s",
                        "a"]),
    snr: (dict(rotation_rate=1e-6, area=1e-5, cross_section=1e-6,
               density=1e20, v_rec=V_REC_NA, t=1.0, s=1 / 3, xi=10.0, a=5.0,
               mass=NA23.mass),
          ["area", "cross_section", "density", "v_rec", "t", "mass", "s",
           "xi", "a"]),
    omega_min: (dict(area=1e-5, cross_section=1e-6, density=1e20,
                     v_rec=V_REC_NA, t=1.0, a=2.9, mass=NA23.mass),
                ["area", "cross_section", "density", "v_rec", "t", "mass"]),
    sensitivity_budget: (dict(geometry=RING_PRESETS["gupta"], v_rec=V_REC_NA,
                              t=1.0, a=2.9, mass=NA23.mass),
                         ["v_rec", "t", "mass"]),
    case_study: (dict(name="gupta", t=1.0), ["t"]),
    thermal_phase: (dict(rotation_rate=7.29e-5, radius=48e-3, mass=RB87.mass,
                         temperature=1e-6),
                    ["radius", "mass", "temperature"]),
    boltzmann_mean_winding: (dict(rotation_rate=7.29e-5, radius=1.5e-3,
                                  mass=RB87.mass, temperature=1e-9),
                             ["radius", "mass", "temperature"]),
    dipole_from_gamma: (dict(gamma=3.81e7, omega_p=2.414e15),
                        ["gamma", "omega_p"]),
}


@pytest.mark.parametrize(
    "call,name,value",
    [(call, name, math.nan) for call, (_, refused) in CALLS.items()
     for name in refused]
    + [(thermal_phase, "radius", 0.0), (thermal_phase, "mass", -RB87.mass)],
    ids=lambda v: v.__name__ if callable(v) else str(v))
def test_library_calls_refuse_nan(call, name, value):
    # the library functions refuse what the CLI refuses, NaN included
    kwargs = CALLS[call][0]
    call(**kwargs)
    with pytest.raises(ParameterError):
        call(**{**kwargs, name: value})
