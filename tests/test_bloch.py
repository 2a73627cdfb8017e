import math
import warnings

import numpy as np
import pytest
from scipy.constants import c, hbar

from _oracles import (absorption_exact, evolve_to_steady,
                      liouvillian_by_basis, random_lambda_params)
from slowgyro.bloch import BlochGenerator, build_generator, steady_state
from slowgyro.errors import (DegenerateEITError, DegenerateSteadyStateError,
                             ParameterError)
from slowgyro.params import RB87, AtomSpecies

GAMMA = 1e7


def make_atom(gamma1=GAMMA, gamma3=GAMMA, gamma13=0.0):
    return AtomSpecies(mass=RB87.mass, dipole_p=RB87.dipole_p,
                       gamma1=gamma1, gamma3=gamma3, gamma13=gamma13)


def strong_dephasing_generator():
    # ground-coherence dephasing six orders above the decay of level 2: a
    # dephasing of rho13 alone gave rho11 = -8.5e-3 here
    atom = make_atom(gamma1=0.354, gamma3=27.2, gamma13=2.91e7)
    return build_generator(atom, 1.9e7, 2.25e7, delta2=-2.92e7,
                           delta3=-3.42e9)


def min_choi_eigenvalue(m):
    """Smallest eigenvalue of P C P, C = sum_ij E_ij x M(E_ij) the Choi
    matrix of M and P the projector off Phi = sum_i |ii>/sqrt(3).  M
    generates a completely positive evolution iff C is Hermitian and
    P C P >= 0."""
    choi = m.reshape(3, 3, 3, 3).transpose(2, 0, 3, 1).reshape(9, 9)
    phi = np.eye(3).reshape(9) / math.sqrt(3.0)
    proj = np.eye(9) - np.outer(phi, phi)
    assert np.abs(choi - choi.conj().T).max() <= 1e-15 * np.abs(m).max()
    return np.linalg.eigvalsh(proj @ choi @ proj)[0]


class TestGeneratorStructure:
    def test_rho12_diagonal_entry(self):
        # the optical-coherence damping and Doppler-shifted detuning
        delta2, omega, radius, k_p = 3.3e6, 2e-4, 1.5e-3, 8.05e6
        gen = build_generator(make_atom(), 1e5, 1e6, delta2=delta2,
                              rotation_rate=omega, radius=radius, k_p=k_p)
        expected = -(1j * (delta2 + omega * radius * k_p) + 0.5 * (2 * GAMMA))
        assert gen.m[1, 1] == expected

    def test_matches_basis_oracle(self):
        # one Hamiltonian and the decay rates give every entry, including
        # the rho23 detuning -i((delta3 + D) - (delta2 + D))
        rng = np.random.default_rng(17)
        for _ in range(50):
            p = random_lambda_params(rng)
            atom = make_atom(p["gamma1"], p["gamma3"], p["gamma13"])
            gen = build_generator(atom, p["rabi_p"], p["rabi_c"],
                                  p["delta2"], p["delta3"],
                                  rotation_rate=p["doppler"], radius=1.0,
                                  k_p=1.0)
            oracle = liouvillian_by_basis(
                p["gamma1"], p["gamma3"], p["gamma13"], p["rabi_p"],
                p["rabi_c"], p["delta2"] + p["doppler"],
                p["delta3"] + p["doppler"])
            assert np.abs(gen.m - oracle).max() <= 1e-15 * np.abs(oracle).max()

    def test_population_rows_sum_to_zero_equal_branches(self):
        gen = build_generator(make_atom(), 2.3e5 + 4e4j, 1e6 - 3e5j,
                              delta2=1e6, delta3=-3e5)
        total = gen.m[0] + gen.m[4] + gen.m[8]
        assert np.abs(total).max() == 0.0

    def test_population_rows_sum_to_zero_random(self):
        # unequal branch rates leave at most one rounding ulp in
        # gamma1 - (gamma1 + gamma3) + gamma3
        rng = np.random.default_rng(7)
        for _ in range(10):
            p = random_lambda_params(rng)
            atom = make_atom(p["gamma1"], p["gamma3"], p["gamma13"])
            gen = build_generator(atom, p["rabi_p"], p["rabi_c"],
                                  p["delta2"], p["delta3"])
            total = gen.m[0] + gen.m[4] + gen.m[8]
            assert np.abs(total).max() <= 1e-15 * atom.gamma2

    def test_rate_matrix_with_fields_off_structure(self):
        # population block reduces to classical rates gamma1, gamma3 out of
        # level 2 when probing the matrix at zero probe (control still on,
        # but its couplings only touch coherences and rho22/rho33 exchange)
        atom = make_atom(gamma1=3e6, gamma3=8e6)
        gen = build_generator(atom, 0.0, 1e6)
        pops = np.ix_((0, 4, 8), (0, 4, 8))
        block = gen.m[pops]
        expected = np.array([[0.0, 3e6, 0.0],
                             [0.0, -1.1e7, 0.0],
                             [0.0, 8e6, 0.0]], dtype=complex)
        assert np.abs(block - expected).max() == 0.0

    def test_completely_positive_on_random_draws(self):
        # a dephasing of rho13 alone left an eigenvalue -gamma13/3
        rng = np.random.default_rng(23)
        gens = [strong_dephasing_generator()]
        for gamma in (1e3, 1e7, 1e9):
            for _ in range(20):
                p = random_lambda_params(rng, gamma)
                atom = make_atom(p["gamma1"], p["gamma3"], p["gamma13"])
                gens.append(build_generator(
                    atom, p["rabi_p"], p["rabi_c"], p["delta2"], p["delta3"],
                    rotation_rate=p["doppler"], radius=1.0, k_p=1.0))
        for gen in gens:
            assert (min_choi_eigenvalue(gen.m)
                    >= -1e-12 * np.abs(gen.m).max())

    def test_dephasing_damps_optical_coherences_by_a_quarter(self):
        # sqrt(gamma13/2)(|1><1| - |3><3|) damps rho13 at gamma13 and
        # rho12, rho23 at gamma13/4, on top of gamma2/2
        atom = make_atom(gamma13=4e5)
        diag = build_generator(atom, 0.0, 1e6).m.diagonal().real
        assert diag[[2, 6]].tolist() == [-4e5, -4e5]
        assert diag[[1, 3, 5, 7]].tolist() == [-GAMMA - 1e5] * 4

    def test_zero_control_raises(self):
        with pytest.raises(DegenerateEITError):
            build_generator(make_atom(), 1e5, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["delta2", "delta3", "rotation_rate",
                                      "rabi_p", "rabi_c"])
    def test_non_finite_input_refused(self, name, value):
        # a NaN detuning used to give rho = nan without an error
        args = dict(rabi_p=1e5, rabi_c=1e6, delta2=1e5, delta3=-2e5,
                    rotation_rate=1e-3, radius=1.5e-3, k_p=8.05e6)
        build_generator(make_atom(gamma13=1e3), **args)
        with pytest.raises(ParameterError):
            build_generator(make_atom(gamma13=1e3), **{**args, name: value})

    @pytest.mark.parametrize("rates,kwargs,match", [
        ((GAMMA, GAMMA, 0.0), dict(delta2=1.7e308, delta3=-1.7e308),
         "detunings"),
        ((GAMMA, GAMMA, 0.0), dict(delta2=1.7e308, rotation_rate=1.7e308,
                                   radius=1.0, k_p=1.0), "detunings"),
        ((1.7e308, 1.7e308, 0.0), {}, "decay rates"),
        ((GAMMA, 1.7e308, 1.7e308), {}, "decay rates")])
    def test_overflowing_generator_refused(self, rates, kwargs, match):
        # every input is finite, but an entry of M would overflow to inf:
        # refused before numpy builds M, so no RuntimeWarning either
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=match):
                build_generator(make_atom(*rates), 1e5, 1e6, **kwargs)

    def test_rotation_enters_only_through_radius(self):
        atom = make_atom(gamma13=1e3)
        gen_spinning = build_generator(atom, 1e5, 1e6, rotation_rate=10.0,
                                       radius=0.0, k_p=8e6)
        gen_static = build_generator(atom, 1e5, 1e6, rotation_rate=0.0,
                                     radius=0.0, k_p=8e6)
        assert np.array_equal(gen_spinning.m, gen_static.m)

    def test_doppler_shift_equals_detuning_shift(self):
        # Omega*R*k_p enters exactly like a common shift of both detunings
        atom = make_atom(gamma13=1e3)
        omega, radius, k_p = 1e-3, 1.5e-3, 8.05e6
        shift = omega * radius * k_p
        gen_rot = build_generator(atom, 1e5, 1e6, delta2=1e5, delta3=-2e5,
                                  rotation_rate=omega, radius=radius, k_p=k_p)
        gen_shift = build_generator(atom, 1e5, 1e6, delta2=1e5 + shift,
                                    delta3=-2e5 + shift)
        assert np.abs(gen_rot.m - gen_shift.m).max() < 1e-25


class TestSteadyState:
    def test_probe_off_all_population_in_ground(self):
        gen = build_generator(make_atom(), 0.0, 1e6)
        rho = steady_state(gen, n=1.0)
        assert rho.rho[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(rho.rho).sum() == pytest.approx(1.0, abs=1e-12)

    def test_adiabatic_elimination_weak_probe(self):
        s = 1e-4
        rabi_c = 1e6
        rabi_p = math.sqrt(s) * rabi_c
        gen = build_generator(make_atom(), rabi_p, rabi_c)
        rho = steady_state(gen, n=1.0)
        # dark state: rho13 = -(rabi_p/rabi_c) * n + O(s), rho22 = O(s^2)
        assert rho.rho[0, 2] == pytest.approx(-rabi_p / rabi_c, rel=2 * s)
        assert abs(rho.rho[1, 1]) <= s**2

    def test_matches_time_integration_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            p = random_lambda_params(rng)
            atom = make_atom(p["gamma1"], p["gamma3"], p["gamma13"])
            gen = build_generator(atom, p["rabi_p"], p["rabi_c"],
                                  p["delta2"], p["delta3"],
                                  rotation_rate=p["doppler"], radius=1.0,
                                  k_p=1.0)
            rho = steady_state(gen, n=1.0)
            rho_t = evolve_to_steady(gen, n=1.0)
            assert np.abs(rho.rho - rho_t).max() <= 1e-8

    def test_invariants_on_random_draws(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            p = random_lambda_params(rng)
            atom = make_atom(p["gamma1"], p["gamma3"], p["gamma13"])
            gen = build_generator(atom, p["rabi_p"], p["rabi_c"],
                                  p["delta2"], p["delta3"])
            rho = steady_state(gen, n=1.0)
            assert np.abs(rho.rho - rho.rho.conj().T).max() <= 1e-10
            assert abs(rho.rho.trace() - 1.0) <= 1e-10
            assert np.diag(rho.rho).real.min() >= -1e-10
            vec = rho.rho.reshape(9)
            assert (np.linalg.norm(gen.m @ vec)
                    <= 1e-9 * np.linalg.norm(gen.m) * np.linalg.norm(vec))

    def test_hermiticity_residual_is_the_solve_before_symmetrising(self):
        # rho is made Hermitian after the solve, so a residual measured on
        # the returned rho would be 0 by construction
        rng = np.random.default_rng(5)
        residuals = []
        for _ in range(500):
            p = random_lambda_params(rng)
            atom = make_atom(p["gamma1"], p["gamma3"], p["gamma13"])
            gen = build_generator(atom, p["rabi_p"], p["rabi_c"],
                                  p["delta2"], p["delta3"],
                                  rotation_rate=p["doppler"], radius=1.0,
                                  k_p=1.0)
            rho = steady_state(gen, n=1.0)
            assert np.array_equal(rho.rho, rho.rho.conj().T)
            residuals.append(rho.hermiticity_residual)
        assert max(residuals) <= 1e-10
        assert max(residuals) > 0.0

    def test_norm_scales_linearly(self):
        gen = build_generator(make_atom(gamma13=1e3), 3e5, 1e6, delta2=1e6)
        rho1 = steady_state(gen, n=1.0)
        rho2 = steady_state(gen, n=2.5e18)
        assert np.abs(rho2.rho - 2.5e18 * rho1.rho).max() <= 1e-9 * 2.5e18

    def test_strong_detuned_probe_keeps_populations_positive(self):
        # strong probe with large, unequal detunings: the steady state stays
        # a density matrix and the time evolution agrees
        atom = make_atom(gamma1=1.496e7, gamma3=6.422e6, gamma13=1723.0)
        gen = build_generator(atom, 2.25e7, 1.57e7, delta2=-6.384e7,
                              delta3=-2.807e7)
        rho = steady_state(gen, n=1.0)
        assert np.linalg.eigvalsh(rho.rho)[0] >= 0.0
        rho_t = evolve_to_steady(gen, n=1.0)
        assert np.abs(rho.rho - rho_t).max() <= 1e-8

    def test_no_negative_population_on_random_draws(self):
        rng = np.random.default_rng(2024)
        worst = math.inf
        for _ in range(5000):
            p = random_lambda_params(rng)
            atom = make_atom(p["gamma1"], p["gamma3"], p["gamma13"])
            gen = build_generator(atom, p["rabi_p"], p["rabi_c"],
                                  p["delta2"], p["delta3"],
                                  rotation_rate=p["doppler"], radius=1.0,
                                  k_p=1.0)
            worst = min(worst, np.linalg.eigvalsh(steady_state(gen).rho)[0])
        assert worst >= -1e-10

    def test_strong_dephasing_gives_a_density_matrix(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = steady_state(strong_dephasing_generator(), n=1.0)
        assert rho.rho[0, 0].real == pytest.approx(0.32868, rel=1e-4)
        assert np.linalg.eigvalsh(rho.rho)[0] >= 0.0

    def test_degenerate_system_raises_with_null_dimension(self):
        atom = AtomSpecies(mass=RB87.mass, dipole_p=RB87.dipole_p,
                           gamma1=0.0, gamma3=0.0, gamma13=0.0)
        gen = build_generator(atom, 0.0, 1e6)
        with pytest.raises(DegenerateSteadyStateError) as err:
            steady_state(gen, n=1.0)
        assert err.value.null_dim == 2

    def test_refuses_negative_eigenvalue(self):
        # M = I - v v^dagger / |v|^2 has the one null vector v, a state of
        # unit trace with a population of -0.1: solved to roundoff, but not
        # a density matrix
        v = np.diag([1.1, 0.0, -0.1]).astype(complex).reshape(9)
        gen = BlochGenerator(np.eye(9) - np.outer(v, v.conj()) / (v @ v))
        with pytest.raises(DegenerateSteadyStateError,
                           match=r"smallest eigenvalue -1\.000e-01$"):
            steady_state(gen, n=1.0)

    def test_overflowed_solve_refused(self):
        # finite fields near the float64 limit overflow the solve to a
        # non-finite rho, which has no eigenvalues to judge
        gen = build_generator(make_atom(1.0, 1.0, 1.0), 1e308, 1e308,
                              delta2=1e308)
        with np.errstate(all="ignore"), pytest.raises(
                DegenerateSteadyStateError, match="smallest eigenvalue nan"):
            steady_state(gen, n=1.0)


class TestCoherence:
    def test_pure_ground_state_has_no_coherence(self):
        gen = build_generator(make_atom(), 0.0, 1e6)
        assert steady_state(gen, 1.0).rho[1, 0] == 0.0

    def test_dark_state_carries_no_optical_coherence(self):
        gen = build_generator(make_atom(gamma13=0.0), 1e5, 1e6)
        assert abs(steady_state(gen, 1.0).rho[1, 0]) <= 1e-12

    def test_absorptive_sign_and_magnitude_vs_susceptibility(self):
        # weak probe, small dephasing: -(g2rho/c) Im rho21 / rabi_p must
        # reproduce k_p chi'' from the closed form
        lam = 780.24e-9
        k_p = 2 * math.pi / lam
        v_rec = hbar * k_p / RB87.mass
        gamma13 = 50.0
        atom = make_atom(gamma13=gamma13)
        rabi_c = 1e6
        rabi_p = 1e3 * math.sqrt(1e-6)
        xi = 1e4  # beta close to 1
        tan2 = c / (v_rec * xi)
        g2rho = tan2 * rabi_c**2
        gen = build_generator(atom, rabi_p, rabi_c)
        rho21 = steady_state(gen, 1.0).rho[1, 0]
        assert rho21.imag < 0.0
        rate_bloch = -(g2rho / c) * rho21.imag / rabi_p
        rate_closed = absorption_exact(tan2, (rabi_p / rabi_c) ** 2, gamma13,
                                       v_rec)
        assert rate_bloch == pytest.approx(rate_closed, rel=1e-2)

    def test_saturating_dispersion_matches_steady_state(self):
        # the medium part of the phase rate extracted from rho21(+-Omega)
        # must carry the (1+s)^-2 saturation of the closed-form dispersion
        lam = 780.24e-9
        k_p = 2 * math.pi / lam
        v_rec = hbar * k_p / RB87.mass
        atom = make_atom(gamma13=0.0)
        rabi_c = 1e6
        radius = 1.5e-3
        omega = 1e-4
        for s in (1e-3, 0.5, 2.0):
            rabi_p = math.sqrt(s) * rabi_c
            tan2 = c / (v_rec * 2.0)
            g2rho = tan2 * rabi_c**2
            sides = []
            for sign in (1.0, -1.0):
                gen = build_generator(atom, rabi_p, rabi_c,
                                      rotation_rate=sign * omega,
                                      radius=radius, k_p=k_p)
                sides.append(steady_state(gen, 1.0).rho[1, 0])
            odd_part = (sides[0] - sides[1]) / 2.0
            rate = -(g2rho / c) * odd_part.real / rabi_p
            expected = (k_p * omega * radius / c) * tan2 / (1.0 + s) ** 2
            assert rate == pytest.approx(expected, rel=1e-6)
