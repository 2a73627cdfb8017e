"""Independent oracles shared by the test modules.

These deliberately avoid the code paths they check: the Bloch generator
is rebuilt column by column from its action on the basis matrices, the
steady state is cross-checked by matrix-exponential time evolution, the SNR optimum by a
brute grid plus a scipy polish, quadratures by closed forms, the loss bound
by the exact power-dependent absorption, the detector count by the raw beam
power, the thermal winding number by a 40-digit direct Boltzmann sum.  They
share only the package's physical constants.
"""

import decimal
import math

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize

from slowgyro._constants import c, epsilon_0, hbar, k_B
from slowgyro.sensitivity import shape_factor


def liouvillian_by_basis(gamma1, gamma3, gamma13, rabi_p, rabi_c,
                         delta2=0.0, delta3=0.0):
    """The 9x9 Bloch generator in the row-major vec order, built by
    applying -i[H, E] plus the dissipator to each basis matrix E.  The
    dissipator is the Lindblad form of the jump operators sqrt(gamma1)|1><2|
    and sqrt(gamma3)|3><2|, the decay of level 2, and of the dephasing
    operator sqrt(gamma13/2)(|1><1| - |3><3|)."""
    h = np.array([[0.0, np.conj(rabi_p), 0.0],
                  [rabi_p, -delta2, rabi_c],
                  [0.0, np.conj(rabi_c), -delta3]], dtype=complex)
    jumps = [math.sqrt(gamma13 / 2) * np.diag([1.0, 0.0, -1.0])]
    for rate, lower in ((gamma1, 0), (gamma3, 2)):
        jump = np.zeros((3, 3), dtype=complex)
        jump[lower, 1] = math.sqrt(rate)
        jumps.append(jump)

    def rhs(rho):
        out = -1j * (h @ rho - rho @ h)
        for jump in jumps:
            jdag_j = jump.conj().T @ jump
            out += (jump @ rho @ jump.conj().T
                    - 0.5 * (jdag_j @ rho + rho @ jdag_j))
        return out

    m = np.empty((9, 9), dtype=complex)
    for k in range(9):
        basis = np.zeros((3, 3), dtype=complex)
        basis[k // 3, k % 3] = 1.0
        m[:, k] = rhs(basis).reshape(9)
    return m


def evolve_to_steady(gen, n=1.0, horizon_factor=60.0):
    """Propagate rho(0) = n|1><1| under d rho/dt = M rho long enough for
    every decaying mode to die out; returns the 3x3 matrix at the end."""
    eigvals = np.linalg.eigvals(gen.m)
    rates = np.abs(eigvals.real)
    nonzero = rates[rates > 1e-12 * max(rates.max(), 1.0)]
    if nonzero.size == 0:
        raise ValueError("generator has no decaying modes")
    t_final = horizon_factor / nonzero.min()
    rho0 = np.zeros(9, dtype=complex)
    rho0[0] = n
    return (expm(gen.m * t_final) @ rho0).reshape(3, 3)


def brute_optimum(a, n_grid=400):
    """Grid + Nelder-Mead maximum of the SNR shape factor."""
    ls = np.linspace(np.log(1e-4), np.log(1e2), n_grid)
    lx = np.linspace(np.log(a / 1e3), np.log(a * 1e3), n_grid)
    s_grid, x_grid = np.meshgrid(np.exp(ls), np.exp(lx), indexing="ij")
    vals = shape_factor(s_grid, x_grid, a)
    i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
    res = minimize(
        lambda p: -shape_factor(np.exp(p[0]), np.exp(p[1]), a),
        [ls[i], lx[j]], method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 20000})
    s_opt, xi_opt = np.exp(res.x)
    return float(s_opt), float(xi_opt), float(-res.fun)


def random_lambda_params(rng, gamma=1e7):
    """One randomized Lambda-system parameter draw: log-uniform complex Rabi
    frequencies, detunings within +-10 gamma, nonzero dephasing."""
    def log_uniform(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    rabi_p = log_uniform(0.1 * gamma, 10 * gamma) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    rabi_c = log_uniform(0.5 * gamma, 20 * gamma) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return {
        "gamma1": gamma * rng.uniform(0.5, 1.5),
        "gamma3": gamma * rng.uniform(0.5, 1.5),
        "gamma13": log_uniform(1e-4 * gamma, 1e-1 * gamma),
        "rabi_p": rabi_p,
        "rabi_c": rabi_c,
        "delta2": rng.uniform(-10, 10) * gamma,
        "delta3": rng.uniform(-10, 10) * gamma,
        "doppler": rng.uniform(-0.3, 0.3) * gamma,
    }


def absorption_exact(tan2_theta, s, gamma13, v_rec):
    """Exact amplitude absorption k_p * chi'' at saturation s,
    (gamma13 / c) * T / (1+s)^2 / beta with beta = 1 + (v_rec/c) T / (1+s)^3
    and T = tan^2(theta); never above the bound gamma13 * T / c."""
    sat2 = tan2_theta / (1.0 + s) ** 2
    beta = 1.0 + (v_rec / c) * tan2_theta / (1.0 + s) ** 3
    return (gamma13 / c) * sat2 / beta


def gamma_from_dipole(d_p, omega_p):
    """Radiative decay rate of the probe transition from its dipole moment,
    gamma = (1/4 pi eps0) * (4/3) * d_p^2 omega_p^3 / (hbar c^3)."""
    return d_p**2 * omega_p**3 / (3.0 * math.pi * epsilon_0 * hbar * c**3)


def detector_photons_from_power(rabi_p0, dipole_p, cross_section, omega_p,
                                t, kappa, medium_length):
    """Quanta counted in time t from the raw beam power,
    (2 eps0 F c / (hbar omega_p)) * (hbar rabi_p0 / d_p)^2 * t
    * e^(-2 kappa L_M)."""
    power_flux = 2.0 * epsilon_0 * cross_section * c \
        * (hbar * rabi_p0 / dipole_p) ** 2
    return power_flux / (hbar * omega_p) * t \
        * math.exp(-2.0 * kappa * medium_length)


def boltzmann_mean_decimal(rotation_rate, radius, mass, temperature):
    """Thermal mean winding number <n> as a Decimal: a direct sum of the
    Boltzmann weights exp(-(eps_n - eps_c) / k_B T) of the mode energies
    eps_n = n hbar Omega + n^2 hbar^2 / (2 m R^2) at 40 significant digits,
    over c +- (12 sigma + 10), c = round(n_0), sigma^2 = k_B T m R^2 / hbar^2.
    The float inputs enter exactly; offsets n - c keep the sum from
    cancelling, and Decimal exponents do not underflow."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        omega, r, m, h = (decimal.Decimal(x) for x in
                          (rotation_rate, radius, mass, hbar))
        kt = decimal.Decimal(k_B) * decimal.Decimal(temperature)
        kinetic = h * h / (2 * m * r * r)
        c = int((-m * omega * r * r / h).to_integral_value())
        half = int(12 * (kt / (2 * kinetic)).sqrt()) + 10
        num = den = decimal.Decimal(0)
        for j in range(-half, half + 1):
            w = (-(j * h * omega + ((c + j) ** 2 - c * c) * kinetic)
                 / kt).exp()
            num += j * w
            den += w
        return c + num / den
