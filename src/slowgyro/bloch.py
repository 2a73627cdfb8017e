"""Local density-matrix generator of the Lambda system in the rotating frame.

The single-particle density matrix rho_{mu nu} (mu, nu in {1,2,3}) of the
probe/control driven three-level atom obeys a local linear system

    d rho / dt = (M + v_rec * D * d/dx) rho

once nonlocal coherence-gradient couplings are dropped (they are smaller
than the optical-coherence damping gamma2/2 by a factor ~ k_p*Omega*R /
(gamma2/2)).  Rotation enters M only through Doppler-like shifts
Omega*R*k_p on the optical and Raman coherences, and enters the drift only
through Omega*R, which the steady-state solve neglects.

Vectorization order is fixed as
    (rho11, rho12, rho13, rho21, rho22, rho23, rho31, rho32, rho33)
i.e. the row-major flattening of the 3x3 matrix.  The trace constraint
sum_mu rho_mumu = n eliminates rho33 and produces the reduced 8x8 system
solved for the steady state.

The bare equation for rho23 carries a typographically garbled detuning
term in its usual statement; it is implemented as
-(i(delta2 - delta3) + gamma2/2) rho23 by symmetry with the rho12 equation
and listed in BlochGenerator.interpreted_terms.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateEITError, DegenerateSteadyStateError,
                     NonpositiveStateWarning, ParameterError)
from .params import AtomSpecies

__all__ = [
    "DensityMatrix",
    "BlochGenerator",
    "build_generator",
    "steady_state",
]

# index of the conjugate element under (i,j) -> (j,i) in the fixed order
_CONJ = (0, 3, 6, 1, 4, 7, 2, 5, 8)

_HERM_TOL = 1e-10


@dataclass
class DensityMatrix:
    """3x3 complex density matrix normalized to trace = norm."""

    rho: np.ndarray  # (3,3) complex
    norm: float

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=complex)
        if self.rho.shape != (3, 3):
            raise ParameterError(f"rho must be 3x3, got {self.rho.shape}")

    @property
    def rho21(self) -> complex:
        """Optical coherence sourcing the probe polarization."""
        return complex(self.rho[1, 0])

    def validate(self):
        """Check hermiticity, trace and diagonal reality; raises on violation
        beyond the 1e-10 tolerances.  A genuinely negative population only
        warns: far from the EIT regime the local model equations themselves
        converge to such states, so rejecting them would misreport the
        model's own steady state."""
        scale = max(abs(self.norm), 1e-300)
        herm = np.abs(self.rho - self.rho.conj().T).max()
        if herm > _HERM_TOL * scale:
            raise ParameterError(f"density matrix not hermitian: residual {herm:.3e}")
        tr = self.rho.trace()
        if abs(tr - self.norm) > _HERM_TOL * scale:
            raise ParameterError(f"trace {tr} != norm {self.norm}")
        diag = np.diag(self.rho)
        if np.abs(diag.imag).max() > _HERM_TOL * scale:
            raise ParameterError("diagonal entries are not real")
        if diag.real.min() < -_HERM_TOL * scale:
            warnings.warn(
                f"steady state carries a negative population "
                f"({diag.real.min():.3e}); the operating point is outside "
                "the positivity domain of the local model equations",
                NonpositiveStateWarning, stacklevel=2)
        return self


@dataclass
class BlochGenerator:
    """Local generator M, drift matrix D and the constraint-reduced system.

    M is the 9x9 generator acting on the vectorized density matrix; D holds
    the coefficients of v_rec * d/dx in the compact transport form (zero on
    the rho11 row, one elsewhere).  reduced_m is the 8x8 matrix with rho33
    eliminated through the trace constraint, and source is the 8-vector
    multiplying the constraint value n in the inhomogeneity.
    drift_velocity lists the full per-row drift speeds (Omega*R terms
    included) for diagnostic use only.
    """

    m: np.ndarray                  # (9,9) complex
    d: np.ndarray                  # (9,9) real
    reduced_m: np.ndarray          # (8,8) complex
    source: np.ndarray             # (8,) complex, times n
    drift_velocity: np.ndarray     # (9,) real, m/s
    gamma2: float
    k_p: float = 0.0
    v_rec: float = 0.0
    rotation_rate: float = 0.0
    radius: float = 0.0
    interpreted_terms: tuple = field(default=(
        "rho23 detuning read as -(i(delta2-delta3)+gamma2/2)",))


def build_generator(atom: AtomSpecies, rabi_p: complex, rabi_c: complex,
                    delta2: float = 0.0, delta3: float = 0.0,
                    rotation_rate: float = 0.0, radius: float = 0.0,
                    k_p: float = 0.0, v_rec: float = 0.0) -> BlochGenerator:
    """Assemble the local generator for given fields, detunings and rotation.

    rabi_p and rabi_c may be complex; rabi_c must be nonzero for the medium
    to be dressed at all.
    """
    if rabi_c == 0:
        raise DegenerateEITError("control field is zero: no EIT dressing")
    g1, g3, g13 = atom.gamma1, atom.gamma3, atom.gamma13
    g2 = atom.gamma2
    op, oc = complex(rabi_p), complex(rabi_c)
    doppler = rotation_rate * radius * k_p

    m = np.zeros((9, 9), dtype=complex)

    # populations
    m[0, 4] += g1
    m[0, 3] += -1j * op.conjugate()
    m[0, 1] += 1j * op

    m[4, 4] += -g2
    m[4, 3] += 1j * op.conjugate()
    m[4, 1] += -1j * op
    m[4, 5] += 1j * oc.conjugate()
    m[4, 7] += -1j * oc

    m[8, 4] += g3
    m[8, 5] += -1j * oc.conjugate()
    m[8, 7] += 1j * oc

    # coherences rho12, rho13, rho23
    m[1, 1] += -(1j * (delta2 + doppler) + 0.5 * g2)
    m[1, 2] += 1j * oc.conjugate()
    m[1, 4] += -1j * op.conjugate()
    m[1, 0] += 1j * op.conjugate()

    m[2, 2] += -(1j * (delta3 + doppler) + g13)
    m[2, 5] += -1j * op.conjugate()
    m[2, 1] += 1j * oc

    m[5, 5] += -(1j * (delta2 - delta3) + 0.5 * g2)
    m[5, 2] += -1j * op
    m[5, 8] += -1j * oc
    m[5, 4] += 1j * oc

    # conjugate rows: d/dt rho_nu,mu = conj(d/dt rho_mu,nu)
    for row, src in ((3, 1), (6, 2), (7, 5)):
        for col in range(9):
            m[row, _CONJ[col]] = m[src, col].conjugate()

    d = np.eye(9)
    d[0, 0] = 0.0

    # reduce with rho33 = n - rho11 - rho22
    keep = list(range(8))
    reduced = m[np.ix_(keep, keep)].copy()
    reduced[:, 0] -= m[keep, 8]
    reduced[:, 4] -= m[keep, 8]
    source = m[keep, 8].copy()

    drift = np.full(9, rotation_rate * radius + v_rec)
    drift[0] = rotation_rate * radius

    return BlochGenerator(m=m, d=d, reduced_m=reduced, source=source,
                          drift_velocity=drift, gamma2=g2, k_p=k_p,
                          v_rec=v_rec, rotation_rate=rotation_rate,
                          radius=radius)


def _null_dimension(a: np.ndarray) -> int:
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return a.shape[0]
    return int(np.sum(s < 1e-10 * s[0]))


def steady_state(gen: BlochGenerator, n: float = 1.0) -> DensityMatrix:
    """Steady state of M under the trace constraint sum rho_mumu = n.

    Solves the reduced 8x8 linear system; raises
    DegenerateSteadyStateError naming the null-space dimension when the
    constrained system is singular (for example with all decay switched
    off and no probe, where dark subspaces are degenerate).
    """
    rhs = -n * gen.source
    try:
        red = np.linalg.solve(gen.reduced_m, rhs)
    except np.linalg.LinAlgError:
        raise DegenerateSteadyStateError(_null_dimension(gen.reduced_m)) from None
    residual = np.linalg.norm(gen.reduced_m @ red - rhs)
    scale = np.linalg.norm(gen.reduced_m) * np.linalg.norm(red) + np.linalg.norm(rhs)
    if scale > 0 and not residual <= 1e-9 * scale:
        raise DegenerateSteadyStateError(
            _null_dimension(gen.reduced_m),
            f"ill-conditioned steady-state solve (residual {residual:.3e})")

    vec = np.empty(9, dtype=complex)
    vec[:8] = red
    vec[8] = n - vec[0] - vec[4]
    rho = vec.reshape(3, 3)
    # scrub solver roundoff so the invariants hold exactly where they should
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(rho=rho, norm=n).validate()
