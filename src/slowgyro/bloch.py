"""Local density-matrix generator of the Lambda system in the rotating frame.

The single-particle density matrix rho_{mu nu} (mu, nu in {1,2,3}) of the
probe/control driven three-level atom obeys the local linear system

    d rho / dt = M rho

once nonlocal coherence-gradient couplings are dropped (they are smaller
than the optical-coherence damping gamma2/2 by a factor ~ k_p*Omega*R /
(gamma2/2)) and the transport drift (v_rec + Omega*R) d/dx is neglected.
Rotation enters M only through the Doppler-like shift D_rot = Omega*R*k_p
of both detunings.

M rho = -i[H, rho] + L(rho), with the rotating-frame Hamiltonian

        | 0      rabi_p*              0                  |
    H = | rabi_p -(delta2 + D_rot)    rabi_c             |
        | 0      rabi_c*              -(delta3 + D_rot)  |

and the Lindblad dissipator L = sum_k D[L_k], D[L] rho = L rho L^dagger -
{L^dagger L, rho}/2, of the jumps sqrt(gamma1)|1><2| and sqrt(gamma3)|3><2|
(level 2 decays at gamma2 = gamma1 + gamma3) and sqrt(gamma13/2)(|1><1| -
|3><3|), which damps rho13 at gamma13 and the optical coherences rho12,
rho23 at gamma2/2 + gamma13/4, each with its conjugate.

Vectorization order is fixed as
    (rho11, rho12, rho13, rho21, rho22, rho23, rho31, rho32, rho33)
i.e. the row-major flattening of the 3x3 matrix, in which -i[H, rho]
becomes -i(H x 1 - 1 x H^T) vec(rho).
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateEITError, DegenerateSteadyStateError,
                     ParameterError)
from .params import AtomSpecies

__all__ = [
    "DensityMatrix",
    "BlochGenerator",
    "build_generator",
    "steady_state",
]

_EYE3 = np.eye(3)
_TRACE_ROW = _EYE3.reshape(9)

_TOL = 1e-10  # hermiticity, trace and eigenvalue tolerance, relative to n


def _dissipator(j: np.ndarray) -> np.ndarray:
    """D[j] of a real jump j, row-major: vec(A X B) = (A x B^T) vec(X)."""
    jdj = j.T @ j
    return np.kron(j, j) - 0.5 * (np.kron(jdj, _EYE3) + np.kron(_EYE3, jdj))


# unit-rate D[L] of L = |1><2|, |3><2| and |1><1| - |3><3|
_DECAY1, _DECAY3, _DEPHASE = map(_dissipator, (
    np.outer(_EYE3[0], _EYE3[1]), np.outer(_EYE3[2], _EYE3[1]),
    np.diag([1.0, 0.0, -1.0])))


@dataclass
class DensityMatrix:
    """3x3 complex density matrix normalized to trace = norm, with the
    residuals steady_state checked it against."""

    rho: np.ndarray  # (3,3) complex, Hermitian
    norm: float
    # max|rho - rho^dagger| of the solve before symmetrising
    hermiticity_residual: float
    # |M vec rho| / (|M| |vec rho|)
    generator_residual: float
    # |tr rho - norm|
    trace_residual: float


@dataclass
class BlochGenerator:
    """Local generator M of the Lambda system: the 9x9 matrix acting on the
    vectorized density matrix."""

    m: np.ndarray  # (9,9) complex


def build_generator(atom: AtomSpecies, rabi_p: complex, rabi_c: complex,
                    delta2: float = 0.0, delta3: float = 0.0,
                    rotation_rate: float = 0.0, radius: float = 0.0,
                    k_p: float = 0.0, v_rec: float = 0.0) -> BlochGenerator:
    """Assemble the local generator for given fields, detunings and rotation.

    rabi_p and rabi_c may be complex; rabi_c must be nonzero for the medium
    to be dressed at all.  v_rec sets the transport drift, which M leaves
    out (see the module docstring), so it changes nothing here.  gamma13
    is the rate of the dephasing jump sqrt(gamma13/2)(|1><1| - |3><3|).
    """
    if rabi_c == 0:
        raise DegenerateEITError("control field is zero: no EIT dressing")
    op, oc = complex(rabi_p), complex(rabi_c)
    delta2, delta3 = float(delta2), float(delta3)
    doppler = rotation_rate * radius * k_p
    # the diagonal of M holds delta2 + D, delta3 + D, delta3 - delta2 and
    # gamma sums; Python floats overflow to inf here without a warning,
    # where numpy would warn on building M
    if not all(map(cmath.isfinite, (delta2, delta3, doppler, op, oc,
                                    delta2 + doppler, delta3 + doppler,
                                    delta3 - delta2))):
        raise ParameterError("detunings delta2, delta3, their difference and "
                             "their sums with Omega*R*k_p, and the Rabi "
                             "frequencies must be finite")
    if not math.isfinite(atom.gamma1 + atom.gamma3 + atom.gamma13):
        raise ParameterError("decay rates gamma1 + gamma3 + gamma13 must "
                             "sum to a finite number")
    h = np.array([[0.0, op.conjugate(), 0.0],
                  [op, -(delta2 + doppler), oc],
                  [0.0, oc.conjugate(), -(delta3 + doppler)]])

    m = -1j * (np.kron(h, _EYE3) - np.kron(_EYE3, h.T))
    m += atom.gamma1 * _DECAY1 + atom.gamma3 * _DECAY3
    m += 0.5 * atom.gamma13 * _DEPHASE
    return BlochGenerator(m=m)


def _null_dimension(a: np.ndarray) -> int:
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return a.shape[0]
    return int(np.sum(s < 1e-10 * s[0]))


def steady_state(gen: BlochGenerator, n: float = 1.0) -> DensityMatrix:
    """Steady state of M under the trace constraint sum rho_mumu = n.

    Solves M vec(rho) = 0 with the rho33 row, which the other two
    population rows determine, replaced by the trace row, and returns the
    Hermitian part with the residuals of the solve.  Raises
    DegenerateSteadyStateError naming the null-space dimension when the
    constrained system is singular (for example with all decay switched
    off and no probe, where dark subspaces are degenerate), or when the
    generator residual exceeds 1e-9 or the hermiticity or trace residual
    or minus rho's smallest eigenvalue exceeds 1e-10*|n|.
    """
    a = gen.m.copy()
    scale = np.abs(a).max()  # trace row on M's scale: trace exact to roundoff
    a[8] = scale * _TRACE_ROW
    rhs = np.zeros(9, dtype=complex)
    rhs[8] = scale * n
    try:
        vec = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        raise DegenerateSteadyStateError(_null_dimension(a)) from None

    rho = vec.reshape(3, 3)
    herm = float(np.abs(rho - rho.conj().T).max())
    # scrub solver roundoff so the invariants hold exactly where they should
    rho = 0.5 * (rho + rho.conj().T)
    vec = rho.reshape(9)
    generator = float(np.linalg.norm(gen.m @ vec) / max(
        np.linalg.norm(gen.m) * np.linalg.norm(vec), 1e-300))
    trace = float(abs(rho.trace() - n))
    finite = np.isfinite(rho).all()  # eigvalsh diverges on an overflowed solve
    low = float(np.linalg.eigvalsh(rho)[0]) if finite else np.nan
    tol = _TOL * max(abs(n), 1e-300)
    if not (generator <= 1e-9 and max(herm, trace, -low) <= tol):
        raise DegenerateSteadyStateError(
            _null_dimension(a),
            f"ill-conditioned steady-state solve: generator residual "
            f"{generator:.3e}, hermiticity residual {herm:.3e}, trace "
            f"residual {trace:.3e}, smallest eigenvalue {low:.3e}")
    return DensityMatrix(rho, n, herm, generator, trace)
