"""Exception and warning types shared across the toolkit."""


class ParameterError(ValueError):
    """A physical input is outside its validity domain (non-positive mass,
    medium longer than the ring circumference, relativistic rim speed, ...)."""


class DegenerateEITError(ParameterError):
    """The control field is zero, so there is no EIT dressing to work with."""


class DegenerateSteadyStateError(RuntimeError):
    """The constrained Bloch system is singular, so the steady state is not
    unique, or so ill-conditioned that the solve misses its generator,
    hermiticity or trace residual bound or answers a rho with an
    eigenvalue below -1e-10 of its trace.  Carries the dimension of the
    null space of the constrained system."""

    def __init__(self, null_dim: int, message: str = ""):
        self.null_dim = null_dim
        super().__init__(
            message or f"steady state not unique: constrained system has a "
            f"{null_dim}-dimensional null space"
        )


class IntegrationError(RuntimeError):
    """The fixed-step field integrator cannot keep the per-step change
    kappa*h below 0.1 at 64 substeps per grid cell, that is
    kappa * grid spacing > 6.4; decided before any step is taken."""

    def __init__(self, message: str, max_step: float = 0.0, n_points: int = 0):
        self.max_step = max_step
        self.n_points = n_points
        super().__init__(message)


class BoundaryHitError(RuntimeError):
    """The SNR optimum lies outside the (s, xi) box the uniform-medium
    estimate is trusted on, or could not be located, so no trustworthy
    interior maximum is reported."""


class ConfigError(ValueError):
    """A run configuration failed validation.  Carries the offending key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


class EITConditionWarning(UserWarning):
    """Operating point violates an assumption behind the line-center EIT
    phase rates (nonzero detuning, or control power too low)."""


class WeakFieldWarning(UserWarning):
    """Probe intensity is outside the weak-field regime of the perturbative
    phase formula."""


class LowCountWarning(UserWarning):
    """Fewer than one quantum reaches the detector; the shot-noise formula
    is not meaningful there."""


class ThermalRegimeWarning(UserWarning):
    """The thermal ring gas is within a few level spacings hbar^2/(2 m R^2)
    of its ground mode: the Boltzmann mean winding number differs from the
    parabola minimum n_0 by over 1e-12 relative, and the closed-form thermal
    phase -2 pi n_0 by as much."""


class NonpositiveStateWarning(UserWarning):
    """A steady state carries a population below -1e-10 of its trace.
    Nothing raises it: bloch.steady_state refuses such a state with
    DegenerateSteadyStateError.  It stays importable for warning filters
    that name it."""
