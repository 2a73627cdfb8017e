"""Exception and warning types shared across the toolkit."""


class ParameterError(ValueError):
    """A physical input is outside its validity domain (non-positive mass,
    medium longer than the ring circumference, relativistic rim speed, ...)."""


class DegenerateEITError(ParameterError):
    """The control field is zero, so there is no EIT dressing to work with."""


class DegenerateSteadyStateError(RuntimeError):
    """The constrained Bloch system is singular: the steady state is not
    unique.  Carries the dimension of the null space of the reduced system."""

    def __init__(self, null_dim: int, message: str = ""):
        self.null_dim = null_dim
        super().__init__(
            message or f"steady state not unique: reduced system has a "
            f"{null_dim}-dimensional null space"
        )


class IntegrationError(RuntimeError):
    """The fixed-step field integrator could not keep the per-step change
    below its safety threshold even after grid refinement."""

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
    """Operating point violates an assumption behind the closed-form
    susceptibility (nonzero detuning, or control power too low)."""


class WeakFieldWarning(UserWarning):
    """Probe intensity is outside the weak-field regime of the perturbative
    phase formula."""


class LowCountWarning(UserWarning):
    """Fewer than one quantum reaches the detector; the shot-noise formula
    is not meaningful there."""


class ThermalRegimeWarning(UserWarning):
    """Temperature is not large against the ring level spacing, so the
    closed-form thermal phase is outside its validity range."""


class ExpansionWarning(UserWarning):
    """The characteristic-length expansion parameter is not small; the
    first-order drift correction may be inaccurate."""


class NonpositiveStateWarning(UserWarning):
    """The steady state carries a (small) negative population.  The local
    model equations are not completely positive arbitrarily far from the
    EIT regime (strong probe, large detuning), and the time evolution
    genuinely converges to such states there."""
