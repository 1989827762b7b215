"""Exception hierarchy shared by all analysis modules."""

__all__ = [
    "DelayBifError", "InvalidSpec", "NoEquilibrium", "InvariantViolation",
    "DegenerateEpsilon", "NoConvergence", "Divergence", "StepTooLarge",
]


class DelayBifError(Exception):
    """Base class for every error raised by this package."""


class InvalidSpec(DelayBifError):
    """A model specification violates one of its declared parameter constraints."""


class NoEquilibrium(DelayBifError):
    """The model has no real equilibrium (e.g. negative quadratic discriminant)."""


class InvariantViolation(DelayBifError):
    """Derived quantities break an invariant (e.g. coefficients with b <= a)."""


class DegenerateEpsilon(DelayBifError):
    """epsilon = a/b falls outside [0, 1), where the Hopf formulas blow up."""


class NoConvergence(DelayBifError):
    """An iterative solver failed to reach its tolerance."""


class Divergence(DelayBifError):
    """The simulated trajectory left the divergence guard band (|x| > 1e6).

    The partially integrated trajectory, if any, is attached as ``trajectory``.
    """

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class StepTooLarge(DelayBifError):
    """Integration step violates the history-resolution bound dt <= tau/20."""
