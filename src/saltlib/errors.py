"""Exception taxonomy for hybrid-system simulation and analysis.

Every error raised deliberately by this package derives from SaltlibError,
so callers can catch one base class at an API boundary.
"""

from __future__ import annotations


class SaltlibError(Exception):
    """Base class for all errors raised by saltlib."""


class NonFiniteState(SaltlibError):
    """A state, derivative, or matrix entry became NaN or infinite."""


class AmbiguousEvent(SaltlibError):
    """Two or more guards cross zero within one localization tolerance."""

    def __init__(self, msg: str, t: float | None = None, transition_indices=()):
        super().__init__(msg)
        self.t = t
        self.transition_indices = tuple(transition_indices)


class TangentialEvent(SaltlibError):
    """Guard crossing with |D_t g + D_x g . f| below the transversality floor."""

    def __init__(self, msg: str, t: float | None = None, derivative: float | None = None):
        super().__init__(msg)
        self.t = t
        self.derivative = derivative


class DegenerateGuard(SaltlibError):
    """Guard spatial gradient vanishes at a located event."""


class ZenoSuspected(SaltlibError):
    """Event count exceeded max_events; accumulation point suspected.

    From `simulate` it carries the partial trajectory so callers can inspect
    the event cascade; the oracles, which record no trajectory, leave it None.
    """

    def __init__(self, msg: str, trajectory=None):
        super().__init__(msg)
        self.trajectory = trajectory


class NotPeriodic(SaltlibError):
    """Trajectory endpoints do not close up within the periodicity tolerance."""


class SingularConstraint(SaltlibError):
    """Constraint block J M^-1 J^T is singular (rank-deficient contact Jacobian)."""


class SlidingSingularity(SaltlibError):
    """Coulomb direction undefined: tangential speed at or below the slide floor."""


class SingularInputPenalty(SaltlibError):
    """Input penalty matrix not positive definite in the LQR backward pass."""


class EventOrderChanged(SaltlibError):
    """A perturbed rollout triggered a different event sequence than the nominal."""


class SplitDistribution(SaltlibError):
    """More than 1% of Monte Carlo samples took a different event sequence."""

    def __init__(self, msg: str, fraction: float | None = None):
        super().__init__(msg)
        self.fraction = fraction


class SchemaError(SaltlibError):
    """Input document violates the expected schema.

    `path` is a JSON pointer to the first violating element.
    """

    def __init__(self, path: str, msg: str):
        super().__init__(f"{path}: {msg}")
        self.path = path
        self.reason = msg


class EventLocalizationError(SaltlibError):
    """Bisection failed to drive the guard residual inside tolerance."""
