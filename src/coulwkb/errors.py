"""Exception hierarchy for the library.

Every failure mode raised by the numerical kernels derives from
:class:`CoulwkbError`, so callers (and the CLI) can distinguish numerical
failures from programming errors.
"""


class CoulwkbError(Exception):
    """Base class for all library errors."""


class DomainError(CoulwkbError, ValueError):
    """Input outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation at a pole of the gamma function."""


class BranchPointError(DomainError):
    """Evaluation exactly at a branch point of a multivalued function."""


class BranchAmbiguityError(DomainError):
    """Value lies exactly on a square-root cut, leaving the sheet undefined."""


class BranchCutError(CoulwkbError):
    """An elementary-function argument landed exactly on a principal cut.

    The point is computable, but only with explicit sheet bookkeeping;
    callers should route the evaluation through the contour module.
    """


class OverflowSignal(CoulwkbError):
    """A result grew beyond the representable double range (e.g. Bi deep in
    the classically forbidden region).  Raised instead of returning inf."""


class ConvergenceError(CoulwkbError):
    """A series or iteration failed to reach the requested tolerance."""


class SeriesCancellationError(ConvergenceError):
    """Power-series summation lost too many digits to cancellation."""


class AsymptoticFailureError(ConvergenceError):
    """Smallest term of a divergent asymptotic series is above tolerance
    (the expansion variable is too small for the expansion to help)."""


class PathError(CoulwkbError):
    """An integration or contour path is invalid (touches the origin or the
    negative real axis cut ray)."""


class StepRefinementError(PathError):
    """Contour continuity could not be restored within the refinement limit."""


class ConditioningError(CoulwkbError):
    """A finite-difference stencil is ill-conditioned (e.g. spans the
    turning point)."""


class NoStrategyError(CoulwkbError):
    """Every regional evaluation strategy failed for the requested point."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
