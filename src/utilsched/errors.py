"""Exception types shared across solver modules."""


class ConvergenceError(RuntimeError):
    """Iterative solve hit its iteration cap before meeting tolerance.

    Carries the partial result (a trace or report object) in ``diagnostics``
    so the failing instance can be inspected and replayed.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class DegenerateBudgetError(ValueError):
    """A power budget cannot be met (e.g. every sampled gain is zero)."""


# what a numerically failing run raises: caught per sweep point, exit code 3
NUMERIC_ERRORS = (ConvergenceError, DegenerateBudgetError, ValueError, FloatingPointError)
