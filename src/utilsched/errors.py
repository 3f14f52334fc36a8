"""Exception types shared across solver modules."""


class ConvergenceError(RuntimeError):
    """Iterative solve hit its iteration cap before meeting tolerance.

    Carries the partial result (a trace or report object) in ``diagnostics``
    so the failing instance can be inspected and replayed.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class ConfigError(ValueError):
    """A setting is malformed or out of its range; the CLI exits 2 on it."""


class DegenerateBudgetError(ValueError):
    """A power budget cannot be met (e.g. every sampled gain is zero)."""


class InvariantError(RuntimeError):
    """A result broke a property its algorithm guarantees, such as shares
    summing to 1: a defect in the program, not a numeric failure of the run."""


# what a numerically failing run raises: caught per sweep point, exit code 3;
# an InvariantError is left out so that it escapes
NUMERIC_ERRORS = (ConvergenceError, DegenerateBudgetError, ValueError, FloatingPointError)
