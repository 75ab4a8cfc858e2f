"""Exception types shared across the toolkit."""


class ProxkitError(Exception):
    """Base class for all proxkit errors."""


class ProbeFailure(ProxkitError):
    """A finite-difference probe hit a non-finite function value."""


class InvalidModulus(ProxkitError):
    """A weak-convexity or strong-convexity modulus is out of range."""


class NonconvexSubproblem(ProxkitError):
    """The proximal parameter is too large for the function's weak
    convexity modulus, so the prox subproblem need not be convex."""


class BudgetExceeded(ProxkitError):
    """An iterative solve ran out of budget before hitting its tolerance.

    Carries the best point found and the residual it achieved.
    """

    def __init__(self, message, best_point=None, achieved=None):
        super().__init__(message)
        self.best_point = best_point
        self.achieved = achieved


class OracleFailure(ProxkitError):
    """An oracle returned a non-finite value or vector."""


class EmptyInput(ProxkitError):
    """An aggregate operation received an empty collection."""


class ConfigError(ProxkitError):
    """An experiment config failed validation."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
