"""Exception types shared across the package."""


class SnmlkitError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SnmlkitError, ValueError):
    """A parameter value lies outside the family's parameter domain."""


class UnsupportedPoint(DomainError):
    """An observation lies outside the closure of the family's support."""


class EmptyWindow(SnmlkitError, ValueError):
    """An estimation window selects no observations."""


class NonMonotone(SnmlkitError, ValueError):
    """A data transformation is not strictly monotone on the support."""


class QuadratureError(SnmlkitError, ArithmeticError):
    """Base class for numerical integration failures."""


class NonConvergence(QuadratureError):
    """The integrator could not reach the requested tolerance."""


class NanIntegrand(QuadratureError):
    """The integrand produced NaN inside the integration domain."""


class DivergentIntegral(SnmlkitError, ArithmeticError):
    """An integral required by an operation does not converge."""


class DivergentNormalizer(DivergentIntegral):
    """A strategy normalizer (Shtarkov integral or sum) diverges."""


class ImproperPosterior(DivergentIntegral):
    """The Jeffreys posterior does not normalize for the given history."""


class DifferentiationError(SnmlkitError, ValueError):
    """A closed-form variance function or one of its derivatives is undefined
    (or the variance not positive) at a mean."""
