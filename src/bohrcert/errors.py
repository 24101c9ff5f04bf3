"""Exception types shared across the package."""


class BohrcertError(Exception):
    """Base class for every error raised by this package."""


class ParameterOutOfRange(BohrcertError, ValueError):
    """A numeric argument violates its documented domain."""


# Raised only by series.reciprocal, which stays because perfbench's tracer wraps it.
class ZeroConstantTerm(BohrcertError, ArithmeticError):
    """Series reciprocal requested for a series vanishing at the origin."""


def check_shape(m, p, subject: str) -> None:
    """The lattice rule of a shape (m, p): 1 <= p and 0 <= m <= p."""
    if not (p >= 1 and 0 <= m <= p):
        raise ParameterOutOfRange(
            f"{subject} needs 1 <= p and 0 <= m <= p, got m={m}, p={p}")


class RadiusOutOfRange(ParameterOutOfRange):
    """Evaluation radius outside [0, 1)."""


class RadiusOutOfWindow(RadiusOutOfRange):
    """Evaluation radius outside the validity window of an envelope bound."""


class ShapeMismatch(BohrcertError, ValueError):
    """Profile or slice does not have the gap structure an operation needs."""


class OddGapRequired(ShapeMismatch):
    """Alternating-sign bounds are only stated for odd gap length."""


class UnknownTheorem(BohrcertError, ValueError):
    """Inequality identifier not in the catalog."""


class TruncationInsufficient(BohrcertError):
    """The certified tail bound of a truncated sum exceeds the tolerance.

    Carries the offending radius and the tail estimate so callers can
    resize instead of guessing.
    """

    def __init__(self, message, r=None, tail=None, tol=None):
        super().__init__(message)
        self.r = r
        self.tail = tail
        self.tol = tol


class NoSignChange(BohrcertError, ArithmeticError):
    """Bisection bracket endpoints do not straddle a root."""


class ToleranceTooSmall(BohrcertError, ValueError):
    """Requested tolerance cannot be met (nonpositive or below float spacing)."""


class DegenerateDirection(BohrcertError, ValueError):
    """Named slice families need a direction with nonzero first coordinate."""


class CampaignError(BohrcertError):
    """Wraps a module error with the (theorem, p, m, seed) context of a sweep."""

    def __init__(self, message, *, theorem=None, p=None, m=None, seed=None):
        super().__init__(message)
        self.theorem = theorem
        self.p = p
        self.m = m
        self.seed = seed
