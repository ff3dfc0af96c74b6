"""Exception hierarchy shared by all mbbox modules."""


class MbboxError(Exception):
    """Base class for all mbbox errors."""


class PoleError(MbboxError, ValueError):
    """Function evaluated at (or too close to) one of its poles."""


class DomainError(MbboxError, ValueError):
    """Argument outside the domain an operation supports."""


class NonConvergence(MbboxError, ArithmeticError):
    """A series or iteration failed to reach the requested tolerance."""


class NotConverged(NonConvergence):
    """A quadrature failed its internal convergence check."""


class DivisionByZeroSeries(MbboxError, ZeroDivisionError):
    """Division by a truncated series whose leading coefficient vanishes."""


class DegenerateKinematics(MbboxError, ValueError):
    """Kinematic point sits on (or too close to) a degeneracy boundary."""


class EuclideanRegionViolation(DegenerateKinematics):
    """Invariant with the wrong sign for the Euclidean region."""

