"""Exception types shared across the package."""


class PlparetoError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(PlparetoError, ValueError):
    """An argument was not finite or lay outside its documented range, or a
    file the command line reads or writes could not be used."""


class NegativeCoordinate(PlparetoError):
    """A demand coordinate was negative."""


class OutOfDomain(PlparetoError):
    """An abscissa fell outside the function's domain."""


class NotPSD(PlparetoError):
    """An ellipse shape matrix was not symmetric positive semi-definite."""


class NoSolution(PlparetoError):
    """The balancing equation has no root on the candidate interval."""


class TargetOutOfRange(PlparetoError):
    """A robustness target fell outside the achievable range."""


class InfeasibleTarget(PlparetoError):
    """The requested consistency target exceeds the maximum achievable one."""


class TooManyChunks(PlparetoError):
    """A demand point splits into more unit chunks than replay allows."""


class InternalError(PlparetoError):
    """A computed result broke an invariant the solver relies on."""
