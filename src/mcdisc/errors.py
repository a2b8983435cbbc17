"""Exception types shared across the package."""


class McdiscError(Exception):
    """Base class for every failure raised by this library."""


class NonHermitianError(McdiscError):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class NotPsdError(McdiscError):
    """A matrix expected to be positive semidefinite has a negative eigenvalue."""


class NotPureError(McdiscError):
    """An operation defined for pure states received a mixed state."""


class InvalidSpecError(McdiscError):
    """A construction specification (pair parameters, priors, rates) is malformed."""


class InvalidNoiseError(McdiscError):
    """Depolarizing noise strength outside [0, 1]."""


class WrongArityError(McdiscError):
    """An operation defined for a fixed number of ensemble members got another."""


class OutOfRangeError(McdiscError):
    """A scalar parameter lies outside its documented domain."""


class ZeroRateError(McdiscError):
    """Conditional confidence is undefined at zero outcome rate."""


class ZeroConfusabilityError(McdiscError):
    """Certified noncontextual confidence is undefined for disjoint supports (c = 0)."""


class DegenerateEnsembleError(McdiscError):
    """Analytic certification rejects identical or orthogonal state pairs."""


class UnequalPriorsError(McdiscError):
    """The analytic qubit certifier requires equiprobable preparations."""


class DimensionMismatchError(McdiscError):
    """Operators or states of incompatible dimensions were combined."""


class InfeasibleRateError(McdiscError):
    """No measurement (or response function) can reproduce the requested rates."""


class WrongRegionError(McdiscError):
    """The quantum/noncontextual gap relation only applies in the low and high rate regions."""


class NumericalError(McdiscError, ArithmeticError):
    """An internal consistency check failed: the arithmetic lost the precision a result needs."""
