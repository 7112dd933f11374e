"""Exception hierarchy shared across the package."""


class LexsegError(Exception):
    """Base class for all domain errors raised by lexseg."""


class AmbientMismatchError(LexsegError):
    """Two monomials or ideals live in polynomial rings with different variable counts."""


class UnitIdealError(LexsegError):
    """Operation undefined on the unit ideal (the quotient ring is zero)."""


class ZeroIdealError(LexsegError):
    """Operation undefined on the zero ideal."""


class StabilityRequiredError(LexsegError):
    """Input ideal is not stable; use the brute-force Betti oracle instead."""


class NotOSequenceError(LexsegError):
    """Numerical function violates Macaulay growth; carries the first bad degree."""

    def __init__(self, message, degree=None):
        super().__init__(message)
        self.degree = degree


class BoxTooLargeError(LexsegError):
    """Multidegree box of the brute-force Betti scan exceeds the enforced cap."""

    def __init__(self, message, box_size=None):
        super().__init__(message)
        self.box_size = box_size


class DegreeTooLargeError(LexsegError):
    """A generator's degree exceeds the enforced cap of the closed-form Betti table."""


class TooManyGeneratorsError(LexsegError):
    """A lexsegment realization would list more minimal generators than the enforced cap."""


class ConstructionError(LexsegError):
    """A constructed ideal failed its own predicted-vs-measured verification."""
