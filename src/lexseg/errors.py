"""Exception hierarchy shared across the package, and the table of caps.

Every exponential or dense path is guarded by a stated cap.  `CAPS` holds
each one's bound, the error its refusal raises and that error's message;
each guarded site compares against the bound itself and calls `refuse`
only to refuse (or raises its own error with `cap_message`: the oracle's
box error carries the box size, and `analyze --max-degree` is argparse's
usage error).  A cap counts what its path costs: no walk builds a tuple that
grows with a generator's degree, so a huge degree meets the cap of the path
it does cost, the Betti-table cap (the closed form's rows), the box cap (the
oracle's cells) or the K-polynomial cap (the recursion's polynomial length).
"""


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


class TooManyGeneratorsError(LexsegError):
    """A lexsegment realization would list more minimal generators than the enforced cap."""


class BettiTableTooLargeError(LexsegError):
    """A dense Betti table would hold more entries than the enforced cap."""


class KPolynomialTooLargeError(LexsegError):
    """The pivot recursion's polynomials could be longer than the enforced cap."""


class ConstructionError(LexsegError):
    """A constructed ideal failed its own predicted-vs-measured verification."""


class Cap:
    """One cap: the largest value its path accepts, the error a refusal
    raises (None where the site raises argparse's usage error itself), and
    the message, a `str.format` template of the refused ``value``, the
    ``bound`` and any fields the site names."""

    __slots__ = ("bound", "error", "message")

    def __init__(self, bound: int, error: type | None, message: str):
        self.bound = bound
        self.error = error
        self.message = message


CAPS = {
    # the realization's listing time
    "generators": Cap(10**6, TooManyGeneratorsError,
                      "the lexsegment ideal would have at least {value} minimal "
                      "generators, cap is {bound}"),
    # its memory, about 10 bytes per exponent entry (generators x variables)
    "entries": Cap(5 * 10**7, TooManyGeneratorsError,
                   "the ideal would store at least {rows} generators of {n} "
                   "exponents ({value} entries), cap is {bound}"),
    # the cells of the Betti oracle's multidegree box
    "box": Cap(10**6, BoxTooLargeError,
               "multidegree box has {value} cells, cap is {bound}"),
    # entries (reg + 1) * (pd + 1) of a dense Betti table
    "betti-table": Cap(2 * 10**6, BettiTableTooLargeError,
                       "the Betti table would have {value} entries ({rows} rows "
                       "of {columns}), cap is {bound}"),
    # the sum of the lcm's exponents, the pivot recursion's degree bound
    "kpolynomial": Cap(10**7, KPolynomialTooLargeError,
                       "the K-polynomial recursion could build polynomials of "
                       "degree {value}, cap is {bound}"),
    # Hilbert-function values `analyze --max-degree` may list; the parser
    # raises its own usage error with this message
    "max-degree": Cap(10**4, None, "{value!r} must be <= {bound}"),
}


def cap_message(name: str, value, **fields) -> str:
    """The message refusing ``value`` at the cap ``name``, filled in with
    the cap's bound and ``fields``."""
    cap = CAPS[name]
    return cap.message.format(value=value, bound=cap.bound, **fields)


def refuse(name: str, value, **fields):
    """Raise the error of the cap ``name`` with `cap_message`."""
    raise CAPS[name].error(cap_message(name, value, **fields))
