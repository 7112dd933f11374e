"""Lexsegment ideals realizing any prescribed (regularity, h-degree) pair.

Two branches cover all pairs (r, s) with r, s >= 1:

* r <= s: the ideal x1^r * (x1, ..., xn) in n = s - r + 1 variables, the
  lexsegment ideal generated by the first n monomials of degree r+1; its
  resolution is linear and its reduced series numerator is
  1 + t + ... + t^(r-1) + t^r (1-t)^(s-r).
* s < r: the lexsegment ideal in n = r + 2 variables realizing the Hilbert
  function 1, r+2, ..., r+2, r+1, r+1, ... (value r+2 through degree s-1),
  whose generator counts come from the Macaulay growth bound
  (`lex_ideal_from_hf`); its h-polynomial is 1 + (r+1)t - t^s.

Either way n <= max(r, s) + 2.  Both branches realize their ideal from the
(degree, count) pairs of its generators through `macaulay._realize`, which
caps the rows, lists them by one lexsegment walk that also tallies them, and
reads the reduced Hilbert series off the Eliahou-Kervaire table of those
tallies.  Every constructor measures the produced ideal and raises
`ConstructionError` on any divergence from the predicted invariants.
"""

from __future__ import annotations

from collections import namedtuple

from ._value import Value, _set
from .betti import BettiTable
from .errors import ConstructionError
from .hilbert import HilbertSeries
from .macaulay import HilbertFunctionSpec, _lex_ideal_and_series, _realize
from .monomials import MonomialIdeal


Invariants = namedtuple("Invariants", "n regularity h_degree dim depth")


class ConstructionReport(Value):
    __slots__ = ("ideal", "branch", "predicted", "measured", "series", "betti")

    def __init__(self, ideal: MonomialIdeal, branch: str, predicted: Invariants,
                 measured: Invariants, series: HilbertSeries, betti: BettiTable):
        _set(self, "ideal", ideal)
        _set(self, "branch", branch)
        _set(self, "predicted", predicted)
        _set(self, "measured", measured)
        _set(self, "series", series)
        _set(self, "betti", betti)

    @property
    def ok(self) -> bool:
        return self.predicted == self.measured


def _measure(ideal: MonomialIdeal, series: HilbertSeries,
             table: BettiTable) -> Invariants:
    """The invariants read off the reduced series and the Betti table of S/I.

    dim is the reduced series' denominator exponent (Hilbert-Serre); depth
    is n - pd (Auslander-Buchsbaum).
    """
    return Invariants(
        n=ideal.n,
        regularity=table.regularity,
        h_degree=series.h_polynomial().degree,
        dim=series.denominator_exponent,
        depth=ideal.n - table.projective_dimension,
    )


def _finish(ideal, series, table, branch, predicted, expected_h, r,
            s) -> ConstructionReport:
    measured = _measure(ideal, series, table)
    got_h = series.numerator
    if got_h != expected_h:
        raise ConstructionError(
            f"{branch} (r={r}, s={s}): h-polynomial {list(got_h)} != "
            f"predicted {list(expected_h)}")
    if measured != predicted:
        raise ConstructionError(
            f"{branch} (r={r}, s={s}): measured {measured} != predicted {predicted}")
    if predicted.n > max(r, s) + 2:
        raise ConstructionError(f"{branch}: ambient bound n <= max(r,s)+2 violated")
    return ConstructionReport(ideal, branch, predicted, measured, series, table)


def _check_ints(r, s) -> None:
    """`TypeError` unless r and s are both ints (bools included), as
    `MonomialIdeal` and `is_o_sequence` check their counts."""
    for name, value in (("r", r), ("s", s)):
        if type(value) is not int:
            raise TypeError(f"{name} must be an int, got {value!r}")


def construct_first_step(r: int, s: int) -> ConstructionReport:
    """The branch for 1 <= r <= s: the first n monomials of degree r+1."""
    _check_ints(r, s)
    if not 1 <= r <= s:
        raise ValueError(f"first step needs 1 <= r <= s, got r={r}, s={s}")
    n = s - r + 1
    ideal, series, table = _realize(n, [(r + 1, n)])
    # 1 + t + ... + t^(r-1) + t^r (1-t)^m with m = s-r, coefficientwise; the
    # binomials by C(m, j+1) = C(m, j) (m-j) / (j+1), an exact division
    hs = [1] * r
    c, m = 1, s - r
    for j in range(m + 1):
        hs.append(c)
        c = -c * (m - j) // (j + 1)
    predicted = Invariants(n=n, regularity=r, h_degree=s, dim=s - r, depth=0)
    return _finish(ideal, series, table, "first-step", predicted, tuple(hs),
                   r, s)


def second_step_hf(r: int, s: int) -> HilbertFunctionSpec:
    """Hilbert function 1, r+2 (through degree s-1), then constant r+1."""
    return HilbertFunctionSpec((1,) + (r + 2,) * (s - 1), r + 1)


def construct_second_step(r: int, s: int) -> ConstructionReport:
    """The branch for 1 <= s < r, realized through `lex_ideal_from_hf`."""
    _check_ints(r, s)
    if not 1 <= s < r:
        raise ValueError(f"second step needs 1 <= s < r, got r={r}, s={s}")
    n = r + 2
    ideal, series, table, _ = _lex_ideal_and_series(second_step_hf(r, s), n)
    # 1 + (r+1)t - t^s; for s = 1 the two linear terms merge into r*t
    hs = [1] + [0] * s
    hs[1] += r + 1
    hs[s] -= 1
    predicted = Invariants(n=n, regularity=r, h_degree=s, dim=1, depth=0)
    return _finish(ideal, series, table, "second-step", predicted, tuple(hs),
                   r, s)


def construct(r: int, s: int) -> ConstructionReport:
    """Lexsegment ideal with regularity r and h-degree s, for any r, s >= 1."""
    _check_ints(r, s)
    if r < 1 or s < 1:
        raise ValueError(f"need r >= 1 and s >= 1, got r={r}, s={s}")
    if r <= s:
        return construct_first_step(r, s)
    return construct_second_step(r, s)


# Reference ideals with pinned invariants, used as integration fixtures.
# example2: six variables, twenty generators, Hilbert function 1,6,5,5,...
# remark3: five variables, seventeen generators, regularity 6, linear h-polynomial.
_FIXTURE_ROWS = {
    "example2": (6, (
        (2, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0), (1, 0, 1, 0, 0, 0),
        (1, 0, 0, 1, 0, 0), (1, 0, 0, 0, 1, 0), (1, 0, 0, 0, 0, 1),
        (0, 2, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0), (0, 1, 0, 1, 0, 0),
        (0, 1, 0, 0, 1, 0), (0, 1, 0, 0, 0, 1),
        (0, 0, 2, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 1, 0, 1, 0),
        (0, 0, 1, 0, 0, 1),
        (0, 0, 0, 2, 0, 0), (0, 0, 0, 1, 2, 0), (0, 0, 0, 1, 1, 1),
        (0, 0, 0, 1, 0, 3), (0, 0, 0, 0, 5, 0),
    )),
    "remark3": (5, (
        (2, 0, 0, 0, 0), (1, 1, 0, 0, 0), (1, 0, 1, 0, 0), (1, 0, 0, 1, 0),
        (1, 0, 0, 0, 1),
        (0, 2, 0, 0, 0), (0, 1, 2, 0, 0), (0, 1, 1, 1, 0), (0, 1, 1, 0, 1),
        (0, 1, 0, 3, 0), (0, 1, 0, 2, 1), (0, 1, 0, 1, 3), (0, 1, 0, 0, 4),
        (0, 0, 6, 0, 0), (0, 0, 5, 1, 0), (0, 0, 5, 0, 1), (0, 0, 4, 3, 0),
    )),
}


def fixture(name: str) -> MonomialIdeal:
    """One of the bundled reference ideals ('example2' or 'remark3')."""
    if name not in _FIXTURE_ROWS:
        raise ValueError(
            f"unknown fixture {name!r}; available: {sorted(_FIXTURE_ROWS)}")
    n, rows = _FIXTURE_ROWS[name]
    return MonomialIdeal.from_exponent_rows(n, rows)
