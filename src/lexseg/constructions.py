"""Lexsegment ideals realizing any prescribed (regularity, h-degree) pair.

Two branches cover all pairs (r, s) with r, s >= 1:

* r <= s: the ideal x1^r * (x1, ..., xn) in n = s - r + 1 variables, whose
  resolution is linear and whose reduced series numerator is
  1 + t + ... + t^(r-1) + t^r (1-t)^(s-r).
* s < r: the lexsegment ideal in n = r + 2 variables realizing the Hilbert
  function 1, r+2, ..., r+2, r+1, r+1, ... (value r+2 through degree s-1),
  built through the generic Macaulay realization engine so the whole
  machinery is exercised end to end; its h-polynomial is 1 + (r+1)t - t^s.

Either way n <= max(r, s) + 2.  Every constructor measures the produced
ideal and raises `ConstructionError` on any divergence from the predicted
invariants.  One lexsegment walk over the rows certifies each ideal as it is
built (`monomials._certified_lexsegment`): it proves them minimal and tallies
them for the ideal's Eliahou-Kervaire table (the ideal is stable), which
gives regularity, depth and, as its Euler characteristic, the reduced
Hilbert series, whose dimension is asserted against the stable closed form.
"""

from __future__ import annotations

from collections import namedtuple

from ._value import Value, _set
from .betti import BettiTable
from .eliahou_kervaire import _ek_table
from .errors import ConstructionError
from .hilbert import HilbertSeries, _stable_series
from .macaulay import HilbertFunctionSpec, _check_entries, _lex_ideal_and_series
from .monomials import MonomialIdeal, _certified_lexsegment


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


def _first_step_rows(r: int, n: int) -> list[tuple[int, ...]]:
    """x1^(r+1) > x1^r x2 > ... > x1^r xn: one degree, lex-descending."""
    rows = [(r + 1,) + (0,) * (n - 1)]
    rows += [(r,) + (0,) * (j - 1) + (1,) + (0,) * (n - 1 - j) for j in range(1, n)]
    return rows


def construct_first_step(r: int, s: int) -> ConstructionReport:
    """The branch for 1 <= r <= s, generated in degree r+1."""
    if not 1 <= r <= s:
        raise ValueError(f"first step needs 1 <= r <= s, got r={r}, s={s}")
    n = s - r + 1
    _check_entries(n, n)
    try:
        ideal, tallies = _certified_lexsegment(n, _first_step_rows(r, n))
    except ValueError as exc:
        raise ConstructionError(f"first-step (r={r}, s={s}): {exc}") from None
    # 1 + t + ... + t^(r-1) + t^r (1-t)^m with m = s-r, coefficientwise; the
    # binomials by C(m, j+1) = C(m, j) (m-j) / (j+1), an exact division
    hs = [1] * r
    c, m = 1, s - r
    for j in range(m + 1):
        hs.append(c)
        c = -c * (m - j) // (j + 1)
    predicted = Invariants(n=n, regularity=r, h_degree=s, dim=s - r, depth=0)
    table = _ek_table(ideal, tallies)
    series = _stable_series(ideal, table)
    return _finish(ideal, series, table, "first-step", predicted, tuple(hs),
                   r, s)


def second_step_hf(r: int, s: int) -> HilbertFunctionSpec:
    """Hilbert function 1, r+2 (through degree s-1), then constant r+1."""
    return HilbertFunctionSpec((1,) + (r + 2,) * (s - 1), r + 1)


def construct_second_step(r: int, s: int) -> ConstructionReport:
    """The branch for 1 <= s < r, realized through `lex_ideal_from_hf`."""
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
