"""Macaulay binomial expansions, the growth bound, and lexsegment realization.

The growth operator a^<d> bounds how a Hilbert function may grow from degree
d to d+1; numerical functions obeying it (O-sequences) are exactly the
Hilbert functions of graded quotients, each realized by a unique lexsegment
ideal.  `lex_ideal_from_hf` builds that ideal degree by degree: the room
the growth bound leaves, found in the loop that checks it, is the number of
new minimal generators in degree k, the monomials right after the previous
degree's shadow.  The walk that certifies them tallies them for the EK table.

All binomially-sized integers here are Python ints (arbitrary precision).
"""

from __future__ import annotations

from math import comb

from ._value import Value, _set
from .betti import BettiTable
from .eliahou_kervaire import _ek_table
from .errors import NotOSequenceError, TooManyGeneratorsError
from .hilbert import HilbertSeries, _stable_series
from .monomials import MonomialIdeal, _certified_lexsegment, _lex_segment_rows

MAX_GROWTH = "max-growth"

GENERATOR_CAP = 10**6  # minimal generators a realization may list
# exponent entries (generators x variables) a realization may store: the
# generator cap bounds the walk's time, this its memory (about 10 bytes each)
ENTRY_CAP = 5 * 10**7


def _grow(d: int, tops) -> int:
    """Sum of C(a_i + 1, i + 1) over the terms C(a_i, i) of a degree-d
    expansion with the given tops: each term grown by one degree."""
    return sum(comb(top + 1, d + 1 - p) for p, top in enumerate(tops))


class MacaulayExpansion(Value):
    """Greedy expansion a = C(a_d, d) + C(a_{d-1}, d-1) + ... + C(a_j, j).

    ``tops`` lists a_d, a_{d-1}, ..., a_j; the lower index of position p is
    degree - p.  Tops are strictly decreasing with a_i >= i, which makes the
    representation unique.
    """

    __slots__ = ("degree", "tops")

    def __init__(self, degree: int, tops):
        tops = tuple(tops)
        if type(degree) is not int or any(type(t) is not int for t in tops):
            raise TypeError(
                f"expansion degree and tops must be ints, got {degree!r}, {tops}")
        if degree < 1:
            raise ValueError("expansion degree must be >= 1")
        if not tops:
            raise ValueError("empty expansion")
        lower = degree
        prev = None
        for top in tops:
            if lower < 1 or top < lower:
                raise ValueError(f"invalid expansion term C({top}, {lower})")
            if prev is not None and top >= prev:
                raise ValueError("tops must be strictly decreasing")
            prev = top
            lower -= 1
        _set(self, "degree", degree)
        _set(self, "tops", tops)

    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        return tuple([(top, self.degree - p) for p, top in enumerate(self.tops)])

    # value and grow read the tops directly; terms builds a tuple (see _value)
    def value(self) -> int:
        d = self.degree
        return sum(comb(top, d - p) for p, top in enumerate(self.tops))

    def grow(self) -> int:
        """Replace each C(a_i, i) by C(a_i + 1, i + 1) and sum."""
        return _grow(self.degree, self.tops)

    def __str__(self) -> str:
        return " + ".join(f"C({top},{low})" for top, low in self.terms)


def _greedy_tops(a: int, d: int) -> tuple[list[int], int]:
    """The greedy expansion of a >= 1 in degree d >= 1: the tops a_i > i of
    its leading terms, and the length of its trailing run of unit terms
    C(j, j), which is what remains once the remainder is at most the degree.

    Each top, the largest t with C(t, deg) <= rem, is found by doubling and
    then bisection: O(log a) binomials, not a walk of O(a^(1/deg)) steps.
    """
    tops = []
    rem = a
    deg = d
    while rem > deg:
        if deg == 1:
            return tops + [rem], 0
        lo, hi = deg, deg + 1  # C(lo, deg) <= rem; C(hi, deg) untested
        while comb(hi, deg) <= rem:
            lo, hi = hi, deg + 2 * (hi - deg)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if comb(mid, deg) <= rem:
                lo = mid
            else:
                hi = mid
        tops.append(lo)
        rem -= comb(lo, deg)
        deg -= 1
    return tops, rem


def macaulay_expansion(a: int, d: int) -> MacaulayExpansion:
    """Unique greedy binomial expansion of a >= 1 in degree d >= 1, every
    term listed: the unit tail is C(deg, deg) + ... + C(deg-u+1, deg-u+1)."""
    if a < 1:
        raise ValueError("expansion defined for positive integers only")
    if d < 1:
        raise ValueError("expansion degree must be >= 1")
    tops, units = _greedy_tops(a, d)
    deg = d - len(tops)
    return MacaulayExpansion(d, tops + [deg - i for i in range(units)])


def macaulay_growth(a: int, d: int) -> int:
    """The Macaulay bound a^<d> on the next value of a Hilbert function.

    Each unit term C(j, j) grows to C(j + 1, j + 1) = 1, so the unit tail
    adds its length and no expansion is built.
    """
    if d < 1:
        raise ValueError("growth degree must be >= 1")
    if a < 0:
        raise ValueError("growth defined for non-negative integers")
    if a == 0:
        return 0
    tops, units = _greedy_tops(a, d)
    return _grow(d, tops) + units


class HilbertFunctionSpec(Value):
    """Prescribed Hilbert function: explicit initial values plus a tail rule.

    ``tail`` is either a non-negative int c (H(k) = c strictly after the
    initial segment) or the string "max-growth" (H(k+1) = H(k)^<k> after it).
    """

    __slots__ = ("initial", "tail")

    def __init__(self, initial, tail: int | str):
        init = tuple(initial)
        if any(type(v) is not int for v in init):
            raise TypeError(f"Hilbert function values must be ints, got {init}")
        if not init:
            raise ValueError("need at least the degree-0 value")
        if any(v < 0 for v in init):
            raise ValueError("Hilbert function values must be >= 0")
        if isinstance(tail, str):
            if tail != MAX_GROWTH:
                raise ValueError(f"unknown tail rule {tail!r}")
        elif type(tail) is not int:
            raise TypeError(f"constant tail must be an int, got {tail!r}")
        elif tail < 0:
            raise ValueError("constant tail must be >= 0")
        _set(self, "initial", init)
        _set(self, "tail", tail)

    @property
    def last_explicit_degree(self) -> int:
        return len(self.initial) - 1

    @property
    def is_max_growth(self) -> bool:
        return self.tail == MAX_GROWTH

    def value(self, k: int, n: int | None = None) -> int:
        """H(k).  For a max-growth tail starting at degree 0, H(1) needs n."""
        if k < 0:
            raise ValueError("degree must be non-negative")
        t = self.last_explicit_degree
        if k <= t:
            return self.initial[k]
        if not self.is_max_growth:
            return self.tail
        h = self.initial[t]
        j = t
        if j == 0:
            if n is None:
                raise ValueError("max-growth from degree 0 needs the variable count")
            h = n
            j = 1
        while j < k:
            h = macaulay_growth(h, j)
            j += 1
        return h

    def to_json_dict(self) -> dict:
        tail = MAX_GROWTH if self.is_max_growth else {"constant": self.tail}
        return {"initial": list(self.initial), "tail": tail}

    @classmethod
    def from_json_dict(cls, data: dict) -> "HilbertFunctionSpec":
        tail = data["tail"]
        if isinstance(tail, dict):
            tail = tail["constant"]
        return cls(tuple(data["initial"]), tail)


class OSequenceCheck(Value):
    """Outcome of the Macaulay-condition test, with the first violation if any."""

    __slots__ = ("ok", "degree", "reason")

    def __init__(self, ok: bool, degree: int | None = None,
                 reason: str | None = None):
        _set(self, "ok", ok)
        _set(self, "degree", degree)
        _set(self, "reason", reason)

    def __bool__(self) -> bool:
        return self.ok


def is_o_sequence(spec: HilbertFunctionSpec, n: int) -> OSequenceCheck:
    """Macaulay's condition: H(0)=1, H(1) <= n, H(k+1) <= H(k)^<k> for k >= 1.

    Constant tails need checking only through the junction with the initial
    segment: a^<d> >= a always (C(a_i + 1, i + 1) >= C(a_i, i) for a_i >= i),
    so a constant never violates the bound against itself.  Raises
    `TypeError` when n is not an int (bools included).
    """
    t = spec.last_explicit_degree
    return _o_sequence_counts(spec, n, t if spec.is_max_growth else t + 1)[0]


def _o_sequence_counts(spec: HilbertFunctionSpec, n: int,
                       stop: int) -> tuple[OSequenceCheck, list[int]]:
    """Macaulay's condition through degree ``stop``, and the room each bound
    leaves, H(k-1)^<k-1> - H(k) (n - H(1) for k = 1): the number of new
    minimal generators of the realizing ideal in degree k = 1..stop.

    Once degree t+1 is checked (t the last explicit degree; past it a
    constant tail cannot break the bound), the walk may end early, leaving
    fewer than ``stop`` counts: when the counts so far, plus one for each
    degree left, pass `GENERATOR_CAP` or `ENTRY_CAP` / n, so that
    `_refuse_over_caps` refuses them.  Each degree
    k = t+2..c of a constant-c tail gains a generator, since there
    H(k-1) = c > k-1 and so c^<k-1> > c."""
    if type(n) is not int:
        raise TypeError(f"variable count must be an int, got {n!r}")
    if n < 1:
        return OSequenceCheck(False, None, "ambient variable count must be >= 1"), []
    h = spec.value(0)
    if h != 1:
        return OSequenceCheck(False, 0, f"H(0) = {h} != 1"), []
    t = spec.last_explicit_degree
    room = min(GENERATOR_CAP, ENTRY_CAP // n)
    counts = []
    for k in range(1, stop + 1):
        bound = macaulay_growth(h, k - 1) if k > 1 else n  # largest H(k)
        hk = spec.value(k, n)
        if hk > bound:
            reason = (f"H(1) = {hk} > {n} variables" if k == 1 else
                      f"H({k}) = {hk} exceeds {h}^<{k - 1}> = {bound}")
            return OSequenceCheck(False, k - 1, reason), counts
        counts.append(bound - hk)
        room -= bound - hk
        if k > t and room < stop - k:
            break
        h = hk
    return OSequenceCheck(True), counts


def generation_horizon(spec: HilbertFunctionSpec) -> int:
    """Last degree that can carry minimal generators of the realizing ideal.

    For a constant-c tail this is max(t+1, c): once H(k) = c with k >= c the
    expansion of c in degree k is c unit binomials, so growth returns c and
    no generator can appear later.  A max-growth tail admits none past the
    explicit segment at all.
    """
    t = spec.last_explicit_degree
    if spec.is_max_growth:
        return t
    return max(t + 1, spec.tail)


def _refuse_over_caps(rows: int, n: int) -> None:
    """Raise `TooManyGeneratorsError` when an ideal with ``rows`` or more
    minimal generators in n variables would pass `GENERATOR_CAP` or
    `ENTRY_CAP`."""
    if rows > GENERATOR_CAP:
        raise TooManyGeneratorsError(
            f"the lexsegment ideal would have at least {rows} minimal "
            f"generators, cap is {GENERATOR_CAP}")
    if rows * n > ENTRY_CAP:
        raise TooManyGeneratorsError(
            f"the ideal would store at least {rows} generators of {n} "
            f"exponents ({rows * n} entries), cap is {ENTRY_CAP}")


def _realize(n: int, counts) -> tuple[MonomialIdeal, HilbertSeries, BettiTable]:
    """The lexsegment ideal in n variables with ``counts[d - 1]`` minimal
    generators in degree d, its reduced series and the Eliahou-Kervaire table
    the series is read from.  Over `GENERATOR_CAP` generators, or over
    `ENTRY_CAP` exponent entries, raises `TooManyGeneratorsError` before any
    is listed.  One lexsegment walk (`monomials._certified_lexsegment`) proves
    the rows minimal and tallies them for the table."""
    _refuse_over_caps(sum(counts), n)
    try:
        ideal, tallies = _certified_lexsegment(n, _lex_segment_rows(n, counts))
    except ValueError as exc:
        raise AssertionError(f"realized ideal: {exc}") from None
    table = _ek_table(ideal, tallies)
    return ideal, _stable_series(ideal, table), table


def lex_ideal_from_hf(spec: HilbertFunctionSpec, n: int) -> MonomialIdeal:
    """The unique lexsegment ideal whose quotient has the given Hilbert function.

    Each degree's piece is a lex segment, and the shadow of the previous
    piece fills dim S_k - H(k-1)^<k-1> of it (Macaulay).  So degree k has
    H(k-1)^<k-1> - H(k) new minimal generators (n - H(1) in degree 1), the
    monomials right after that shadow.  Generation stops at max(t+1, c) for
    a constant-c tail and at t for a max-growth tail.  `_realize` caps,
    lists and certifies the generators; the series of its Eliahou-Kervaire
    table is re-verified against the spec up to three degrees past the
    stopping point.
    """
    return _lex_ideal_and_series(spec, n)[0]


def _lex_ideal_and_series(
        spec: HilbertFunctionSpec,
        n: int) -> tuple[MonomialIdeal, HilbertSeries, BettiTable, list[int]]:
    """`lex_ideal_from_hf` with the Hilbert series it verified against, the
    Eliahou-Kervaire table that series was read from, and the values H(0),
    ..., H(t+3) it checked, t the generation horizon."""
    stop = generation_horizon(spec)
    # past is_o_sequence's horizon a constant tail never breaks the bound
    check, counts = _o_sequence_counts(spec, n, stop)
    if not check:
        raise NotOSequenceError(
            f"not an O-sequence: {check.reason}", degree=check.degree)
    if len(counts) < stop:  # each degree it skipped gains a generator
        _refuse_over_caps(sum(counts) + stop - len(counts), n)
    ideal, series, table = _realize(n, counts)
    values = series.values(stop + 4)
    for k, got in enumerate(values):
        want = spec.value(k, n)
        if got != want:
            raise AssertionError(
                f"realized Hilbert function differs at degree {k}: {got} != {want}")
    return ideal, series, table, values
