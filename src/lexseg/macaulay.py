"""Macaulay binomial expansions, the growth bound, and lexsegment realization.

The growth operator a^<d> bounds how a Hilbert function may grow from degree
d to d+1; numerical functions obeying it (O-sequences) are exactly the
Hilbert functions of graded quotients, each realized by a unique lexsegment
ideal.  `lex_ideal_from_hf` builds that ideal degree by degree without ever
materializing a full degree block: the new minimal generators in degree k
are the lex-descending monomials ranked between the shadow of the previous
block and the block itself, and both sizes come from the growth operator.

All binomially-sized integers here are Python ints (arbitrary precision).
"""

from __future__ import annotations

from math import comb

from ._value import Value, _set
from .betti import BettiTable
from .eliahou_kervaire import ek_betti_table
from .errors import NotOSequenceError, StabilityRequiredError, TooManyGeneratorsError
from .hilbert import HilbertSeries, _reduced_series
from .monomials import MonomialIdeal, lex_walk, monomial_count

MAX_GROWTH = "max-growth"

GENERATOR_CAP = 10**6  # minimal generators a realization may list


class MacaulayExpansion(Value):
    """Greedy expansion a = C(a_d, d) + C(a_{d-1}, d-1) + ... + C(a_j, j).

    ``tops`` lists a_d, a_{d-1}, ..., a_j; the lower index of position p is
    degree - p.  Tops are strictly decreasing with a_i >= i, which makes the
    representation unique.
    """

    __slots__ = ("degree", "tops")

    def __init__(self, degree: int, tops):
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
        return tuple((top, self.degree - p) for p, top in enumerate(self.tops))

    def value(self) -> int:
        return sum(comb(top, low) for top, low in self.terms)

    def grow(self) -> int:
        """Replace each C(a_i, i) by C(a_i + 1, i + 1) and sum."""
        return sum(comb(top + 1, low + 1) for top, low in self.terms)

    def __str__(self) -> str:
        return " + ".join(f"C({top},{low})" for top, low in self.terms)


def macaulay_expansion(a: int, d: int) -> MacaulayExpansion:
    """Unique greedy binomial expansion of a >= 1 in degree d >= 1.

    Each top, the largest t with C(t, deg) <= rem, is found by doubling and
    then bisection: O(log a) binomials, not a walk of O(a^(1/deg)) steps.
    """
    if a < 1:
        raise ValueError("expansion defined for positive integers only")
    if d < 1:
        raise ValueError("expansion degree must be >= 1")
    tops = []
    rem = a
    deg = d
    while rem > 0:
        if deg == 1:
            tops.append(rem)
            break
        if rem <= deg:
            # remainder of unit binomials: C(deg, deg) + ... + C(deg-rem+1, deg-rem+1)
            tops.extend(deg - i for i in range(rem))
            break
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
    return MacaulayExpansion(d, tuple(tops))


def macaulay_growth(a: int, d: int) -> int:
    """The Macaulay bound a^<d> on the next value of a Hilbert function."""
    if d < 1:
        raise ValueError("growth degree must be >= 1")
    if a < 0:
        raise ValueError("growth defined for non-negative integers")
    if a == 0:
        return 0
    return macaulay_expansion(a, d).grow()


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

    Constant tails only need checking through the junction with the initial
    segment: once H(k) = c with k >= c the expansion of c in degree k is c
    unit binomials, so growth returns c forever.  In fact a^<d> >= a always
    (each C(a_i, i) with a_i >= i satisfies C(a_i + 1, i + 1) >= C(a_i, i)),
    so a constant can never violate the bound against itself.
    """
    if n < 1:
        return OSequenceCheck(False, None, "ambient variable count must be >= 1")
    if spec.value(0) != 1:
        return OSequenceCheck(False, 0, f"H(0) = {spec.value(0)} != 1")
    h1 = spec.value(1, n)
    if h1 > n:
        return OSequenceCheck(False, 0, f"H(1) = {h1} > {n} variables")
    t = spec.last_explicit_degree
    horizon = t if spec.is_max_growth else t + 1
    for k in range(1, horizon):
        hk = spec.value(k, n)
        hk1 = spec.value(k + 1, n)
        bound = macaulay_growth(hk, k) if hk > 0 else 0
        if hk1 > bound:
            return OSequenceCheck(
                False, k, f"H({k + 1}) = {hk1} exceeds {hk}^<{k}> = {bound}")
    return OSequenceCheck(True)


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


def lex_ideal_from_hf(spec: HilbertFunctionSpec, n: int) -> MonomialIdeal:
    """The unique lexsegment ideal whose quotient has the given Hilbert function.

    Degree by degree, the ideal's block is the lex-descending initial segment
    of size dim S_k - H(k); the new minimal generators are the slice of that
    segment past the shadow of the previous block, whose size is
    dim S_k - H(k-1)^<k-1> (shadows of lex segments are lex segments).
    Generation stops at max(t+1, c) for a constant-c tail (growth stabilizes)
    and at t for a max-growth tail (no generators can appear after it).

    A spec whose ideal would have more than `GENERATOR_CAP` minimal
    generators raises `TooManyGeneratorsError` before any is listed.  The
    result's Hilbert function is re-verified against the spec up to three
    degrees past the stopping point.  The series it is read from comes from
    the ideal's Eliahou-Kervaire table: a lexsegment ideal is stable, and the
    table's stability check is the one gate of that closed form.
    """
    return _lex_ideal_and_series(spec, n)[0]


def _lex_ideal_and_series(
        spec: HilbertFunctionSpec,
        n: int) -> tuple[MonomialIdeal, HilbertSeries, BettiTable]:
    """`lex_ideal_from_hf` with the Hilbert series it verified against and
    the Eliahou-Kervaire table that series was read from."""
    check = is_o_sequence(spec, n)
    if not check:
        raise NotOSequenceError(
            f"not an O-sequence: {check.reason}", degree=check.degree)
    stop = generation_horizon(spec)
    slices = []
    prev_h = 1
    for k in range(1, stop + 1):
        hk = spec.value(k, n)
        dim_k = monomial_count(n, k)
        block = dim_k - hk
        if k == 1:
            shadow = 0
        else:
            shadow = dim_k - macaulay_growth(prev_h, k - 1) if prev_h > 0 else dim_k
        if not 0 <= shadow <= block:
            raise AssertionError(
                f"degree {k}: shadow {shadow} vs block {block} out of order")
        slices.append((k, shadow, block))
        prev_h = hk
    count = sum(block - shadow for _, shadow, block in slices)
    if count > GENERATOR_CAP:
        raise TooManyGeneratorsError(
            f"the lexsegment ideal would have {count} minimal generators, "
            f"cap is {GENERATOR_CAP}")
    rows = []
    for k, shadow, block in slices:
        rows += lex_walk(n, k, shadow, block)
    rows.sort(reverse=True)
    try:
        ideal = MonomialIdeal(n, rows)  # checks minimality
    except ValueError:
        raise AssertionError(
            "segment-minus-shadow generators were not minimal") from None
    try:
        table = ek_betti_table(ideal)
    except StabilityRequiredError:
        raise AssertionError("realized ideal is not stable") from None
    series = _reduced_series(ideal, table.euler_kpolynomial())
    for k in range(stop + 4):
        got = series.coefficient(k)
        want = spec.value(k, n)
        if got != want:
            raise AssertionError(
                f"realized Hilbert function differs at degree {k}: {got} != {want}")
    return ideal, series, table
