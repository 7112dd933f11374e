"""Hilbert functions, Hilbert series, and h-polynomials of monomial quotients.

The series is the K-polynomial with all (1-t) factors cancelled
(`_reduced_series`), and the one source of Hilbert function values.  Any
ideal's K-polynomial is the alternating sum of its Betti table
(`BettiTable.euler_kpolynomial`), and each kind of ideal has one route to
it, in `hilbert_series` and the CLI alike.  A stable ideal's series is read
off its Eliahou-Kervaire table through `_stable_series` (`hilbert_series`,
`construct`, `lexify`, `analyze`).  Any other ideal's comes from the pivot
recursion N(I) = N(I + (xv^k)) + t^k * N(I : xv^k) (Bayer-Stillman,
Bigatti) in `hilbert_series`, as does a stable ideal's whose table is over
the Betti-table cap; `analyze` reads it off the brute-force oracle's table,
which it prints.  The recursion, `kpolynomial` for any ideal, splits at the
variable in the most generators and has one base case: generators whose
supports are pairwise disjoint, where K = prod (1 - t^deg g).  Each child's
minimal generators come straight from the split (`_with_power`,
`_colon_power`).  Subset inclusion-exclusion over all 2^g generator lcms is
a test oracle (`kpoly_subsets` in the tests' helpers), not a runtime
engine; the tests check that the routes agree.

The dimension is read off the series: dim S/I is the order of its pole at
t = 1, the denominator exponent d of h(t)/(1-t)^d (Hilbert-Serre).  Only a
stable ideal's series, which comes from its closed-form table, is checked at
run time, against the O(g) closed form `monomials._stable_dimension`.  The
cover search `krull_dimension` is no runtime path; the tests compare it with
the denominator exponent.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import le

from ._value import Value, _set
from .eliahou_kervaire import ek_betti_table
from .errors import (
    CAPS,
    BettiTableTooLargeError,
    StabilityRequiredError,
    UnitIdealError,
    refuse,
)
from .monomials import MonomialIdeal, _stable_dimension


def _poly_str(coeffs, var: str = "t") -> str:
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        elif i == 1:
            body = var if mag == 1 else f"{mag}*{var}"
        else:
            body = f"{var}^{i}" if mag == 1 else f"{mag}*{var}^{i}"
        if not terms:
            terms.append(body if c > 0 else "-" + body)
        else:
            terms.append(("+ " if c > 0 else "- ") + body)
    return " ".join(terms) if terms else "0"


class HPolynomial(Value):
    """Numerator of the fully reduced Hilbert series; trailing coefficient nonzero."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        coeffs = tuple(coefficients)
        if any(type(c) is not int for c in coeffs):
            raise TypeError(f"h-polynomial coefficients must be ints, got {coeffs}")
        if not coeffs or coeffs[-1] == 0:
            raise ValueError("h-polynomial needs a nonzero trailing coefficient")
        _set(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __str__(self) -> str:
        return _poly_str(self.coefficients)


class HilbertSeries(Value):
    """Series of a monomial quotient in the reduced form h(t)/(1-t)^d.

    Reduced means h(1) != 0, so d is forced; it always equals the Krull
    dimension of the quotient.
    """

    __slots__ = ("numerator", "denominator_exponent")

    def __init__(self, numerator, denominator_exponent: int):
        num = tuple(numerator)
        if not set(map(type, num)) <= {int}:
            raise TypeError(f"series numerator coefficients must be ints, got {num}")
        if not num or num[-1] == 0:
            raise ValueError("numerator needs a nonzero trailing coefficient")
        if sum(num) == 0:
            raise ValueError("numerator still divisible by (1-t)")
        if type(denominator_exponent) is not int:
            raise TypeError(
                f"denominator exponent must be an int, got {denominator_exponent!r}")
        if denominator_exponent < 0:
            raise ValueError("denominator exponent must be >= 0")
        _set(self, "numerator", num)
        _set(self, "denominator_exponent", denominator_exponent)

    def h_polynomial(self) -> HPolynomial:
        return HPolynomial(self.numerator)

    def coefficient(self, k: int) -> int:
        """Taylor coefficient of t^k, i.e. the Hilbert function value H(k)."""
        if k < 0:
            raise ValueError("degree must be non-negative")
        d = self.denominator_exponent
        if d == 0:
            return self.numerator[k] if k < len(self.numerator) else 0
        total = 0
        for i, c in enumerate(self.numerator):
            if i > k:
                break
            total += c * math.comb(d - 1 + k - i, k - i)
        return total

    def values(self, m: int) -> list[int]:
        """H(0), ..., H(m-1) in one pass: the numerator cut or padded to m
        terms, then one running sum per factor 1/(1-t)."""
        if m < 0:
            raise ValueError("value count must be non-negative")
        out = list(self.numerator[:m]) + [0] * (m - len(self.numerator))
        for _ in range(self.denominator_exponent):
            out = list(accumulate(out))
        return out

    def __str__(self) -> str:
        poly = _poly_str(self.numerator)
        if self.denominator_exponent == 0:
            return poly
        return f"({poly}) / (1-t)^{self.denominator_exponent}"


def _trim(coeffs) -> tuple[int, ...]:
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _add_shifted(a, b, k):
    """a + t^k * b, trailing zeros trimmed."""
    out = list(a) + [0] * (k + len(b) - len(a))
    for i, c in enumerate(b):
        out[i + k] += c
    return _trim(out)


def _choose_pivot(gens):
    """The first variable in the most generators, split at its least
    positive exponent; None when no variable is in two generators."""
    counts = [len(gens) - col.count(0) for col in zip(*gens)]
    top = max(counts, default=0)
    if top < 2:
        return None
    v = counts.index(top)
    return v, min(g[v] for g in gens if g[v])


def _with_power(gens, v, k):
    """I + (xv^k), a filter since k is the least positive exponent of xv.

    xv^k divides exactly the rows with g[v] > 0, and no other row divides
    xv^k: only the zero row could, and alone in its set it is a leaf.
    """
    power = tuple(k if j == v else 0 for j in range(len(gens[0])))
    return tuple(sorted([g for g in gens if not g[v]] + [power], reverse=True))


def _colon_power(gens, v, k):
    """I : xv^k.  Rows with g[v] > 0 lose k at v and stay minimal among
    themselves, as do the untouched rows.  An untouched row cannot divide a
    reduced one without dividing its original, so the only row that can drop
    is an untouched row divided by a reduced row left with no xv.
    """
    reduced = [g[:v] + (g[v] - k,) + g[v + 1:] for g in gens if g[v]]
    cleared = [r for r in reduced if not r[v]]
    kept = [g for g in gens if not g[v]
            and not any(all(map(le, r, g)) for r in cleared)]
    return tuple(sorted(reduced + kept, reverse=True))


def _kpoly_pivot(gens0):
    """K-polynomial of a minimal, lex-descending set of exponent rows.

    One base case: when no variable is in two rows, the supports are
    pairwise disjoint, S/I is a tensor product of principal quotients and
    K = prod (1 - t^deg g); the empty set gives 1 and the zero row (the unit
    ideal) gives 1 - t^0 = 0.  Otherwise the pivot variable is in at least
    two rows, so both children have strictly smaller total degree and the
    recursion ends.  Both children of a split come out minimal and
    lex-descending, so equal ideals share a key.
    """
    memo = {}
    stack = [gens0]
    while stack:
        gens = stack[-1]
        if gens in memo:
            stack.pop()
            continue
        pivot = _choose_pivot(gens)
        if pivot is None:
            res = (1,)
            for g in gens:
                res = _add_shifted(res, [-c for c in res], sum(g))
            memo[gens] = res
            stack.pop()
            continue
        v, k = pivot
        g1 = _with_power(gens, v, k)
        g2 = _colon_power(gens, v, k)
        r1 = memo.get(g1)
        r2 = memo.get(g2)
        if r1 is not None and r2 is not None:
            memo[gens] = _add_shifted(r1, r2, k)
            stack.pop()
        else:
            if r1 is None:
                stack.append(g1)
            if r2 is None:
                stack.append(g2)
    return memo[gens0]


def kpolynomial(ideal: MonomialIdeal, engine: str = "pivot") -> tuple[int, ...]:
    """Numerator N(t) with F(S/I, t) = N(t)/(1-t)^n exactly (unreduced), by
    the pivot recursion.  ``engine`` must be "pivot" (else `ValueError`); it
    stays while ``perfbench/`` passes it, until ROADMAP item 1.  No child
    raises an lcm exponent and the colon's shift t^k is paid by the drop at
    xv, so no polynomial the recursion builds has a degree above the sum of
    the lcm's exponents: the K-polynomial cap (`CAPS`) holds that sum first."""
    if engine != "pivot":
        raise ValueError(f"unknown engine {engine!r}")
    if (degree := sum(ideal.lcm_exponents)) > CAPS["kpolynomial"].bound:
        refuse("kpolynomial", degree)
    return _kpoly_pivot(ideal.exponent_rows)


def _reduced_series(kpoly, n: int) -> HilbertSeries:
    """The series K(t)/(1-t)^n of S/I in n variables with every (1-t) factor
    cancelled; its denominator exponent is dim S/I.

    ``kpoly`` is the K-polynomial of S/I by either route: the pivot
    recursion, or the Euler characteristic of a Betti table.  Callers reject
    the unit ideal, whose K-polynomial is 0.
    """
    coeffs = list(kpoly)
    while sum(coeffs) == 0:  # the quotient by (1-t) has the partial sums
        coeffs = list(accumulate(coeffs[:-1]))
        n -= 1
    return HilbertSeries(tuple(coeffs), n)


def _stable_series(ideal: MonomialIdeal, table) -> HilbertSeries:
    """The reduced series of a stable ideal from its Eliahou-Kervaire
    `BettiTable`: the table's Euler characteristic, whose denominator
    exponent is checked against the closed-form dimension, the one runtime
    check of dim S/I.  Stability is not checked; callers vouch for it."""
    series = _reduced_series(table.euler_kpolynomial(), ideal.n)
    d, dim = series.denominator_exponent, _stable_dimension(ideal)
    if d != dim:
        raise AssertionError(
            f"reduced denominator exponent {d} != Krull dimension {dim}")
    return series


def hilbert_series(ideal: MonomialIdeal) -> HilbertSeries:
    """Reduced Hilbert series of S/I; rejects the unit ideal.  A stable
    ideal's is read off its Eliahou-Kervaire table, as in the CLI; any other
    ideal, or one whose table is over its cap, takes the pivot recursion."""
    if ideal.is_unit:
        raise UnitIdealError("the zero ring has no Hilbert series")
    try:
        return _stable_series(ideal, ek_betti_table(ideal))
    except (StabilityRequiredError, BettiTableTooLargeError):
        return _reduced_series(kpolynomial(ideal), ideal.n)


def h_polynomial(ideal: MonomialIdeal) -> HPolynomial:
    return hilbert_series(ideal).h_polynomial()


def h_degree(ideal: MonomialIdeal) -> int:
    return h_polynomial(ideal).degree


def hilbert_function(ideal: MonomialIdeal, k: int) -> int:
    """H(S/I, k): number of degree-k monomials outside the ideal.

    Each call computes the whole series; a caller that needs several degrees
    should read them all at once with ``hilbert_series(ideal).values(m)``.
    The tests check it against direct enumeration of the standard monomials.
    """
    if ideal.is_unit:
        raise UnitIdealError("the zero ring has no Hilbert function")
    if k < 0:
        raise ValueError("degree must be non-negative")
    return hilbert_series(ideal).coefficient(k)
