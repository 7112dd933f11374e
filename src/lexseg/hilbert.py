"""Hilbert functions, Hilbert series, and h-polynomials of monomial quotients.

The K-polynomial comes from the pivot recursion
N(I) = N(I + (xv^k)) + t^k * N(I : xv^k) (Bayer-Stillman, Bigatti).  It has
one base case, pure powers in distinct variables, and builds each child's
minimal generators straight from the split (`_with_power`, `_colon_power`).
Subset inclusion-exclusion over all 2^g generator lcms (``engine="subsets"``)
is kept only as the tests' independent cross-check.  The series is the
K-polynomial with all (1-t) factors cancelled (`_reduced_series`); its
denominator exponent is asserted to equal the Krull dimension on every call.
The series is the one source of Hilbert function values.

A stable ideal's K-polynomial also has a closed form: the alternating sum of
its Eliahou-Kervaire Betti table (`BettiTable.euler_kpolynomial`).  Callers
that build that table anyway (`construct`, `lexify`, `analyze` of a stable
ideal) pass its K-polynomial to `_reduced_series` and skip the recursion.
`hilbert_series` keeps the recursion for arbitrary ideals, and the tests
check that the two routes agree.
"""

from __future__ import annotations

import math
from operator import le

from . import _kernels
from ._value import Value, _set
from .errors import UnitIdealError
from .monomials import MonomialIdeal, krull_dimension

# largest subset count the explicit "subsets" engine will visit (g <= 20)
SUBSET_CAP = 1 << 20


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
        if any(type(c) is not int for c in num):
            raise TypeError(f"series numerator coefficients must be ints, got {num}")
        if not num or num[-1] == 0:
            raise ValueError("numerator needs a nonzero trailing coefficient")
        if sum(num) == 0:
            raise ValueError("numerator still divisible by (1-t)")
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


def _padd(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _pshift(p, k):
    if p == (0,):
        return p
    return _trim([0] * k + list(p))


def _pmul_one_minus(p, a):
    """Multiply p by (1 - t^a)."""
    out = list(p) + [0] * a
    for i, c in enumerate(p):
        out[i + a] -= c
    return _trim(out)


def _mixed_count(row) -> int:
    return sum(1 for e in row if e > 0)


def _choose_pivot(gens):
    """Variable occurring in the most generators, split at its lowest exponent.

    Restricted to variables appearing in some mixed generator so the sum
    branch always absorbs at least one mixed generator (termination).
    """
    n = len(gens[0])
    counts = [0] * n
    in_mixed = [False] * n
    for g in gens:
        mixed = _mixed_count(g) > 1
        for j, e in enumerate(g):
            if e > 0:
                counts[j] += 1
                if mixed:
                    in_mixed[j] = True
    v = max((j for j in range(n) if in_mixed[j]), key=lambda j: counts[j])
    k = min(g[v] for g in gens if g[v] > 0)
    return v, k


def _with_power(gens, v, k):
    """I + (xv^k), a filter since k is the least positive exponent of xv.

    xv^k divides exactly the rows with g[v] > 0, and no other row divides
    xv^k: only the zero row could, and it never shares a set with a mixed row.
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

    One base case: with no mixed generator the rows are pure powers in
    distinct variables, so K = prod (1 - t^deg g); the empty set gives 1 and
    the zero row (the unit ideal) gives 1 - t^0 = 0.  Both children of a
    split come out minimal and lex-descending, so equal ideals share a key.
    """
    memo = {}
    stack = [gens0]
    while stack:
        gens = stack[-1]
        if gens in memo:
            stack.pop()
            continue
        if all(_mixed_count(g) <= 1 for g in gens):
            res = (1,)
            for g in gens:
                res = _pmul_one_minus(res, sum(g))
            memo[gens] = res
            stack.pop()
            continue
        v, k = _choose_pivot(gens)
        g1 = _with_power(gens, v, k)
        g2 = _colon_power(gens, v, k)
        r1 = memo.get(g1)
        r2 = memo.get(g2)
        if r1 is not None and r2 is not None:
            memo[gens] = _padd(r1, _pshift(r2, k))
            stack.pop()
        else:
            if r1 is None:
                stack.append(g1)
            if r2 is None:
                stack.append(g2)
    return memo[gens0]


def kpolynomial(ideal: MonomialIdeal, engine: str = "pivot") -> tuple[int, ...]:
    """Numerator N(t) with F(S/I, t) = N(t)/(1-t)^n exactly (unreduced).

    engine: "pivot" (recursive splitting, the default and the only engine
    any runtime path uses) or "subsets" (inclusion-exclusion over all 2^g
    generator subsets, capped at SUBSET_CAP; an independent cross-check).
    """
    if engine == "pivot":
        return _kpoly_pivot(ideal.exponent_rows)
    if engine == "subsets":
        g = len(ideal.exponent_rows)
        if (1 << g) > SUBSET_CAP:
            raise ValueError(f"{g} generators exceed the 2^20 subset cap; use pivot")
        if g == 0:
            return (1,)
        return _trim(_kernels.kpoly_counts(ideal.exponent_rows))
    raise ValueError(f"unknown engine {engine!r}")


def _reduced_series(ideal: MonomialIdeal, kpoly) -> HilbertSeries:
    """The series K(t)/(1-t)^n of S/I with every (1-t) factor cancelled.

    ``kpoly`` is the K-polynomial of S/I by either route: the pivot
    recursion, or the Euler characteristic of a stable ideal's closed-form
    Betti table.  The reduced denominator exponent is asserted to equal the
    Krull dimension.  Callers reject the unit ideal, whose K-polynomial is 0.
    """
    coeffs = list(kpoly)
    d = ideal.n
    while sum(coeffs) == 0:
        acc = 0
        out = []
        for c in coeffs[:-1]:
            acc += c
            out.append(acc)
        coeffs = out
        d -= 1
    series = HilbertSeries(tuple(coeffs), d)
    dim = krull_dimension(ideal)
    if d != dim:
        raise AssertionError(
            f"reduced denominator exponent {d} != Krull dimension {dim}")
    return series


def hilbert_series(ideal: MonomialIdeal) -> HilbertSeries:
    """Reduced Hilbert series of S/I by the pivot recursion; rejects the unit ideal."""
    if ideal.is_unit:
        raise UnitIdealError("the zero ring has no Hilbert series")
    return _reduced_series(ideal, kpolynomial(ideal))


def h_polynomial(ideal: MonomialIdeal) -> HPolynomial:
    return hilbert_series(ideal).h_polynomial()


def h_degree(ideal: MonomialIdeal) -> int:
    return h_polynomial(ideal).degree


def hilbert_function(ideal: MonomialIdeal, k: int) -> int:
    """H(S/I, k): number of degree-k monomials outside the ideal.

    Each call computes the whole series; a caller that needs several degrees
    should read ``hilbert_series(ideal).coefficient(k)`` for each instead.
    The tests check it against direct enumeration (`count_standard_monomials`).
    """
    if ideal.is_unit:
        raise UnitIdealError("the zero ring has no Hilbert function")
    if k < 0:
        raise ValueError("degree must be non-negative")
    return hilbert_series(ideal).coefficient(k)
