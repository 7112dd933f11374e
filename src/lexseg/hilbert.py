"""Hilbert functions, Hilbert series, and h-polynomials of monomial quotients.

The K-polynomial comes from the pivot recursion
N(I) = N(I + (xv^k)) + t^k * N(I : xv^k) (Bayer-Stillman, Bigatti).  Subset
inclusion-exclusion over generator lcms is kept as an independent engine,
run only on request (``engine="subsets"``) as the test suite's cross-check:
it visits all 2^g generator subsets.  The series is the K-polynomial with
all (1-t) factors cancelled; its denominator exponent is asserted to equal
the Krull dimension on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels
from .errors import UnitIdealError
from .monomials import (
    MonomialIdeal,
    count_standard_monomials,
    krull_dimension,
    minimalize_rows,
)

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


@dataclass(frozen=True)
class HPolynomial:
    """Numerator of the fully reduced Hilbert series; trailing coefficient nonzero."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coefficients)
        if not coeffs or coeffs[-1] == 0:
            raise ValueError("h-polynomial needs a nonzero trailing coefficient")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __str__(self) -> str:
        return _poly_str(self.coefficients)


@dataclass(frozen=True)
class HilbertSeries:
    """Series of a monomial quotient in the reduced form h(t)/(1-t)^d.

    Reduced means h(1) != 0, so d is forced; it always equals the Krull
    dimension of the quotient.
    """

    numerator: tuple[int, ...]
    denominator_exponent: int

    def __post_init__(self):
        num = tuple(int(c) for c in self.numerator)
        if not num or num[-1] == 0:
            raise ValueError("numerator needs a nonzero trailing coefficient")
        if sum(num) == 0:
            raise ValueError("numerator still divisible by (1-t)")
        if self.denominator_exponent < 0:
            raise ValueError("denominator exponent must be >= 0")
        object.__setattr__(self, "numerator", num)

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
    return tuple(int(c) for c in out)


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


def _kpoly_base(gens):
    """Closed form when at most one generator involves several variables."""
    mixed = [g for g in gens if _mixed_count(g) > 1]
    if len(mixed) > 1:
        return None
    pures = [g for g in gens if _mixed_count(g) == 1]
    res = (1,)
    for p in pures:
        res = _pmul_one_minus(res, sum(p))
    if mixed:
        m = mixed[0]
        colon = (1,)
        for p in pures:
            v = max(range(len(p)), key=lambda j: p[j])
            e = p[v] - m[v]
            # e > 0 since no pure power divides the mixed generator
            colon = _pmul_one_minus(colon, e)
        res = _padd(res, [-c for c in _pshift(colon, sum(m))])
    return res


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
    row = tuple(k if j == v else 0 for j in range(len(gens[0])))
    return minimalize_rows(list(gens) + [row])


def _colon_power(gens, v, k):
    rows = [tuple(max(e - k, 0) if j == v else e for j, e in enumerate(g))
            for g in gens]
    return minimalize_rows(rows)


def _kpoly_pivot(gens0):
    memo = {}
    stack = [gens0]
    while stack:
        gens = stack[-1]
        if gens in memo:
            stack.pop()
            continue
        if not gens:
            memo[gens] = (1,)
            stack.pop()
            continue
        if any(sum(g) == 0 for g in gens):
            memo[gens] = (0,)
            stack.pop()
            continue
        base = _kpoly_base(gens)
        if base is not None:
            memo[gens] = base
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


def kpolynomial(ideal: MonomialIdeal, engine: str = "auto") -> tuple[int, ...]:
    """Numerator N(t) with F(S/I, t) = N(t)/(1-t)^n exactly (unreduced).

    engine: "pivot" (recursive splitting), "auto" (the default, same as
    pivot), or "subsets" (inclusion-exclusion over all 2^g generator
    subsets, capped at SUBSET_CAP; an independent cross-check, never chosen
    by default).
    """
    if engine in ("auto", "pivot"):
        return _kpoly_pivot(tuple(m.exponents for m in ideal.gens))
    if engine == "subsets":
        g = len(ideal.gens)
        if (1 << g) > SUBSET_CAP:
            raise ValueError(f"{g} generators exceed the 2^20 subset cap; use pivot")
        if g == 0:
            return (1,)
        return _trim(_kernels.kpoly_counts(ideal.exponent_rows))
    raise ValueError(f"unknown engine {engine!r}")


def hilbert_series(ideal: MonomialIdeal, engine: str = "auto") -> HilbertSeries:
    """Reduced Hilbert series of S/I; rejects the unit ideal."""
    if ideal.is_unit:
        raise UnitIdealError("the zero ring has no Hilbert series")
    coeffs = list(kpolynomial(ideal, engine))
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


def h_polynomial(ideal: MonomialIdeal) -> HPolynomial:
    return hilbert_series(ideal).h_polynomial()


def h_degree(ideal: MonomialIdeal) -> int:
    return h_polynomial(ideal).degree


def hilbert_function(ideal: MonomialIdeal, k: int, method: str = "series") -> int:
    """H(S/I, k): number of degree-k monomials outside the ideal.

    method "series" expands the reduced series with exact integer binomials;
    method "enumeration" counts standard monomials directly.  The two agree
    everywhere (a tested invariant).
    """
    if ideal.is_unit:
        raise UnitIdealError("the zero ring has no Hilbert function")
    if k < 0:
        raise ValueError("degree must be non-negative")
    if method == "series":
        return hilbert_series(ideal).coefficient(k)
    if method == "enumeration":
        return count_standard_monomials(ideal, k)
    raise ValueError(f"unknown method {method!r}")
