"""Monomials, the pure lexicographic order, and monomial ideals.

The variable order is fixed once and for all as x1 > x2 > ... > xn; every
piece of lex logic in the package hard-wires this convention.  Exponent
vectors are plain tuples of non-negative ints; positions are 0-based while
the mathematical variable index (as in "largest variable dividing u") is
1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import le
from typing import TYPE_CHECKING

from . import _kernels
from .errors import AmbientMismatchError, UnitIdealError, ZeroIdealError

if TYPE_CHECKING:
    from .hilbert import HilbertSeries


@dataclass(frozen=True)
class Monomial:
    """A monomial given by its exponent vector in a fixed ambient ring."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        expo = tuple(self.exponents)
        if any(type(e) is not int for e in expo):
            raise TypeError(f"exponents must be ints, got {expo}")
        if len(expo) < 1:
            raise ValueError("ambient ring needs at least one variable")
        if any(e < 0 for e in expo):
            raise ValueError(f"negative exponent in {expo}")
        object.__setattr__(self, "exponents", expo)

    @property
    def n(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def support(self) -> tuple[int, ...]:
        """0-based positions of the variables dividing the monomial."""
        return tuple(i for i, e in enumerate(self.exponents) if e > 0)

    @property
    def max_index(self) -> int:
        """1-based index of the largest variable dividing the monomial; 0 for 1."""
        for i in range(self.n - 1, -1, -1):
            if self.exponents[i] > 0:
                return i + 1
        return 0

    def divides(self, other: "Monomial") -> bool:
        _check_ambient(self, other)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __str__(self) -> str:
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        return "*".join(parts) if parts else "1"


def _check_ambient(u: Monomial, v: Monomial) -> None:
    if u.n != v.n:
        raise AmbientMismatchError(f"monomials live in {u.n} and {v.n} variables")


def lex_compare(u: Monomial, v: Monomial) -> int:
    """Pure lex comparison: +1 if u > v, 0 if equal, -1 if u < v.

    u > v iff at the first position where the exponent vectors differ the
    exponent of u is larger.  Tuple comparison implements exactly this.
    """
    _check_ambient(u, v)
    if u.exponents > v.exponents:
        return 1
    if u.exponents < v.exponents:
        return -1
    return 0


def divides(u: Monomial, v: Monomial) -> bool:
    """True iff u divides v componentwise."""
    return u.divides(v)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal stored by its unique minimal generating set.

    ``gens`` is always minimal (no generator divides another) and sorted
    lex-descending.  Use `minimal_generators` / `from_monomials` to build
    ideals from arbitrary generating sets; the constructor itself rejects
    non-normalized input.
    """

    n: int
    gens: tuple[Monomial, ...]

    def __post_init__(self):
        gens = tuple(self.gens)
        object.__setattr__(self, "gens", gens)
        if self.n < 1:
            raise ValueError("ambient ring needs at least one variable")
        for m in gens:
            if m.n != self.n:
                raise AmbientMismatchError(
                    f"generator {m} has {m.n} exponents, ambient ring has {self.n}")
        rows = tuple(m.exponents for m in gens)
        if minimalize_rows(rows) != rows:
            raise ValueError("generating set not minimal and sorted lex-descending")

    @classmethod
    def zero(cls, n: int) -> "MonomialIdeal":
        return cls(n, ())

    @classmethod
    def unit(cls, n: int) -> "MonomialIdeal":
        return cls(n, (Monomial((0,) * n),))

    @classmethod
    def from_monomials(cls, n: int, monomials) -> "MonomialIdeal":
        return minimal_generators(n, monomials)

    @classmethod
    def from_exponent_rows(cls, n: int, rows) -> "MonomialIdeal":
        return minimal_generators(n, [Monomial(tuple(r)) for r in rows])

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].degree == 0

    @property
    def is_proper(self) -> bool:
        return not self.is_unit

    @property
    def max_gen_degree(self) -> int:
        return max((m.degree for m in self.gens), default=0)

    @property
    def min_gen_degree(self) -> int:
        return min((m.degree for m in self.gens), default=0)

    @cached_property
    def exponent_rows(self) -> tuple[tuple[int, ...], ...]:
        """The generator exponent vectors, one tuple per generator."""
        return tuple(m.exponents for m in self.gens)

    @cached_property
    def lcm_exponents(self) -> tuple[int, ...]:
        """Componentwise max of the generator exponent vectors."""
        out = [0] * self.n
        for m in self.gens:
            for i, e in enumerate(m.exponents):
                if e > out[i]:
                    out[i] = e
        return tuple(out)

    def contains(self, m: Monomial) -> bool:
        return contains(self, m)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "generators": [list(m.exponents) for m in self.gens]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "MonomialIdeal":
        n = data["n"]
        if type(n) is not int:
            raise TypeError(f"variable count must be an int, got {n!r}")
        return cls.from_exponent_rows(n, data["generators"])

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(str(m) for m in self.gens) + ")"


def minimal_generators(n: int, raw) -> MonomialIdeal:
    """Normalize any generating set to the minimal one, sorted lex-descending.

    Idempotent and independent of input order; the empty set gives the zero
    ideal.
    """
    by_row = {}
    for m in raw:
        if m.n != n:
            raise AmbientMismatchError(
                f"generator {m} has {m.n} exponents, ambient ring has {n}")
        by_row[m.exponents] = m
    return MonomialIdeal(n, tuple(by_row[r] for r in minimalize_rows(by_row)))


def minimalize_rows(rows) -> tuple[tuple[int, ...], ...]:
    """The minimal exponent tuples under divisibility, sorted lex-descending.

    Duplicates collapse; every row must have the same length.
    """
    kept = []
    for r in sorted(set(rows), key=sum):
        if not any(all(map(le, k, r)) for k in kept):
            kept.append(r)
    return tuple(sorted(kept, reverse=True))


def contains(ideal: MonomialIdeal, m: Monomial) -> bool:
    """True iff m lies in the ideal, i.e. some generator divides it."""
    if m.n != ideal.n:
        raise AmbientMismatchError(
            f"monomial in {m.n} variables, ideal in {ideal.n}")
    return _kernels._in_ideal(ideal.exponent_rows, m.exponents)


def monomial_count(n: int, d: int) -> int:
    """Number of degree-d monomials in n variables."""
    if d < 0:
        return 0
    return math.comb(n - 1 + d, d)


def count_standard_monomials(ideal: MonomialIdeal, d: int) -> int:
    """Number of degree-d monomials outside the ideal, by pruned enumeration.

    The reference the tests compare the series' Hilbert function against;
    no runtime path calls it.
    """
    if d < 0:
        raise ValueError("degree must be non-negative")
    if ideal.is_unit:
        return 0
    if ideal.is_zero or d < ideal.min_gen_degree:
        return monomial_count(ideal.n, d)
    return _kernels.count_standard(ideal.exponent_rows, d)


def lex_rank(m: Monomial) -> int:
    """0-based position of m in the lex-descending list of its degree block."""
    n, d = m.n, m.degree
    rank = 0
    rem = d
    for pos in range(n - 1):
        e = m.exponents[pos]
        for v in range(rem, e, -1):
            rank += monomial_count(n - pos - 1, rem - v)
        rem -= e
    return rank


def lex_unrank(n: int, d: int, rank: int) -> Monomial:
    """Inverse of `lex_rank`: the monomial at 0-based ``rank`` in degree d."""
    total = monomial_count(n, d)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} out of range for {total} monomials")
    expos = []
    rem = d
    for pos in range(n - 1):
        for v in range(rem, -1, -1):
            block = monomial_count(n - pos - 1, rem - v)
            if rank < block:
                expos.append(v)
                rem -= v
                break
            rank -= block
    expos.append(rem)
    return Monomial(tuple(expos))


def _require_quotient_invariants(ideal: MonomialIdeal) -> None:
    if ideal.is_unit:
        raise UnitIdealError("not applicable to the unit ideal")
    if ideal.is_zero:
        raise ZeroIdealError("not applicable to the zero ideal")


def krull_dimension(ideal: MonomialIdeal) -> int:
    """dim S/I = n minus the minimum number of variables meeting every generator.

    Exhaustive branch-and-bound over variable covers; fine at desk scale
    (few generators, n <= 20).  The zero ideal has dimension n.
    """
    if ideal.is_unit:
        raise UnitIdealError("the zero ring has no dimension")
    if ideal.is_zero:
        return ideal.n
    supports = [frozenset(g.support) for g in ideal.gens]
    best = [ideal.n]

    def cover(remaining, used):
        if used >= best[0]:
            return
        if not remaining:
            best[0] = used
            return
        branch = min(remaining, key=len)
        rest = [s for s in remaining if s is not branch]
        for v in sorted(branch):
            cover([s for s in rest if v not in s], used + 1)

    cover(supports, 0)
    return ideal.n - best[0]


def _swaps_stay_inside(rows, strong: bool) -> bool:
    """Whether every swap w = x_i * u / x_j (i < j, x_j | u) of a generator
    row u lies in the ideal minimally generated by ``rows``; j runs over the
    support of u when ``strong``, else only over its largest variable.

    Only one bucket of generators can divide w.  Since u is a minimal
    generator, u / x_j = w / x_i lies outside the ideal, so a generator g
    dividing w does not divide w / x_i: g_i > w_i - 1 = u_i, and g | w gives
    g_i <= w_i = u_i + 1.  Hence g_i = u_i + 1, and the rows are bucketed
    once by (position, exponent) so each swap scans bucket (i, u_i + 1) only.
    """
    buckets = {}
    for g in rows:
        for p, e in enumerate(g):
            if e:
                buckets.setdefault((p, e), []).append(g)
    for u in rows:
        support = [j for j, e in enumerate(u) if e]
        for j in (support if strong else support[-1:]):
            for i in range(j):
                w = list(u)
                w[j] -= 1
                w[i] += 1
                if not any(all(map(le, g, w))
                           for g in buckets.get((i, w[i]), ())):
                    return False
    return True


def is_stable(ideal: MonomialIdeal) -> bool:
    """Stability: x_i * u / x_max(u) stays in the ideal for every generator u, i < max(u)."""
    _require_quotient_invariants(ideal)
    return _swaps_stay_inside(ideal.exponent_rows, strong=False)


def is_strongly_stable(ideal: MonomialIdeal) -> bool:
    """Strong stability: every swap x_j -> x_i with i < j keeps generators in the ideal."""
    _require_quotient_invariants(ideal)
    return _swaps_stay_inside(ideal.exponent_rows, strong=True)


def is_lexsegment(ideal: MonomialIdeal,
                  series: HilbertSeries | None = None) -> bool:
    """True iff every graded piece of the ideal is a lex-descending initial segment.

    Checked for each degree up to the maximal generator degree, which
    suffices: beyond it every graded piece is the shadow of the previous one,
    and shadows of lex segments are lex segments.  The piece in degree d is a
    segment iff its size equals 1 + the rank of its lex-least element, which
    is min over generators g of g * xn^(d - deg g).  Its size is
    dim S_d - H(S/I, d), read off the reduced Hilbert series: ``series``,
    when the caller already holds it, else `hilbert_series(ideal)`.
    """
    _require_quotient_invariants(ideal)
    if series is None:
        from .hilbert import hilbert_series  # hilbert imports this module
        series = hilbert_series(ideal)
    n = ideal.n
    for d in range(ideal.min_gen_degree, ideal.max_gen_degree + 1):
        cnt = monomial_count(n, d) - series.coefficient(d)
        if cnt == 0:
            continue
        least = None
        for g in ideal.gens:
            if g.degree > d:
                continue
            e = list(g.exponents)
            e[n - 1] += d - g.degree
            cand = tuple(e)
            if least is None or cand < least:
                least = cand
        if lex_rank(Monomial(least)) != cnt - 1:
            return False
    return True
