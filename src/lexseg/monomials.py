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
        _check_generators(self.n, gens)
        rows = tuple(m.exponents for m in gens)
        if minimalize_rows(rows) != rows:
            raise ValueError("generating set not minimal and sorted lex-descending")

    @classmethod
    def _from_minimal(cls, n: int, gens: tuple[Monomial, ...]) -> "MonomialIdeal":
        """The ideal on ``gens``, already checked against n, minimal and
        sorted lex-descending: skips the constructor's minimality check."""
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "n", n)
        object.__setattr__(ideal, "gens", gens)
        return ideal

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
    raw = tuple(raw)
    _check_generators(n, raw)
    by_row = {m.exponents: m for m in raw}
    return MonomialIdeal._from_minimal(
        n, tuple(by_row[r] for r in minimalize_rows(by_row)))


def _check_generators(n: int, gens) -> None:
    if n < 1:
        raise ValueError("ambient ring needs at least one variable")
    for m in gens:
        if m.n != n:
            raise AmbientMismatchError(
                f"generator {m} has {m.n} exponents, ambient ring has {n}")


def minimalize_rows(rows) -> tuple[tuple[int, ...], ...]:
    """The minimal exponent tuples under divisibility, sorted lex-descending.

    Duplicates collapse; every row must have the same length.  Rows are
    taken by ascending degree and each is queried against a divisor trie of
    the kept rows of strictly smaller degree, since distinct rows of equal
    degree never divide each other; a single-degree set makes no query.
    """
    by_degree = {}
    for r in set(rows):
        by_degree.setdefault(sum(r), []).append(r)
    trie = {}
    kept = []
    level = []
    for d in sorted(by_degree):
        for r in level:  # the previous degree's kept rows join the trie
            node = trie
            for e in r:
                node = node.setdefault(e, {})
        level = by_degree[d]
        if trie:
            level = [r for r in level if not _trie_divides(trie, r)]
        kept += level
    return tuple(sorted(kept, reverse=True))


def _trie_divides(trie, w) -> bool:
    """Whether some row stored in ``trie`` (nested dicts keyed by the
    exponent at each position) divides w; only children keyed <= w[p] are
    walked at depth p."""
    last = len(w) - 1
    stack = [(trie, 0)]
    while stack:
        node, p = stack.pop()
        bound = w[p]
        for e, child in node.items():
            if e <= bound:
                if p == last:
                    return True
                stack.append((child, p + 1))
    return False


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


def lex_walk(n: int, d: int, start: int, stop: int) -> list[Monomial]:
    """The degree-d monomials of lex ranks start, ..., stop - 1, in order.

    Equal to ``[lex_unrank(n, d, r) for r in range(start, stop)]``, but only
    ``start`` is unranked; each later monomial is the lex-next-smaller one.
    """
    total = monomial_count(n, d)
    if not 0 <= start <= stop <= total:
        raise ValueError(f"ranks {start}..{stop} out of range for {total} monomials")
    if start == stop:
        return []
    first = lex_unrank(n, d, start)
    out = [first]
    e = list(first.exponents)
    for _ in range(stop - start - 1):
        # lower the last exponent before xn and move everything after it,
        # all of which sits on xn, plus one to the next variable
        p = n - 2
        while not e[p]:
            p -= 1
        tail = e[n - 1]
        e[n - 1] = 0
        e[p] -= 1
        e[p + 1] = tail + 1
        out.append(Monomial(tuple(e)))
    return out


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

    A swap passes when its prefix of some generator degree is a generator;
    the prefix of degree d is the first d variables of w in index order,
    counted with multiplicity.  Every swap is first looked up whole (its
    prefix of full degree), and only those that are not generators are
    tried at the lower degrees.  The test is exact both ways.  A prefix
    divides w, so a hit puts w in the ideal.  Conversely, if every swap lies
    in the ideal, the ideal is stable (strongly stable when ``strong``), and
    by the Eliahou-Kervaire decomposition every w in a stable ideal is g * v
    with g a minimal generator and max(g) <= min(v); then g is the prefix of
    w of its own degree, so every swap hits.
    """
    gens = set(rows)
    missed = []  # swaps that are not generators themselves
    for u in rows:
        support = [j for j, e in enumerate(u) if e]
        for j in (support if strong else support[-1:]):
            for i in range(j):
                w = list(u)
                w[j] -= 1
                w[i] += 1
                if tuple(w) not in gens:
                    missed.append(w)
    if not missed:
        return True
    degrees = sorted(set(map(sum, rows)))
    return all(_has_lower_prefix(gens, degrees, w) for w in missed)


def _has_lower_prefix(gens, degrees, w) -> bool:
    """Whether the prefix of w of some degree in ``degrees`` (ascending)
    below deg w is in ``gens``."""
    total = sum(w)
    p = below = 0  # below = degree of w[:p]
    for d in degrees:
        if d >= total:
            return False
        while below + w[p] < d:
            below += w[p]
            p += 1
        if tuple(w[:p]) + (d - below,) + (0,) * (len(w) - p - 1) in gens:
            return True
    return False


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
    is min over generators g of g * xn^(d - deg g); degree by degree that is
    the smaller of xn times the previous one and the lex-least generator of
    degree d.  Its size is dim S_d - H(S/I, d), read off the reduced Hilbert
    series: ``series``, when the caller already holds it, else
    `hilbert_series(ideal)`.
    """
    _require_quotient_invariants(ideal)
    if series is None:
        from .hilbert import hilbert_series  # hilbert imports this module
        series = hilbert_series(ideal)
    n = ideal.n
    # gens are lex-descending, so the last of each degree is its lex-least
    least_gen = {sum(g): g for g in ideal.exponent_rows}
    least = None
    for d in range(ideal.min_gen_degree, ideal.max_gen_degree + 1):
        if least is not None:
            least = least[:-1] + (least[-1] + 1,)
        g = least_gen.get(d)
        if g is not None and (least is None or g < least):
            least = g
        cnt = monomial_count(n, d) - series.coefficient(d)
        if lex_rank(Monomial(least)) != cnt - 1:
            return False
    return True
