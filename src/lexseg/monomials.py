"""Monomials, the pure lexicographic order, and monomial ideals.

The variable order is fixed once and for all as x1 > x2 > ... > xn; every
piece of lex logic in the package hard-wires this convention.  Exponent
vectors are plain tuples of non-negative ints; positions are 0-based while
the mathematical variable index (as in "largest variable dividing u") is
1-based.
"""

from __future__ import annotations

import sys
from functools import cached_property
from itertools import chain
from operator import gt, le

from ._value import Value, _set
from .errors import AmbientMismatchError, UnitIdealError, ZeroIdealError


class Monomial(Value):
    """A monomial given by its exponent vector in a fixed ambient ring."""

    __slots__ = ("exponents",)

    def __init__(self, exponents):
        expo = tuple(exponents)
        _set(self, "exponents", _check_rows((expo,), len(expo))[0])

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
        return _row_str(self.exponents)


def _row_str(row) -> str:
    """The monomial with exponent vector ``row`` as text, e.g. "x1^2*x3"."""
    parts = [f"x{i}" if e == 1 else f"x{i}^{e}"
             for i, e in enumerate(row, 1) if e]
    return "*".join(parts) if parts else "1"


def _check_rows(rows, n: int) -> tuple[tuple[int, ...], ...]:
    """``rows`` as tuples, each checked as an exponent vector in n variables:
    ints (bools rejected), none negative or above ``sys.maxsize``, n of
    them; errors name a bad row."""
    if type(n) is not int:
        raise TypeError(f"variable count must be an int, got {n!r}")
    if n < 1:
        raise ValueError("ambient ring needs at least one variable")
    rows = tuple([tuple(r) for r in rows])  # exact size, see _value
    if not set(map(type, chain.from_iterable(rows))) <= {int}:
        bad = next(r for r in rows if not set(map(type, r)) <= {int})
        raise TypeError(f"exponents must be ints, got {bad}")
    if min(chain.from_iterable(rows), default=0) < 0:
        bad = next(r for r in rows if min(r, default=0) < 0)
        raise ValueError(f"negative exponent in {bad}")
    if max(chain.from_iterable(rows), default=0) > sys.maxsize:
        bad = next(r for r in rows if max(r, default=0) > sys.maxsize)
        raise ValueError(f"exponent above {sys.maxsize} in {bad}")
    if not set(map(len, rows)) <= {n}:
        bad = next(r for r in rows if len(r) != n)
        raise AmbientMismatchError(
            f"generator {bad} has {len(bad)} exponents, ambient ring has {n}")
    return rows


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


class MonomialIdeal(Value):
    """A monomial ideal stored by its unique minimal generating set.

    ``exponent_rows`` holds one tuple per generator, minimal (none divides
    another) and lex-descending; ``gens`` views them as `Monomial` objects.
    `from_exponent_rows` and `minimal_generators` normalize any generating
    set; the constructor itself rejects non-normalized input.
    """

    __slots__ = ("n", "exponent_rows", "__dict__")  # __dict__ holds the caches

    def __init__(self, n: int, exponent_rows):
        rows = _check_rows(exponent_rows, n)
        if not _strictly_descending(rows) or len(_undivided(rows)) < len(rows):
            raise ValueError("generating set not minimal and sorted lex-descending")
        _set(self, "n", n)
        _set(self, "exponent_rows", rows)

    @classmethod
    def zero(cls, n: int) -> "MonomialIdeal":
        return cls(n, ())

    @classmethod
    def unit(cls, n: int) -> "MonomialIdeal":
        return cls(n, ((0,) * n,))

    @classmethod
    def from_exponent_rows(cls, n: int, rows) -> "MonomialIdeal":
        """The ideal generated by any exponent vectors, minimalized."""
        # minimalize_rows gives checked, minimal, lex-descending rows: the
        # constructor's checks would only repeat its passes
        ideal = object.__new__(cls)
        _set(ideal, "n", n)
        _set(ideal, "exponent_rows", minimalize_rows(_check_rows(rows, n)))
        return ideal

    @cached_property
    def gens(self) -> tuple[Monomial, ...]:
        """The minimal generators as `Monomial` objects, lex-descending."""
        return tuple([Monomial(r) for r in self.exponent_rows])  # exact size

    @property
    def is_zero(self) -> bool:
        return not self.exponent_rows

    @property
    def is_unit(self) -> bool:
        return self.exponent_rows == ((0,) * self.n,)

    @property
    def is_proper(self) -> bool:
        return not self.is_unit

    @property
    def max_gen_degree(self) -> int:
        return max(map(sum, self.exponent_rows), default=0)

    @property
    def min_gen_degree(self) -> int:
        return min(map(sum, self.exponent_rows), default=0)

    @cached_property
    def lcm_exponents(self) -> tuple[int, ...]:
        """Componentwise max of the generator exponent vectors."""
        return tuple(map(max, zip((0,) * self.n, *self.exponent_rows)))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "generators": [list(r) for r in self.exponent_rows]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "MonomialIdeal":
        return cls.from_exponent_rows(data["n"], data["generators"])

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(map(_row_str, self.exponent_rows)) + ")"


def minimal_generators(n: int, raw) -> MonomialIdeal:
    """Normalize any generating set to the minimal one, sorted lex-descending.

    Idempotent and independent of input order; the empty set gives the zero
    ideal.
    """
    return MonomialIdeal.from_exponent_rows(n, [m.exponents for m in raw])


def _strictly_descending(rows) -> bool:
    """Whether the rows of a tuple are strictly lex-descending."""
    return all(map(gt, rows, rows[1:]))


def minimalize_rows(rows) -> tuple[tuple[int, ...], ...]:
    """The minimal exponent tuples under divisibility, sorted lex-descending.

    Duplicates collapse; every row must have the same length.
    """
    return tuple(sorted(_undivided(set(rows)), reverse=True))


def _undivided(rows) -> list[tuple[int, ...]]:
    """The rows of a duplicate-free collection that no other row divides.

    Rows are taken by ascending degree and each is queried against a divisor
    trie of the kept rows of strictly smaller degree, since distinct rows of
    equal degree never divide each other; a single-degree set makes no query.
    """
    by_degree = {}
    for r in rows:
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
    return kept


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


def _in_ideal(rows, e) -> bool:
    """True iff some generator row divides the exponent vector ``e``."""
    return any(all(map(le, g, e)) for g in rows)


def contains(ideal: MonomialIdeal, m: Monomial) -> bool:
    """True iff m lies in the ideal, i.e. some generator divides it."""
    if m.n != ideal.n:
        raise AmbientMismatchError(
            f"monomial in {m.n} variables, ideal in {ideal.n}")
    return _in_ideal(ideal.exponent_rows, m.exponents)


def _lex_segment_rows(n: int, counts) -> list[tuple[int, ...]]:
    """The lex-descending minimal generators of the lexsegment ideal with
    ``counts[d - 1]`` of them in degree d: as in `_lexsegment_counts`, from
    x1^d while the ideal is zero, else from the successor of least * xn."""
    rows = []
    least = None
    for d, count in enumerate(counts, 1):
        if least is not None:
            least = least[:-1] + (least[-1] + 1,)
        if not count:
            continue
        row = (d,) + (0,) * (n - 1) if least is None else _lex_next(least)
        rows.append(row)
        for _ in range(count - 1):
            row = _lex_next(row)
            rows.append(row)
        least = row
    rows.sort(reverse=True)
    return rows


def _lex_next(row, with_max: bool = False):
    """The row after ``row`` in the lex-descending order of its degree, or
    None after xn^d; ``with_max`` pairs it with its largest variable's index.
    The last exponent before xn, at position p, drops by one, and all after
    it (which sits on xn) plus that one moves to p + 1: x_(p+2) is then the
    largest variable."""
    p = len(row) - 2
    while p >= 0 and not row[p]:
        p -= 1
    if p < 0:
        return None
    nxt = row[:p] + (row[p] - 1, row[-1] + 1) + (0,) * (len(row) - p - 2)
    return (nxt, p + 2) if with_max else nxt


def _require_quotient_invariants(ideal: MonomialIdeal) -> None:
    if ideal.is_unit:
        raise UnitIdealError("not applicable to the unit ideal")
    if ideal.is_zero:
        raise ZeroIdealError("not applicable to the zero ideal")


def krull_dimension(ideal: MonomialIdeal) -> int:
    """dim S/I = n minus the minimum number of variables meeting every generator.

    Exhaustive branch-and-bound over variable covers; fine at desk scale
    (few generators, n <= 20).  The zero ideal has dimension n.  No runtime
    path calls it: dim S/I is the series' denominator exponent, checked by
    the tests against this independent route.
    """
    if ideal.is_unit:
        raise UnitIdealError("the zero ring has no dimension")
    if ideal.is_zero:
        return ideal.n
    supports = [frozenset(j for j, e in enumerate(r) if e)
                for r in ideal.exponent_rows]
    best = ideal.n
    stack = [(supports, 0)]  # (supports still to meet, variables used)
    while stack:
        remaining, used = stack.pop()
        if used >= best:
            continue
        if not remaining:
            best = used
            continue
        branch = min(remaining, key=len)
        rest = [s for s in remaining if s is not branch]
        for v in sorted(branch, reverse=True):  # the smallest v is popped first
            stack.append(([s for s in rest if v not in s], used + 1))
    return ideal.n - best


def _stable_dimension(ideal: MonomialIdeal) -> int:
    """dim S/I of a stable ideal in O(g): n - i, where i is the largest index
    of a variable that some minimal generator is a pure power of (i = 0 for
    the zero ideal); a pure power is a row with n - 1 zeros.

    Every associated prime of a stable ideal is (x1, ..., xj) for some j
    (Eliahou-Kervaire), so its one minimal prime is its radical,
    (x1, ..., xi) for some i.  Then a power of x_i lies in the ideal, so a
    minimal generator is a pure power of x_i, and no power of a later
    variable does.  Callers reject the unit ideal.
    """
    n = ideal.n
    return n - max((r.index(max(r)) + 1 for r in ideal.exponent_rows
                    if r.count(0) == n - 1), default=0)


def _prefixes_cover(rows, strong: bool) -> bool:
    """Whether the minimal generator ``rows`` span a stable ideal (strongly
    stable when ``strong``), by one walk over each generator's prefixes.

    A generator u is read as its word, the positions of its variables in
    ascending order, each repeated by its exponent; P_k(u) is the monomial of
    its first k letters.  Each generator g sets a bit in a table under each
    of its neighbours: bit i under g - e_i for every i in supp(g), or, when
    ``strong``, bit j under g + e_j - e_(j-1) for every j with g_(j-1) > 0.
    Then u passes when the bits found under P_(d-1)(u) (under P_d(u) when
    ``strong``), OR-ed over the generator degrees d <= deg u, cover every
    position below max(u) (every position of supp(u) but the first).  No
    swap is built and no membership query is made.
    """
    n = len(rows[0])
    words = []
    table = {}
    for g in rows:
        w = ()
        ends = []  # the position of the last copy of each letter
        for i, e in enumerate(g):
            if e:
                w += (i,) * e
                ends.append(len(w) - 1)
        support = 0
        for p in ends:
            i = w[p]
            support |= 1 << i
            if not strong:  # g - e_i
                key, bit = w[:p] + w[p + 1:], i
            elif i + 1 < n:  # g + e_(i+1) - e_i
                key, bit = w[:p] + (i + 1,) + w[p + 1:], i + 1
            else:
                continue
            table[key] = table.get(key, 0) | 1 << bit
        # the bits u must collect: supp(u) but x1, or every i below max(u)
        words.append((w, support & ~1 if strong else (1 << w[-1]) - 1))
    degrees = sorted(set(map(sum, rows)))
    lag = 0 if strong else 1
    for w, need in words:
        got = 0
        for d in degrees:
            if d > len(w):
                break
            got |= table.get(w[:d - lag], 0)
        if got & need != need:
            return False
    return True


def is_stable(ideal: MonomialIdeal) -> bool:
    """Stability: x_i * u / x_m stays in the ideal for every generator u with
    largest variable x_m and every i < m.

    Decided by `_prefixes_cover` without a membership query: a swap passes
    when x_i * P_(d-1)(u) is a generator for some generator degree d <= deg u.
    Such a generator divides x_i * u / x_m, since P_(d-1)(u) divides u / x_m,
    so every passing swap is in the ideal.  Conversely, in a stable ideal
    every monomial w is g * v with g a minimal generator and max(g) <= min(v)
    (Eliahou-Kervaire), so g is the prefix of w of its own degree d.  For
    w = x_i * u / x_m that prefix is x_i * P_(d-1)(u): the other candidate,
    P_d(u) with d < deg u, divides u and so is no minimal generator.
    """
    _require_quotient_invariants(ideal)
    return _prefixes_cover(ideal.exponent_rows, strong=False)


def is_strongly_stable(ideal: MonomialIdeal) -> bool:
    """Strong stability: x_i * u / x_j stays in the ideal for every generator
    u, every x_j dividing u and every i < j.

    The adjacent swaps x_(j-1) * u / x_j are enough: any swap is a chain of
    them, and closure on the generators extends to the whole ideal (a swap
    of g * v moves a letter of g or leaves g dividing it).  Decided by
    `_prefixes_cover` as in `is_stable`: an adjacent swap of u passes when
    x_(j-1) * P_d(u) / x_j is a generator for some generator degree
    d <= deg u with x_j | P_d(u).  That generator divides the swap; and in a
    strongly stable ideal the swap's Eliahou-Kervaire generator is its
    prefix of that form, since the swap changes the first x_j of u's word
    into x_(j-1) and a shorter prefix would be a generator properly dividing u.
    """
    _require_quotient_invariants(ideal)
    return _prefixes_cover(ideal.exponent_rows, strong=True)


def is_lexsegment(ideal: MonomialIdeal) -> bool:
    """True iff every graded piece is a lex segment (`_lexsegment_counts`)."""
    return _lexsegment_counts(ideal) is not None


def _lexsegment_counts(ideal: MonomialIdeal) -> dict | None:
    """None unless the ideal is lexsegment; else a map from each degree d
    from the least to the largest generator degree to a tally whose entry m
    counts the degree-d generators with largest variable x_m.

    The walk stops at the largest generator degree: past it each piece is
    the shadow of the one before, and shadows of lex segments are lex
    segments.  I_d is the shadow of I_(d-1) plus the degree-d generators, and
    if I_(d-1) is a segment with lex-least element u, its shadow is the
    segment ending at u * xn (Macaulay).  So I_d is a segment iff its
    generators, lex-descending, are the monomials right after that shadow:
    x1^d when I_(d-1) = 0, else the successor of u * xn, then each the
    successor of the one before.  `_lex_next` also gives each successor's
    largest variable, so the tallies take no other pass.
    """
    _require_quotient_invariants(ideal)
    n, by_degree = ideal.n, {}
    for g in ideal.exponent_rows:  # lex-descending within each degree
        by_degree.setdefault(sum(g), []).append(g)
    counts = {}
    least = None  # the lex-least monomial of I_(d-1)
    for d in range(min(by_degree), max(by_degree) + 1):
        if least is None:
            step = ((d,) + (0,) * (n - 1), 1)  # x1^d and its largest variable
        else:
            least = least[:-1] + (least[-1] + 1,)
            step = _lex_next(least, with_max=True)
        tally = counts[d] = [0] * (n + 1)
        for g in by_degree.get(d, ()):
            if step is None or g != step[0]:
                return None
            tally[step[1]] += 1
            least = g
            step = _lex_next(g, with_max=True)
    return counts


def _certified_lexsegment(n: int, rows) -> tuple[MonomialIdeal, dict]:
    """The lexsegment ideal whose minimal generators are ``rows``, listed
    lex-descending, and the walk's tallies for its Eliahou-Kervaire table;
    raises `ValueError` when the rows are not that.

    Strict lex order plus one `_lexsegment_counts` walk stand in for the
    constructor's trie check and any stability test (a lexsegment ideal is
    strongly stable): the walk puts each degree's rows after the shadow of
    the lower-degree rows, so the rows are minimal (Macaulay).  The rows are
    trusted to be exponent vectors in n variables.
    """
    rows = tuple(rows)
    if not _strictly_descending(rows):
        raise ValueError("rows are not strictly lex-descending")
    ideal = object.__new__(MonomialIdeal)
    _set(ideal, "n", n)
    _set(ideal, "exponent_rows", rows)
    counts = _lexsegment_counts(ideal) if rows else {}
    if counts is None:
        raise ValueError("rows do not generate a lexsegment ideal")
    return ideal, counts
