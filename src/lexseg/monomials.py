"""Monomials, the pure lexicographic order, and monomial ideals.

The variable order is fixed once and for all as x1 > x2 > ... > xn; every
piece of lex logic in the package hard-wires this convention.  Exponent
vectors are plain tuples of non-negative ints; positions are 0-based while
the mathematical variable index (as in "largest variable dividing u") is
1-based.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from collections import Counter
from functools import cached_property
from itertools import accumulate, chain, compress
from operator import eq, gt, le

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
        return cls._trusted(n, minimalize_rows(_check_rows(rows, n)))

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

    @cached_property
    def _walks(self) -> dict:
        """Each stability walk's result by `WALKS` name; only `_tallies` uses it."""
        return {}

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
    trie (`_trie_add`) of the kept rows of strictly smaller degree, since
    distinct rows of equal degree never divide each other; a single-degree
    set makes no query.
    """
    by_degree = {}
    for r in rows:
        by_degree.setdefault(sum(r), []).append(r)
    trie = {}
    kept = []
    level = []
    for d in sorted(by_degree):
        _trie_add(trie, level)  # the previous degree's kept rows join the trie
        level = by_degree[d]
        if trie:
            level = [r for r in level if not _trie_divides(trie, r)]
        kept += level
    return kept


def _trie_add(trie, rows) -> None:
    """Store each row in the divisor ``trie`` (nested dicts) as the path of
    its support's (position, exponent) pairs, None marking its end, so the
    trie is as deep as the widest support, not n."""
    for r in rows:
        node = trie
        for pair in compress(enumerate(r), r):  # the (i, r[i]) with r[i] > 0
            node = node.setdefault(pair, {})
        node[None] = None


def _trie_divides(trie, w) -> bool:
    """Whether some row stored in ``trie`` by `_trie_add` divides w; only
    children keyed (p, e) with e <= w[p] are walked."""
    stack = [trie]
    while stack:
        for key, child in stack.pop().items():
            if key is None:
                return True
            p, e = key
            if e <= w[p]:
                stack.append(child)
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


def _lex_segment(n: int, sizes) -> tuple[MonomialIdeal, dict]:
    """The lexsegment ideal in n variables with k minimal generators in
    degree d for each (d, k) of ``sizes`` (ascending d, each k >= 1), and
    its tallies as in `_lexsegment_counts` for its Eliahou-Kervaire table,
    both from one `_lex_walk`.

    The walk puts each degree's rows right after the shadow of the lower
    degrees, so no lower-degree row divides them (Macaulay) and the rows are
    minimal without the constructor's trie pass; a lexsegment ideal is
    strongly stable, so no stability test runs either.  The rows are kept in
    walk order, already lex-descending: a degree's first row is the
    successor of least * xn^(d-e), which lowers an exponent before xn's and
    so falls below least.  Raises `ValueError` when the walk runs short of
    the sum of the k or its rows do not descend strictly.
    """
    tallies = {}
    rows = tuple([*_lex_walk(n, sizes, tallies)])  # exact size, see _value
    if len(rows) != (want := sum(k for _, k in sizes)):
        raise ValueError(f"the walk listed {len(rows)} of {want} rows")
    if not _strictly_descending(rows):
        raise ValueError("rows are not strictly lex-descending")
    return MonomialIdeal._trusted(n, rows), tallies


def _lex_walk(n: int, sizes, tallies):
    """The one lexsegment walk.  For each (d, k) of ``sizes``, in ascending
    degree d >= 1, it yields the k monomials of degree d right after the
    shadow of the rows yielded before: x1^d first while there are none, else
    the successor of least * xn^(d-e), least the last row yielded (of degree
    e); then each the successor of the one before.  It stops early when a
    degree runs out at xn^d.  ``tallies[d][m]`` counts the degree-d rows
    with largest variable x_m.  The rows descend strictly in lex order,
    across degrees too (see `_lex_segment`, which checks it at run time):
    `_lexsegment_counts` compares them with stored rows one by one and
    relies on this.

    One list holds the current row, and p its pivot: the position of its
    last nonzero exponent before xn (-1 for a power of xn), so positions
    p+1 to n-2 hold 0.  The successor moves one from x_(p+1) and all of xn's
    exponent to position p + 1, so x_(p+2) is its largest variable.  Its
    pivot is p + 1 when that position is still before xn's; else it is p
    while x_(p+1) keeps an exponent, and only once that reaches 0 is the row
    scanned back for the next.  The scan covers positions the pivot later
    steps forward over one row at a time, so each row costs one tuple and
    O(1) steps.  Multiplying the row by a power of xn keeps its pivot, so
    the pivot carries from degree to degree as it does from row to row.
    """
    last = n - 2  # the last pivot position, the one before xn
    cur = None
    for d, k in sizes:
        tally = tallies[d] = [0] * (n + 1)
        if cur is None:  # x1^d: largest variable x1, pivot 0 (none for n = 1)
            cur = [d] + [0] * (n - 1)
            p = 0 if n > 1 else -1
            tally[1] = 1
            yield tuple(cur)
            k -= 1
        else:
            cur[-1] += d - e
        for _ in range(k):
            if p < 0:
                return
            cur[p] -= 1
            b = cur[-1]
            cur[-1] = 0
            cur[p + 1] = b + 1
            tally[p + 2] += 1
            yield tuple(cur)
            if p < last:
                p += 1
            elif not cur[p]:
                p -= 1
                while p >= 0 and not cur[p]:
                    p -= 1
        e = d


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
    """dim S/I of a stable ideal: n - i, where i is the largest index of a
    variable that some minimal generator is a pure power of (i = 0 for the
    zero ideal); a pure power is a row with n - 1 zeros.  Lex-descending
    rows list the power of the largest such variable after every other
    pure power, so the rows are scanned from the end up to the first one.
    Lex order also lists every row that x1 divides before every row it does
    not, and the first row is the power of x1, so once the scan meets a
    row that x1 divides, the one pure power left is x1's: i = 1.

    Every associated prime of a stable ideal is (x1, ..., xj) for some j
    (Eliahou-Kervaire), so its one minimal prime is its radical,
    (x1, ..., xi) for some i.  Then a power of x_i lies in the ideal, so a
    minimal generator is a pure power of x_i, and no power of a later
    variable does.  Callers reject the unit ideal.
    """
    n = ideal.n
    for row in reversed(ideal.exponent_rows):
        if row[0]:
            return n - 1
        if row.count(0) == n - 1:
            return n - 1 - row.index(max(row))
    return n


def _prefixes_cover(rows, strong: bool) -> dict | None:
    """None unless the minimal generator ``rows`` span a stable ideal
    (strongly stable when ``strong``); else their tallies as in
    `_lexsegment_counts`, each read off a generator's degree and last run.

    A generator u is read as its word, the positions of its variables in
    ascending order, each repeated by its exponent; P_k(u) is the monomial of
    its first k letters.  Each generator g sets a bit in a table under each
    of its neighbours: bit i under g - e_i for every i in supp(g), or, when
    ``strong``, bit j under g + e_j - e_(j-1) for every j with g_(j-1) > 0.
    Then u passes when the bits found under P_(d-1)(u) (under P_d(u) when
    ``strong``), OR-ed over the generator degrees d <= deg u, cover every
    position below max(u) (every position of supp(u) but the first).  No
    swap is built and no membership query is made.

    Every monomial here, generator, neighbour or prefix, is held as its
    runs: the (position, exponent) pairs of its support, in ascending
    position, so no tuple grows with a degree.  P_k(u) is the runs of u
    that end by letter k, found by bisecting their cumulative ends, plus
    the part of the next run that k reaches into.
    """
    n = len(rows[0])
    gens = []
    table = {}
    for g in rows:
        runs = tuple([(i, e) for i, e in enumerate(g) if e])
        support = 0
        for r, (i, e) in enumerate(runs):
            support |= 1 << i
            lowered = runs[:r] + ((i, e - 1),) if e > 1 else runs[:r]
            rest = runs[r + 1:]
            if not strong:  # g - e_i
                key, bit = lowered + rest, i
            elif i + 1 < n:  # g + e_(i+1) - e_i: x_(i+1)'s run raised, or inserted
                m = rest[0][1] if rest and rest[0][0] == i + 1 else 0
                key, bit = lowered + ((i + 1, m + 1),) + rest[1 if m else 0:], i + 1
            else:
                continue
            table[key] = table.get(key, 0) | 1 << bit
        # the bits u must collect: supp(u) but x1, or every i below max(u)
        gens.append((runs, support & ~1 if strong else (1 << runs[-1][0]) - 1))
    counts = {d: [0] * (n + 1) for d in sorted(set(map(sum, rows)))}
    lag = 0 if strong else 1
    for runs, need in gens:
        ends = [*accumulate(e for _, e in runs)]
        degree = ends[-1]
        got = 0
        j = 0
        for d in counts:
            if d > degree:
                break
            k = d - lag
            j = bisect_right(ends, k, j)  # runs[:j] end by letter k
            start = ends[j - 1] if j else 0
            got |= table.get(runs[:j] + ((runs[j][0], k - start),) if k > start
                             else runs[:j], 0)
        if got & need != need:
            return None
        counts[degree][runs[-1][0] + 1] += 1
    return counts


WALKS = ("lexsegment", "strong", "stable")  # strongest first: each implies the next


def _tallies(ideal: MonomialIdeal, fact: str) -> dict | None:
    """None unless the proper nonzero ideal has ``fact``, one of `WALKS`;
    else its tallies as in `_lexsegment_counts`, kept in `_walks`, shared and
    never mutated.  A stronger fact that holds, or a weaker one that fails,
    answers at once; else the lexsegment walk runs first, O(g) and ended by
    the first stored row that differs, then the prefix walk of ``fact``
    (`_prefixes_cover`), each at most once per ideal."""
    _require_quotient_invariants(ideal)
    walks, rank = ideal._walks, WALKS.index(fact)
    for walk in ("lexsegment", fact):
        for known, tallies in [*walks.items()]:  # a copy: other threads may add
            if known == fact or (tallies is None) == (WALKS.index(known) > rank):
                return tallies
        if walk not in walks:
            walks[walk] = (_lexsegment_counts(ideal) if walk == "lexsegment" else
                           _prefixes_cover(ideal.exponent_rows, strong=walk == "strong"))
    return walks[fact]


def is_stable(ideal: MonomialIdeal) -> bool:
    """Stability: x_i * u / x_m stays in the ideal for every generator u with
    largest variable x_m and every i < m.

    Decided by `_tallies`: a lexsegment ideal is stable, and otherwise
    `_prefixes_cover` decides without a membership query: a swap passes
    when x_i * P_(d-1)(u) is a generator for some generator degree d <= deg u.
    Such a generator divides x_i * u / x_m, since P_(d-1)(u) divides u / x_m,
    so every passing swap is in the ideal.  Conversely, in a stable ideal
    every monomial w is g * v with g a minimal generator and max(g) <= min(v)
    (Eliahou-Kervaire), so g is the prefix of w of its own degree d.  For
    w = x_i * u / x_m that prefix is x_i * P_(d-1)(u): the other candidate,
    P_d(u) with d < deg u, divides u and so is no minimal generator.
    """
    return _tallies(ideal, "stable") is not None


def is_strongly_stable(ideal: MonomialIdeal) -> bool:
    """Strong stability: x_i * u / x_j stays in the ideal for every generator
    u, every x_j dividing u and every i < j.

    The adjacent swaps x_(j-1) * u / x_j are enough: any swap is a chain of
    them, and closure on the generators extends to the whole ideal (a swap
    of g * v moves a letter of g or leaves g dividing it).  Decided by
    `_tallies` as in `is_stable`: an adjacent swap of u passes when
    x_(j-1) * P_d(u) / x_j is a generator for some generator degree
    d <= deg u with x_j | P_d(u).  That generator divides the swap; and in a
    strongly stable ideal the swap's Eliahou-Kervaire generator is its
    prefix of that form, since the swap changes the first x_j of u's word
    into x_(j-1) and a shorter prefix would be a generator properly dividing u.
    """
    return _tallies(ideal, "strong") is not None


def is_lexsegment(ideal: MonomialIdeal) -> bool:
    """True iff every graded piece is a lex segment (`_lexsegment_counts`)."""
    return _tallies(ideal, "lexsegment") is not None


def _lexsegment_counts(ideal: MonomialIdeal) -> dict | None:
    """None unless the ideal is lexsegment; else a map from each generator
    degree d to a tally whose entry m counts the degree-d generators with
    largest variable x_m.

    Only generator degrees are walked: between them and past the largest,
    each piece is the shadow of the one before, and shadows of lex segments
    are lex segments.  If I_e is a segment with lex-least element u, its
    shadow in degree d > e is the segment ending at u * xn^(d-e) (Macaulay),
    and I_d is that shadow plus the degree-d generators.  So I_d is a
    segment iff its generators, lex-descending, are the monomials right
    after it: x1^d when I_(d-1) = 0, else the successor of u * xn^(d-e),
    then each the successor of the one before.  `_lex_walk` builds exactly
    these for the ideal's (degree, count) pairs, and its rows descend
    strictly in lex order (`_lex_segment`) as the stored rows do, so the
    ideal is lexsegment iff the two sequences are equal.  They are compared
    in stored order up to the first row that differs.
    """
    _require_quotient_invariants(ideal)
    rows, tallies = ideal.exponent_rows, {}
    walk = _lex_walk(ideal.n, sorted(Counter(map(sum, rows)).items()), tallies)
    stored = iter(rows)
    # the walk goes first, so a row it stopped short of is left in ``stored``
    return tallies if all(map(eq, walk, stored)) and next(stored, None) is None else None
