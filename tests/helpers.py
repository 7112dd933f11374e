"""Independent brute-force oracles used to pin expected values, and the
seeded random ideals the property tests run them on.

The oracles go through `contains` (one divisibility scan over the
generators) or a plain pairwise scan, pruned at most by degree and largest
variable, and plain Python arithmetic only, so
they share no code path with the divisor trie, the prefix lookups or the
closed forms they validate.  `count_standard_monomials` is the enumeration
the Hilbert series is compared against; it runs the standard-monomial
counting kernel, which no runtime path uses, and `kpoly_subsets` the
inclusion-exclusion K-polynomial the pivot recursion is compared against.
`ek_closed_form` is the Eliahou-Kervaire table summed binomial by binomial,
against which the library's rows, read off each tally's span and runs, are
checked, and `euler_column_sums` a table's Euler characteristic summed
column by column over its whole rectangle, against which the library's
pass over its nonzero entries is checked.  `count_calls` counts calls to
library functions, and `assert_public` puts a value the library built
through its type's public constructor.
"""

import math
import random
import sys
from collections import Counter
from operator import le
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

import lexseg.cli  # noqa: F401  (loads every lexseg module for count_calls)
from lexseg import _kernels
from lexseg._value import Value
from lexseg.betti import TRIVIAL, BettiTable
from lexseg.monomials import Monomial, MonomialIdeal, contains, minimal_generators


def all_monomials(n: int, d: int) -> list[Monomial]:
    """Every degree-d monomial in n variables, lex-descending."""
    out = []
    for combo in combinations_with_replacement(range(n), d):
        e = [0] * n
        for v in combo:
            e[v] += 1
        out.append(Monomial(tuple(e)))
    out.sort(key=lambda m: m.exponents, reverse=True)
    return out


def brute_hilbert_function(ideal: MonomialIdeal, k: int) -> int:
    return sum(1 for m in all_monomials(ideal.n, k) if not contains(ideal, m))


def monomial_count(n: int, d: int) -> int:
    """Number of degree-d monomials in n variables."""
    if d < 0:
        return 0
    return math.comb(n - 1 + d, d)


def count_standard_monomials(ideal: MonomialIdeal, d: int) -> int:
    """Number of degree-d monomials outside the ideal, by pruned enumeration."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    if ideal.is_unit:
        return 0
    if ideal.is_zero or d < ideal.min_gen_degree:
        return monomial_count(ideal.n, d)
    return _kernels.count_standard(ideal.exponent_rows, d)


def kpoly_subsets(ideal: MonomialIdeal) -> tuple[int, ...]:
    """K-polynomial of S/I by inclusion-exclusion over all 2^g generator
    subsets (`_kernels.kpoly_counts`), trailing zeros trimmed: the pivot
    recursion's independent cross-check.  Refuses more than 20 generators."""
    rows = ideal.exponent_rows
    if len(rows) > 20:
        raise ValueError(f"{len(rows)} generators exceed the 2^20 subset cap")
    if not rows:
        return (1,)
    coeffs = _kernels.kpoly_counts(rows)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def random_monomial(rng: random.Random, n: int, max_degree: int) -> Monomial:
    """Uniformly spread monomial of degree 1..max_degree."""
    d = rng.randint(1, max_degree)
    e = [0] * n
    for _ in range(d):
        e[rng.randrange(n)] += 1
    return Monomial(tuple(e))


def random_monomial_ideal(rng: random.Random, n: int, max_degree: int,
                          max_gens: int) -> MonomialIdeal:
    """Proper nonzero monomial ideal with a seeded generating set.

    Candidates related by divisibility to an already chosen generator are
    resampled a few times, so the minimal generating set usually keeps the
    requested size instead of collapsing.
    """
    count = rng.randint(1, max_gens)
    chosen: list[Monomial] = []
    for _ in range(count):
        m = random_monomial(rng, n, max_degree)
        for _attempt in range(6):
            if not any(g.divides(m) or m.divides(g) for g in chosen):
                break
            m = random_monomial(rng, n, max_degree)
        chosen.append(m)
    return minimal_generators(n, chosen)


def random_edge_ideal(rng: random.Random, n: int) -> MonomialIdeal:
    """Edge ideal of a seeded random graph on n vertices: the squarefree
    quadrics x_i * x_j, each edge kept with probability 0.2.  Not stable
    once it has an edge, and its cover search grows exponentially in n."""
    edges = [(0,) * i + (1,) + (0,) * (j - i - 1) + (1,) + (0,) * (n - j - 1)
             for i in range(n) for j in range(i + 1, n) if rng.random() < 0.2]
    return MonomialIdeal.from_exponent_rows(n, edges)


def borel_closure(n: int, seeds) -> MonomialIdeal:
    """Smallest strongly stable ideal containing the seed monomials."""
    return _swap_closure(n, seeds, strong=True)


def stable_closure(n: int, seeds) -> MonomialIdeal:
    """Smallest stable ideal containing the seed monomials; unlike
    `borel_closure`, often not strongly stable."""
    return _swap_closure(n, seeds, strong=False)


def _swap_closure(n: int, seeds, strong: bool) -> MonomialIdeal:
    """Closes the seeds under every exchange x_j -> x_i with i < j, where
    x_j runs over the support when ``strong``, else over the largest
    variable only, and minimalizes.  The closed set's ideal is (strongly)
    stable, since its minimal generators are among the closed set.
    Termination is immediate since exchanges never raise degree and the
    degree blocks are finite.  An exchange that a seed divides is left out:
    each of its own exchanges is a multiple of that seed or of one of the
    seed's, so the ideal is the same, and a low-degree seed in early
    variables keeps the closure of a high-degree one small.
    """
    seeds = [m.exponents for m in seeds]
    pool = set(seeds)
    frontier = list(pool)
    while frontier:
        expo = frontier.pop()
        support = [j for j, e in enumerate(expo) if e]
        for j in (support if strong else support[-1:]):
            for i in range(j):
                e = list(expo)
                e[j] -= 1
                e[i] += 1
                t = tuple(e)
                if t not in pool and not any(all(map(le, s, t)) for s in seeds):
                    pool.add(t)
                    frontier.append(t)
    return MonomialIdeal.from_exponent_rows(n, pool)


def random_stable_ideal(rng: random.Random, n: int, max_degree: int,
                        max_seeds: int = 3) -> MonomialIdeal:
    seeds = [random_monomial(rng, n, max_degree)
             for _ in range(rng.randint(1, max_seeds))]
    return stable_closure(n, seeds)


def random_strongly_stable_ideal(rng: random.Random, n: int, max_degree: int,
                                 max_seeds: int = 3) -> MonomialIdeal:
    seeds = [random_monomial(rng, n, max_degree)
             for _ in range(rng.randint(1, max_seeds))]
    return borel_closure(n, seeds)


def lex_successor(e):
    """The next monomial after ``e`` in the lex-descending order of its
    degree, or None after the last one, xn^d."""
    p = max((j for j in range(len(e) - 1) if e[j]), default=None)
    if p is None:
        return None
    out = list(e[:p + 1]) + [0] * (len(e) - p - 1)
    out[p] -= 1
    out[p + 1] = sum(e[p + 1:]) + 1
    return tuple(out)


def degree_counts(rows) -> list[tuple[int, int]]:
    """How many rows have each degree, as (degree, count) pairs in ascending
    degree, as `macaulay._realize` and `monomials._lex_segment` take them."""
    return sorted(Counter(map(sum, rows)).items())


def lex_predecessor(e):
    """The monomial before ``e`` in the lex-descending order of its degree,
    or None before the first one, x1^d: the inverse of `lex_successor`."""
    q = max((j for j in range(1, len(e)) if e[j]), default=None)
    if q is None:
        return None
    out = list(e)
    out[q - 1] += 1
    out[q] = 0
    out[-1] += e[q] - 1
    return tuple(out)


def brute_is_lexsegment(ideal: MonomialIdeal) -> bool:
    """Definition check: in each degree, once a monomial is missing no
    lex-smaller one may be present, i.e. the missing (standard) monomials
    are closed under the lex successor.

    The standard monomials of degree d are grown from those of degree d - 1,
    since every divisor of a standard monomial is standard, so each degree
    costs n membership tests per standard monomial, not one per monomial.
    """
    n = ideal.n
    standard = {(0,) * n}
    for d in range(1, ideal.max_gen_degree + 1):
        grown = set()
        for e in standard:
            for j in range(n):
                t = e[:j] + (e[j] + 1,) + e[j + 1:]
                if not contains(ideal, Monomial(t)):
                    grown.add(t)
        standard = grown
        for e in standard:
            nxt = lex_successor(e)
            if nxt is not None and nxt not in standard:
                return False
    return True


def generator_shapes(ideal: MonomialIdeal) -> Counter:
    """How many minimal generators have each (degree, largest variable index),
    counted row by row."""
    return Counter((sum(u), max(j for j, e in enumerate(u) if e) + 1)
                   for u in ideal.exponent_rows)


def ek_closed_form(ideal: MonomialIdeal, shapes=None) -> BettiTable:
    """The Eliahou-Kervaire table of a stable ideal entry by entry:
    beta_{i+1,i+j}(S/I) = sum over generators u of degree j of
    C(max(u) - 1, i), one binomial per generator shape and i.  ``shapes``,
    counts by (degree, largest variable index) as `generator_shapes` gives
    them, stand in for the ideal's own, e.g. for tallies no ideal has."""
    if ideal.is_zero:
        return TRIVIAL
    entries = {(0, 0): 1}
    shapes = generator_shapes(ideal) if shapes is None else shapes
    for (j, m), count in shapes.items():
        for i in range(m):
            entries[i + 1, i + j] = (entries.get((i + 1, i + j), 0)
                                     + count * math.comb(m - 1, i))
    return BettiTable.from_entries(entries)


def euler_column_sums(table: BettiTable) -> tuple[int, ...]:
    """The Euler characteristic sum (-1)^p beta_{p,q} t^q of a Betti table
    by its definition, column by column: every entry beta_{p,p+r} of column
    p, zero or not, is added into t^(p+r) with sign (-1)^p, and trailing
    zero coefficients are dropped (the constant one stays)."""
    rows = table.rows
    out = [0] * (len(rows) + len(rows[0]) - 1)
    for p in range(len(rows[0])):
        for r, row in enumerate(rows):
            out[p + r] += (-1) ** p * row[p]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def random_betti_rows(rng: random.Random) -> list[list[int]]:
    """A seeded rectangle of Betti numbers with beta_{0,0} = 1: one row or
    one column now and then, zero rows and zero columns inside it, and
    entries from 0 up to past 2^64."""
    shape = rng.random()
    height = 1 if shape < 0.15 else rng.randint(1, 7)
    width = 1 if 0.15 <= shape < 0.3 else rng.randint(1, 7)
    zero_rows = {r for r in range(1, height) if rng.random() < 0.3}
    zero_columns = {p for p in range(1, width) if rng.random() < 0.3}
    rows = [[0 if r in zero_rows or p in zero_columns
             else rng.choice((0, rng.randint(1, 50), rng.randint(2**64, 2**70)))
             for p in range(width)] for r in range(height)]
    rows[0][0] = 1
    return rows


def brute_minimalize_rows(rows) -> tuple[tuple[int, ...], ...]:
    """The minimal exponent tuples under divisibility, sorted lex-descending:
    each row, by ascending degree, is scanned against every row kept so far."""
    kept = []
    for r in sorted(set(rows), key=sum):
        if not any(all(map(le, k, r)) for k in kept):
            kept.append(r)
    return tuple(sorted(kept, reverse=True))


def brute_is_stable(ideal: MonomialIdeal, strong: bool) -> bool:
    """Definition check: every swap x_j -> x_i with i < j of a generator stays
    in the ideal; j runs over the support when ``strong``, else over the
    largest dividing variable only.  Each distinct swap w is tested once, by a
    plain divisibility scan over the generators that could divide it: those
    of degree <= deg w whose largest variable divides w, so is at most max(w)."""
    by_top = {}  # position of the largest variable -> (degree, generator)
    for g in ideal.exponent_rows:
        top = max((j for j, e in enumerate(g) if e), default=-1)
        by_top.setdefault(top, []).append((sum(g), g))
    inside = set()
    for u in ideal.exponent_rows:
        support = [j for j, e in enumerate(u) if e]
        for j in (support if strong else support[-1:]):
            for i in range(j):
                e = list(u)
                e[j] -= 1
                e[i] += 1
                w = tuple(e)
                if w in inside:
                    continue
                d = sum(w)
                tops = [-1] + [k for k, e in enumerate(w) if e]
                if not any(gd <= d and all(map(le, g, w))
                           for k in tops for gd, g in by_top.get(k, ())):
                    return False
                inside.add(w)
    return True


@dataclass(frozen=True)
class SimplicialComplexRecord:
    """A simplicial complex stored by its maximal faces.

    ``vertices`` are 0-based variable positions; membership of any subset is
    derivable since complexes are closed under taking subsets.  The empty
    complex (no faces at all) is distinct from the complex {emptyset}.
    """

    vertices: tuple[int, ...]
    maximal_faces: tuple[frozenset, ...]

    @property
    def is_void(self) -> bool:
        return not self.maximal_faces

    def has_face(self, face) -> bool:
        face = frozenset(face)
        return any(face <= mx for mx in self.maximal_faces)


def upper_koszul_complex(ideal: MonomialIdeal, m: Monomial) -> SimplicialComplexRecord:
    """The complex {s in supp(m) : m / x_s lies in the ideal}.

    Downward closed since the ideal is closed under multiplication; its
    reduced homology in dimension i-1 gives beta_{i,m}(I).
    """
    supp = m.support
    faces = []
    for k in range(len(supp) + 1):
        for sub in combinations(supp, k):
            e = list(m.exponents)
            for v in sub:
                e[v] -= 1
            if contains(ideal, Monomial(tuple(e))):
                faces.append(frozenset(sub))
    maximal = tuple(f for f in faces if not any(f < g for g in faces))
    return SimplicialComplexRecord(supp, maximal)


def reduced_homology_ranks(K: SimplicialComplexRecord, length: int) -> tuple[int, ...]:
    """dim H~_{i-1}(K; Q) for i = 0..length-1, from every face of K and the
    simplicial boundary maps, ranked by `rank_oracle`."""
    faces = {sub for mx in K.maximal_faces for k in range(len(mx) + 1)
             for sub in combinations(sorted(mx), k)}
    by_size = [[] for _ in range(length + 1)]
    for f in faces:
        by_size[len(f)].append(f)

    def boundary_rank(k):
        # the map from faces with k vertices to faces with k - 1
        if k == 0 or not by_size[k]:
            return 0
        row = {f: i for i, f in enumerate(by_size[k - 1])}
        M = [[0] * len(by_size[k]) for _ in by_size[k - 1]]
        for col, f in enumerate(by_size[k]):
            for pos in range(k):
                M[row[f[:pos] + f[pos + 1:]]][col] = (-1) ** pos
        return rank_oracle(M)

    ranks = [boundary_rank(k) for k in range(length + 1)]
    return tuple(len(by_size[i]) - ranks[i] - ranks[i + 1] for i in range(length))


def rank_oracle(rows) -> int:
    """Rank over Q by plain integer Gaussian elimination: each row below the
    pivot row becomes piv * row - entry * pivot_row, divided by the gcd of
    its entries, so no fraction is ever formed."""
    M = [list(row) for row in rows]
    if not M or not M[0]:
        return 0
    nr, nc = len(M), len(M[0])
    rank = 0
    for c in range(nc):
        p = next((i for i in range(rank, nr) if M[i][c]), None)
        if p is None:
            continue
        M[rank], M[p] = M[p], M[rank]
        top = M[rank]
        piv = top[c]
        for i in range(rank + 1, nr):
            f = M[i][c]
            if f:
                row = [piv * a - f * b for a, b in zip(M[i], top)]
                g = math.gcd(*row) or 1  # 0 for a zero row
                M[i] = [a // g for a in row]
        rank += 1
        if rank == nr:
            break
    return rank


def linear_expansion_tops(a: int, d: int) -> tuple[int, ...]:
    """Tops of the greedy Macaulay expansion of a in degree d, each found by
    walking t upward from the lower index one binomial at a time."""
    tops = []
    rem = a
    deg = d
    while rem > 0:
        t = deg
        c = 1
        while True:
            c2 = c * (t + 1) // (t + 1 - deg)
            if c2 > rem:
                break
            t += 1
            c = c2
        tops.append(t)
        rem -= c
        deg -= 1
    return tuple(tops)


def count_calls(monkeypatch, *names) -> Counter:
    """Count calls to the named lexseg functions, however they are reached:
    every lexseg module that binds a name gets a counting wrapper.  A name
    that no lexseg module binds raises `NameError`, so a pin on a function
    that is gone fails instead of reading 0 calls."""
    calls = Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    modules = [m for key, m in sys.modules.items()
               if key == "lexseg" or key.startswith("lexseg.")]
    for name in names:
        bound = [m for m in modules if callable(getattr(m, name, None))]
        if not bound:
            raise NameError(f"no lexseg module binds a function {name!r}")
        for module in bound:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def assert_public(value) -> None:
    """Assert that ``value`` passes every check of its type's public
    constructor unchanged, ``type(value)(*value._values()) == value``, and
    so does each field of it that is itself a value.  The library builds
    its own results unchecked (`Value._trusted`); this is where their
    checks run."""
    assert type(value)(*value._values()) == value, value
    for field in value._values():
        if isinstance(field, Value):
            assert_public(field)
