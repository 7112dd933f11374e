"""Independent brute-force oracles used to pin expected values.

Everything here goes through `contains` (one divisibility scan over the
generators) and plain Python arithmetic only, so it shares no code path with
the counting kernels, bucketed searches or closed forms it validates.
`count_calls` is the one non-oracle: it counts calls to library functions.
"""

import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import lexseg.cli  # noqa: F401  (loads every lexseg module for count_calls)
from lexseg.monomials import Monomial, MonomialIdeal, contains


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


def _lex_successor(e):
    """The next monomial after ``e`` in the lex-descending order of its
    degree, or None after the last one, xn^d."""
    p = max((j for j in range(len(e) - 1) if e[j]), default=None)
    if p is None:
        return None
    out = list(e[:p + 1]) + [0] * (len(e) - p - 1)
    out[p] -= 1
    out[p + 1] = sum(e[p + 1:]) + 1
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
            nxt = _lex_successor(e)
            if nxt is not None and nxt not in standard:
                return False
    return True


def brute_is_stable(ideal: MonomialIdeal, strong: bool) -> bool:
    """Definition check: every swap x_j -> x_i with i < j of a generator stays
    in the ideal; j runs over the support when ``strong``, else over the
    largest dividing variable only."""
    for u in ideal.gens:
        support = u.support
        for j in (support if strong else support[-1:]):
            for i in range(j):
                e = list(u.exponents)
                e[j] -= 1
                e[i] += 1
                if not contains(ideal, Monomial(tuple(e))):
                    return False
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
    """Rank over Q via plain fraction Gaussian elimination."""
    M = [[Fraction(v) for v in row] for row in rows]
    if not M or not M[0]:
        return 0
    nr, nc = len(M), len(M[0])
    rank = 0
    for c in range(nc):
        p = next((i for i in range(rank, nr) if M[i][c] != 0), None)
        if p is None:
            continue
        M[rank], M[p] = M[p], M[rank]
        piv = M[rank][c]
        for i in range(rank + 1, nr):
            f = M[i][c] / piv
            if f:
                M[i] = [a - f * b for a, b in zip(M[i], M[rank])]
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
    every lexseg module that binds a name gets a counting wrapper."""
    calls = Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    modules = [m for key, m in sys.modules.items()
               if key == "lexseg" or key.startswith("lexseg.")]
    for module in modules:
        for name in names:
            real = getattr(module, name, None)
            if callable(real):
                monkeypatch.setattr(module, name, counted(name, real))
    return calls
