"""Independent brute-force oracles used to pin expected values.

Everything here goes through `contains` (one divisibility scan over the
generators) and plain Python arithmetic only, so it shares no code path with
the counting kernels, bucketed searches or closed forms it validates.
`count_calls` is the one non-oracle: it counts calls to library functions.
"""

import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

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


def brute_is_lexsegment(ideal: MonomialIdeal) -> bool:
    """Definition check: in each degree, once a monomial is missing no
    lex-smaller one may be present."""
    for d in range(1, ideal.max_gen_degree + 1):
        seen_gap = False
        for m in all_monomials(ideal.n, d):
            inside = contains(ideal, m)
            if inside and seen_gap:
                return False
            if not inside:
                seen_gap = True
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
