"""Inner loops of the Betti oracle, plus the test references beside them.

At runtime only the Betti oracle runs these loops, and it reads each complex
off the generators dividing m, with no membership query; the Hilbert series
uses none of them.  `count_standard`, `kpoly_counts` and `kernel_mode` are
test references that `perfbench/` still names.  Plain Python over tuple rows
of one common length n; all arithmetic is on Python ints, so ranks are exact.
"""

from collections import Counter
from functools import reduce
from itertools import product
from operator import and_, le


def kernel_mode():
    """Always 'python': every kernel is plain Python."""
    return "python"


def count_standard(gens, degree):
    """Number of degree-``degree`` monomials divisible by no row of ``gens``.

    DFS over exponent vectors e[0..n-1] summing to ``degree``.  At depth t
    only generators whose last variable is x_{t+1} can newly divide the
    prefix; once one divides it, every larger e[t] is divisible too, so each
    such generator caps the range of e[t].
    """
    n = len(gens[0])
    # ending[t]: (g[:t], g[t]) for each generator whose last variable is t
    ending = [[] for _ in range(n)]
    for g in gens:
        last = max((j for j, v in enumerate(g) if v), default=-1)
        if last < 0:
            return 0  # the unit ideal contains everything
        ending[last].append((g[:last], g[last]))
    e = [0] * n

    def walk(t, avail):
        cap = avail
        for head, top in ending[t]:
            if top <= cap and all(map(le, head, e)):
                cap = top - 1
        if t == n - 1:
            # the last exponent is forced to be ``avail``
            return 1 if cap == avail else 0
        total = 0
        for v in range(cap + 1):
            e[t] = v
            total += walk(t + 1, avail - v)
        return total

    return walk(0, degree)


def kpoly_counts(gens):
    """Inclusion-exclusion numerator over the full denominator (1-t)^n.

    Returns c with c[d] = sum over generator subsets whose lcm has total
    degree d of (-1)^(subset size).  Subsets with equal lcm are merged as
    generators are added, but the sum still ranges over all 2^g subsets;
    callers cap g at 20.
    """
    terms = {(0,) * len(gens[0]): 1}
    for g in gens:
        grown = dict(terms)
        for lcm, c in terms.items():
            key = tuple(map(max, lcm, g))
            grown[key] = grown.get(key, 0) - c
        terms = grown
    coeffs = [0] * (max(map(sum, terms)) + 1)
    for lcm, c in terms.items():
        coeffs[sum(lcm)] += c
    return coeffs


def bareiss_rank(rows):
    """Rank over Q of an integer matrix (a list of row lists), in place.

    Fraction-free elimination: every entry stays an integer, and Python ints
    never overflow.
    """
    if not rows or not rows[0]:
        return 0
    nr, nc = len(rows), len(rows[0])
    rank = 0
    prev = 1
    for c in range(nc):
        p = next((i for i in range(rank, nr) if rows[i][c] != 0), None)
        if p is None:
            continue
        if p != rank:
            rows[rank], rows[p] = rows[p], rows[rank]
        rr = rows[rank]
        piv = rr[c]
        for i in range(rank + 1, nr):
            ri = rows[i]
            mic = ri[c]
            for j in range(nc):
                ri[j] = (ri[j] * piv - mic * rr[j]) // prev
        prev = piv
        rank += 1
        if rank == nr:
            break
    return rank


def betti_at_multidegree(gens, m):
    """beta_{i,m}(I) for i = 0..|supp(m)|, the ideal given by generator rows.

    beta_{i,m} is the rank of the reduced homology H~_{i-1} of the complex
    {S subset of supp(m) : m / x_S in I}.  Its faces are the subsets of the
    generating faces, one per generator g dividing m: the positions where
    g_j < m_j, as a bitmask over supp(m).  A position in every generating
    face makes the complex a cone, which happens exactly when m is not the
    lcm of its divisors (Gasharov-Peeva-Welker); with no divisor m is outside
    I.  Either way every beta is 0 and [0] is returned.
    """
    supp = [j for j, v in enumerate(m) if v > 0]
    tops = {sum(1 << idx for idx, j in enumerate(supp) if g[j] < m[j])
            for g in gens if all(map(le, g, m))}
    if reduce(and_, tops, -1):
        return [0]
    k = len(supp)
    # faces[d]: bitmask over supp -> row index, for each face with d vertices
    faces = [{} for _ in range(k + 1)]
    for b in range(1 << k):
        if any(not b & ~f for f in tops):
            layer = faces[b.bit_count()]
            layer[b] = len(layer)
    # ranks[d] = rank of the boundary map from d+1-vertex to d-vertex faces,
    # d = 0 being the augmentation; ranks[k + 1] = 0 serves as ranks[-1]
    ranks = [0] * (k + 2)
    for d in range(k):
        rows, cols = faces[d], faces[d + 1]
        if not cols:
            break
        M = [[0] * len(cols) for _ in range(len(rows))]
        for b, col in cols.items():
            sign = 1
            for idx in range(k):
                if b >> idx & 1:
                    M[rows[b & ~(1 << idx)]][col] = sign
                    sign = -sign
        ranks[d] = bareiss_rank(M)
    return [len(faces[i]) - ranks[i - 1] - ranks[i] for i in range(k + 1)]


def koszul_scan(gens, lcm):
    """Graded Betti numbers of S/I from every multidegree m <= lcm.

    Returns a Counter with out[(i + 1, |m|)] summing beta_{i,m}(I) over that
    box; multidegrees outside it contribute nothing.
    """
    out = Counter()
    for m in product(*(range(v + 1) for v in lcm)):
        for i, v in enumerate(betti_at_multidegree(gens, m)):
            if v:
                out[(i + 1, sum(m))] += v
    return out
