"""Inner loops of the Betti oracle, plus the test references beside them.

At runtime only the Betti oracle runs these loops, and it reads each complex
off the generators dividing m, with no membership query; the Hilbert series
uses none of them.  `count_standard`, `kpoly_counts` and `kernel_mode` are
test references that `perfbench/` still names.  Plain Python over tuple rows
of one common length n; ranks by exact integer column elimination, ints only.
"""

from collections import Counter
from functools import reduce
from itertools import product
from math import gcd
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


def column_rank(columns):
    """Rank over Q of the integer matrix whose columns are ``columns``, each a
    {row: entry} dict with no zero entry, keyed by any ordered row labels.

    Exact integer column elimination, in place: while a column's lowest
    (largest) row is some kept column's lowest row, a unit pivot a is
    subtracted a * b times, b the column's entry there; otherwise the column
    becomes a * col - b * kept, divided by the gcd of its entries.  It is
    kept once its lowest row is new, and dropped once it is empty.
    """
    kept = {}  # lowest row -> the kept column ending there
    for col in columns:
        while col and (pivot := kept.get(low := max(col))) is not None:
            a, b = pivot[low], col[low]
            if a * a == 1:  # a unit pivot: subtract
                a, b = 1, a * b
            else:
                col = {row: a * v for row, v in col.items()}
            for row, v in pivot.items():
                if w := col.get(row, 0) - b * v:
                    col[row] = w
                else:
                    del col[row]
            if a != 1 and (g := gcd(*col.values())) > 1:
                col = {row: v // g for row, v in col.items()}
        if col:
            kept[low] = col
    return len(kept)


bareiss_rank = column_rank  # the name perfbench/tracer.py wraps and tests pin


def _boundary(face):
    """The boundary of a face (a bitmask) as {facet bitmask: +-1}."""
    bits = [1 << i for i in range(face.bit_length()) if face >> i & 1]
    return {face ^ bit: (-1) ** j for j, bit in enumerate(bits)}


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
    # faces[d]: the faces with d vertices, as bitmasks over supp
    faces = [[] for _ in range(k + 1)]
    for b in range(1 << k):
        if any(not b & ~f for f in tops):
            faces[b.bit_count()].append(b)
    # ranks[d] = rank of the boundary map from d+1-vertex to d-vertex faces,
    # d = 0 being the augmentation; ranks[k + 1] = 0 serves as ranks[-1]
    ranks = [0] * (k + 2)
    for d in range(k):
        if not faces[d + 1]:
            break
        ranks[d] = column_rank(map(_boundary, faces[d + 1]))
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
