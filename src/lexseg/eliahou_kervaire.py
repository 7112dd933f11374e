"""Closed-form Betti numbers, regularity, and depth of stable monomial ideals.

For a stable ideal the minimal resolution is known explicitly, and
beta_{i,i+j}(I) = sum over minimal generators u of degree j of
C(max(u) - 1, i), where max(u) is the largest variable index dividing u.
Shifting one step gives the quotient: beta_{p,q}(S/I) = beta_{p-1,q}(I) for
p >= 1 together with beta_{0,0} = 1.  Regularity is then the maximal
generator degree minus one and the projective dimension is max over
generators of max(u); depth follows by Auslander-Buchsbaum.  All three are
read off the one table.
"""

from __future__ import annotations

from collections import Counter
from math import comb

from .betti import TRIVIAL, BettiTable
from .errors import StabilityRequiredError, UnitIdealError
from .monomials import MonomialIdeal, is_stable


def ek_betti_table(ideal: MonomialIdeal) -> BettiTable:
    """Betti table of S/I for a stable ideal I (zero ideal gives the unit table).

    Raises `StabilityRequiredError` for a non-stable ideal.  This stability
    check is the gate of the closed form for every ideal whose stability is
    not already known; a realized lexsegment ideal carries its own
    certificate (`monomials._certified_lexsegment`) and goes straight to
    `_ek_table`.
    """
    if ideal.is_unit:
        raise UnitIdealError("the zero ring has no Betti table")
    if not ideal.is_zero and not is_stable(ideal):
        raise StabilityRequiredError(
            "ideal is not stable; use the brute-force oracle (betti --oracle)")
    return _ek_table(ideal)


def _ek_table(ideal: MonomialIdeal) -> BettiTable:
    """The closed-form table of a proper ideal known to be stable; the zero
    ideal gives the trivial table."""
    if ideal.is_zero:
        return TRIVIAL  # free quotient, trivial resolution
    shapes = Counter()  # (max index, degree) -> number of generators
    for u in ideal.exponent_rows:
        m = len(u)  # lowered to the largest index of a variable dividing u
        while not u[m - 1]:
            m -= 1
        shapes[m, sum(u)] += 1
    entries = {(0, 0): 1}
    for (m, j), count in shapes.items():
        for i in range(m):
            key = (i + 1, i + j)
            entries[key] = entries.get(key, 0) + count * comb(m - 1, i)
    table = BettiTable.from_entries(entries)
    want = ideal.max_gen_degree - 1
    if table.regularity != want:
        raise AssertionError(
            f"table regularity {table.regularity} != max generator degree - 1 = {want}")
    return table


def projective_dimension(ideal: MonomialIdeal) -> int:
    """pd(S/I), the last column of the closed-form table."""
    return ek_betti_table(ideal).projective_dimension


def regularity(ideal: MonomialIdeal) -> int:
    """reg(S/I), the last row of the closed-form table."""
    return ek_betti_table(ideal).regularity


def depth(ideal: MonomialIdeal) -> int:
    """depth S/I = n - pd(S/I) (Auslander-Buchsbaum)."""
    return ideal.n - ek_betti_table(ideal).projective_dimension
