"""Closed-form Betti numbers, regularity, and depth of stable monomial ideals.

For a stable ideal the minimal resolution is known explicitly:
beta_{i,i+j}(I) = sum over minimal generators u of degree j of
C(max(u) - 1, i), max(u) being the largest variable index dividing u.  That
is the t^i coefficient of sum_m c_m (1+t)^(m-1), c_m counting the degree-j
generators with max(u) = m: c * C(m-1, i) when one x_m takes all c of
them, else built by Horner's rule with additions only.  As
beta_{p,q}(S/I) = beta_{p-1,q}(I) for p >= 1, this polynomial, one column
right, is row j - 1 of the quotient's table.  Regularity is the largest
generator degree minus one, pd the largest max(u), depth n - pd.
"""

from __future__ import annotations

from itertools import compress, repeat
from math import comb
from operator import add

from .betti import TRIVIAL, BettiTable
from .errors import CAPS, StabilityRequiredError, UnitIdealError, refuse
from .monomials import MonomialIdeal, _tallies


def ek_betti_table(ideal: MonomialIdeal) -> BettiTable:
    """Betti table of S/I for a stable ideal I (zero ideal gives the unit table).

    The ideal's stability decision (`_stable_counts`) raises
    `StabilityRequiredError` or tallies the generators for `_ek_table`, as
    the walk that lists a realized ideal does, and a table over the
    Betti-table cap (`CAPS`) is refused before any row is built; no walk
    builds a tuple that grows with a generator's degree.
    """
    return _ek_table(ideal, _stable_counts(ideal))


def _stable_counts(ideal: MonomialIdeal):
    """The tallies of a stable ideal's generators by degree and largest
    variable, from its stability decision (`_tallies`); {} for the zero
    ideal.  Raises `UnitIdealError` or `StabilityRequiredError`."""
    if ideal.is_unit:
        raise UnitIdealError("the zero ring has no Betti table")
    counts = {} if ideal.is_zero else _tallies(ideal, "stable")
    if counts is None:
        raise StabilityRequiredError(
            "ideal is not stable; use the brute-force oracle (betti --oracle)")
    return counts


def _ek_table(ideal: MonomialIdeal, counts) -> BettiTable:
    """The table of a proper stable ideal (trivial for the zero ideal) from
    ``counts``, each degree d's tally of generators by largest variable x_m:
    row d - 1 is 0, then sum_m c_m (1+t)^(m-1), for each d up to the
    largest generator degree (so reg = that degree - 1), and 0 alone in a
    degree without generators.  When one x_m takes
    all c of a degree's generators that is c * C(m-1, i) for i < m, read
    off directly; else Horner's rule builds it with additions only.  Before
    any row is built the table's size is held to the Betti-table cap
    (`_refuse_over_table_cap`)."""
    if ideal.is_zero:
        return TRIVIAL  # free quotient, trivial resolution
    _refuse_over_table_cap(ideal.n, counts)
    rows = []
    for d, tally in sorted(counts.items()):
        rows += [[0]] * (d - 1 - len(rows))  # degrees with no generator
        if tally.count(0) == len(tally) - 1:  # one largest variable
            c = max(tally)
            m = tally.index(c)
            rows.append([0, *map(c.__mul__, map(comb, repeat(m - 1), range(m)))])
            continue
        m = len(tally) - 1
        while m > 1 and not tally[m]:
            m -= 1
        poly = [tally[m]]
        for c in tally[m - 1:0:-1]:  # (1+t) * poly + c
            poly = [poly[0] + c, *map(add, poly[1:], poly), poly[-1]]
        rows.append([0, *poly])
    width = max(map(len, rows))
    rows = [row + [0] * (width - len(row)) for row in rows]
    rows[0][0] = 1
    return BettiTable(rows)


def _refuse_over_table_cap(n: int, counts) -> None:
    """Hold the table of a proper nonzero stable ideal in n variables,
    tallied by ``counts`` as `_ek_table` takes them, to the Betti-table cap:
    first by the bound (largest degree) * (n + 1), and only when that passes
    the cap by the exact (reg + 1) * (pd + 1) (`_extent`)."""
    if max(counts) * (n + 1) > CAPS["betti-table"].bound:
        height, width = _extent(counts)
        if height * width > CAPS["betti-table"].bound:
            refuse("betti-table", height * width, rows=height, columns=width)


def _extent(counts) -> tuple[int, int]:
    """(reg + 1, pd + 1) of S/I for the stable ideal tallied by ``counts``:
    the largest generator degree, and one more than the largest x_m tallied;
    (1, 1) for the zero ideal's empty tallies."""
    if not counts:
        return 1, 1
    return max(counts), 1 + max(max(compress(range(len(tally)), tally))
                                for tally in counts.values())


def projective_dimension(ideal: MonomialIdeal) -> int:
    """pd(S/I), the largest x_m among the generators' tallies."""
    return _extent(_stable_counts(ideal))[1] - 1


def regularity(ideal: MonomialIdeal) -> int:
    """reg(S/I), the largest generator degree minus one."""
    return _extent(_stable_counts(ideal))[0] - 1


def depth(ideal: MonomialIdeal) -> int:
    """depth S/I = n - pd(S/I) (Auslander-Buchsbaum)."""
    return ideal.n - projective_dimension(ideal)
