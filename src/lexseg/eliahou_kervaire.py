"""Closed-form Betti numbers, regularity, and depth of stable monomial ideals.

For a stable ideal the minimal resolution is known explicitly:
beta_{i,i+j}(I) = sum over minimal generators u of degree j of
C(max(u) - 1, i), max(u) being the largest variable index dividing u.  That
is the t^i coefficient of sum_m c_m (1+t)^(m-1), c_m counting the degree-j
generators with max(u) = m.  As C(m-1, i) = C(m, i+1) - C(m-1, i+1),
it is also the t^(i+1) coefficient of sum_k (c_k - c_(k+1)) (1+t)^k, one
binomial row for each place k where the tally changes (Abel summation); as
beta_{p,q}(S/I) = beta_{p-1,q}(I) for p >= 1, that polynomial is row j - 1
of the quotient's table, column by column.  Regularity is the largest
generator degree minus one, pd the largest max(u), depth n - pd.
"""

from __future__ import annotations

from functools import cache
from itertools import compress
from operator import add, ne, sub

from .betti import TRIVIAL, BettiTable, _refuse_over_table_cap
from .errors import StabilityRequiredError, UnitIdealError
from .monomials import MonomialIdeal, _tallies


def ek_betti_table(ideal: MonomialIdeal) -> BettiTable:
    """Betti table of S/I for a stable ideal I (zero ideal gives the unit table).

    The ideal's stability decision (`_stable_counts`) raises
    `StabilityRequiredError` or tallies the generators for `_ek_table`, as
    the walk that lists a realized ideal does, and a table over the
    Betti-table cap (`CAPS`) is refused before any row is built; no walk
    builds a tuple that grows with a generator's degree.
    """
    return _ek_table(_stable_counts(ideal))


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


def _ek_table(counts) -> BettiTable:
    """The table of a proper stable ideal from ``counts``, each degree d's
    tally of generators by largest variable x_m ({} for the zero ideal,
    whose table is trivial): row d - 1 holds sum_m c_m C(m-1, p-1) in
    column p >= 1, for each d up to the largest generator degree (so reg =
    that degree - 1), and one zero row, shared, in every degree without
    generators.  By Abel summation that row is sum_j (c_j - c_(j+1)) C(j, .),
    c being 0 past the largest x_m tallied: c_m C(m, .), plus or minus one
    binomial row C(j, .) (`_binomials`, times the step when it is not +-1)
    for each j < m where the tally changes.  The steps sum to zero, so
    column 0 does too.  Before any row is built the table's exact size,
    (reg + 1) * (pd + 1) read off the tallies (`_extent`), is held to the
    Betti-table cap.  The table is built unchecked: its counts c_m are
    >= 0, each row is ``width`` ints wide and beta_{0,0} is set to 1."""
    if not counts:
        return TRIVIAL  # free quotient, trivial resolution
    height, width = _extent(counts)
    _refuse_over_table_cap(height, width)
    zero = (0,) * width  # one row shared by every degree without generators
    rows = []
    for d, tally in sorted(counts.items()):
        rows += [zero] * (d - 1 - len(rows))
        m = _top(tally)
        c = tally[m]
        row = [*(_binomials(m) if c == 1 else map(c.__mul__, _binomials(m))),
               *zero[m + 1:]]
        for j in compress(range(m), map(ne, tally, tally[1:])):
            step = tally[j] - tally[j + 1]
            if step == -1:
                row[:j + 1] = map(sub, row, _binomials(j))
            elif step == 1:
                row[:j + 1] = map(add, row, _binomials(j))
            else:
                row[:j + 1] = map(add, row, map(step.__mul__, _binomials(j)))
        rows.append(tuple(row))
    rows[0] = (1, *rows[0][1:])
    return BettiTable._trusted(tuple(rows))


# The largest j whose row C(j, .) the shared cache keeps: it covers every
# row of a second-step table under the entries cap (r <= 463, so j <= 465),
# the grid's included.  A wider row is built at each read, once per place a
# tally changes (a wide first-step table reads one).
_SHARED_J = 500


def _binomials(j: int) -> tuple[int, ...]:
    """C(j, 0), ..., C(j, j): from the shared cache when j <= `_SHARED_J`,
    else built for this request and dropped with its table.  So the cache
    holds at most the 501 rows j = 0..500, 8.3 MB by `sys.getsizeof`."""
    return _pascal(j) if j <= _SHARED_J else _pascal.__wrapped__(j)


@cache
def _pascal(j: int) -> tuple[int, ...]:
    """C(j, 0), ..., C(j, j), one cache shared by every table (read through
    `_binomials`, so j <= `_SHARED_J`): its first half by C(j, i+1) =
    C(j, i) (j - i) / (i + 1), exactly, the rest by C(j, i) = C(j, j - i)."""
    row = [1]
    for i in range(j // 2):
        row.append(row[-1] * (j - i) // (i + 1))
    return (*row, *row[:j + 1 - len(row)][::-1])


def _extent(counts) -> tuple[int, int]:
    """(reg + 1, pd + 1) of S/I for the stable ideal tallied by ``counts``:
    the largest generator degree, and one more than the largest x_m tallied;
    (1, 1) for the zero ideal's empty tallies."""
    if not counts:
        return 1, 1
    return max(counts), 1 + max(map(_top, counts.values()))


def _top(tally) -> int:
    """The largest m with tally[m] > 0, found from the end."""
    m = len(tally) - 1
    while not tally[m]:
        m -= 1
    return m


def projective_dimension(ideal: MonomialIdeal) -> int:
    """pd(S/I), the largest x_m among the generators' tallies."""
    return _extent(_stable_counts(ideal))[1] - 1


def regularity(ideal: MonomialIdeal) -> int:
    """reg(S/I), the largest generator degree minus one."""
    return _extent(_stable_counts(ideal))[0] - 1


def depth(ideal: MonomialIdeal) -> int:
    """depth S/I = n - pd(S/I) (Auslander-Buchsbaum)."""
    return ideal.n - projective_dimension(ideal)
