"""Closed-form Betti numbers, regularity, and depth of stable monomial ideals.

For a stable ideal the minimal resolution is known explicitly:
beta_{i,i+j}(I) = sum over minimal generators u of degree j of
C(max(u) - 1, i), max(u) being the largest variable index dividing u.  That
is the t^i coefficient of sum_m c_m (1+t)^(m-1), c_m counting the degree-j
generators with max(u) = m.  Over the tally's span [m0, m], from the least
to the largest x_m tallied, it is c * (C(m, i+1) - C(m0-1, i+1)) when the
span is one run of a constant c (the hockey-stick identity), else Horner's
rule over the span only, multiplied once by (1+t)^(m0-1).  As
beta_{p,q}(S/I) = beta_{p-1,q}(I) for p >= 1, this polynomial, one column
right, is row j - 1 of the quotient's table.  Regularity is the largest
generator degree minus one, pd the largest max(u), depth n - pd.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, compress, repeat
from operator import add, sub

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
    whose table is trivial):
    row d - 1 holds sum_m c_m C(m-1, p-1) in column p >= 1, for each d up to
    the largest generator degree (so reg = that degree - 1), and one zero
    row, shared, in every degree without generators.  Each other row is
    built at the table's final width from its tally's span [m0, m], the
    least and largest x_m tallied.
    A span that is one run of a constant c (a single variable included)
    gives c * (C(m, p) - C(m0-1, p)) by the hockey-stick identity; any other
    span runs Horner's rule over the span only, q = sum c_m (1+t)^(m-m0),
    and multiplies q once by (1+t)^(m0-1), the row of C(m0-1, .), when
    m0 > 1.  Each binomial row C(j, .) with j <= 500 is built once per
    process, in one bounded cache of Pascal rows shared by every table
    (`_pascal`); a wider row is built for the table that reads it
    (`_binomials`).
    Before any row is built the table's exact size, (reg + 1) * (pd + 1)
    read off the spans, is held to the Betti-table cap."""
    if not counts:
        return TRIVIAL  # free quotient, trivial resolution
    spans = []
    for d, tally in sorted(counts.items()):
        m = len(tally) - 1
        while not tally[m]:
            m -= 1
        spans.append((d, tally, m))
    width = 1 + max([m for _, _, m in spans])
    _refuse_over_table_cap(spans[-1][0], width)
    zero = (0,) * width  # one row shared by every degree without generators
    rows = []
    for d, tally, m in spans:
        rows += [zero] * (d - 1 - len(rows))
        m0 = tally.index(next(filter(None, tally)))
        c = tally[m0]
        if tally.count(c) == m - m0 + 1:  # one run; C(m, 0) = C(m0-1, 0) = 1
            run = [*map(sub, _binomials(m), chain(_binomials(m0 - 1), repeat(0))),
                   *[0] * (width - 1 - m)]
            rows.append(run if c == 1 else [*map(c.__mul__, run)])
            continue
        q = [tally[m]]
        for c in tally[m - 1:m0 - 1:-1]:  # (1+t) * q + c
            q = [q[0] + c, *map(add, q[1:], q), q[-1]]
        rows.append(_shifted_product(q, _binomials(m0 - 1), width) if m0 > 1
                    else [0, *q, *[0] * (width - 1 - len(q))])
    rows[0] = [1, *rows[0][1:]]
    return BettiTable(rows)


# The largest j whose row C(j, .) the shared cache keeps: it covers every
# row of a second-step table under the entries cap (r <= 463, so j <= 465),
# the grid's included.  A wider row comes from a wide first-step table, which
# has one generator degree and so reads each row once.
_SHARED_J = 500


def _binomials(j: int) -> tuple[int, ...]:
    """C(j, 0), ..., C(j, j): from the shared cache when j <= `_SHARED_J`,
    else built for this request and dropped with its table.  So the cache
    holds at most 256 rows of at most 501 entries, 6.8 MB by
    `sys.getsizeof` for the rows j = 245..500."""
    return _pascal(j) if j <= _SHARED_J else _pascal.__wrapped__(j)


@lru_cache(maxsize=256)
def _pascal(j: int) -> tuple[int, ...]:
    """C(j, 0), ..., C(j, j), one bounded cache shared by every table (read
    through `_binomials`): its first half by C(j, i+1) = C(j, i) (j - i) /
    (i + 1), exactly, the rest by C(j, i) = C(j, j - i)."""
    row = [1]
    for i in range(j // 2):
        row.append(row[-1] * (j - i) // (i + 1))
    return (*row, *row[:j + 1 - len(row)][::-1])


def _shifted_product(q, b, width: int) -> list[int]:
    """t * q(t) * b(t), ``width`` coefficients from t^0: one pass over the
    longer polynomial per coefficient of the shorter."""
    if len(q) > len(b):
        q, b = b, q
    n = len(b)
    out = [0, *map(q[0].__mul__, b), *[0] * (width - 1 - n)]
    for k in range(1, len(q)):
        out[k + 1:k + 1 + n] = map(add, out[k + 1:k + 1 + n], map(q[k].__mul__, b))
    return out


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
