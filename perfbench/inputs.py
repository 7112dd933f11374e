"""Seeded workload inputs, built by the benchmark's own code.

Nothing here imports lexseg: a change to the library cannot change what a
workload feeds it.  Every generator takes a `random.Random` and returns plain
exponent rows, minimal and sorted lex-descending, so the same seed always
gives the same inputs.

Cost in this library grows steeply with a few input properties (2^g for the
subset engine, the multidegree box for the Koszul oracle).  Drawing those
properties freely would let the seed alone move a run's total work by more
than the benchmark's bounds, so every generator fills a fixed schedule of
shape slots and the seed only picks which ideal lands in each slot.
"""

from __future__ import annotations

import math

# Reference ideals with pinned invariants, copied from the library's bundled
# fixtures so the benchmark does not read its inputs from the code it measures.
FIXTURES = {
    "example2": (6, (
        (2, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0), (1, 0, 1, 0, 0, 0),
        (1, 0, 0, 1, 0, 0), (1, 0, 0, 0, 1, 0), (1, 0, 0, 0, 0, 1),
        (0, 2, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0), (0, 1, 0, 1, 0, 0),
        (0, 1, 0, 0, 1, 0), (0, 1, 0, 0, 0, 1),
        (0, 0, 2, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 1, 0, 1, 0),
        (0, 0, 1, 0, 0, 1),
        (0, 0, 0, 2, 0, 0), (0, 0, 0, 1, 2, 0), (0, 0, 0, 1, 1, 1),
        (0, 0, 0, 1, 0, 3), (0, 0, 0, 0, 5, 0),
    )),
    "remark3": (5, (
        (2, 0, 0, 0, 0), (1, 1, 0, 0, 0), (1, 0, 1, 0, 0), (1, 0, 0, 1, 0),
        (1, 0, 0, 0, 1),
        (0, 2, 0, 0, 0), (0, 1, 2, 0, 0), (0, 1, 1, 1, 0), (0, 1, 1, 0, 1),
        (0, 1, 0, 3, 0), (0, 1, 0, 2, 1), (0, 1, 0, 1, 3), (0, 1, 0, 0, 4),
        (0, 0, 6, 0, 0), (0, 0, 5, 1, 0), (0, 0, 5, 0, 1), (0, 0, 4, 3, 0),
    )),
}

# construct(4, 2) as pinned by the acceptance suite: its generators are the
# example2 rows, and its Betti table renders to exactly this text.
FLAGSHIP = (4, 2)
FLAGSHIP_GENERATORS = FIXTURES["example2"][1]
FLAGSHIP_BETTI_TEXT = """\
1  .  .  .  .  . .
. 16 47 63 46 18 3
.  2  9 16 14  6 1
.  1  5 10 10  5 1
.  1  4  6  4  1 ."""

# Pinned invariants of the fixtures' quotients, as the acceptance suite
# states them (example2 is the construct(4, 2) ideal).
FIXTURE_INVARIANTS = {
    "example2": {"dim": 1, "depth": 0, "regularity": 4, "h": (1, 5, -1),
                 "hilbert_function": [1, 6, 5, 5, 5, 5, 5, 5, 5]},
    "remark3": {"dim": 2, "depth": 0, "regularity": 6, "h_degree": 1},
}

# (r, s) cells whose construction takes milliseconds, for the CLI mix.
SMALL_CELLS = ((1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3),
               (2, 4), (3, 1), (3, 3), (3, 4))


def minimalize(rows) -> tuple[tuple[int, ...], ...]:
    """Minimal generating set of the rows, sorted lex-descending."""
    kept: list[tuple[int, ...]] = []
    for r in sorted(set(rows), key=sum):
        if not any(all(a <= b for a, b in zip(k, r)) for k in kept):
            kept.append(r)
    return tuple(sorted(kept, reverse=True))


def _in_ideal(rows, e) -> bool:
    return any(all(a <= b for a, b in zip(g, e)) for g in rows)


def is_stable(rows) -> bool:
    """x_i * u / x_max(u) stays in the ideal for each generator u and i < max(u)."""
    for u in rows:
        m = max(j for j, e in enumerate(u) if e)
        for i in range(m):
            e = list(u)
            e[m] -= 1
            e[i] += 1
            if not _in_ideal(rows, e):
                return False
    return True


def box_cells(rows) -> int:
    """Cells of the multidegree box under the lcm of the rows."""
    return math.prod(max(col) + 1 for col in zip(*rows))


def _monomial(rng, n: int, degree: int) -> tuple[int, ...]:
    e = [0] * n
    for _ in range(degree):
        e[rng.randrange(n)] += 1
    return tuple(e)


def borel_closure(n: int, seeds) -> tuple[tuple[int, ...], ...]:
    """Smallest strongly stable ideal containing the seed monomials."""
    pool = set(seeds)
    frontier = list(pool)
    while frontier:
        expo = frontier.pop()
        for j in range(1, n):
            if expo[j] == 0:
                continue
            for i in range(j):
                e = list(expo)
                e[j] -= 1
                e[i] += 1
                t = tuple(e)
                if t not in pool:
                    pool.add(t)
                    frontier.append(t)
    return minimalize(pool)


# Slot schedule of the analyze workload: (n, fewest, most generators) ->
# ideals.  Today's `auto` engine takes inclusion-exclusion (2^g) up to 20
# generators and the pivot recursion above, so the slots straddle 20.
#
# The slots fix each run's cost profile, so the seed barely moves the total
# or the quantiles.  Around each reported quantile the slots are graded:
# exact generator counts whose costs step by well under 2x across a range
# wider than 2x.  On a shared 2-vCPU VM some seconds run up to ~1.8x slower
# than others; over a graded range that moves a quantile in proportion to
# the slow share of the run, where a block of equal-cost items would jump
# it all at once.  By cost: 28 cheap ideals, 44 graded from 8 to 11
# generators holding the median, 12 pivot-engine ideals, 14 graded from 13
# to 14 generators holding the 90th percentile, then the two fixtures.
ANALYZE_SCHEDULE = {
    (3, 2, 6): 8, (4, 2, 6): 8, (4, 7, 7): 12,
    (4, 8, 8): 8, (4, 9, 9): 8, (5, 9, 9): 8, (4, 10, 10): 8, (5, 10, 10): 4,
    (4, 11, 11): 8,
    (5, 31, 45): 12,
    (4, 13, 13): 5, (4, 14, 14): 5, (5, 14, 14): 4,
}


def strongly_stable_ideals(rng, schedule: dict) -> list[tuple[int, tuple]]:
    """Borel closures of 1-3 seeds of degree 2-5, filling a slot schedule."""
    out = []
    for (n, fewest, most), count in schedule.items():
        for _ in range(count):
            for _attempt in range(100_000):
                seeds = [_monomial(rng, n, rng.randint(2, 5))
                         for _ in range(rng.randint(1, 3))]
                rows = borel_closure(n, seeds)
                if fewest <= len(rows) <= most:
                    out.append((n, rows))
                    break
            else:
                raise RuntimeError(f"no ideal found for slot {(n, fewest, most)}")
    return out


# Shape schedule of the oracle workload: lcm exponent vector -> ideals, each
# ideal taking the shape under a seeded order of the variables.  The Koszul
# scan visits every cell of the box under the lcm, so fixing the lcm of each
# ideal fixes a run's total work up to the spread within a shape.  One block
# of a single shape holds each reported quantile, which keeps the seed from
# moving it: 60 cheaper ideals (16-72 cells), then 60 of shape (3,2,2,2)
# holding the median, 35 of 144-243 cells, then 35 of shape (4,4,3,3)
# holding the 90th percentile, then the two fixtures.  (Graded shapes, as
# in ANALYZE_SCHEDULE, gave this workload wider quantile spreads.)
ORACLE_SCHEDULE = {
    (1, 1, 1, 1): 9, (2, 1, 1, 1): 9, (2, 2, 1, 1): 9, (2, 2, 2, 1): 9,
    (1, 1, 1, 1, 1): 8, (2, 1, 1, 1, 1): 8, (2, 2, 1, 1, 1): 8,
    (3, 2, 2, 2): 60,
    (3, 3, 3, 2): 9, (2, 2, 2, 2, 1): 9, (2, 2, 2, 2, 2): 8, (2, 2, 1, 1, 1, 1): 9,
    (4, 4, 3, 3): 35,
}


def _non_stable_with_lcm(rng, lcm) -> tuple[tuple[int, ...], ...]:
    """A non-stable ideal of 4-10 generators of degree 2-6 with exactly this lcm."""
    while True:
        rows = []
        for _ in range(rng.randint(4, 10)):
            while True:
                e = tuple(rng.randint(0, top) for top in lcm)
                if 2 <= sum(e) <= 6:
                    break
            rows.append(e)
        rows = minimalize(rows)
        if (len(rows) >= 4 and tuple(map(max, zip(*rows))) == lcm
                and not is_stable(rows)):
            return rows


def non_stable_ideals(rng, schedule: dict) -> list[tuple[int, tuple]]:
    """Random non-stable ideals filling a shape schedule."""
    out = []
    for shape, count in schedule.items():
        for _ in range(count):
            lcm = list(shape)
            rng.shuffle(lcm)
            out.append((len(lcm), _non_stable_with_lcm(rng, tuple(lcm))))
    return out


def hilbert_function_spec(rng) -> tuple[int, dict]:
    """A small valid Hilbert function spec and its variable count."""
    n = rng.randint(2, 3)
    h2 = rng.randint(2, n * (n + 1) // 2)
    tail = rng.randint(1, min(h2, 4))
    return n, {"initial": [1, n, h2], "tail": {"constant": tail}}
