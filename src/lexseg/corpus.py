"""Seeded random ideal generators backing the property and acceptance tests."""

from __future__ import annotations

import random

from .monomials import Monomial, MonomialIdeal, minimal_generators


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


def borel_closure(n: int, seeds) -> MonomialIdeal:
    """Smallest strongly stable ideal containing the seed monomials.

    Closes the generating set under every exchange x_j -> x_i with i < j and
    minimalizes; termination is immediate since exchanges never raise degree
    and the degree blocks are finite.
    """
    pool = {m.exponents for m in seeds}
    frontier = list(pool)
    while frontier:
        expo = frontier.pop()
        for j in range(n):
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
    return MonomialIdeal.from_exponent_rows(n, pool)


def random_strongly_stable_ideal(rng: random.Random, n: int, max_degree: int,
                                 max_seeds: int = 3) -> MonomialIdeal:
    seeds = [random_monomial(rng, n, max_degree)
             for _ in range(rng.randint(1, max_seeds))]
    return borel_closure(n, seeds)
