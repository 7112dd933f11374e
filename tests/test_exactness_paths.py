"""A brute-force uniqueness oracle for Macaulay expansions, and thread safety
of the series and Betti computations."""

import random
from math import comb

from helpers import random_monomial_ideal
from lexseg.betti_oracle import bruteforce_betti_table
from lexseg.macaulay import macaulay_expansion


def _all_expansions(a, d, top_bound):
    """Every strictly-decreasing valid expansion of a ending at degree >= 1."""
    if a == 0:
        return [()]
    if d == 0:
        return []
    out = []
    for top in range(d, top_bound):
        c = comb(top, d)
        if c > a:
            break
        for rest in _all_expansions(a - c, d - 1, top):
            out.append((top,) + rest)
    return out


class TestExpansionUniqueness:
    def test_greedy_is_the_only_valid_expansion(self):
        for d in range(1, 5):
            for a in range(1, 61):
                found = _all_expansions(a, d, a + d + 2)
                assert len(found) == 1, (a, d, found)
                assert found[0] == macaulay_expansion(a, d).tops


class TestParallelMap:
    def test_series_and_tables_safe_under_thread_pool(self):
        from concurrent.futures import ThreadPoolExecutor

        from lexseg.hilbert import hilbert_series

        rng = random.Random(51)
        corpus = [random_monomial_ideal(rng, rng.randint(1, 4), 5, 6)
                  for _ in range(40)]
        serial = [(str(hilbert_series(i)), bruteforce_betti_table(i).rows)
                  for i in corpus]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(
                lambda i: (str(hilbert_series(i)), bruteforce_betti_table(i).rows),
                corpus))
        assert parallel == serial
