"""A brute-force uniqueness oracle for Macaulay expansions, and thread safety
of the series and Betti computations."""

import random
from math import comb

from helpers import random_monomial_ideal, random_strongly_stable_ideal
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

    def test_threads_query_one_fresh_ideal(self):
        # eight threads ask one fresh ideal for its facts, table and series at
        # once, each in its own order and switching often, so one thread
        # records a walk while another reads the ideal's decisions; every
        # answer is the serial one
        import sys
        from concurrent.futures import ThreadPoolExecutor
        from threading import Barrier

        from lexseg import (
            StabilityRequiredError,
            ek_betti_table,
            is_lexsegment,
            is_stable,
            is_strongly_stable,
        )
        from lexseg.hilbert import hilbert_series
        from lexseg.monomials import MonomialIdeal

        predicates = [is_lexsegment, is_strongly_stable, is_stable]

        def answers(ideal, turn=0, barrier=None):
            if barrier:
                barrier.wait()
            order = predicates[turn % 3:] + predicates[:turn % 3]
            facts = {p.__name__: p(ideal) for p in order}
            try:
                rows = ek_betti_table(ideal).rows
            except StabilityRequiredError:
                rows = None
            return sorted(facts.items()), rows, str(hilbert_series(ideal))

        rng = random.Random(52)
        corpus = [random_monomial_ideal(rng, 3, 3, 3) for _ in range(150)]
        corpus += [random_strongly_stable_ideal(rng, rng.randint(2, 4), 5)
                   for _ in range(20)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for ideal in corpus:
                    serial = answers(MonomialIdeal(ideal.n, ideal.exponent_rows))
                    fresh = MonomialIdeal(ideal.n, ideal.exponent_rows)
                    barrier = Barrier(8, timeout=10)
                    parallel = list(pool.map(lambda turn: answers(fresh, turn, barrier),
                                             range(8), timeout=60))
                    assert parallel == [serial] * 8, ideal
        finally:
            sys.setswitchinterval(interval)
