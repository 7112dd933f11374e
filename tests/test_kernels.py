"""The kernels against independent oracles."""

import random

from helpers import rank_oracle
from lexseg import _kernels


def _random_matrix(rng, nr, nc, lo=-2, hi=2):
    return [[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)]


class TestBareissRank:
    def test_matches_fraction_oracle(self):
        rng = random.Random(31)
        for _ in range(200):
            nr, nc = rng.randint(1, 7), rng.randint(1, 7)
            M = _random_matrix(rng, nr, nc)
            expected = rank_oracle(M)
            assert _kernels.bareiss_rank([row[:] for row in M]) == expected

    def test_guard_trips_on_huge_entries(self):
        assert _kernels.bareiss_rank([[2**32, 1], [1, 2**32]]) == 2

    def test_zero_matrix(self):
        assert _kernels.bareiss_rank([[0] * 4 for _ in range(3)]) == 0
