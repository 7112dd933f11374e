"""The kernels against independent oracles."""

import random

from helpers import random_edge_ideal, random_monomial_ideal, rank_oracle
from lexseg import _kernels
from lexseg.betti_oracle import bruteforce_betti_table, koszul_betti
from lexseg.monomials import Monomial, MonomialIdeal

# The 6-vertex real projective plane, whose H_1 over Z is Z/2: the ideal of
# the complements of its facets has it as the complex at x1*...*x6, so its
# boundary maps carry the torsion, and over Q that cell's Betti numbers vanish.
RP2_FACETS = ((0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5), (1, 2, 4),
              (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5))
RP2_DUAL = MonomialIdeal.from_exponent_rows(
    6, [tuple(int(v not in facet) for v in range(6)) for facet in RP2_FACETS])


def _random_matrix(rng, nr, nc, entry=lambda rng: rng.randint(-2, 2)):
    return [[entry(rng) for _ in range(nc)] for _ in range(nr)]


def _columns(M):
    """The columns of a dense matrix as {row: entry} dicts, zeros left out."""
    return [{i: row[j] for i, row in enumerate(M) if row[j]}
            for j in range(len(M[0]))]


def _dense(columns):
    """The dense matrix of {row: entry} columns, rows in label order."""
    labels = sorted(set().union(*columns))
    return [[col.get(r, 0) for col in columns] for r in labels]


class TestColumnRank:
    def test_matches_rank_oracle(self):
        rng = random.Random(31)
        for _ in range(300):
            M = _random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
            for j in rng.sample(range(len(M[0])), rng.randint(0, len(M[0]) // 2)):
                for row in M:
                    row[j] = 0  # zero columns
            assert _kernels.column_rank(_columns(M)) == rank_oracle(M), M

    def test_entries_near_two_to_the_64(self):
        rng = random.Random(32)

        def near(rng):
            return rng.choice((-1, 0, 1)) * (2**64 + rng.randint(-2, 2))

        for _ in range(100):
            M = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), near)
            assert _kernels.column_rank(_columns(M)) == rank_oracle(M), M
        assert _kernels.column_rank(_columns([[2**64, 2**64 + 1],
                                              [2**65, 2**65 + 2]])) == 1

    def test_huge_entries(self):
        assert _kernels.column_rank(_columns([[2**32, 1], [1, 2**32]])) == 2

    def test_zero_matrix(self):
        assert _kernels.column_rank(_columns([[0] * 4 for _ in range(3)])) == 0
        assert _kernels.column_rank([]) == 0

    def test_rank_is_over_q_on_a_torsion_complex(self):
        assert koszul_betti(RP2_DUAL, Monomial((1,) * 6)) == (0,) * 7
        assert bruteforce_betti_table(RP2_DUAL).rows == (
            (1, 0, 0, 0), (0, 0, 0, 0), (0, 10, 15, 6))

    def test_bareiss_rank_is_the_same_rank(self):
        assert _kernels.bareiss_rank is _kernels.column_rank

    def test_every_boundary_matrix_of_the_oracle(self, monkeypatch, example2,
                                                 remark3):
        ranked = []
        real = _kernels.column_rank

        def recording(columns):
            columns = list(columns)
            copies = [dict(col) for col in columns]  # the rank works in place
            ranked.append((copies, real(columns)))
            return ranked[-1][1]

        monkeypatch.setattr(_kernels, "column_rank", recording)
        rng = random.Random(94)
        ideals = [random_monomial_ideal(rng, rng.randint(2, 4), 4, 5)
                  for _ in range(40)]
        ideals += [random_edge_ideal(rng, n) for n in range(4, 9)]
        for ideal in ideals + [RP2_DUAL, example2, remark3]:
            bruteforce_betti_table(ideal)
        assert len(ranked) > 1000
        for columns, rank in ranked:
            assert rank == rank_oracle(_dense(columns)), columns
