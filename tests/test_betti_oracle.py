import json
import random
from itertools import product
from pathlib import Path

import pytest

from helpers import (
    count_calls,
    random_edge_ideal,
    random_monomial_ideal,
    random_strongly_stable_ideal,
    reduced_homology_ranks,
    upper_koszul_complex,
)
from lexseg.betti_oracle import (
    bruteforce_betti_table,
    bruteforce_depth,
    bruteforce_regularity,
    koszul_betti,
)
from lexseg.eliahou_kervaire import ek_betti_table
from lexseg.errors import AmbientMismatchError, BoxTooLargeError, UnitIdealError
from lexseg.hilbert import kpolynomial
from lexseg.monomials import Monomial, MonomialIdeal, is_stable, minimal_generators


GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


def M(*expo):
    return Monomial(tuple(expo))


class TestKoszulBetti:
    def test_koszul_syzygy(self):
        ideal = minimal_generators(2, [M(1, 0), M(0, 1)])
        assert koszul_betti(ideal, M(1, 1)) == (0, 1, 0)

    def test_principal_generator(self):
        ideal = minimal_generators(2, [M(1, 1)])
        assert koszul_betti(ideal, M(1, 1)) == (1, 0, 0)
        assert koszul_betti(ideal, M(1, 0)) == (0, 0, 0)

    def test_outside_ideal_vanishes(self):
        ideal = minimal_generators(2, [M(2, 0)])
        assert koszul_betti(ideal, M(1, 1)) == (0, 0, 0)

    def test_ambient_mismatch(self):
        ideal = minimal_generators(2, [M(1, 0), M(0, 1)])
        for m in (M(1, 1, 0), M(1)):
            with pytest.raises(AmbientMismatchError):
                koszul_betti(ideal, m)

    def test_totals_reproduce_ek_table(self, example2):
        # aggregate per (homological degree, total degree) over the whole box
        table = ek_betti_table(example2)
        totals = {}
        lcm = example2.lcm_exponents
        m = [0] * 6
        while True:
            pos = 0
            while pos < 6 and m[pos] == lcm[pos]:
                m[pos] = 0
                pos += 1
            if pos == 6:
                break
            m[pos] += 1
            betas = koszul_betti(example2, M(*m))
            for i, v in enumerate(betas):
                if v:
                    key = (i + 1, sum(m))
                    totals[key] = totals.get(key, 0) + v
        for (p, q), v in totals.items():
            assert table.entry(p, q) == v
        for p in range(1, table.projective_dimension + 1):
            for q in range(p + table.regularity + 1):
                if table.entry(p, q):
                    assert totals.get((p, q)) == table.entry(p, q)

    def test_entries_match_complex_homology(self, example2):
        # every multidegree of the box, against the homology of the complex
        # built through `contains`, on non-stable ideals where EK cannot check
        rng = random.Random(80)
        ideals = []
        while len(ideals) < 12:
            ideal = random_monomial_ideal(rng, rng.randint(2, 4), 4, 5)
            if not is_stable(ideal):
                ideals.append(ideal)
        for ideal in ideals + [example2]:
            for m in product(*(range(e + 1) for e in ideal.lcm_exponents)):
                m = Monomial(m)
                want = reduced_homology_ranks(upper_koszul_complex(ideal, m),
                                              ideal.n + 1)
                assert koszul_betti(ideal, m) == want, (ideal, m)

    def test_grown_box_matches_complex_homology(self):
        # one past the lcm in each coordinate: those cells are cones, which
        # the scan of the lcm box never reaches; the seed keeps the reference
        # homology, most of the cost, near 2 s
        rng = random.Random(93)
        ideals = [random_edge_ideal(rng, n) for n in range(4, 8)]
        ideals += [random_monomial_ideal(rng, rng.randint(2, 4), 3, 4)
                   for _ in range(6)]
        for ideal in ideals:
            for m in product(*(range(e + 2) for e in ideal.lcm_exponents)):
                m = Monomial(m)
                want = reduced_homology_ranks(upper_koszul_complex(ideal, m),
                                              ideal.n + 1)
                assert koszul_betti(ideal, m) == want, (ideal, m)


class TestUpperKoszulComplex:
    def test_koszul_pair(self):
        ideal = minimal_generators(2, [M(1, 0), M(0, 1)])
        K = upper_koszul_complex(ideal, M(1, 1))
        # x1x2/x1 and x1x2/x2 lie in the ideal, x1x2/(x1x2) = 1 does not
        assert K.vertices == (0, 1)
        assert set(K.maximal_faces) == {frozenset({0}), frozenset({1})}
        assert K.has_face(()) and not K.has_face((0, 1))

    def test_void_when_monomial_outside(self):
        ideal = minimal_generators(2, [M(2, 0)])
        K = upper_koszul_complex(ideal, M(1, 1))
        assert K.is_void

    def test_minimal_generator_gives_point(self):
        ideal = minimal_generators(2, [M(1, 1)])
        K = upper_koszul_complex(ideal, M(1, 1))
        assert K.maximal_faces == (frozenset(),)

    def test_downward_closure(self):
        rng = random.Random(3)
        for _ in range(10):
            ideal = random_monomial_ideal(rng, 3, 3, 4)
            m = M(*[rng.randint(0, 3) for _ in range(3)])
            K = upper_koszul_complex(ideal, m)
            for mx in K.maximal_faces:
                for v in mx:
                    assert K.has_face(mx - {v})


class TestBruteForceTable:
    def test_hypersurface(self):
        table = bruteforce_betti_table(minimal_generators(2, [M(1, 1)]))
        assert table.projective_dimension == 1
        assert table.regularity == 1

    def test_fixture_remark3(self, remark3):
        table = bruteforce_betti_table(remark3)
        assert table.regularity == 6
        assert bruteforce_regularity(remark3) == 6
        assert bruteforce_depth(remark3) == 0

    def test_makes_no_membership_query(self, monkeypatch, example2, remark3):
        calls = count_calls(monkeypatch, "_in_ideal", "contains")
        for ideal in (example2, remark3):
            bruteforce_betti_table(ideal)
        assert sum(calls.values()) == 0, calls

    def test_matches_ek_on_stable_corpus(self):
        rng = random.Random(77)
        for _ in range(25):
            ideal = random_strongly_stable_ideal(rng, rng.randint(1, 4), 5)
            assert bruteforce_betti_table(ideal).rows == ek_betti_table(ideal).rows

    def test_euler_characteristic_arbitrary_ideals(self):
        rng = random.Random(78)
        for _ in range(25):
            ideal = random_monomial_ideal(rng, rng.randint(1, 4), 5, 6)
            table = bruteforce_betti_table(ideal)
            assert table.euler_kpolynomial() == kpolynomial(ideal)

    def test_euler_characteristic_non_stable_inputs(self, example2, remark3):
        # the oracle table is non-stable `analyze`'s one route to the series
        golden = json.loads(GOLDEN.read_text())["inputs"]["non-stable"]
        ideals = [MonomialIdeal.from_json_dict(golden), example2, remark3]
        rng = random.Random(81)
        ideals += [random_edge_ideal(rng, n) for n in range(2, 9) for _ in range(4)]
        assert any(not ideal.is_zero and not is_stable(ideal) for ideal in ideals[3:])
        for ideal in ideals:
            assert bruteforce_betti_table(ideal).euler_kpolynomial() == kpolynomial(ideal)

    def test_invariant_under_variable_permutation(self):
        rng = random.Random(79)
        for _ in range(10):
            n = rng.randint(2, 4)
            ideal = random_monomial_ideal(rng, n, 4, 5)
            perm = list(range(n))
            rng.shuffle(perm)
            permuted = minimal_generators(n, [
                Monomial(tuple(g.exponents[perm[i]] for i in range(n)))
                for g in ideal.gens])
            assert (bruteforce_betti_table(ideal).rows
                    == bruteforce_betti_table(permuted).rows)

    def test_box_cap(self):
        ideal = minimal_generators(7, [
            Monomial(tuple(9 if i == j else 0 for i in range(7)))
            for j in range(7)])
        with pytest.raises(BoxTooLargeError) as err:
            bruteforce_betti_table(ideal)
        assert err.value.box_size == 10 ** 7

    def test_zero_and_unit(self):
        assert bruteforce_betti_table(MonomialIdeal.zero(2)).rows == ((1,),)
        with pytest.raises(UnitIdealError):
            bruteforce_betti_table(MonomialIdeal.unit(2))

    def test_non_stable_ideal_works(self):
        # (y^2) in two variables: not stable, pd 1, reg 1
        ideal = minimal_generators(2, [M(0, 2)])
        table = bruteforce_betti_table(ideal)
        assert table.projective_dimension == 1
        assert table.regularity == 1
