import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_monomials,
    brute_is_lexsegment,
    brute_is_stable,
    brute_minimalize_rows,
    count_calls,
)
from lexseg.constructions import fixture
from lexseg.corpus import borel_closure, random_monomial_ideal, random_strongly_stable_ideal
from lexseg.eliahou_kervaire import ek_betti_table
from lexseg.errors import AmbientMismatchError, UnitIdealError, ZeroIdealError
from lexseg.hilbert import _reduced_series, hilbert_series
from lexseg.monomials import (
    Monomial,
    MonomialIdeal,
    contains,
    count_standard_monomials,
    divides,
    is_lexsegment,
    is_stable,
    is_strongly_stable,
    krull_dimension,
    lex_compare,
    lex_rank,
    lex_unrank,
    lex_walk,
    minimal_generators,
    minimalize_rows,
    monomial_count,
)


def M(*expo):
    return Monomial(tuple(expo))


class TestMonomial:
    def test_degree_is_exponent_sum(self):
        assert M(2, 0, 3).degree == 5
        assert M(0, 0).degree == 0

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            M(1, -1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Monomial(())

    def test_max_index_and_support(self):
        assert M(1, 0, 2).max_index == 3
        assert M(1, 0, 2).support == (0, 2)
        assert M(0, 0).max_index == 0

    def test_str(self):
        assert str(M(2, 1, 0)) == "x1^2*x2"
        assert str(M(0, 0)) == "1"


class TestLexCompare:
    def test_first_exponent_wins(self):
        assert lex_compare(M(2, 0), M(1, 1)) == 1

    def test_equal(self):
        u = M(1, 2, 3)
        assert lex_compare(u, u) == 0

    def test_x1x6_beats_x2_squared(self):
        u = M(1, 0, 0, 0, 0, 1)
        v = M(0, 2, 0, 0, 0, 0)
        assert lex_compare(u, v) == 1
        assert lex_compare(v, u) == -1

    def test_total_order_within_degree(self):
        ms = all_monomials(3, 4)
        for a, b in zip(ms, ms[1:]):
            assert lex_compare(a, b) == 1

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            lex_compare(M(1, 0), M(1, 0, 0))


class TestDivides:
    def test_basic(self):
        assert divides(M(1, 0), M(1, 1))
        assert not divides(M(2, 0), M(1, 1))

    def test_componentwise(self):
        u = M(0, 0, 0, 1, 1, 1)
        v = M(0, 0, 0, 1, 2, 1)
        assert divides(u, v)
        assert not divides(v, u)

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            divides(M(1,), M(1, 0))


class TestMinimalGenerators:
    def test_prunes_multiples(self):
        ideal = minimal_generators(2, [M(1, 0), M(1, 1)])
        assert [g.exponents for g in ideal.gens] == [(1, 0)]

    def test_empty_is_zero_ideal(self):
        assert minimal_generators(3, []).is_zero

    def test_fixture_already_minimal(self, example2):
        again = minimal_generators(6, list(example2.gens))
        assert again.gens == example2.gens
        assert len(again.gens) == 20

    def test_idempotent_and_order_independent(self):
        rng = random.Random(42)
        for _ in range(25):
            n = rng.randint(1, 4)
            raw = [Monomial(tuple(rng.randint(0, 3) for _ in range(n)))
                   for _ in range(rng.randint(1, 7))]
            raw = [m for m in raw if m.degree > 0] or [M(*([1] + [0] * (n - 1)))]
            ideal = minimal_generators(n, raw)
            assert minimal_generators(n, list(ideal.gens)).gens == ideal.gens
            shuffled = raw[:]
            rng.shuffle(shuffled)
            assert minimal_generators(n, shuffled).gens == ideal.gens

    def test_constructor_rejects_non_minimal(self):
        with pytest.raises(ValueError):
            MonomialIdeal(2, ((1, 0), (1, 1)))

    def test_constructor_rejects_unsorted(self):
        with pytest.raises(ValueError):
            MonomialIdeal(2, ((1, 1), (2, 0)))

    def test_trie_matches_pairwise_scan(self, grid_ideals, wide_ideal):
        rng = random.Random(31)
        row_sets = [[], [(0,)], [(3,), (1,), (3,), (2,)], [(0, 0), (1, 2)]]
        for _ in range(400):
            n = rng.randint(1, 6)
            pool = [tuple(rng.randint(0, 3) for _ in range(n))
                    for _ in range(rng.randint(1, 12))]
            # drawing from a small pool repeats rows
            row_sets.append([rng.choice(pool) for _ in range(rng.randint(0, 20))])
        for ideal in grid_ideals:
            rows = list(ideal.exponent_rows)
            row_sets.append(rows)
            # each generator times x1 and times xn: dropped as multiples
            row_sets.append(rows + [(g[0] + 1,) + g[1:] for g in rows]
                            + [g[:-1] + (g[-1] + 1,) for g in rows])
        row_sets.append(wide_ideal.exponent_rows)
        for rows in row_sets:
            assert minimalize_rows(rows) == brute_minimalize_rows(rows), rows

    def test_constructor_rejects_non_normalized_lex_generators(self, grid_ideals):
        ideal = grid_ideals[12 * 3 + 1]  # construct(4, 2): 20 generators, 6 variables
        gens = list(ideal.exponent_rows)
        assert len(gens) == 20 and len({sum(g) for g in gens}) == 4
        low = min(gens, key=sum)
        multiple = low[:-1] + (low[-1] + 2,)
        duplicated = sorted(gens + [gens[7]], reverse=True)
        non_minimal = sorted(gens + [multiple], reverse=True)
        unsorted = gens[:5] + [gens[6], gens[5]] + gens[7:]
        for bad in (duplicated, non_minimal, unsorted):
            with pytest.raises(ValueError):
                MonomialIdeal(ideal.n, tuple(bad))
        assert MonomialIdeal(ideal.n, tuple(gens)).gens == ideal.gens

    def test_unit_ideal_representable(self):
        unit = minimal_generators(2, [M(0, 0), M(1, 0)])
        assert unit.is_unit and not unit.is_proper

    def test_minimalizes_once(self, monkeypatch):
        calls = count_calls(monkeypatch, "minimalize_rows")
        ideal = minimal_generators(3, [M(1, 1, 0), M(2, 0, 0), M(2, 1, 0), M(0, 0, 1)])
        assert calls == {"minimalize_rows": 1}
        assert [g.exponents for g in ideal.gens] == [(2, 0, 0), (1, 1, 0), (0, 0, 1)]

    def test_from_exponent_rows_runs_one_trie_pass(self, monkeypatch):
        calls = count_calls(monkeypatch, "_undivided")
        ideal = fixture("example2")
        assert calls == {"_undivided": 1}
        assert MonomialIdeal(ideal.n, ideal.exponent_rows) == ideal
        assert calls == {"_undivided": 2}  # the constructor keeps its check

    def test_ambient_checks_kept(self):
        with pytest.raises(AmbientMismatchError):
            minimal_generators(2, [M(1, 0), M(1, 0, 0)])
        with pytest.raises(ValueError):
            minimal_generators(0, [])


class TestContains:
    def test_principal(self):
        ideal = minimal_generators(2, [M(1, 0)])
        assert contains(ideal, M(1, 1))

    def test_zero_ideal_contains_nothing(self):
        zero = MonomialIdeal.zero(2)
        for m in all_monomials(2, 3):
            assert not contains(zero, m)

    def test_fixture_powers_of_x5(self, example2):
        assert not contains(example2, M(0, 0, 0, 0, 4, 0))
        assert contains(example2, M(0, 0, 0, 0, 5, 0))

    def test_agrees_with_degreewise_enumeration(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(1, 4)
            ideal = random_monomial_ideal(rng, n, 4, 5)
            members = set()
            for d in range(7):
                for m in all_monomials(n, d):
                    if any(g.divides(m) for g in ideal.gens):
                        members.add(m.exponents)
            for d in range(7):
                for m in all_monomials(n, d):
                    assert contains(ideal, m) == (m.exponents in members)


class TestStandardMonomialCounts:
    def test_zero_ideal_full_count(self):
        zero = MonomialIdeal.zero(3)
        for d in range(6):
            assert count_standard_monomials(zero, d) == monomial_count(3, d)

    def test_matches_enumeration(self):
        rng = random.Random(13)
        for _ in range(25):
            n = rng.randint(1, 4)
            ideal = random_monomial_ideal(rng, n, 4, 6)
            for d in range(7):
                brute = sum(1 for m in all_monomials(n, d)
                            if not contains(ideal, m))
                assert count_standard_monomials(ideal, d) == brute

    def test_unit_ideal(self):
        unit = MonomialIdeal.unit(2)
        assert count_standard_monomials(unit, 3) == 0
        assert monomial_count(2, 3) - count_standard_monomials(unit, 3) == 4


class TestLexRankUnrank:
    @given(st.integers(1, 5), st.integers(0, 7))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_whole_degree_block(self, n, d):
        total = monomial_count(n, d)
        ms = [lex_unrank(n, d, i) for i in range(total)]
        assert ms == all_monomials(n, d)
        assert [lex_rank(m) for m in ms] == list(range(total))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lex_unrank(2, 2, 3)

    def test_walk_matches_unrank(self):
        # every start (to the end of the block), every stop (from its start)
        # and every range of length <= 2; all start-stop pairs at n = d = 6
        # alone would build 16 M monomials
        for n in range(1, 7):
            for d in range(7):
                total = monomial_count(n, d)
                block = [lex_unrank(n, d, r).exponents for r in range(total)]
                ranges = {(a, total) for a in range(total + 1)}
                ranges |= {(0, b) for b in range(total + 1)}
                ranges |= {(a, min(a + k, total)) for a in range(total + 1)
                           for k in (0, 1, 2)}
                for a, b in ranges:
                    assert lex_walk(n, d, a, b) == block[a:b], (n, d, a, b)

    def test_walk_out_of_range(self):
        for a, b in [(-1, 2), (2, 1), (0, 4)]:
            with pytest.raises(ValueError):
                lex_walk(2, 2, a, b)


class TestKrullDimension:
    def test_fixture_dimensions(self, example2, remark3):
        assert krull_dimension(example2) == 1
        assert krull_dimension(remark3) == 2

    def test_zero_ideal(self):
        assert krull_dimension(MonomialIdeal.zero(4)) == 4

    def test_unit_ideal_rejected(self):
        with pytest.raises(UnitIdealError):
            krull_dimension(MonomialIdeal.unit(3))

    def test_range_and_pure_power_criterion(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(1, 4)
            ideal = random_monomial_ideal(rng, n, 4, 6)
            d = krull_dimension(ideal)
            assert 0 <= d <= n
            pure_power_vars = {g.support[0] for g in ideal.gens
                               if len(g.support) == 1}
            assert (d == 0) == (len(pure_power_vars) == n)


class TestStabilityPredicates:
    def test_x2_alone_not_stable(self):
        ideal = minimal_generators(2, [M(0, 1)])
        assert not is_stable(ideal)

    def test_fixture_all_three(self, example2):
        assert is_stable(example2)
        assert is_strongly_stable(example2)
        assert is_lexsegment(example2)

    def test_two_variable_case_is_lexsegment(self):
        # x1*x2 divides x1*x2^2, so every graded piece here is a lex segment;
        # in two variables stable already forces lexsegment.
        ideal = minimal_generators(2, [M(2, 0), M(1, 1), M(0, 3)])
        assert is_strongly_stable(ideal)
        assert is_stable(ideal)
        assert is_lexsegment(ideal)
        assert brute_is_lexsegment(ideal)

    def test_strongly_stable_but_not_lexsegment(self):
        ideal = minimal_generators(3, [M(2, 0, 0), M(1, 1, 0), M(0, 2, 0)])
        assert is_strongly_stable(ideal)
        assert not is_lexsegment(ideal)
        assert not brute_is_lexsegment(ideal)

    def test_implication_chain(self):
        rng = random.Random(5)
        ideals = [random_monomial_ideal(rng, rng.randint(1, 4), 4, 6)
                  for _ in range(40)]
        ideals += [random_strongly_stable_ideal(rng, rng.randint(1, 4), 4)
                   for _ in range(20)]
        for ideal in ideals:
            lex, strong, stab = (is_lexsegment(ideal),
                                 is_strongly_stable(ideal), is_stable(ideal))
            if lex:
                assert strong
            if strong:
                assert stab

    def test_fast_lexsegment_check_matches_definition(self, example2, remark3,
                                                       grid_ideals):
        rng = random.Random(17)
        ideals = [random_monomial_ideal(rng, rng.randint(1, 4), 4, 6)
                  for _ in range(40)]
        # strongly stable: most are lexsegment, some are not
        ideals += [random_strongly_stable_ideal(rng, rng.randint(1, 5), 5)
                   for _ in range(60)]
        ideals += grid_ideals + [example2, remark3]
        outcomes = set()
        for ideal in ideals:
            want = brute_is_lexsegment(ideal)
            assert is_lexsegment(ideal) == want, ideal
            assert is_lexsegment(ideal, hilbert_series(ideal)) == want, ideal
            if is_stable(ideal):  # the series route construct and lexify take
                ek = _reduced_series(ideal, ek_betti_table(ideal).euler_kpolynomial())
                assert is_lexsegment(ideal, ek) == want, ideal
                outcomes.add(("stable", want))
            outcomes.add(want)
        assert outcomes == {True, False, ("stable", True), ("stable", False)}

    def test_bucketed_swaps_match_definition(self, example2, remark3, grid_ideals,
                                              wide_ideal):
        rng = random.Random(23)
        ideals = [random_monomial_ideal(rng, rng.randint(1, 5), 5, 8)
                  for _ in range(350)]
        ideals += [random_strongly_stable_ideal(rng, rng.randint(1, 5), 5)
                   for _ in range(150)]
        ideals += grid_ideals + [example2, remark3, wide_ideal]
        ideals += self._borel_closures_in_several_degrees(rng)
        # stable, but not strongly: x2 -> x1 takes x2*x3 to x1*x3, outside
        ideals.append(minimal_generators(3, [M(2, 0, 0), M(1, 1, 0), M(0, 2, 0),
                                             M(0, 1, 1)]))
        outcomes = set()
        for ideal in ideals:
            got = (is_stable(ideal), is_strongly_stable(ideal))
            assert got == (brute_is_stable(ideal, strong=False),
                           brute_is_stable(ideal, strong=True)), ideal
            outcomes.add(got)
        # stable and strongly stable, stable only, and neither all occur
        assert outcomes == {(True, True), (True, False), (False, False)}

    @staticmethod
    def _borel_closures_in_several_degrees(rng):
        """Borel closures in 6-7 variables whose generators span at least
        three degrees, some swaps of which lie in the ideal only through a
        generator of lower degree; each comes with a copy that has one
        generator swapped back (x_i -> x_j), which may break stability."""
        out = []
        lower_degree_hits = 0
        while len(out) < 120:
            n = rng.randint(6, 7)
            seeds = []
            # the higher the degree, the more variables: the closure of a
            # low-degree seed in late variables would absorb the others
            for k, d in enumerate(sorted(rng.sample(range(2, 7), 3))):
                e = [0] * n
                for _ in range(d):
                    e[rng.randrange(2 * k + 2)] += 1
                seeds.append(Monomial(tuple(e)))
            ideal = borel_closure(n, seeds)
            rows = ideal.exponent_rows
            if len({sum(g) for g in rows}) < 3:
                continue
            gens = set(rows)
            for u in rows:
                j = max(p for p, e in enumerate(u) if e)
                for i in range(j):
                    w = list(u)
                    w[j] -= 1
                    w[i] += 1
                    lower_degree_hits += tuple(w) not in gens
            out.append(ideal)
            u = rng.choice(rows)
            i = rng.choice([p for p, e in enumerate(u) if e])
            if i < n - 1:
                w = list(u)
                w[i] -= 1
                w[rng.randrange(i + 1, n)] += 1
                out.append(minimal_generators(
                    n, [Monomial(g) for g in rows if g != u] + [Monomial(tuple(w))]))
        assert lower_degree_hits > 0
        return out

    def test_zero_and_unit_rejected(self):
        for pred in (is_stable, is_strongly_stable, is_lexsegment):
            with pytest.raises(ZeroIdealError):
                pred(MonomialIdeal.zero(2))
            with pytest.raises(UnitIdealError):
                pred(MonomialIdeal.unit(2))


class TestIdealJson:
    def test_roundtrip(self, example2):
        data = json.loads(json.dumps(example2.to_json_dict()))
        again = MonomialIdeal.from_json_dict(data)
        assert again == example2

    def test_normalizes_on_input(self):
        data = {"n": 2, "generators": [[0, 2], [1, 1], [2, 1]]}
        ideal = MonomialIdeal.from_json_dict(data)
        assert [g.exponents for g in ideal.gens] == [(1, 1), (0, 2)]

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n), max_size=10))))
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_random_rows(self, case):
        n, rows = case
        ideal = MonomialIdeal.from_exponent_rows(n, rows)
        again = MonomialIdeal.from_json_dict(json.loads(json.dumps(ideal.to_json_dict())))
        assert again == ideal
        assert again.gens == ideal.gens
        # the rows are the only stored form; gens is a view of them
        assert again.exponent_rows == minimalize_rows(map(tuple, rows))
        assert tuple(g.exponents for g in again.gens) == again.exponent_rows
