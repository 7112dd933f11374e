import random
from math import comb, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_hilbert_function,
    brute_is_lexsegment,
    brute_is_stable,
    count_calls,
    generator_shapes,
    linear_expansion_tops,
    random_monomial_ideal,
    random_strongly_stable_ideal,
)
from lexseg import macaulay
from lexseg.constructions import construct, second_step_hf
from lexseg.errors import (
    CAPS,
    ExpansionSearchTooLongError,
    ExpansionTooLongError,
    NotOSequenceError,
    TooManyGeneratorsError,
)
from lexseg.macaulay import (
    MAX_GROWTH,
    HilbertFunctionSpec,
    MacaulayExpansion,
    _growth,
    _o_sequence_counts,
    generation_horizon,
    is_o_sequence,
    lex_ideal_from_hf,
    macaulay_expansion,
    macaulay_growth,
)
from lexseg.monomials import (
    _lexsegment_counts,
    _stable_dimension,
    is_lexsegment,
    is_strongly_stable,
    krull_dimension,
    minimalize_rows,
)


class TestExpansion:
    def test_single_binomial(self):
        assert macaulay_expansion(5, 4).terms == ((5, 4),)

    def test_unit_run_for_small_values(self):
        # a = r+1 in degree j >= r+1 is a sum of r+1 unit binomials
        for r in (1, 4, 12):
            for j in (r + 1, r + 3):
                exp = macaulay_expansion(r + 1, j)
                assert exp.terms == tuple((j - i, j - i) for i in range(r + 1))

    def test_greedy_by_hand(self):
        assert macaulay_expansion(5, 2).terms == ((3, 2), (2, 1))
        assert macaulay_expansion(5, 2).value() == 5

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            macaulay_expansion(0, 2)
        with pytest.raises(ValueError):
            macaulay_expansion(3, 0)

    @given(st.integers(1, 10_000), st.integers(1, 30))
    @settings(max_examples=300, deadline=None)
    def test_roundtrip(self, a, d):
        exp = macaulay_expansion(a, d)
        assert exp.value() == a

    @given(st.integers(1, 10_000), st.integers(1, 30))
    @settings(max_examples=150, deadline=None)
    def test_structure(self, a, d):
        exp = macaulay_expansion(a, d)
        tops = exp.tops
        assert all(x > y for x, y in zip(tops, tops[1:]))
        assert all(top >= low >= 1 for top, low in exp.terms)

    def test_bisection_matches_linear_walk(self):
        rng = random.Random(2024)
        cases = [(a, d) for d in range(1, 7) for a in range(1, 300)]
        for _ in range(400):
            d = rng.randint(1, 30)
            cases.append((rng.randint(1, 10 ** rng.randint(1, 9 if d > 1 else 5)), d))
        for a, d in cases:
            assert macaulay_expansion(a, d).tops == linear_expansion_tops(a, d), (a, d)

    def test_huge_value_in_degree_two(self):
        a = 10 ** 30
        exp = macaulay_expansion(a, 2)
        assert exp.value() == a
        top = (1 + isqrt(1 + 8 * a)) // 2  # largest t with t(t-1)/2 <= a
        assert comb(top, 2) <= a < comb(top + 1, 2)
        assert exp.tops[0] == top

    def test_invalid_structure_rejected(self):
        with pytest.raises(ValueError):
            MacaulayExpansion(2, (2, 3))  # not strictly decreasing
        with pytest.raises(ValueError):
            MacaulayExpansion(2, (1,))  # top below its lower index

    def test_term_cap_refuses_before_listing(self, monkeypatch):
        # 5 in degree 10 is five unit terms, 6 is six: the cap is inclusive
        # and refuses before any term is built; the growth bound lists no
        # term, so it has no cap
        built = []
        real = MacaulayExpansion.__init__
        monkeypatch.setattr(MacaulayExpansion, "__init__",
                            lambda self, d, tops: built.append(real(self, d, tops)))
        monkeypatch.setattr(CAPS["expansion-terms"], "bound", 5)
        assert len(macaulay_expansion(5, 10).terms) == 5
        assert len(built) == 1
        with pytest.raises(ExpansionTooLongError, match="list 6 terms, cap is 5"):
            macaulay_expansion(6, 10)
        with pytest.raises(ExpansionTooLongError, match="list 10000000 terms"):
            macaulay_expansion(10**7, 10**8)
        assert len(built) == 1
        assert macaulay_growth(6, 10) == 6
        assert macaulay_growth(10**7, 10**8) == 10**7

    def test_search_cap_refuses_before_searching(self, monkeypatch):
        # 1000 in degree 3 may bisect for 2 tops over 10-bit binomials, work
        # 2 * 10^2 = 200: the cap is inclusive, and a refusal computes no
        # binomial.  No top is searched when a <= d, nor in degree 1, where
        # the one top is the remainder itself, so neither meets the cap
        monkeypatch.setattr(CAPS["expansion-search"], "bound", 200)
        assert macaulay_expansion(1000, 3).value() == 1000
        monkeypatch.setattr(CAPS["expansion-search"], "bound", 199)
        message = ("bisect for up to 2 tops over binomials of 10 bits "
                   r"\(work 200\), cap is 199")
        with monkeypatch.context() as patch:
            patch.setattr(macaulay, "comb", None)  # no binomial is computed
            with pytest.raises(ExpansionSearchTooLongError, match=message):
                macaulay_expansion(1000, 3)
            with pytest.raises(ExpansionSearchTooLongError, match=message):
                macaulay_growth(1001, 3)
        monkeypatch.setattr(CAPS["expansion-search"], "bound", 0)
        assert macaulay_expansion(3, 3).tops == (3, 2, 1)
        assert macaulay_expansion(10**6, 1).tops == (10**6,)
        assert macaulay_growth(10**6, 1) == comb(10**6 + 1, 2)


class TestGrowth:
    def test_pinned_growth_instances(self):
        assert macaulay_growth(5, 4) == 6  # C(6,5)
        for r in range(1, 13):
            assert macaulay_growth(r + 1, r) == r + 2
            for j in range(r + 1, r + 8):
                assert macaulay_growth(r + 1, j) == r + 1

    def test_zero(self):
        assert macaulay_growth(0, 3) == 0

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            macaulay_growth(3, 0)

    @given(st.integers(0, 2000), st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_a(self, a, d):
        assert macaulay_growth(a, d) <= macaulay_growth(a + 1, d)

    @given(st.integers(1, 2000), st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_growth_at_least_identity(self, a, d):
        assert macaulay_growth(a, d) >= a

    def test_growth_equals_grown_expansion(self):
        for a, d in _growth_pairs():
            assert macaulay_growth(a, d) == macaulay_expansion(a, d).grow(), (a, d)

    def test_long_constant_tail_builds_no_expansion(self, monkeypatch):
        # H(k) = C(k+2, 2) through degree 140, then 10^4: growth at each
        # degree past 10^4 reads a unit tail of 10^4 terms, never listed
        built = []
        real = MacaulayExpansion.__init__
        monkeypatch.setattr(MacaulayExpansion, "__init__",
                            lambda self, d, tops: built.append(real(self, d, tops)))
        spec = HilbertFunctionSpec(tuple(comb(k + 2, 2) for k in range(141)), 10**4)
        ideal = lex_ideal_from_hf(spec, 3)
        assert built == []
        assert ideal.exponent_rows[0] == (141, 0, 0)  # S is full through 140


def _growth_pairs() -> list[tuple[int, int]]:
    # a <= d is all unit terms; d + 1 + u with u < d is one term, then u
    rng = random.Random(19)
    pairs = [(rng.randint(1, 10**8), rng.randint(1, 60)) for _ in range(2000)]
    pairs += [(a, d) for a in range(1, 300) for d in range(1, 40)]
    pairs += [(a, d) for d in (100, 1000) for a in (1, d // 2, d, d + 1, 2 * d)]
    return pairs


class TestGrowthCache:
    def test_cold_and_warm_bounds_equal_grown_expansions(self):
        # each pair read once from the cleared cache (a miss, or a hit on a
        # pair drawn twice) and once right after, from the cache
        _growth.cache_clear()
        pairs = _growth_pairs()
        for a, d in pairs:
            grown = macaulay_expansion(a, d).grow()
            assert _growth(a, d) == grown, (a, d)
            assert _growth(a, d) == grown, (a, d)
        info = _growth.cache_info()
        assert info.misses == len(set(pairs)) and info.hits == 2 * len(pairs) - info.misses

    @pytest.mark.parametrize("cached, bad", [((1, 3), (True, 3)), ((3, 2), (3, 2.0))])
    def test_type_checks_come_before_the_cache(self, cached, bad):
        # True == 1 and 2.0 == 2 hash as the cached keys; the checks refuse them first
        macaulay_growth(*cached)
        with pytest.raises(TypeError, match="must be ints"):
            macaulay_growth(*bad)

    def test_o_sequence_counts_cold_warm_and_uncached_agree(self, monkeypatch):
        rng = random.Random(38)
        cases = [(second_step_hf(r, s), r + 2) for r in range(1, 13) for s in range(1, r)]
        assert len(cases) == 66
        for _ in range(100):
            n = rng.randint(1, 8)
            initial = (1, *(rng.randint(0, 40) for _ in range(rng.randint(0, 5))))
            tail = MAX_GROWTH if rng.random() < 0.5 else rng.randint(0, 30)
            cases.append((HilbertFunctionSpec(initial, tail), n))
        for spec, n in cases:
            stop = generation_horizon(spec)
            _growth.cache_clear()
            cold = _o_sequence_counts(spec, n, stop)
            assert _o_sequence_counts(spec, n, stop) == cold, spec
            with monkeypatch.context() as m:
                m.setattr(macaulay, "_growth", _growth.__wrapped__)
                assert _o_sequence_counts(spec, n, stop) == cold, spec

    def test_cache_is_bounded(self):
        info = _growth.cache_info()
        assert info.maxsize is not None
        for r in range(1, 41):
            for s in range(1, 41):
                construct(r, s)
        info = _growth.cache_info()
        assert info.currsize <= info.maxsize


@pytest.mark.parametrize("bad", [True, 2.0, 2.5])
@pytest.mark.parametrize("function", [macaulay_expansion, macaulay_growth])
def test_non_int_arguments_are_refused(function, bad):
    # bools and floats in either position, as construct and is_o_sequence refuse them
    with pytest.raises(TypeError, match="must be ints"):
        function(bad, 3)
    with pytest.raises(TypeError, match="must be ints"):
        function(3, bad)


class TestHorizonCap:
    # H = 1, 3, 6, 10 in three variables, then 10: degrees 4..10 gain 5, 2,
    # 1, 1, 1, 1, 1 generators, 12 in all
    SPEC = HilbertFunctionSpec((1, 3, 6, 10), 10)

    def test_spec_realizes_at_its_own_count(self, monkeypatch):
        monkeypatch.setattr(CAPS["generators"], "bound", 12)
        assert len(lex_ideal_from_hf(self.SPEC, 3).exponent_rows) == 12

    @pytest.mark.parametrize("name, cap, growths, message", [
        # 5 by degree 4 and one for each of degrees 5..10: refused at t+1
        ("generators", 5, 3, "at least 11 minimal generators, cap is 5"),
        # 7 by degree 5 and one for each of degrees 6..10
        ("generators", 11, 4, "at least 12 minimal generators, cap is 11"),
        ("entries", 33, 4,
         "at least 12 generators of 3 exponents \\(36 entries\\), cap is 33")],
        ids=["at-t-plus-1", "past-t-plus-1", "entries"])
    def test_walk_ends_once_the_cap_is_sure_to_pass(self, monkeypatch, name,
                                                    cap, growths, message):
        monkeypatch.setattr(CAPS[name], "bound", cap)
        calls = count_calls(monkeypatch, "macaulay_growth")
        with pytest.raises(TooManyGeneratorsError, match=message):
            lex_ideal_from_hf(self.SPEC, 3)
        assert calls["macaulay_growth"] == growths  # of the 9 to degree 10
        assert generation_horizon(self.SPEC) == 10

    @pytest.mark.parametrize("initial, c, n, degree", [
        # c - t - 1 is over the cap, but H(2) > 2^<1> = 3
        ((1, 2), 2 * 10**6, 2, 1),
        # H(1) = 0 puts n > (entry cap) / n generators in degree 1, but H(2) > 0
        ((1, 0, 1), 1, 2 * 10**6, 1)],
        ids=["tail-length", "running-total"])
    def test_violation_through_t_plus_1_wins(self, initial, c, n, degree):
        with pytest.raises(NotOSequenceError) as err:
            lex_ideal_from_hf(HilbertFunctionSpec(initial, c), n)
        assert err.value.degree == degree


class TestOSequence:
    def test_fixture_sequence(self):
        spec = HilbertFunctionSpec((1, 6, 5), 5)
        assert is_o_sequence(spec, 6).ok

    def test_violation_reported_at_first_degree(self):
        chk = is_o_sequence(HilbertFunctionSpec((1, 2, 4), 4), 2)
        assert not chk.ok
        assert chk.degree == 1
        assert "3" in chk.reason  # 2^<1> = 3

    def test_constant_one(self):
        for n in (1, 3, 7):
            assert is_o_sequence(HilbertFunctionSpec((1,), 1), n).ok

    def test_h0_must_be_one(self):
        chk = is_o_sequence(HilbertFunctionSpec((2, 1), 1), 3)
        assert not chk.ok and chk.degree == 0

    def test_h1_bounded_by_n(self):
        chk = is_o_sequence(HilbertFunctionSpec((1, 4), 4), 3)
        assert not chk.ok and chk.degree == 0

    def test_zero_then_positive_rejected(self):
        chk = is_o_sequence(HilbertFunctionSpec((1, 2, 0, 3), 3), 2)
        assert not chk.ok and chk.degree == 2

    def test_non_int_variable_count_rejected(self):
        spec = HilbertFunctionSpec((1, 2), 1)
        for n in (2.5, 2.0, True):
            with pytest.raises(TypeError, match="variable count must be an int"):
                is_o_sequence(spec, n)
            with pytest.raises(TypeError, match="variable count must be an int"):
                lex_ideal_from_hf(spec, n)

    def test_max_growth_always_fine_past_initial(self):
        spec = HilbertFunctionSpec((1, 3, 4), MAX_GROWTH)
        assert is_o_sequence(spec, 3).ok
        # growth of 4 = C(3,2) + C(1,1) in degree 2 is C(4,3) + C(2,2) = 5
        assert spec.value(3) == 5


class TestSpecType:
    def test_json_roundtrip(self):
        for spec in (HilbertFunctionSpec((1, 6, 5), 5),
                     HilbertFunctionSpec((1, 3), MAX_GROWTH)):
            assert HilbertFunctionSpec.from_json_dict(spec.to_json_dict()) == spec

    def test_values_constant_tail(self):
        spec = HilbertFunctionSpec((1, 6, 5), 4)
        assert [spec.value(k) for k in range(6)] == [1, 6, 5, 4, 4, 4]

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            HilbertFunctionSpec((), 1)
        with pytest.raises(ValueError):
            HilbertFunctionSpec((1, -2), 1)
        with pytest.raises(ValueError):
            HilbertFunctionSpec((1,), "sideways")


def _random_specs(seed: int, count: int):
    """``count`` seeded O-sequences (spec, n), with constant and max-growth
    tails in about equal shares."""
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        n = rng.randint(2, 5)
        h1 = rng.randint(1, n)
        length = rng.randint(1, 4)
        vals = [1, h1]
        for k in range(1, length):
            cap = macaulay_growth(vals[k], k)
            if cap == 0:
                break
            vals.append(rng.randint(0, cap))
        if rng.random() < 0.5:
            tail = MAX_GROWTH
        else:
            tail = min(rng.randint(0, max(1, vals[-1])), vals[-1])
        spec = HilbertFunctionSpec(tuple(vals), tail)
        if is_o_sequence(spec, n).ok:
            specs.append((spec, n))
    return specs


class TestRealization:
    def test_fixture_generators(self, example2):
        ideal = lex_ideal_from_hf(HilbertFunctionSpec((1, 6, 5), 5), 6)
        assert ideal == example2
        assert ideal.max_gen_degree == 5

    def test_principal_square(self):
        ideal = lex_ideal_from_hf(HilbertFunctionSpec((1,), 2), 2)
        assert [g.exponents for g in ideal.gens] == [(2, 0)]

    def test_whole_ring(self):
        assert lex_ideal_from_hf(HilbertFunctionSpec((1,), 1), 1).is_zero

    def test_non_o_sequence_rejected(self):
        with pytest.raises(NotOSequenceError) as err:
            lex_ideal_from_hf(HilbertFunctionSpec((1, 2, 4), 4), 2)
        assert err.value.degree == 1

    @pytest.mark.parametrize("n, sizes, listed", [(2, [(2, 4)], 3), (3, [(1, 1), (3, 9)], 5)],
                             ids=["one-degree", "after-a-gap"])
    def test_walk_short_of_its_counts_is_refused(self, n, sizes, listed):
        # more generators than the last degree has room for: (x1^2, x1*x2,
        # x2^2) is all of degree 2 in two variables, and past x1 only the 4
        # monomials of degree 3 in x2, x3 remain; the walk stops at xn^d
        with pytest.raises(AssertionError,
                           match=f"realized ideal: the walk listed {listed} of "
                                 f"{sum(k for _, k in sizes)} rows"):
            macaulay._realize(n, sizes)

    def test_max_growth_tail_stops_at_initial_segment(self):
        spec = HilbertFunctionSpec((1, 2, 2), MAX_GROWTH)
        assert generation_horizon(spec) == 2
        ideal = lex_ideal_from_hf(spec, 3)
        assert ideal.max_gen_degree <= 2

    def test_outputs_are_lexsegment_and_hf_matches(self):
        tails = set()
        for spec, n in _random_specs(seed=71, count=40):
            tails.add(spec.is_max_growth)
            ideal = lex_ideal_from_hf(spec, n)
            if not ideal.is_zero:
                assert is_lexsegment(ideal)
                assert brute_is_lexsegment(ideal)
                assert is_strongly_stable(ideal)
            horizon = generation_horizon(spec)
            for k in range(min(horizon + 4, 9)):
                assert brute_hilbert_function(ideal, k) == spec.value(k, n), (spec, n, k)
        assert tails == {True, False}

    def test_certificate_claims_hold(self, grid_reports):
        # one lexsegment walk stands in for the trie's minimality check, the
        # stability gate and the cover search: check each claim by its oracle
        ideals = [report.ideal for report in grid_reports]
        ideals += [lex_ideal_from_hf(spec, n)
                   for spec, n in _random_specs(seed=71, count=200)]
        for ideal in ideals:
            rows = ideal.exponent_rows
            assert rows == minimalize_rows(rows), ideal
            if not ideal.is_zero:
                assert brute_is_stable(ideal, strong=True), ideal
            assert _stable_dimension(ideal) == krull_dimension(ideal), ideal

    def test_walk_tallies_match_row_counts(self, grid_reports):
        # the certificate walk's tallies, read off the successors it builds,
        # against each row's degree and largest variable
        ideals = [report.ideal for report in grid_reports]
        ideals += [lex_ideal_from_hf(spec, n)
                   for spec, n in _random_specs(seed=73, count=200)]
        ideals = [ideal for ideal in ideals if not ideal.is_zero]
        assert len(ideals) >= 300
        for ideal in ideals:
            counts = _lexsegment_counts(ideal)
            assert {len(tally) for tally in counts.values()} == {ideal.n + 1}
            got = {(d, m): c for d, tally in counts.items()
                   for m, c in enumerate(tally) if c}
            assert got == generator_shapes(ideal), ideal

    def test_round_trip_through_max_growth_spec(self, grid_reports):
        # a lexsegment ideal generated in degrees <= D is the realization of
        # its own Hilbert function through D with a max-growth tail
        cases = [(r.ideal, r.series.coefficient) for r in grid_reports]
        rng = random.Random(83)
        corpus = [random_strongly_stable_ideal(rng, rng.randint(1, 4), 5)
                  for _ in range(300)]
        corpus += [random_monomial_ideal(rng, rng.randint(1, 3), 4, 4)
                   for _ in range(300)]
        lex = [i for i in corpus if brute_is_lexsegment(i)]
        assert len(lex) >= 30
        cases += [(i, lambda k, i=i: brute_hilbert_function(i, k)) for i in lex]
        for ideal, hf in cases:
            spec = HilbertFunctionSpec(
                tuple(hf(k) for k in range(ideal.max_gen_degree + 1)), MAX_GROWTH)
            assert lex_ideal_from_hf(spec, ideal.n) == ideal, ideal

    def test_zero_tail(self):
        # 1, 2, 0, 0, ...: everything from degree 2 on
        ideal = lex_ideal_from_hf(HilbertFunctionSpec((1, 2), 0), 2)
        assert [g.exponents for g in ideal.gens] == [(2, 0), (1, 1), (0, 2)]

    def test_single_variable_vanishing_tail(self):
        ideal = lex_ideal_from_hf(HilbertFunctionSpec((1,), 0), 1)
        assert [g.exponents for g in ideal.gens] == [(1,)]
