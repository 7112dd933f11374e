import random
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import brute_hilbert_function
from lexseg import _kernels, hilbert
from lexseg.constructions import construct, fixture
from lexseg.corpus import (
    borel_closure,
    random_monomial_ideal,
    random_strongly_stable_ideal,
)
from lexseg.eliahou_kervaire import ek_betti_table
from lexseg.errors import UnitIdealError
from lexseg.hilbert import (
    HilbertSeries,
    HPolynomial,
    h_degree,
    h_polynomial,
    hilbert_function,
    hilbert_series,
    kpolynomial,
)
from lexseg.monomials import (
    Monomial,
    MonomialIdeal,
    count_standard_monomials,
    krull_dimension,
    minimal_generators,
    minimalize_rows,
)


def M(*expo):
    return Monomial(tuple(expo))


def _corpus(seed, count, n_max=5, deg_max=6, gens_max=8):
    rng = random.Random(seed)
    return [random_monomial_ideal(rng, rng.randint(1, n_max), deg_max, gens_max)
            for _ in range(count)]


class TestKPolynomial:
    def test_zero_ideal(self):
        assert kpolynomial(MonomialIdeal.zero(3)) == (1,)

    def test_single_generator(self):
        ideal = minimal_generators(2, [M(1, 1)])
        assert kpolynomial(ideal) == (1, 0, -1)

    def test_unit_ideal_vanishes(self):
        assert kpolynomial(MonomialIdeal.unit(2)) == (0,)
        assert kpolynomial(MonomialIdeal.unit(2), engine="pivot") == (0,)

    def test_first_step_closed_form(self):
        # x1^(r+1), x1^r x2, ..., x1^r xn: numerator reduces to
        # (1 + t + ... + t^(r-1) + t^r (1-t)^(s-r)) * (1-t)^(n - (s-r))
        for r, s in [(1, 2), (2, 4), (3, 5), (2, 2)]:
            n = s - r + 1
            gens = [M(*([r + 1] + [0] * (n - 1)))]
            for j in range(1, n):
                e = [0] * n
                e[0] = r
                e[j] = 1
                gens.append(M(*e))
            ideal = minimal_generators(n, gens)
            hs = [1 if i < r else 0 for i in range(s + 1)]
            for j in range(s - r + 1):
                hs[r + j] += (-1) ** j * comb(s - r, j)
            expected = tuple(hs)
            series = hilbert_series(ideal)
            assert series.numerator == expected
            assert series.denominator_exponent == s - r

    def test_only_pivot_and_subsets_engines(self):
        ideal = minimal_generators(2, [M(1, 1)])
        assert kpolynomial(ideal, "pivot") == kpolynomial(ideal, "subsets")
        for engine in ("auto", "enumeration"):
            with pytest.raises(ValueError):
                kpolynomial(ideal, engine)

    def test_engines_agree_on_corpus(self):
        for ideal in _corpus(seed=101, count=60):
            assert kpolynomial(ideal, "subsets") == kpolynomial(ideal, "pivot")

    def test_subset_cap_enforced(self):
        rng = random.Random(0)
        ideal = random_monomial_ideal(rng, 3, 3, 4)
        with pytest.raises(ValueError):
            # fake a cap violation by calling subsets on a >20-generator ideal
            big = minimal_generators(22, [
                M(*(2 if i == j else 0 for i in range(22))) for j in range(22)])
            kpolynomial(big, "subsets")
        # the default pivot engine has no subset cap
        big = minimal_generators(22, [
            M(*(2 if i == j else 0 for i in range(22))) for j in range(22)])
        assert kpolynomial(big)[0] == 1

    def test_default_path_never_scans_subsets(self, monkeypatch):
        # the 2^g scan is a cross-check only; the default engine must not
        # reach it, or a 20-generator ideal costs 2^20 iterations
        def forbidden(gens):
            raise AssertionError("default engine ran the subset scan")

        monkeypatch.setattr(_kernels, "kpoly_counts", forbidden)
        assert str(hilbert_series(fixture("example2"))) == "(1 + 5*t - t^2) / (1-t)^1"
        assert construct(4, 2).ok


def _stable_corpus(seed, count):
    rng = random.Random(seed)
    return [random_strongly_stable_ideal(rng, rng.randint(1, 4), 5)
            for _ in range(count)]


class TestSplitOracle:
    """Each child the pivot recursion builds from a split equals
    `minimalize_rows` of the naive rows: all of I's rows plus xv^k, and
    I's rows with k taken off at v (floored at 0)."""

    @pytest.fixture
    def checked_splits(self, monkeypatch):
        with_power, colon_power = hilbert._with_power, hilbert._colon_power
        visits = []

        def checked_with_power(gens, v, k):
            power = tuple(k if j == v else 0 for j in range(len(gens[0])))
            child = with_power(gens, v, k)
            assert child == minimalize_rows(list(gens) + [power]), (gens, v, k)
            visits.append(gens)
            return child

        def checked_colon_power(gens, v, k):
            naive = [g[:v] + (max(g[v] - k, 0),) + g[v + 1:] for g in gens]
            child = colon_power(gens, v, k)
            assert child == minimalize_rows(naive), (gens, v, k)
            return child

        monkeypatch.setattr(hilbert, "_with_power", checked_with_power)
        monkeypatch.setattr(hilbert, "_colon_power", checked_colon_power)
        return visits

    def _check(self, ideals, visits):
        for ideal in ideals:
            kpolynomial(ideal)
        assert visits, "no split was visited"

    def test_random_corpus(self, checked_splits):
        self._check(_corpus(seed=606, count=200), checked_splits)

    def test_strongly_stable_corpus(self, checked_splits):
        self._check(_stable_corpus(seed=707, count=100), checked_splits)

    def test_grid(self, checked_splits, grid_ideals):
        self._check(grid_ideals, checked_splits)

    def test_fixtures(self, checked_splits, example2, remark3):
        self._check([example2, remark3], checked_splits)


class TestEngineAgreement:
    """The pivot recursion against the subsets engine on the families its
    one base case and its splits have to get right."""

    @staticmethod
    def _agree(ideal):
        assert kpolynomial(ideal) == kpolynomial(ideal, "subsets"), ideal
        return kpolynomial(ideal)

    def test_pure_powers_only(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(1, 6)
            pures = [M(*(rng.randint(1, 5) if j == i else 0 for j in range(n)))
                     for i in range(n) if rng.random() < 0.7]
            ideal = minimal_generators(n, pures)
            expected = (1,)
            for g in ideal.gens:
                expected = hilbert._pmul_one_minus(expected, g.degree)
            assert self._agree(ideal) == expected

    def test_pure_powers_and_one_mixed(self):
        rng = random.Random(12)
        for _ in range(200):
            n = rng.randint(2, 6)
            tops = [rng.randint(2, 5) for _ in range(n)]
            pures = [M(*(tops[i] if j == i else 0 for j in range(n)))
                     for i in range(n) if rng.random() < 0.7]
            support = rng.sample(range(n), rng.randint(2, n))
            # below every pure power, so the mixed generator stays minimal
            mixed = M(*(rng.randint(1, tops[j] - 1) if j in support else 0
                        for j in range(n)))
            ideal = minimal_generators(n, pures + [mixed])
            assert len(ideal.gens) == len(pures) + 1
            self._agree(ideal)

    def test_with_a_pure_power_generator(self):
        rng = random.Random(13)
        checked = 0
        for _ in range(200):
            n = rng.randint(2, 5)
            v, k = rng.randrange(n), rng.randint(1, 4)
            power = M(*(k if j == v else 0 for j in range(n)))
            rest = random_monomial_ideal(rng, n, 6, 8).gens
            ideal = minimal_generators(n, [power, *rest])
            if power in ideal.gens:
                self._agree(ideal)
                checked += 1
        assert checked > 100

    def test_zero_and_unit_ideals(self):
        for n in (1, 3):
            assert self._agree(MonomialIdeal.zero(n)) == (1,)
            assert self._agree(MonomialIdeal.unit(n)) == (0,)

    @given(st.integers(1, 4),
           st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4),
                    min_size=1, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_strongly_stable_three_ways(self, n, seeds):
        rows = [tuple(r[:n]) for r in seeds if any(r[:n])]
        assume(rows)
        ideal = borel_closure(n, [M(*r) for r in rows])
        assume(len(ideal.gens) <= 20)
        assert (kpolynomial(ideal) == kpolynomial(ideal, "subsets")
                == ek_betti_table(ideal).euler_kpolynomial())


class TestHilbertSeries:
    def test_fixture_series(self, example2):
        series = hilbert_series(example2)
        assert series.numerator == (1, 5, -1)
        assert series.denominator_exponent == 1
        assert str(series) == "(1 + 5*t - t^2) / (1-t)^1"

    def test_pure_power_artinian(self):
        series = hilbert_series(minimal_generators(1, [M(2)]))
        assert series.numerator == (1, 1)
        assert series.denominator_exponent == 0
        assert str(series) == "1 + t"

    def test_derived_two_generator_case(self):
        # brute-force standard monomial counts are 1, 2, 1, 1, 1, ...
        ideal = minimal_generators(2, [M(2, 0), M(1, 1)])
        counts = [brute_hilbert_function(ideal, k) for k in range(5)]
        assert counts == [1, 2, 1, 1, 1]
        series = hilbert_series(ideal)
        assert series.numerator == (1, 1, -1)
        assert series.denominator_exponent == 1

    def test_unit_rejected(self):
        with pytest.raises(UnitIdealError):
            hilbert_series(MonomialIdeal.unit(2))

    def test_denominator_equals_dimension_on_corpus(self):
        for ideal in _corpus(seed=202, count=40):
            series = hilbert_series(ideal)
            assert series.denominator_exponent == krull_dimension(ideal)

    def test_h0_is_one_on_corpus(self):
        for ideal in _corpus(seed=303, count=40):
            assert hilbert_series(ideal).numerator[0] == 1


class TestHPolynomial:
    def test_fixture_h_degree(self, example2, remark3):
        assert h_degree(example2) == 2
        assert h_polynomial(example2).coefficients == (1, 5, -1)
        assert h_degree(remark3) == 1

    def test_whole_ring_in_one_variable(self):
        ideal = minimal_generators(1, [M(1)])
        assert h_polynomial(ideal).coefficients == (1,)
        assert h_degree(ideal) == 0

    def test_trailing_zero_rejected(self):
        with pytest.raises(ValueError):
            HPolynomial((1, 0))


class TestHilbertFunction:
    def test_fixture_prefix(self, example2):
        assert [hilbert_function(example2, k) for k in range(5)] == [1, 6, 5, 5, 5]

    def test_zero_ideal_binomials(self):
        zero = MonomialIdeal.zero(4)
        for k in range(8):
            assert hilbert_function(zero, k) == comb(3 + k, k)

    def test_first_step_small(self):
        ideal = minimal_generators(2, [M(2, 0), M(1, 1)])
        assert [hilbert_function(ideal, k) for k in range(4)] == [1, 2, 1, 1]

    def test_methods_agree_on_corpus(self):
        for ideal in _corpus(seed=404, count=30):
            for k in range(9):
                assert (hilbert_function(ideal, k)
                        == count_standard_monomials(ideal, k))

    def test_series_matches_brute_force(self):
        for ideal in _corpus(seed=505, count=15, n_max=4):
            for k in range(7):
                assert hilbert_function(ideal, k) == brute_hilbert_function(ideal, k)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            hilbert_function(MonomialIdeal.zero(2), -1)

    def test_unit_rejected(self):
        with pytest.raises(UnitIdealError):
            hilbert_function(MonomialIdeal.unit(2), 0)


class TestSeriesType:
    def test_reduced_invariant_enforced(self):
        with pytest.raises(ValueError):
            HilbertSeries((1, -1), 1)  # vanishes at 1: not reduced
        with pytest.raises(ValueError):
            HilbertSeries((1, 0), 0)  # trailing zero
        with pytest.raises(ValueError):
            HilbertSeries((1,), -1)

    def test_rendering_signs(self):
        assert str(HilbertSeries((1, -2, 2), 0)) == "1 - 2*t + 2*t^2"
        assert str(HilbertSeries((1, 0, -1, 3), 2)) == "(1 - t^2 + 3*t^3) / (1-t)^2"
