import random
from math import comb

import pytest

from helpers import brute_hilbert_function
from lexseg import _kernels
from lexseg.constructions import construct, fixture
from lexseg.corpus import random_monomial_ideal
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
