import random
from itertools import accumulate, zip_longest
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    borel_closure,
    brute_hilbert_function,
    brute_minimalize_rows,
    count_calls,
    count_standard_monomials,
    kpoly_subsets,
    random_edge_ideal,
    random_monomial_ideal,
    random_strongly_stable_ideal,
)
from lexseg import _kernels, hilbert
from lexseg.constructions import construct, fixture
from lexseg.eliahou_kervaire import ek_betti_table
from lexseg.errors import (
    CAPS,
    KPolynomialTooLargeError,
    UnitIdealError,
    cap_message,
)
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

    def test_only_the_pivot_engine(self):
        # inclusion-exclusion is the tests' oracle, not a library engine
        ideal = minimal_generators(2, [M(1, 1)])
        assert kpolynomial(ideal, "pivot") == kpoly_subsets(ideal)
        for engine in ("auto", "enumeration", "subsets"):
            with pytest.raises(ValueError):
                kpolynomial(ideal, engine)

    def test_engines_agree_on_corpus(self):
        for ideal in _corpus(seed=101, count=60):
            assert kpoly_subsets(ideal) == kpolynomial(ideal, "pivot")

    def test_subset_cap_enforced(self):
        big = minimal_generators(22, [
            M(*(2 if i == j else 0 for i in range(22))) for j in range(22)])
        # the oracle refuses a 2^22-subset scan
        with pytest.raises(ValueError):
            kpoly_subsets(big)
        # the default pivot engine has no subset cap
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
    """Each child the pivot recursion builds from a split equals the pairwise
    reference `brute_minimalize_rows` of the naive rows: all of I's rows plus
    xv^k, and I's rows with k taken off at v (floored at 0).  The library's
    minimalization and the colon share one divisor trie, so the reference
    scans every pair instead."""

    @pytest.fixture
    def checked_splits(self, monkeypatch):
        with_power, colon_power = hilbert._with_power, hilbert._colon_power
        visits, drops = [], []

        def checked_with_power(gens, v, k):
            power = tuple(k if j == v else 0 for j in range(len(gens[0])))
            child = with_power(gens, v, k)
            assert child == brute_minimalize_rows(list(gens) + [power]), (gens, v, k)
            visits.append(gens)
            return child

        def checked_colon_power(gens, v, k):
            naive = [g[:v] + (max(g[v] - k, 0),) + g[v + 1:] for g in gens]
            child = colon_power(gens, v, k)
            assert child == brute_minimalize_rows(naive), (gens, v, k)
            # an untouched row missing from the child was dropped by the filter
            if not set(g for g in gens if not g[v]) <= set(child):
                drops.append(gens)
            return child

        monkeypatch.setattr(hilbert, "_with_power", checked_with_power)
        monkeypatch.setattr(hilbert, "_colon_power", checked_colon_power)
        return visits, drops

    def _check(self, ideals, checked_splits):
        visits, drops = checked_splits
        for ideal in ideals:
            kpolynomial(ideal)
        assert visits, "no split was visited"
        assert drops, "no split dropped an untouched row"

    def test_random_corpus(self, checked_splits):
        self._check(_corpus(seed=606, count=200), checked_splits)

    def test_strongly_stable_corpus(self, checked_splits):
        self._check(_stable_corpus(seed=707, count=100), checked_splits)

    def test_edge_corpus(self, checked_splits):
        rng = random.Random(909)
        self._check([random_edge_ideal(rng, rng.randint(10, 20)) for _ in range(20)],
                    checked_splits)

    def test_grid(self, checked_splits, grid_ideals):
        self._check(grid_ideals, checked_splits)

    def test_fixtures(self, checked_splits, example2, remark3):
        self._check([example2, remark3], checked_splits)


def test_each_split_is_built_once(monkeypatch, wide_ideal, example2, remark3):
    # each distinct node is expanded once: no pivot choice, I + (xv^k) or
    # I : xv^k is built twice from the same arguments
    names = ("_choose_pivot", "_with_power", "_colon_power")
    seen = {}

    def once(name, real):
        def wrapper(*args):
            assert args not in seen[name], (name, args)
            seen[name].add(args)
            return real(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(hilbert, name, once(name, getattr(hilbert, name)))
    edge = random_edge_ideal(random.Random(1), 30)
    for ideal in (wide_ideal, edge, example2, remark3):
        seen.update((name, set()) for name in names)
        kpolynomial(ideal)
        assert seen["_colon_power"], "no split was built"


class TestEngineAgreement:
    """The pivot recursion against the inclusion-exclusion oracle on the
    families its one base case and its splits have to get right."""

    @staticmethod
    def _agree(ideal):
        assert kpolynomial(ideal) == kpoly_subsets(ideal), ideal
        return kpolynomial(ideal)

    def test_disjoint_supports_are_one_leaf(self, monkeypatch):
        # generators that share no variable, mixed ones included, are the
        # base case: K = prod (1 - t^deg g), with no split made
        def forbidden(gens, v, k):
            raise AssertionError(f"split {gens} at x{v}^{k}")

        monkeypatch.setattr(hilbert, "_with_power", forbidden)
        rng = random.Random(11)
        mixed = 0
        for _ in range(200):
            n = rng.randint(1, 8)
            free = rng.sample(range(n), rng.randint(1, n))
            rows = []
            while free:
                size = rng.randint(1, 3)
                block, free = free[:size], free[size:]
                rows.append(tuple(rng.randint(1, 4) if j in block else 0
                                  for j in range(n)))
            ideal = MonomialIdeal.from_exponent_rows(n, rows)
            expected = [1]
            for g in ideal.gens:
                shifted = [0] * g.degree + expected
                expected = [a - b for a, b in zip_longest(expected, shifted, fillvalue=0)]
            assert self._agree(ideal) == tuple(expected)
            mixed += any(sum(map(bool, r)) > 1 for r in rows)
        assert mixed > 100

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

    def test_edge_ideals(self):
        # matchings are leaves partway down these trees
        checked = 0
        for seed in range(10):
            for n in range(6, 15, 2):
                ideal = random_edge_ideal(random.Random(seed), n)
                if len(ideal.gens) <= 16:
                    self._agree(ideal)
                    checked += 1
        assert checked > 30

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
        assert (kpolynomial(ideal) == kpoly_subsets(ideal)
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

    def test_reduced_series_rejects_the_zero_polynomial(self):
        # the unit ideal's K-polynomial is 0, which (1-t) divides forever
        for kpoly in [kpolynomial(MonomialIdeal.unit(2)), (0, 0, 0), ()]:
            with pytest.raises(ValueError, match="zero polynomial"):
                hilbert._reduced_series(kpoly, 3)

    def test_denominator_equals_dimension_on_corpus(self):
        # the cover search is the independent route to dim S/I
        rng = random.Random(505)
        ideals = _corpus(seed=202, count=40) + _stable_corpus(seed=404, count=40)
        ideals += [random_edge_ideal(rng, n) for n in range(4, 21, 2)]
        for ideal in ideals:
            series = hilbert_series(ideal)
            assert series.denominator_exponent == krull_dimension(ideal), ideal

    def test_series_runs_no_cover_search(self, monkeypatch):
        ideal = random_edge_ideal(random.Random(2), 30)
        calls = count_calls(monkeypatch, "krull_dimension", "kpolynomial")
        assert hilbert_series(ideal).denominator_exponent == 12
        assert calls == {"kpolynomial": 1}

    def test_h0_is_one_on_corpus(self):
        for ideal in _corpus(seed=303, count=40):
            assert hilbert_series(ideal).numerator[0] == 1


def _pivot_series(ideal):
    """The series by the pivot recursion, the oracle of the table route."""
    return hilbert._reduced_series(kpolynomial(ideal), ideal.n)


class TestSeriesRoutes:
    """The pivot recursion and the Euler characteristic of the closed-form
    EK table are independent routes to a stable ideal's series;
    `hilbert_series`, construct, lexify and stable analyze requests take the
    second."""

    def test_pivot_and_ek_agree(self, grid_reports, example2, remark3, wide_ideal):
        for report in grid_reports:
            assert (report.series == hilbert_series(report.ideal)
                    == _pivot_series(report.ideal)), report.ideal
        ideals = [example2, remark3, wide_ideal] + _stable_corpus(seed=707, count=100)
        ideals += [MonomialIdeal.zero(n) for n in (1, 3)]
        for ideal in ideals:
            table = ek_betti_table(ideal)
            assert (hilbert._stable_series(ideal, table) == hilbert_series(ideal)
                    == _pivot_series(ideal)), ideal

    def test_one_route_per_kind_of_ideal(self, example2, remark3):
        # a stable ideal's series is read off its one table, with no pivot
        # recursion; any other ideal's is the recursion's
        stable = [example2, remark3, construct(5, 2).ideal]
        stable += _stable_corpus(seed=808, count=20)
        for ideal in stable:
            fresh = MonomialIdeal(ideal.n, ideal.exponent_rows)
            with pytest.MonkeyPatch.context() as monkeypatch:
                calls = count_calls(monkeypatch, "kpolynomial", "_ek_table")
                series = hilbert_series(fresh)
            assert calls == {"_ek_table": 1}, ideal
            assert series == _pivot_series(ideal), ideal
        edge = random_edge_ideal(random.Random(4), 12)
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = count_calls(monkeypatch, "kpolynomial", "_ek_table")
            series = hilbert_series(edge)
        assert calls == {"kpolynomial": 1}
        assert series == _pivot_series(edge)

    def test_stable_ideal_over_the_table_cap_takes_the_recursion(self, monkeypatch):
        # (x1, ..., x299, x300^20000): lexsegment, but its table of 20000 rows
        # of 301 is over the cap, refused before any row is built, so the
        # recursion keeps its answer
        rows = [tuple(int(i == j) for i in range(300)) for j in range(299)]
        ideal = MonomialIdeal(300, rows + [(0,) * 299 + (20000,)])
        calls = count_calls(monkeypatch, "kpolynomial", "_ek_table")
        series = hilbert_series(ideal)
        assert calls == {"_ek_table": 1, "kpolynomial": 1}
        assert (series.numerator, series.denominator_exponent) == ((1,) * 20000, 0)


class TestKPolynomialCap:
    """Every polynomial of the recursion has degree at most the sum of the
    lcm's exponents, held to `CAPS["kpolynomial"]` before it starts."""

    def test_over_the_cap_raises_before_the_recursion(self, monkeypatch):
        ideal = MonomialIdeal(2, [(0, 5)])  # x2^5: not stable
        monkeypatch.setattr(CAPS["kpolynomial"], "bound", 4)
        calls = count_calls(monkeypatch, "_kpoly_pivot")
        for compute in (kpolynomial, hilbert_series):
            with pytest.raises(KPolynomialTooLargeError) as err:
                compute(ideal)
            assert str(err.value) == cap_message("kpolynomial", 5)
        assert str(err.value) == ("the K-polynomial recursion could build "
                                  "polynomials of degree 5, cap is 4")
        assert calls["_kpoly_pivot"] == 0

    def test_at_the_cap_runs(self, monkeypatch):
        monkeypatch.setattr(CAPS["kpolynomial"], "bound", 5)
        ideal = MonomialIdeal(3, [(0, 2, 0), (0, 1, 1), (0, 0, 3)])
        assert sum(ideal.lcm_exponents) == 5
        assert kpolynomial(ideal) == kpoly_subsets(ideal)
        assert hilbert_series(MonomialIdeal(2, [(0, 5)])).numerator == (1, 1, 1, 1, 1)


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


class TestSeriesValues:
    def test_values_match_coefficients(self, grid_reports, example2, remark3):
        zero = hilbert_series(MonomialIdeal.zero(4))
        flat = HilbertSeries((1, 3, 2), 0)
        assert zero.denominator_exponent == 4 and flat.denominator_exponent == 0
        series = [report.series for report in grid_reports]
        series += [hilbert_series(example2), hilbert_series(remark3), zero, flat]
        for s in series:
            for m in range(41):
                assert s.values(m) == [s.coefficient(k) for k in range(m)], (s, m)

    def test_values_match_running_sums(self):
        # seeded series on both sides of d = len(h), d = 0 among them, and
        # (x1) in 1,500 variables, at m = 0, m < len(h) and past it, against
        # the numerator expanded by one running sum per factor 1/(1-t)
        rng = random.Random(37)
        series = [HilbertSeries((1,), 1499), HilbertSeries((1, 1499), 1498)]
        while len(series) < 300:
            h = [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))]
            if h[-1] and sum(h):
                series.append(HilbertSeries(h, rng.randint(0, 10)))
        assert {s.denominator_exponent >= len(s.numerator) for s in series} == {True, False}
        assert any(s.denominator_exponent == 0 for s in series)
        for s in series:
            for m in sorted({0, 1, len(s.numerator) - 1, len(s.numerator), 25}):
                assert s.values(m) == _running_sums(s, m), (s, m)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            HilbertSeries((1,), 2).values(-1)


def _running_sums(series, m: int) -> list[int]:
    """H(0), ..., H(m-1): the numerator cut or padded to m terms, then one
    running sum per factor 1/(1-t)."""
    out = list(series.numerator[:m]) + [0] * (m - len(series.numerator))
    for _ in range(series.denominator_exponent):
        out = list(accumulate(out))
    return out


class TestSeriesType:
    def test_reduced_invariant_enforced(self):
        with pytest.raises(ValueError):
            HilbertSeries((1, -1), 1)  # vanishes at 1: not reduced
        with pytest.raises(ValueError):
            HilbertSeries((1, 0), 0)  # trailing zero
        with pytest.raises(ValueError):
            HilbertSeries((1,), -1)

    @pytest.mark.parametrize("make", [
        lambda: HilbertSeries((1.5, True), 0), lambda: HilbertSeries((1, 2.0), 1),
        lambda: HPolynomial((1, True)), lambda: HPolynomial((1.0,))],
        ids=["series-float-bool", "series-float", "hpoly-bool", "hpoly-float"])
    def test_rejects_non_int_coefficients(self, make):
        # no silent int() coercion: (1.5, True) used to become (1, 1)
        with pytest.raises(TypeError):
            make()

    def test_rendering_signs(self):
        assert str(HilbertSeries((1, -2, 2), 0)) == "1 - 2*t + 2*t^2"
        assert str(HilbertSeries((1, 0, -1, 3), 2)) == "(1 - t^2 + 3*t^3) / (1-t)^2"
