import pytest

from helpers import count_calls
from lexseg.constructions import (
    Invariants,
    construct,
    construct_first_step,
    construct_second_step,
    fixture,
    second_step_hf,
)
from lexseg.eliahou_kervaire import ek_betti_table
from lexseg.hilbert import h_polynomial, hilbert_function, hilbert_series
from lexseg.monomials import is_lexsegment


class TestFirstStep:
    def test_r_equals_s_boundary(self):
        report = construct_first_step(1, 1)
        assert report.ideal.n == 1
        assert [g.exponents for g in report.ideal.gens] == [(2,)]
        assert report.predicted == Invariants(1, 1, 1, 0, 0)
        assert report.ok

    def test_small_case(self):
        report = construct_first_step(1, 2)
        assert [g.exponents for g in report.ideal.gens] == [(2, 0), (1, 1)]
        assert h_polynomial(report.ideal).coefficients == (1, 1, -1)

    def test_three_five(self):
        report = construct_first_step(3, 5)
        assert [g.exponents for g in report.ideal.gens] == [
            (4, 0, 0), (3, 1, 0), (3, 0, 1)]
        assert report.measured.regularity == 3
        assert report.measured.h_degree == 5

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            construct_first_step(3, 2)


class TestSecondStep:
    def test_fixture_case(self, example2):
        report = construct_second_step(4, 2)
        assert report.ideal == example2
        assert h_polynomial(report.ideal).coefficients == (1, 5, -1)
        assert report.predicted == Invariants(6, 4, 2, 1, 0)

    def test_degenerate_s_one_merges_linear_terms(self):
        report = construct_second_step(2, 1)
        assert report.ideal.n == 4
        assert h_polynomial(report.ideal).coefficients == (1, 2)
        assert report.measured.h_degree == 1
        assert second_step_hf(2, 1).initial == (1,)
        assert second_step_hf(2, 1).tail == 3

    def test_five_three(self):
        spec = second_step_hf(5, 3)
        assert spec.initial == (1, 7, 7) and spec.tail == 6
        report = construct_second_step(5, 3)
        assert report.ideal.n == 7
        assert h_polynomial(report.ideal).coefficients == (1, 6, 0, -1)
        assert report.measured.regularity == 5

    def test_max_generator_degree_is_r_plus_one(self):
        for r, s in [(3, 1), (4, 2), (6, 4)]:
            report = construct_second_step(r, s)
            assert report.ideal.max_gen_degree == r + 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            construct_second_step(2, 2)


class TestDispatch:
    def test_branches(self):
        assert construct(4, 2).branch == "second-step"
        assert construct(2, 4).branch == "first-step"
        assert construct(7, 7).branch == "first-step"
        assert construct(7, 7).ideal.n == 1

    def test_ambient_bound(self):
        assert construct(2, 4).ideal.n == 3 <= 6

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            construct(0, 2)
        with pytest.raises(ValueError):
            construct(2, 0)

    def test_grid_smallish(self):
        for r in range(1, 9):
            for s in range(1, 9):
                report = construct(r, s)
                assert report.ok
                assert report.measured.regularity == r
                assert report.measured.h_degree == s
                assert report.ideal.n <= max(r, s) + 2
                assert is_lexsegment(report.ideal)

    def test_second_step_dim_depth(self):
        for r, s in [(2, 1), (5, 2), (7, 6)]:
            m = construct(r, s).measured
            assert m.dim == 1 and m.depth == 0

    def test_first_step_linear_strand(self):
        report = construct(2, 5)
        table = ek_betti_table(report.ideal)
        for p in range(1, table.projective_dimension + 1):
            for q in range(p + table.regularity + 1):
                if table.entry(p, q):
                    assert q == p + 2


class TestMeasuredOnce:
    @pytest.mark.parametrize("r, s", [(2, 5), (5, 2)])
    def test_one_series_and_one_stability_check(self, monkeypatch, r, s):
        calls = count_calls(monkeypatch, "kpolynomial", "is_stable")
        report = construct(r, s)
        assert calls == {"kpolynomial": 1, "is_stable": 1}
        monkeypatch.undo()
        assert report.series == hilbert_series(report.ideal)
        assert report.betti == ek_betti_table(report.ideal)


class TestNoEnumeration:
    def test_construct_reads_the_series(self, no_enumeration):
        for r in range(1, 13):
            for s in range(1, 13):
                assert construct(r, s).ok, (r, s)
        assert construct(5, 30).ok


class TestFixtures:
    def test_example2(self, example2):
        assert example2.n == 6
        assert len(example2.gens) == 20
        assert example2.gens[0].exponents == (2, 0, 0, 0, 0, 0)
        assert [hilbert_function(example2, k) for k in range(5)] == [1, 6, 5, 5, 5]

    def test_remark3(self, remark3):
        assert remark3.n == 5
        assert len(remark3.gens) == 17
        assert remark3.gens[-1].exponents == (0, 0, 4, 3, 0)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            fixture("nope")
