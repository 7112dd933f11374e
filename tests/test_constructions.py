import hashlib
from math import comb

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
from lexseg.monomials import Monomial, is_lexsegment


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

    def test_predicted_h_polynomial_is_the_binomial_form(self):
        # the prediction is built by a recurrence; construct_first_step raises
        # unless the measured numerator equals it, so the numerator is it
        cells = [(r, s) for r in range(1, 13) for s in range(r, 13)] + [(1, 300), (1, 2000)]
        for r, s in cells:
            expected = [1] * r + [(-1) ** j * comb(s - r, j) for j in range(s - r + 1)]
            assert list(construct_first_step(r, s).series.numerator) == expected, (r, s)

    def test_rows_are_the_closed_form(self):
        # the walk lists x1^(r+1), x1^r x2, ..., x1^r xn, the first n
        # monomials of degree r+1
        cells = [(r, s) for r in range(1, 13) for s in range(r, 13)] + [(1, 300)]
        for r, s in cells:
            n = s - r + 1
            expected = [(r + 1,) + (0,) * (n - 1)] + [
                (r,) + (0,) * (j - 1) + (1,) + (0,) * (n - 1 - j) for j in range(1, n)]
            assert list(construct(r, s).ideal.exponent_rows) == expected, (r, s)


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
        # one lex walk lists the rows, minimal and lex-descending by
        # construction, and tallies them, so no certificate walks them again
        # and no stability check runs; the series comes from the one EK
        # table, not the pivot recursion, and its dimension from the stable
        # closed form
        expected = {"kpolynomial": 0, "_ek_table": 1, "_lex_segment": 1,
                    "_lex_walk": 1, "_lexsegment_counts": 0,
                    "is_lexsegment": 0, "ek_betti_table": 0, "is_stable": 0,
                    "krull_dimension": 0, "_undivided": 0}
        calls = count_calls(monkeypatch, *expected)
        report = construct(r, s)
        assert {name: calls[name] for name in expected} == expected
        monkeypatch.undo()
        assert report.series == hilbert_series(report.ideal)
        assert report.betti == ek_betti_table(report.ideal)


class TestRowsOnly:
    def test_construct_wraps_no_monomial(self, monkeypatch):
        # the construct path works on exponent rows; only `gens` wraps them
        wrapped = []
        real = Monomial.__init__
        monkeypatch.setattr(Monomial, "__init__",
                            lambda self, expo: wrapped.append(real(self, expo)))
        reports = [construct(r, s) for r, s in [(1, 1), (2, 5), (4, 2), (12, 3)]]
        assert wrapped == []
        assert str(reports[2].ideal.gens[0]) == "x1^2" and len(wrapped) == 20


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


def _digest(reports) -> str:
    """SHA-256 over each (r, s) cell's generators, Betti rows and reduced
    series (numerator and denominator exponent), in order."""
    h = hashlib.sha256()
    for (r, s), rep in reports:
        h.update(repr((r, s, rep.ideal.exponent_rows, rep.betti.rows,
                       rep.series.numerator,
                       rep.series.denominator_exponent)).encode())
    return h.hexdigest()


class TestByteIdentity:
    # any change to a generator, a Betti number or a series coefficient of
    # these cells changes a digest: a speed-up must leave both as they are
    GRID = "ea334d04cdccfacfe987169f6c0cbc9c89486f3a32e86c38ac42853d53f78f82"
    LARGE = "30e3c2b6c68164da863e1572c9f8398d3d14daa57b94c1dfee06147d2873a1c7"

    def test_grid_cells(self, grid_reports):
        cells = [(r, s) for r in range(1, 13) for s in range(1, 13)]
        assert _digest(zip(cells, grid_reports)) == self.GRID

    def test_large_cells(self):
        cells = [(1, 300), (100, 3), (40, 3), (30, 29)]
        assert _digest((cell, construct(*cell)) for cell in cells) == self.LARGE
