import random

import pytest

from helpers import (
    count_calls,
    degree_counts,
    ek_closed_form,
    generator_shapes,
    random_stable_ideal,
    random_strongly_stable_ideal,
)
from lexseg import construct, fixture, monomials
from lexseg.betti import TRIVIAL, BettiTable
from lexseg.betti_oracle import bruteforce_betti_table
from lexseg.eliahou_kervaire import (
    _ek_table,
    depth,
    ek_betti_table,
    projective_dimension,
    regularity,
)
from lexseg.errors import (
    CAPS,
    BettiTableTooLargeError,
    StabilityRequiredError,
    UnitIdealError,
)
from lexseg.hilbert import kpolynomial
from lexseg.monomials import (
    Monomial,
    MonomialIdeal,
    _lex_segment,
    is_lexsegment,
    minimal_generators,
)

EXPECTED_FIXTURE_ROWS = (
    (1, 0, 0, 0, 0, 0, 0),
    (0, 16, 47, 63, 46, 18, 3),
    (0, 2, 9, 16, 14, 6, 1),
    (0, 1, 5, 10, 10, 5, 1),
    (0, 1, 4, 6, 4, 1, 0),
)

EXPECTED_FIXTURE_TEXT = """\
1  .  .  .  .  . .
. 16 47 63 46 18 3
.  2  9 16 14  6 1
.  1  5 10 10  5 1
.  1  4  6  4  1 ."""


def M(*expo):
    return Monomial(tuple(expo))


class TestEkTable:
    def test_fixture_table_exact(self, example2):
        table = ek_betti_table(example2)
        assert table.rows == EXPECTED_FIXTURE_ROWS
        assert table.regularity == 4
        assert table.projective_dimension == 6
        assert table.to_text() == EXPECTED_FIXTURE_TEXT

    def test_single_variable(self):
        table = ek_betti_table(minimal_generators(1, [M(1)]))
        assert table.rows == ((1, 1),)
        assert table.regularity == 0
        assert table.projective_dimension == 1

    def test_first_step_linear_resolution(self):
        # generators x1^(r+1), x1^r x2, ..., x1^r xn: one strand at q = p + r
        for r, n in [(2, 3), (3, 4), (1, 5)]:
            gens = [M(*([r + 1] + [0] * (n - 1)))]
            for j in range(1, n):
                e = [0] * n
                e[0] = r
                e[j] = 1
                gens.append(M(*e))
            table = ek_betti_table(minimal_generators(n, gens))
            for p in range(1, table.projective_dimension + 1):
                for q in range(p + table.regularity + 1):
                    if table.entry(p, q):
                        assert q == p + r

    def test_column_one_counts_generators_by_degree(self, example2):
        table = ek_betti_table(example2)
        assert table.entry(1, 2) == 16
        assert table.entry(1, 3) == 2
        assert table.entry(1, 4) == 1
        assert table.entry(1, 5) == 1
        assert table.column_total(1) == len(example2.gens)

    def test_zero_ideal_trivial(self):
        table = ek_betti_table(MonomialIdeal.zero(3))
        assert table.rows == ((1,),)
        assert depth(MonomialIdeal.zero(3)) == 3
        assert regularity(MonomialIdeal.zero(3)) == 0

    def test_unit_rejected(self):
        with pytest.raises(UnitIdealError):
            ek_betti_table(MonomialIdeal.unit(2))

    def test_non_stable_rejected_with_direction(self):
        ideal = minimal_generators(2, [M(0, 2)])
        with pytest.raises(StabilityRequiredError) as err:
            ek_betti_table(ideal)
        assert "oracle" in str(err.value)

    @pytest.mark.parametrize("table", [ek_betti_table, bruteforce_betti_table],
                             ids=["closed-form", "oracle"])
    def test_table_cap(self, monkeypatch, table):
        # (x1, x2^5) in 3 variables: 5 rows of pd + 1 = 3 entries, while the
        # closed form's first bound, 5 rows of n + 1, is 20; the cap is inclusive
        ideal = minimal_generators(3, [M(1, 0, 0), M(0, 5, 0)])
        monkeypatch.setattr(CAPS["betti-table"], "bound", 15)
        assert table(ideal).rows == ((1, 1, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
                                     (0, 1, 1))
        monkeypatch.setattr(CAPS["betti-table"], "bound", 14)
        with pytest.raises(BettiTableTooLargeError) as err:
            table(ideal)
        assert str(err.value) == ("the Betti table would have 15 entries "
                                  "(5 rows of 3), cap is 14")

    def test_table_cap_before_any_row(self):
        # S/(x1^(10^9)) has 10^9 rows of 2: refused off the tallies, and off
        # the largest keys of the entries, before a row is built
        message = ("the Betti table would have 2000000000 entries "
                   "(1000000000 rows of 2), cap is 2000000")
        with pytest.raises(BettiTableTooLargeError) as err:
            _ek_table(MonomialIdeal(1, [(10**9,)]), {10**9: [0, 1]})
        assert str(err.value) == message
        with pytest.raises(BettiTableTooLargeError) as err:
            BettiTable.from_entries({(0, 0): 1, (1, 10**9): 1})
        assert str(err.value) == message

    def test_lexsegment_walk_first(self, monkeypatch):
        # a lexsegment ideal's walk tallies its table; the prefix walk runs
        # only once that walk fails, at the first row that is not the
        # successor it built: x1*x3, not x2^2.  A fresh ideal, since each
        # ideal keeps its walks' results
        example2 = fixture("example2")
        calls = count_calls(monkeypatch, "_lexsegment_counts", "_prefixes_cover")
        assert ek_betti_table(example2) == bruteforce_betti_table(example2)
        assert calls == {"_lexsegment_counts": 1}
        built = []
        real = monomials._lex_walk
        monkeypatch.setattr(monomials, "_lex_walk",
                            lambda *args: (built.append(row) or row for row in real(*args)))
        ideal = minimal_generators(3, [M(2, 0, 0), M(1, 1, 0), M(0, 2, 0), M(0, 1, 1)])
        assert ek_betti_table(ideal) == bruteforce_betti_table(ideal)
        assert calls == {"_lexsegment_counts": 2, "_prefixes_cover": 1}
        assert built == [(2, 0, 0), (1, 1, 0), (1, 0, 1)]


class TestClosedFormOracle:
    def test_horner_tables_match_binomials(self, grid_reports, example2, remark3):
        # both tally routes, the realizing walk's and the stability walk's
        # behind ek_betti_table, and both row builders, one binomial row for
        # a degree whose generators share their largest variable and Horner's
        # rule for any other, against the closed form summed one binomial at
        # a time
        rng = random.Random(58)
        corpus = [random_strongly_stable_ideal(rng, rng.randint(1, 5), 5)
                  for _ in range(200)]
        large = [construct(1, 300), construct(100, 3)]
        ideals = [report.ideal for report in grid_reports + large]
        ideals += [example2, remark3] + corpus
        walked = 0
        shared = set()  # whether a degree's generators share their largest variable
        for ideal in ideals:
            want = ek_closed_form(ideal)
            assert ek_betti_table(ideal) == want, ideal
            if not ideal.is_zero and is_lexsegment(ideal):
                realized, tallies = _lex_segment(ideal.n, degree_counts(ideal.exponent_rows))
                assert realized == ideal
                assert _ek_table(realized, tallies) == want, ideal
                walked += 1
            degrees = [d for d, _ in generator_shapes(ideal)]
            shared |= {degrees.count(d) == 1 for d in degrees}
        assert walked >= 144 + 2 + 1 + 20
        assert shared == {True, False}
        for report in grid_reports + large:
            assert report.betti == ek_closed_form(report.ideal)


class TestDerivedInvariants:
    def test_fixture_values(self, example2, remark3):
        assert regularity(example2) == 4
        assert depth(example2) == 0
        assert regularity(remark3) == 6
        assert depth(remark3) == 0
        assert remark3.max_gen_degree == 7  # x3^4*x4^3

    def test_principal_variable_in_two_variables(self):
        ideal = minimal_generators(2, [M(1, 0)])
        assert projective_dimension(ideal) == 1
        assert depth(ideal) == 1

    def test_square_in_one_variable(self):
        assert regularity(minimal_generators(1, [M(2)])) == 1

    def test_regularity_equals_table_max_on_corpus(self):
        rng = random.Random(55)
        for _ in range(30):
            ideal = random_strongly_stable_ideal(rng, rng.randint(1, 4), 5)
            table = ek_betti_table(ideal)
            best = max(q - p
                       for p in range(table.projective_dimension + 1)
                       for q in range(p + table.regularity + 1)
                       if table.entry(p, q))
            assert table.regularity == best == ideal.max_gen_degree - 1
            assert regularity(ideal) == best

    def test_depth_plus_pd_is_n(self):
        rng = random.Random(56)
        for _ in range(30):
            n = rng.randint(1, 4)
            ideal = random_strongly_stable_ideal(rng, n, 5)
            assert depth(ideal) + projective_dimension(ideal) == n
            assert projective_dimension(ideal) == max(
                (u.max_index for u in ideal.gens), default=0)

    def test_helpers_match_the_table_on_stable_corpus(self):
        # stable ideals that are not all strongly stable, and the zero ideal
        rng = random.Random(58)
        ideals = [random_stable_ideal(rng, rng.randint(1, 5), 5) for _ in range(40)]
        for ideal in ideals + [MonomialIdeal.zero(2)]:
            table = ek_betti_table(ideal)
            assert regularity(ideal) == table.regularity
            assert projective_dimension(ideal) == table.projective_dimension
            assert depth(ideal) == ideal.n - table.projective_dimension

    def test_helpers_past_the_table_cap(self):
        # S/(x1^(10^8)) has 10^8 rows of 2: the table is refused, while reg
        # and pd are read off the tallies
        ideal = MonomialIdeal(2, [(10**8, 0)])
        assert regularity(ideal) == 10**8 - 1
        assert projective_dimension(ideal) == depth(ideal) == 1
        with pytest.raises(BettiTableTooLargeError):
            ek_betti_table(ideal)

    @pytest.mark.parametrize("helper", [regularity, projective_dimension, depth])
    def test_helpers_refuse_what_the_table_refuses(self, helper):
        with pytest.raises(UnitIdealError):
            helper(MonomialIdeal.unit(2))
        with pytest.raises(StabilityRequiredError):
            helper(minimal_generators(2, [M(0, 2)]))

    @pytest.mark.parametrize("helper", [regularity, projective_dimension, depth])
    def test_each_helper_reads_one_table(self, monkeypatch, helper):
        # example2 is lexsegment: the lexsegment walk tallies it, no prefix
        # walk; a fresh ideal, since each ideal keeps its walks' results.
        # reg and pd are read off that walk's tallies, so no table is built
        example2 = fixture("example2")
        calls = count_calls(monkeypatch, "ek_betti_table", "_ek_table",
                            "_lexsegment_counts", "_prefixes_cover")
        helper(example2)
        assert calls == {"_lexsegment_counts": 1}
        assert calls["ek_betti_table"] == calls["_ek_table"] == 0

    def test_euler_characteristic_matches_kpolynomial(self):
        rng = random.Random(57)
        for _ in range(30):
            ideal = random_strongly_stable_ideal(rng, rng.randint(1, 4), 5)
            assert ek_betti_table(ideal).euler_kpolynomial() == kpolynomial(ideal)


class TestBettiTableType:
    def test_entry_outside_grid_is_zero(self, example2):
        table = ek_betti_table(example2)
        assert table.entry(7, 7) == 0
        assert table.entry(0, 3) == 0

    def test_json_dict(self, example2):
        data = ek_betti_table(example2).to_json_dict()
        assert data["pd"] == 6 and data["reg"] == 4
        assert data["rows"][1][1] == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            BettiTable(((2,),))
        with pytest.raises(ValueError):
            BettiTable(((1, 0), (0,)))
        with pytest.raises(ValueError):
            BettiTable(())

    @pytest.mark.parametrize("rows", [((1.7,),), ((True,),), ((1, 0), (0, 2.0))],
                             ids=["float", "bool", "float-entry"])
    def test_rejects_non_int_entries(self, rows):
        # no silent int() coercion: ((1.7,),) used to become ((1,),)
        with pytest.raises(TypeError):
            BettiTable(rows)

    def test_one_trivial_table(self):
        zero = MonomialIdeal.zero(3)
        assert ek_betti_table(zero) is TRIVIAL is bruteforce_betti_table(zero)
        assert TRIVIAL.rows == ((1,),)

    def test_text_is_deterministic(self, example2):
        a = ek_betti_table(example2).to_text()
        b = ek_betti_table(example2).to_text()
        assert a == b
        assert not any(line.endswith(" ") for line in a.splitlines())
