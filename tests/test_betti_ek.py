import math
import random
from collections import Counter

import pytest

from helpers import (
    count_calls,
    degree_counts,
    ek_closed_form,
    euler_column_sums,
    generator_shapes,
    random_betti_rows,
    random_stable_ideal,
    random_strongly_stable_ideal,
)
from lexseg import construct, fixture, monomials
from lexseg.betti import TRIVIAL, BettiTable
from lexseg.betti_oracle import bruteforce_betti_table
from lexseg.eliahou_kervaire import (
    _SHARED_J,
    _ek_table,
    _pascal,
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
        # (x1, x2^5) in 3 variables: 5 rows of pd + 1 = 3 entries, not 5 rows
        # of n + 1 = 20; the cap is inclusive
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
            _ek_table({10**9: [0, 1]})
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
        # behind ek_betti_table, and the row rule of _ek_table, one binomial
        # row for each place a tally changes, on tallies that are one run of
        # a constant (among them a degree whose generators share their
        # largest variable) and on tallies of several runs, against the
        # closed form summed one binomial at a time
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
                assert _ek_table(tallies) == want, ideal
                walked += 1
            degrees = [d for d, _ in generator_shapes(ideal)]
            shared |= {degrees.count(d) == 1 for d in degrees}
        assert walked >= 144 + 2 + 1 + 20
        assert shared == {True, False}
        for report in grid_reports + large:
            assert report.betti == ek_closed_form(report.ideal)

    def test_every_case_of_the_row_rule_matches_binomials(self, wide_ideal):
        # seeded random tallies, and the walk's tallies of construct(1, 300),
        # (40, 3) and (100, 3), against the closed form summed one binomial
        # at a time; every tally shape is met.  The tallies have interior
        # zeros, steps of more than one, up to 2000 variables (spans of at
        # most five there, so the closed form stays cheap), and long
        # stretches where the count grows by one per variable (c_m = m)
        rng = random.Random(33)
        cases = []
        for k in range(300):
            n = rng.randint(1, 9) if k % 50 else 2000
            tallies = {}
            for d in rng.sample(range(1, 8), rng.randint(1, 3)):
                m0 = rng.randint(1, n)
                m = rng.randint(m0, min(n, m0 + 4) if n == 2000 else n)
                shape = rng.random()
                if shape < 0.3:
                    span = [rng.randint(1, 3)] * (m - m0 + 1)
                elif shape < 0.6:
                    span = [rng.randint(1, 3), *(rng.randint(0, 3) for _ in range(m - m0))]
                else:
                    span = [rng.choice([0, 0, 1, 5, 40]) for _ in range(m - m0 + 1)]
                    span[0] = span[0] or 2
                span[-1] = span[-1] or 1
                tallies[d] = [0] * m0 + span + [0] * (n - m)
            # the ideal only carries n: _ek_table reads the tallies
            cases.append((MonomialIdeal(n, [(1,) + (0,) * (n - 1)]), tallies))
        for n in (40, 60):  # c_m = m over the span: a step of -1 at each place
            cases.append((MonomialIdeal(n, [(1,) + (0,) * (n - 1)]),
                          {2: [*range(n + 1)], 3: [0] * 20 + [*range(20, n + 1)]}))
        for ideal in [construct(1, 300).ideal, wide_ideal, construct(100, 3).ideal]:
            cases.append(_lex_segment(ideal.n, degree_counts(ideal.exponent_rows)))
        hit = Counter()
        steps = set()
        for ideal, tallies in cases:
            shapes = Counter({(d, m): c for d, tally in tallies.items()
                              for m, c in enumerate(tally) if c})
            assert _ek_table(tallies) == ek_closed_form(ideal, shapes), tallies
            hit.update(map(_row_case, tallies.values()))
            steps |= {a - b for tally in tallies.values() for a, b in zip(tally, tally[1:])}
        assert set(hit) == {"one run from x1", "one run from a later variable",
                            "single variable", "several runs from x1",
                            "several runs from a later x_m0, at most m0 variables",
                            "several runs from a later x_m0, more than m0 variables"}, hit
        assert {-40, -1, 1, 40} <= steps
        assert any(tally[m] == 0 < tally[m - 1] and any(tally[m:])
                   for _, tallies in cases for tally in tallies.values()
                   for m in range(1, len(tally)))
        assert max(ideal.n for ideal, _ in cases) == 2000


def _row_case(tally) -> str:
    """The shape of a tally over its span [m0, m], the least and largest
    x_m tallied: one variable, one run of a constant, or several runs,
    from x1 or from a later variable; a later span of several runs is told
    apart by its length m - m0 + 1 against m0."""
    support = [m for m, c in enumerate(tally) if c]
    m0, m = support[0], support[-1]
    if m0 == m:
        return "single variable"
    if len(set(tally[m0:m + 1])) == 1:
        return "one run from x1" if m0 == 1 else "one run from a later variable"
    if m0 == 1:
        return "several runs from x1"
    if m - m0 + 1 <= m0:
        return "several runs from a later x_m0, at most m0 variables"
    return "several runs from a later x_m0, more than m0 variables"


class TestSharedBinomialRows:
    def test_rows_are_binomials(self):
        for j in range(301):
            row = _pascal(j)
            assert type(row) is tuple
            assert list(row) == [math.comb(j, i) for i in range(j + 1)], j

    def test_cold_and_warm_cache_give_the_same_tables(self):
        # tallies of widths 15, 3, 15, 2001 and 15, from an empty cache, each
        # table against the closed form summed one binomial at a time.  A
        # table reads C(j, .) at each place j where a tally changes, and it
        # builds into the shared cache exactly the rows j <= 500 that no
        # table before it read: the first builds rows, the repeats of width
        # 15 build none, and the width-2001 table adds only rows with
        # j <= 500 to the cache, its wider rows (C(j, .) for j = 1201 to
        # 1206, 1997, 1999 and 2000) being built for that table alone
        _pascal.cache_clear()
        read, builds = set(), []
        for width in [15, 3, 15, 2001, 15]:
            tallies = _tallies_of_width(random.Random(width), width)
            ideal = MonomialIdeal(width - 1, [(1,) + (0,) * (width - 2)])
            shapes = Counter({(d, m): c for d, tally in tallies.items()
                              for m, c in enumerate(tally) if c})
            rows = {j for tally in tallies.values()
                    for j, (a, b) in enumerate(zip(tally, [*tally[1:], 0])) if a != b}
            misses = _pascal.cache_info().misses
            assert _ek_table(tallies) == ek_closed_form(ideal, shapes), tallies
            builds.append(_pascal.cache_info().misses - misses)
            assert builds[-1] == len({j for j in rows - read if j <= 500}), width
            read |= rows
        assert builds[0] > 0 == builds[2] == builds[4]
        assert {1201, 1206, 1997, 1999, 2000} <= read

    def test_cache_is_bounded(self):
        # the cache is unbounded by count; `_binomials` sends it only
        # j <= _SHARED_J, so once every such row is in, it holds exactly those
        construct(300, 2)
        construct(1, 2000)
        assert _pascal.cache_info().currsize <= _SHARED_J + 1
        for j in range(_SHARED_J + 1):
            _pascal(j)
        assert _pascal.cache_info().currsize == _SHARED_J + 1  # no j > _SHARED_J

    def test_a_second_build_of_a_large_table_misses_no_row(self):
        # construct(300, 2)'s table reads the 303 rows C(0..302, .); the
        # second build reads them all from the cache
        ideal = construct(300, 2).ideal
        table = ek_betti_table(ideal)
        before = _pascal.cache_info()
        assert ek_betti_table(ideal) == table
        after = _pascal.cache_info()
        assert after.misses == before.misses
        assert after.hits > before.hits


def _tallies_of_width(rng, width: int) -> dict[int, list[int]]:
    """Tallies in n = width - 1 variables whose largest x_m tallied is x_n:
    a single variable at x_n, one run of a constant ending there, and two
    spans of several runs, one from x1 and one from a later variable (spans
    of at most five variables, so the closed form stays cheap at any
    width)."""
    n = width - 1
    tallies = {}
    for d, (m0, m, run) in enumerate([(n, n, True),
                                      (max(1, n - 2), n, True),
                                      (1, min(n, 4), False),
                                      (rng.randint(1, n), None, False)], start=2):
        m = min(n, m0 + 4) if m is None else m
        span = ([rng.randint(1, 3)] * (m - m0 + 1) if run
                else [rng.randint(1, 3), *(rng.randint(0, 3) for _ in range(m - m0))])
        span[-1] = span[-1] or 1
        tallies[d] = [0] * m0 + span + [0] * (n - m)
    return tallies


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

    def test_euler_characteristic_matches_column_sums(self, grid_reports, example2,
                                                      remark3):
        # the pass over the nonzero entries of each nonzero row against the
        # sum over every column of the rectangle, on seeded random tables
        # and on every table the constructions and fixtures give
        rng = random.Random(34)
        tables = [BettiTable(random_betti_rows(rng)) for _ in range(400)]
        shapes = Counter((len(t.rows) == 1, len(t.rows[0]) == 1) for t in tables)
        assert shapes[True, False] and shapes[False, True] and shapes[True, True]
        assert any(0 < r < len(t.rows) - 1 and not any(t.rows[r])
                   for t in tables for r in range(len(t.rows)))
        assert any(0 < p < len(t.rows[0]) - 1 and not any(row[p] for row in t.rows)
                   for t in tables for p in range(len(t.rows[0])))
        assert any(v >= 2**64 for t in tables for row in t.rows for v in row)
        tables += [report.betti for report in grid_reports]
        tables += [construct(300, 2).betti, construct(1, 2000).betti]
        for ideal in (example2, remark3):
            tables += [bruteforce_betti_table(ideal), ek_betti_table(ideal)]
        for table in tables:
            assert table.euler_kpolynomial() == euler_column_sums(table), table.rows

    def test_one_trivial_table(self):
        zero = MonomialIdeal.zero(3)
        assert ek_betti_table(zero) is TRIVIAL is bruteforce_betti_table(zero)
        assert TRIVIAL.rows == ((1,),)

    def test_text_is_deterministic(self, example2):
        a = ek_betti_table(example2).to_text()
        b = ek_betti_table(example2).to_text()
        assert a == b
        assert not any(line.endswith(" ") for line in a.splitlines())
