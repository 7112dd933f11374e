import gc
import json
import random
import sys
from collections import Counter
from operator import gt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    all_monomials,
    borel_closure,
    brute_is_lexsegment,
    brute_is_stable,
    brute_minimalize_rows,
    count_calls,
    count_standard_monomials,
    degree_counts,
    generator_shapes,
    lex_predecessor,
    lex_successor,
    monomial_count,
    random_edge_ideal,
    random_monomial_ideal,
    random_stable_ideal,
    random_strongly_stable_ideal,
    stable_closure,
)
from lexseg import monomials
from lexseg.betti_oracle import bruteforce_betti_table
from lexseg.constructions import construct, fixture
from lexseg.eliahou_kervaire import (
    depth,
    ek_betti_table,
    projective_dimension,
    regularity,
)
from lexseg.errors import (
    AmbientMismatchError,
    StabilityRequiredError,
    UnitIdealError,
    ZeroIdealError,
)
from lexseg.hilbert import hilbert_series
from lexseg.monomials import (
    Monomial,
    MonomialIdeal,
    _lex_segment,
    _lex_walk,
    _lexsegment_counts,
    _prefixes_cover,
    _stable_dimension,
    contains,
    divides,
    is_lexsegment,
    is_stable,
    is_strongly_stable,
    krull_dimension,
    lex_compare,
    minimal_generators,
    minimalize_rows,
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

    def test_rejects_exponent_above_maxsize(self):
        # sys.maxsize itself is accepted; one more names the row
        assert M(sys.maxsize, 0).exponents == (sys.maxsize, 0)
        with pytest.raises(ValueError, match=rf"above {sys.maxsize} in \({sys.maxsize + 1}, 0\)"):
            MonomialIdeal.from_exponent_rows(2, [(1, 1), (sys.maxsize + 1, 0)])

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

    def test_certificate_rejects_non_normalized_lex_generators(self, grid_ideals,
                                                                monkeypatch):
        # a multiple of a lower-degree generator or a misordered degree has
        # no stored form (the constructor test above), so the check behind
        # `is_lexsegment` only reads normalized rows; the realizer, which
        # lists its rows by the same walk, checks the walk's own order and
        # length, so a repeated row or a walk that runs short is refused
        ideal = grid_ideals[12 * 3 + 1]  # construct(4, 2)
        gens = list(ideal.exponent_rows)
        sizes = degree_counts(gens)
        assert _lex_segment(ideal.n, sizes) == (ideal, _lexsegment_counts(ideal))
        assert _lex_segment(ideal.n, []) == (MonomialIdeal.zero(ideal.n), {})

        def repeated(*args):  # the walk's second row stands in for its third
            rows = [*_lex_walk(*args)]
            return iter(rows[:2] + rows[1:2] + rows[3:])

        monkeypatch.setattr(monomials, "_lex_walk", repeated)
        with pytest.raises(ValueError, match="not strictly lex-descending"):
            _lex_segment(ideal.n, sizes)
        monkeypatch.setattr(monomials, "_lex_walk", lambda *args: iter(gens[:-1]))
        with pytest.raises(ValueError, match=f"listed {len(gens) - 1} of {len(gens)} rows"):
            _lex_segment(ideal.n, sizes)

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


def walk_rows(n, sizes):
    """`_lex_walk` over ``sizes``: each row it yields, with the largest
    variable whose tally entry it bumped for that row."""
    tallies, seen, out = {}, {}, []
    for row in _lex_walk(n, sizes, tallies):
        d = sum(row)
        before, seen[d] = seen.get(d, [0] * (n + 1)), list(tallies[d])
        (m,) = [i for i, (a, b) in enumerate(zip(before, seen[d])) if a != b]
        out.append((row, m))
    return out


def successor_steps(row, k):
    """``row`` and up to k steps of the oracle's `lex_successor` after it."""
    rows = [row]
    while len(rows) <= k and (row := lex_successor(row)) is not None:
        rows.append(row)
    return rows


class TestLexWalk:
    def test_successor_walks_each_block(self):
        # asked for more rows than the block has, the walk stops at xn^d
        for n in range(1, 7):
            for d in range(1, 7):
                block = [m.exponents for m in all_monomials(n, d)]
                walked = [row for row, _ in walk_rows(n, [(d, len(block) + 2)])]
                assert walked == block, (n, d)

    def test_successor_reports_its_largest_variable(self):
        for n in range(1, 7):
            for d in range(1, 7):
                block = all_monomials(n, d)
                maxes = [m for _, m in walk_rows(n, [(d, len(block))])]
                assert maxes == [u.max_index for u in block], (n, d)

    @given(st.tuples(st.integers(1, 8), st.integers(1, 4), st.integers(1, 30),
                     st.integers(1, 4), st.integers(0, 40)))
    @example((1, 2, 1, 3, 5))  # n = 1: x1^5 is xn^5, nothing after it
    @example((3, 1, 2, 2, 10))  # from x2*x3^2, runs into x3^3 after one step
    @example((3, 1, 1, 2, 4))  # from x1*x3^2, ends exactly at x3^3
    @example((2, 1, 5, 1, 3))  # degree 1 has room for two, so the walk stops
    @settings(max_examples=300, deadline=None)
    def test_kernel_matches_successor_oracle(self, case):
        # the carried pivot against the oracle's stepping: j rows of degree
        # e from x1^e, then k of degree e + g from least * xn^g, least the
        # j-th row; each row with its largest variable, stopping at xn^d
        n, e, j, g, k = case
        want = successor_steps((e,) + (0,) * (n - 1), j - 1)
        if len(want) == j:
            u = want[-1]
            want += successor_steps(u[:-1] + (u[-1] + g,), k)[1:]
        walked = walk_rows(n, [(e, j), (e + g, k)])
        assert walked == [(u, Monomial(u).max_index) for u in want]

    def test_segment_rows_match_brute_force(self):
        # the brute-force lexsegment ideal takes, in each degree, the first
        # `count` monomials outside the ideal built so far
        rng = random.Random(29)
        for _ in range(150):
            n = rng.randint(1, 5)
            sizes = []
            rows = []
            for d in range(1, rng.randint(1, 6) + 1):
                ideal = MonomialIdeal.from_exponent_rows(n, rows)
                outside = [m.exponents for m in all_monomials(n, d)
                           if not contains(ideal, m)]
                count = rng.choice([0, min(1, len(outside)), rng.randint(0, len(outside))])
                if count:
                    sizes.append((d, count))
                rows += outside[:count]
            want = tuple(sorted(rows, reverse=True))
            realized, tallies = _lex_segment(n, sizes)
            assert realized.exponent_rows == want, (n, sizes)
            assert list(tallies) == [d for d, _ in sizes]
            got = {(d, m): c for d, tally in tallies.items() for m, c in enumerate(tally) if c}
            assert got == Counter((sum(r), Monomial(r).max_index) for r in want), (n, sizes)
            ideal = MonomialIdeal(n, want)  # minimal and sorted
            if ideal.is_proper and not ideal.is_zero:
                assert brute_is_lexsegment(ideal)
                assert tallies == _lexsegment_counts(ideal)

    def test_walk_descends_across_degree_gaps(self):
        # `_lexsegment_counts` compares the walk with the stored rows one by
        # one, so the walk must descend strictly across degrees, gaps too
        # (the grid ideals are checked by the test of `is_lexsegment`)
        rng = random.Random(43)
        gaps = 0
        for _ in range(300):
            n, d, sizes = rng.randint(2, 5), 0, []
            for _ in range(rng.randint(2, 4)):
                d += rng.randint(1, 4)
                sizes.append((d, rng.randint(1, 6)))
            rows = list(_lex_walk(n, sizes, {}))
            if len(rows) < sum(k for _, k in sizes):  # a degree ran out at xn^d
                continue
            assert all(map(gt, rows, rows[1:])), (n, sizes)
            realized, tallies = _lex_segment(n, sizes)
            assert _lexsegment_counts(realized) == tallies, (n, sizes)
            gaps += any(b > a + 1 for (a, _), (b, _) in zip(sizes, sizes[1:]))
        assert gaps >= 100

    def test_stored_order_walk_catches_each_fault(self, grid_ideals, monkeypatch):
        # the faults a stored ideal's rows can carry in one degree, each
        # caught by comparing the walk with the stored rows in stored order,
        # as `is_lexsegment`, `ek_betti_table` and `analyze` do
        ideal = grid_ideals[12 * 4 + 1]  # construct(5, 2)
        n, rows = ideal.n, list(ideal.exponent_rows)
        assert brute_is_lexsegment(ideal) and _lexsegment_counts(ideal) is not None
        sizes = degree_counts(rows)
        d = max(sizes[1:], key=lambda size: size[1])[0]  # not x1^d's degree
        block = [r for r in rows if sum(r) == d]
        rest = [r for r in rows if sum(r) != d]
        assert len(block) >= 3 and d < sizes[-1][0] and lex_successor(block[-1]) is not None
        faults = {
            "late start": block[1:] + [lex_successor(block[-1])],
            "skipped successor": (block[:len(block) // 2] + block[len(block) // 2 + 1:]
                                  + [lex_successor(block[-1])]),
            # its first row lies in the shadow, so storing drops it
            "early start": [lex_predecessor(block[0])] + block[:-1],
            "short by its last row": block[:-1],
        }
        for name, faulty in faults.items():
            stored = MonomialIdeal.from_exponent_rows(n, rest + faulty)
            assert not brute_is_lexsegment(stored), name
            assert _lexsegment_counts(stored) is None, name
            if name == "early start":
                assert faulty[0] not in stored.exponent_rows
        # a row past xn^d: (x1, x2^2) is lexsegment, its walk ending at x2^2;
        # a walk that stopped one row short leaves x2^2 unread.  A minimal
        # stored ideal cannot make the real walk stop short while its rows
        # match: each degree has room for every generator outside the shadow
        edge = MonomialIdeal(2, [(1, 0), (0, 2)])
        assert brute_is_lexsegment(edge) and _lexsegment_counts(edge) is not None
        real = monomials._lex_walk
        monkeypatch.setattr(monomials, "_lex_walk",
                            lambda *args: (row for row in real(*args) if row != (0, 2)))
        assert _lexsegment_counts(edge) is None


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

    def test_cover_search_leaves_no_cyclic_garbage(self):
        # (x1x2, x2x3, x3x4) is not stable, so only the cover search applies
        ideal = minimal_generators(4, [M(1, 1, 0, 0), M(0, 1, 1, 0), M(0, 0, 1, 1)])
        flags = gc.get_debug()
        gc.collect()
        saved = len(gc.garbage)
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert krull_dimension(ideal) == 2
            gc.collect()
            assert gc.garbage[saved:] == []
        finally:
            gc.set_debug(flags)
            del gc.garbage[saved:]

    def test_stable_closed_form_matches_cover_search(self, example2, remark3):
        rng = random.Random(41)
        ideals = [example2, remark3, MonomialIdeal.zero(3)]
        ideals += [stable_closure(1, [M(3)]), stable_closure(3, [M(0, 0, 2)])]
        ideals += [random_stable_ideal(rng, rng.randint(1, 6), 5)
                   for _ in range(300)]
        dims = Counter()
        for ideal in ideals:
            dim = krull_dimension(ideal)
            assert _stable_dimension(ideal) == dim, ideal
            dims[dim] += 1
        assert len(dims) >= 5, dims

    def test_stable_dimension_scan_matches_all_rows_and_cover_search(self, grid_ideals):
        # the scan from the end for the first pure power against two routes:
        # the last of all rows with n - 1 zeros, and the cover search.  In
        # (x1^2, x1x2, x2^2, x2x3) the last row is not a pure power
        hand = minimal_generators(3, [M(2, 0, 0), M(1, 1, 0), M(0, 2, 0), M(0, 1, 1)])
        assert hand.exponent_rows[-1] == (0, 1, 1) and _stable_dimension(hand) == 1
        rng = random.Random(43)
        ideals = [*grid_ideals, MonomialIdeal.zero(4), hand]
        ideals += [random_strongly_stable_ideal(rng, rng.randint(1, 6), 5)
                   for _ in range(200)]
        # stable ideals that are not strongly stable, and first-step ideals,
        # x1^r times each variable, whose one pure power is x1's: each of
        # their rows is divisible by x1, so the scan stops at the last row
        weak = []
        while len(weak) < 150:
            ideal = random_stable_ideal(rng, rng.randint(2, 6), 5)
            if not is_strongly_stable(ideal):
                weak.append(ideal)
        ideals += weak
        ideals += [construct(r, s).ideal
                   for r, s in ((1, 2000), (1, 40), (7, 30), (13, 13), (20, 26))]
        dims = Counter()
        for ideal in ideals:
            n = ideal.n
            pure = [r for r in ideal.exponent_rows if r.count(0) == n - 1]
            all_rows = n - max(j + 1 for j, e in enumerate(pure[-1]) if e) if pure else n
            assert _stable_dimension(ideal) == all_rows == krull_dimension(ideal), ideal
            dims[all_rows] += 1
        assert len(dims) >= 5, dims


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
            if is_stable(ideal):
                outcomes.add(("stable", want))
            outcomes.add(want)
        assert outcomes == {True, False, ("stable", True), ("stable", False)}

    def test_lex_neighbours_walk_each_block(self):
        # the oracle's successor and predecessor, against the sorted block
        for n in range(1, 5):
            for d in range(5):
                block = [m.exponents for m in all_monomials(n, d)]
                assert [lex_successor(e) for e in block] == block[1:] + [None]
                assert [lex_predecessor(e) for e in block] == [None] + block[:-1]

    def test_lexsegment_near_misses_match_definition(self, example2, remark3,
                                                     grid_ideals):
        # one generator swapped for its lex neighbour, then re-minimalized
        rng = random.Random(31)
        outcomes = set()
        for ideal in grid_ideals + [example2, remark3]:
            rows = ideal.exponent_rows
            for step in (lex_successor, lex_predecessor):
                u = rng.choice(rows)
                w = step(u)
                if w is None:
                    continue
                near = MonomialIdeal.from_exponent_rows(
                    ideal.n, [g for g in rows if g != u] + [w])
                want = brute_is_lexsegment(near)
                assert is_lexsegment(near) == want, (ideal, u, w)
                outcomes.add(want)
        assert outcomes == {True, False}

    def test_lexsegment_reads_no_series(self, monkeypatch, example2, wide_ideal):
        edge_ideal = random_edge_ideal(random.Random(2), 40)
        names = ("hilbert_series", "kpolynomial", "krull_dimension",
                 "ek_betti_table")
        calls = count_calls(monkeypatch, *names)
        for ideal, want in [(example2, True), (wide_ideal, True),
                            (edge_ideal, False)]:
            assert is_lexsegment(ideal) == want
            assert sum(calls.values()) == 0, calls

    def test_prefix_walk_matches_definition(self, example2, remark3, grid_ideals,
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
        closures = [random_stable_ideal(rng, rng.randint(1, 6), 6)
                    for _ in range(100)]
        outcomes = []
        for ideal in ideals + closures:
            got = (is_stable(ideal), is_strongly_stable(ideal))
            assert got == (brute_is_stable(ideal, strong=False),
                           brute_is_stable(ideal, strong=True)), ideal
            outcomes.append(got)
        # stable and strongly stable, stable only, and neither all occur;
        # every stable closure is stable, and many are not strongly stable
        assert set(outcomes) == {(True, True), (True, False), (False, False)}
        from_closures = Counter(outcomes[len(ideals):])
        assert from_closures[False, False] == 0
        assert from_closures[True, False] >= 20

    def test_prefix_walk_tallies_match_row_counts(self, example2, remark3,
                                                  grid_ideals):
        # a walk that passes tallies each generator by degree and largest
        # variable, as the lexsegment walk does; one that fails returns None
        rng = random.Random(29)
        ideals = [random_stable_ideal(rng, rng.randint(1, 6), 6) for _ in range(100)]
        ideals += [random_strongly_stable_ideal(rng, rng.randint(1, 5), 5)
                   for _ in range(100)]
        ideals += [random_monomial_ideal(rng, rng.randint(1, 5), 5, 8)
                   for _ in range(200)]
        ideals += grid_ideals + [example2, remark3]
        outcomes = Counter()
        for ideal in ideals:
            for strong in (False, True):
                counts = _prefixes_cover(ideal.exponent_rows, strong)
                passed = brute_is_stable(ideal, strong)
                outcomes[strong, passed] += 1
                if not passed:
                    assert counts is None, (ideal, strong)
                    continue
                assert list(counts) == sorted({sum(g) for g in ideal.exponent_rows})
                assert {len(tally) for tally in counts.values()} == {ideal.n + 1}
                got = {(d, m): c for d, tally in counts.items()
                       for m, c in enumerate(tally) if c}
                assert got == generator_shapes(ideal), (ideal, strong)
        assert min(outcomes.values()) >= 20 and len(outcomes) == 4, outcomes

    @pytest.mark.parametrize("rows, want", [
        ([(1, 0, 0), (0, 5, 0)], True),  # the shadow of x1 ends at x1*x3^4
        ([(1, 0, 0), (0, 4, 1)], False),  # x2^5 comes first
        ([(2, 0, 0), (1, 1, 0), (1, 0, 3), (0, 5, 0)], True),
        ([(2, 0, 0), (1, 1, 0), (0, 4, 0)], False),  # x1*x3^3 comes first
    ], ids=["x1-then-x2^5", "x1-then-x2^4x3", "three-degrees", "skipped-x1x3^3"])
    def test_lexsegment_walk_jumps_degree_gaps(self, rows, want):
        # only the degrees that hold generators are walked
        ideal = MonomialIdeal.from_exponent_rows(3, rows)
        assert brute_is_lexsegment(ideal) == want
        counts = _lexsegment_counts(ideal)
        assert (counts is not None) == want
        if want:
            assert list(counts) == sorted({sum(r) for r in rows})

    @pytest.mark.parametrize("n, rows, want", [
        (1, [(3,)], (True, True)),  # one variable
        (3, [(4, 0, 0)], (True, True)),  # a single generator
        (2, [(2, 1)], (False, False)),
        (3, [(1, 0, 0), (0, 1, 0)], (True, True)),  # linear: the key P_0 = 1
        (3, [(1, 0, 0), (0, 0, 1)], (False, False)),
        (2, [(1, 0), (0, 2)], (True, True)),  # x1 * x2 lies in the ideal via x1
        (3, [(1, 0, 0), (0, 2, 0), (0, 1, 2), (0, 0, 4)], (True, True)),
        (3, [(1, 0, 0), (0, 2, 0), (0, 0, 4)], (False, False)),
    ], ids=["n=1", "single", "single-unstable", "linear", "linear-gap",
            "linear-and-square", "degrees-1-to-4", "degrees-1-to-4-gap"])
    def test_edge_shapes(self, n, rows, want):
        ideal = MonomialIdeal.from_exponent_rows(n, rows)
        assert (is_stable(ideal), is_strongly_stable(ideal)) == want
        assert want == (brute_is_stable(ideal, strong=False),
                        brute_is_stable(ideal, strong=True))

    def test_stable_closures_over_many_degrees(self):
        # seeds in four degrees, each in later variables than the one before
        seeds = [M(0, 1, 1, 0, 0, 0), M(0, 0, 1, 2, 0, 0), M(0, 0, 0, 1, 3, 0),
                 M(0, 0, 0, 0, 2, 4)]
        ideal = stable_closure(6, seeds)
        assert {sum(g) for g in ideal.exponent_rows} == {2, 3, 4, 6}
        assert (is_stable(ideal), is_strongly_stable(ideal)) == (True, False)
        assert brute_is_stable(ideal, strong=False)
        assert not brute_is_stable(ideal, strong=True)

    def test_prefix_walk_on_long_runs(self):
        # closures whose generators reach degree 10^3 and more through long
        # runs of x2 and x3, so the walk's prefixes end deep inside a run;
        # the seeds x1^k and x2^K bound each closure to a few hundred
        # generators, and a copy with one letter moved later may break it
        rng = random.Random(41)
        outcomes = Counter()
        for _ in range(40):
            n = rng.randint(3, 4)
            K = rng.randint(300, 900)
            anchors = [(rng.randint(1, 4),) + (0,) * (n - 1), (0, K) + (0,) * (n - 2)]
            seeds = []
            for D in rng.sample(range(1000, 2500), rng.randint(2, 3)):
                b = K - rng.randint(1, 30)
                tail = [0] * (n - 2)
                tail[-1] = rng.randint(0, 2)  # x4's run stays short
                tail[0] += D - b - sum(tail)
                seeds.append((0, b, *tail))
            closure = rng.choice((borel_closure, stable_closure))
            ideal = closure(n, [Monomial(e) for e in anchors + seeds])
            rows = ideal.exponent_rows
            assert max(map(sum, rows)) >= 1000 and len(rows) <= 400, ideal
            u = rng.choice([r for r in rows if sum(r) >= 1000])
            i = rng.choice([p for p, e in enumerate(u[:-1]) if e])
            w = list(u)
            w[i] -= 1
            w[rng.randrange(i + 1, n)] += 1
            moved = minimal_generators(
                n, [Monomial(g) for g in rows if g != u] + [Monomial(tuple(w))])
            for ideal in (ideal, moved):
                for strong in (False, True):
                    counts = _prefixes_cover(ideal.exponent_rows, strong)
                    passed = brute_is_stable(ideal, strong)
                    assert (counts is not None) == passed, (ideal, strong)
                    outcomes[strong, passed] += 1
                    if passed:
                        got = {(d, m): c for d, tally in counts.items()
                               for m, c in enumerate(tally) if c}
                        assert got == generator_shapes(ideal), (ideal, strong)
        assert len(outcomes) == 4, outcomes

    def test_predicates_make_no_membership_query(self, monkeypatch, example2,
                                                 remark3, grid_ideals):
        calls = count_calls(monkeypatch, "_in_ideal", "contains")
        for ideal in grid_ideals + [example2, remark3]:
            assert is_stable(ideal)
            assert is_strongly_stable(ideal)
        assert sum(calls.values()) == 0, calls

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


# a lexsegment ideal, a stable one that is not strongly stable (x2 -> x1
# takes x2*x3 to x1*x3, outside), and one that is not stable
DECISION_CASES = [
    (3, [(1, 0, 0), (0, 2, 0), (0, 1, 1)]),
    (3, [(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 1, 1)]),
    (3, [(1, 1, 1), (0, 2, 0), (0, 0, 3)])]


class TestOneDecision:
    """Each ideal decides each stability fact at most once, whoever asks."""

    @pytest.mark.parametrize("case, walks", [
        (DECISION_CASES[0], {"_lexsegment_counts": 1}),
        (DECISION_CASES[1], {"_lexsegment_counts": 1, "_prefixes_cover": 2}),
        (DECISION_CASES[2], {"_lexsegment_counts": 1, "_prefixes_cover": 1})],
        ids=["lexsegment", "stable", "non-stable"])
    def test_every_caller_shares_the_walks(self, monkeypatch, case, walks):
        # is_stable asks first: the lexsegment and stable walks it runs on the
        # non-stable ideal answer every later query; the stable-only ideal
        # needs the strong walk too
        ideal = MonomialIdeal(*case)
        calls = count_calls(monkeypatch, "_lexsegment_counts", "_prefixes_cover")
        facts = [is_stable(ideal), is_strongly_stable(ideal), is_lexsegment(ideal)]
        for reader in (ek_betti_table, regularity, depth, projective_dimension):
            try:
                reader(ideal)
            except StabilityRequiredError:
                assert not facts[0]
        hilbert_series(ideal)
        assert calls == walks

    def test_a_failed_weaker_fact_answers_a_stronger_one(self, monkeypatch):
        ideal = MonomialIdeal(*DECISION_CASES[2])
        calls = count_calls(monkeypatch, "_lexsegment_counts", "_prefixes_cover")
        assert not is_stable(ideal)
        assert calls == {"_lexsegment_counts": 1, "_prefixes_cover": 1}
        assert not is_strongly_stable(ideal)
        assert calls == {"_lexsegment_counts": 1, "_prefixes_cover": 1}

    def test_a_stronger_fact_that_holds_answers_a_weaker_one(self, monkeypatch):
        # strongly stable, not lexsegment: x2^2 is not x1*x3, the walk's
        # successor of x1*x2
        ideal = MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 2, 0)])
        calls = count_calls(monkeypatch, "_lexsegment_counts", "_prefixes_cover")
        assert is_strongly_stable(ideal) and not is_lexsegment(ideal)
        assert calls == {"_lexsegment_counts": 1, "_prefixes_cover": 1}
        assert is_stable(ideal)
        assert ek_betti_table(ideal) == bruteforce_betti_table(ideal)
        assert calls == {"_lexsegment_counts": 1, "_prefixes_cover": 1}

    def test_tallies_are_those_of_the_walks(self):
        for n, rows in DECISION_CASES + [(6, fixture("example2").exponent_rows)]:
            for fact in monomials.WALKS:
                ideal = MonomialIdeal(n, rows)
                got = monomials._tallies(ideal, fact)
                want = (_lexsegment_counts(ideal) if fact == "lexsegment" else
                        _prefixes_cover(rows, strong=fact == "strong"))
                assert got == want, (rows, fact)

    @pytest.mark.parametrize("r, s", [(2, 5), (5, 2)])
    def test_a_realized_ideal_is_checked_once(self, monkeypatch, r, s):
        # the realizing walk leaves no decision behind, so the lexsegment
        # check of a constructed ideal is a real check
        ideal = construct(r, s).ideal
        calls = count_calls(monkeypatch, "_lexsegment_counts", "_prefixes_cover")
        assert is_lexsegment(ideal) and is_stable(ideal) and is_lexsegment(ideal)
        assert calls == {"_lexsegment_counts": 1}


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
