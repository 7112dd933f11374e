"""Acceptance suite: one test per criterion, exact tolerances, stated budgets.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the PASS
lines as they happen).  Criterion timings exclude one-time JIT compilation:
the first test warms the kernels before taking any measurement.
"""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from helpers import (
    count_standard_monomials,
    kpoly_subsets,
    random_monomial_ideal,
    random_strongly_stable_ideal,
)
from lexseg.betti_oracle import bruteforce_betti_table
from lexseg.constructions import construct, fixture
from lexseg.eliahou_kervaire import depth, ek_betti_table, regularity
from lexseg.hilbert import h_degree, hilbert_function, hilbert_series, kpolynomial
from lexseg.monomials import is_lexsegment, is_stable, krull_dimension

STABLE_SEED = 20240401
RANDOM_SEED = 20240402
TWO_VAR_SEED = 20240403

EXPECTED_GENERATORS = [
    (2, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0), (1, 0, 1, 0, 0, 0),
    (1, 0, 0, 1, 0, 0), (1, 0, 0, 0, 1, 0), (1, 0, 0, 0, 0, 1),
    (0, 2, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0), (0, 1, 0, 1, 0, 0),
    (0, 1, 0, 0, 1, 0), (0, 1, 0, 0, 0, 1),
    (0, 0, 2, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 1, 0, 1, 0),
    (0, 0, 1, 0, 0, 1),
    (0, 0, 0, 2, 0, 0), (0, 0, 0, 1, 2, 0), (0, 0, 0, 1, 1, 1),
    (0, 0, 0, 1, 0, 3), (0, 0, 0, 0, 5, 0),
]

EXPECTED_BETTI_TEXT = """\
1  .  .  .  .  . .
. 16 47 63 46 18 3
.  2  9 16 14  6 1
.  1  5 10 10  5 1
.  1  4  6  4  1 ."""

_GRID_CACHE = {}


def _grid():
    if not _GRID_CACHE:
        for r in range(1, 13):
            for s in range(1, 13):
                _GRID_CACHE[(r, s)] = construct(r, s)
    return _GRID_CACHE


@pytest.fixture(scope="module")
def stable_corpus():
    rng = random.Random(STABLE_SEED)
    return [random_strongly_stable_ideal(rng, rng.randint(1, 4), 5)
            for _ in range(100)]


@pytest.fixture(scope="module")
def random_corpus():
    rng = random.Random(RANDOM_SEED)
    return [random_monomial_ideal(rng, rng.randint(1, 5), 6, 8)
            for _ in range(200)]


@pytest.fixture(scope="module")
def two_var_corpus():
    rng = random.Random(TWO_VAR_SEED)
    return [random_monomial_ideal(rng, 2, 6, 6) for _ in range(200)]


@pytest.fixture
def report(capsys):
    def _report(line):
        with capsys.disabled():
            print(line)
    return _report


def test_criterion_1_flagship_end_to_end(report):
    """(r, s) = (4, 2): generators, Hilbert data, and the dotted Betti table."""
    construct(1, 1)  # kernel warmup, excluded from the timing below
    construct(2, 1)

    t0 = time.monotonic()
    rep = construct(4, 2)
    ideal = rep.ideal
    series = hilbert_series(ideal)
    table = ek_betti_table(ideal)
    text = table.to_text()
    elapsed = time.monotonic() - t0

    assert [g.exponents for g in ideal.gens] == EXPECTED_GENERATORS
    assert [hilbert_function(ideal, k) for k in range(5)] == [1, 6, 5, 5, 5]
    assert krull_dimension(ideal) == 1
    assert depth(ideal) == 0
    assert regularity(ideal) == 4
    assert series.numerator == (1, 5, -1)
    assert text == EXPECTED_BETTI_TEXT
    assert elapsed < 1.0, f"construct+analyze took {elapsed:.3f}s"

    # the CLI of this checkout produces the same bytes (startup measured separately)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "lexseg.cli", "construct", "--r", "4", "--s", "2"],
        capture_output=True, text=True, env=env)
    cli_elapsed = time.monotonic() - t0
    assert proc.returncode == 0
    assert EXPECTED_BETTI_TEXT in proc.stdout
    assert ", ".join(str(g) for g in ideal.gens) in proc.stdout
    assert cli_elapsed < 10.0, f"CLI subprocess took {cli_elapsed:.3f}s"
    report(f"PASS criterion 1: flagship construction exact "
           f"({elapsed:.3f}s compute, {cli_elapsed:.2f}s CLI)")


def test_criterion_2_grid_12_by_12(report):
    """Every (r, s) in [1,12]^2: reg = r, deg h = s, n bound, lexsegment."""
    _GRID_CACHE.clear()
    t0 = time.monotonic()
    for r in range(1, 13):
        for s in range(1, 13):
            rep = construct(r, s)
            assert rep.measured.regularity == r, (r, s)
            assert rep.measured.h_degree == s, (r, s)
            assert rep.ideal.n <= max(r, s) + 2, (r, s)
            assert is_lexsegment(rep.ideal), (r, s)
            _GRID_CACHE[(r, s)] = rep
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"grid took {elapsed:.1f}s"
    report(f"PASS criterion 2: 144/144 grid cells exact in {elapsed:.1f}s")


def test_criterion_3_seventeen_generator_fixture(report):
    """The bundled five-variable fixture: dim 2, depth 0, reg 6, deg h 1."""
    ideal = fixture("remark3")
    assert krull_dimension(ideal) == 2
    assert depth(ideal) == 0
    assert regularity(ideal) == 6
    assert h_degree(ideal) == 1
    assert is_lexsegment(ideal)
    report("PASS criterion 3: remark3 fixture invariants exact")


def test_criterion_4_oracle_equivalence(report, stable_corpus, random_corpus):
    """Closed form vs homology oracle; series engines vs direct enumeration."""
    t0 = time.monotonic()
    for ideal in stable_corpus:
        assert (ek_betti_table(ideal).rows
                == bruteforce_betti_table(ideal).rows), ideal
    for ideal in random_corpus:
        assert kpoly_subsets(ideal) == kpolynomial(ideal, "pivot"), ideal
        series = hilbert_series(ideal)
        for k in range(9):
            assert (series.coefficient(k)
                    == count_standard_monomials(ideal, k)), (ideal, k)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"oracle equivalence took {elapsed:.1f}s"
    report(f"PASS criterion 4: 100 stable + 200 random ideals agree "
           f"in {elapsed:.1f}s")


def _reg_and_depth(ideal):
    if not ideal.is_zero and is_stable(ideal):
        return regularity(ideal), depth(ideal)
    table = bruteforce_betti_table(ideal)
    return table.regularity, ideal.n - table.projective_dimension


def test_criterion_5_global_inequality(report, stable_corpus, random_corpus):
    """deg h - reg <= dim - depth across every corpus of criteria 1-4."""
    corpora = [fixture("example2"), fixture("remark3")]
    corpora += [rep.ideal for rep in _grid().values()]
    corpora += stable_corpus
    corpora += random_corpus
    for ideal in corpora:
        reg, dep = _reg_and_depth(ideal)
        dim = krull_dimension(ideal)
        s = h_degree(ideal)
        assert s - reg <= dim - dep, (ideal, s, reg, dim, dep)
    report(f"PASS criterion 5: inequality holds on {len(corpora)} ideals")


def test_criterion_6_two_variable_dichotomy(report, two_var_corpus):
    """In K[x, y]: Cohen-Macaulay iff deg h = reg, else deg h = reg + 1."""
    for ideal in two_var_corpus:
        table = bruteforce_betti_table(ideal)
        reg = table.regularity
        dep = ideal.n - table.projective_dimension
        dim = krull_dimension(ideal)
        s = h_degree(ideal)
        if dep == dim:
            assert s == reg, (ideal, s, reg)
        else:
            assert s == reg + 1, (ideal, s, reg)
    report(f"PASS criterion 6: dichotomy exact on {len(two_var_corpus)} "
           f"two-variable ideals")


def test_criterion_7_macaulay_machinery(report):
    """Expansion round-trip over the full stated range plus growth pins."""
    from lexseg.macaulay import macaulay_expansion, macaulay_growth

    t0 = time.monotonic()
    for a in range(1, 10_001):
        for d in range(1, 31):
            assert macaulay_expansion(a, d).value() == a, (a, d)
    elapsed = time.monotonic() - t0

    assert macaulay_growth(5, 4) == 6
    for r in range(1, 13):
        for j in range(r + 1, r + 14):
            assert macaulay_growth(r + 1, j) == r + 1
    report(f"PASS criterion 7: 300000 expansion round-trips "
           f"+ growth pins in {elapsed:.1f}s")
