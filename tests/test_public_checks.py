"""Every value the library builds passes its public constructor.

The library's builders skip the checks of the values they assemble from
fields they have already checked (`Value._trusted`): the ideals that
`from_exponent_rows` and the lex walk list, the Eliahou-Kervaire tables,
and the reduced series and their h-polynomials.  Here each such value goes through its type's checked constructor
(`assert_public`), on the grid, both fixtures, seeded stable and random
corpora and the three large cells.
"""

import random

import pytest

from helpers import (
    assert_public,
    random_monomial_ideal,
    random_stable_ideal,
    random_strongly_stable_ideal,
)
from lexseg import construct, fixture
from lexseg.eliahou_kervaire import ek_betti_table
from lexseg.hilbert import hilbert_series
from lexseg.monomials import is_stable


def assert_built_values_public(ideal):
    """The ideal, its series and h-polynomial, and, when it is stable, its
    Eliahou-Kervaire table."""
    assert_public(ideal)
    series = hilbert_series(ideal)
    assert_public(series)
    assert_public(series.h_polynomial())
    if is_stable(ideal):
        assert_public(ek_betti_table(ideal))


def assert_report_public(report):
    assert_public(report)  # and its ideal, series and table
    assert_public(report.series.h_polynomial())


def test_grid(grid_reports):
    for report in grid_reports:
        assert_report_public(report)


def test_fixtures(example2, remark3):
    for ideal in (example2, remark3):
        assert_built_values_public(ideal)


def test_stable_corpora():
    rng = random.Random(20240401)
    corpus = [random_strongly_stable_ideal(rng, rng.randint(1, 4), 5)
              for _ in range(100)]
    rng = random.Random(20240404)
    corpus += [random_stable_ideal(rng, rng.randint(1, 5), 5)
               for _ in range(100)]
    for ideal in corpus:
        assert is_stable(ideal), ideal
        assert_built_values_public(ideal)


def test_random_corpus():
    # mostly not stable: each series comes from the pivot recursion
    rng = random.Random(20240402)
    for _ in range(200):
        assert_built_values_public(random_monomial_ideal(rng, rng.randint(1, 5), 6, 8))


@pytest.mark.parametrize("r, s", [(300, 2), (1, 2000), (100, 3)])
def test_large_cells(r, s):
    assert_report_public(construct(r, s))
