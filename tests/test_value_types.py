"""The contract of the immutable value types, and what a cold CLI imports.

Every value type copies and pickles to an equal value with an equal hash,
refuses attribute assignment and deletion, compares equal and hashes alike
when built twice from the same fields, never equals the plain tuple of its
fields, and prints as ``Type(field=value, ...)``.  `Invariants` is a named
tuple, so it does equal its tuple.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from lexseg import (
    BettiTable,
    HilbertFunctionSpec,
    HilbertSeries,
    HPolynomial,
    Invariants,
    MacaulayExpansion,
    Monomial,
    MonomialIdeal,
    construct,
    is_o_sequence,
)

SRC = Path(__file__).resolve().parent.parent / "src"

# (factory, field names in order); each factory builds a fresh value
VALUES = {
    "Monomial": (lambda: Monomial((2, 0, 1)), ("exponents",)),
    "MonomialIdeal": (lambda: MonomialIdeal(2, ((1, 0),)), ("n", "exponent_rows")),
    "HPolynomial": (lambda: HPolynomial((1, 3, -1)), ("coefficients",)),
    "HilbertSeries": (lambda: HilbertSeries((1, 2), 1),
                      ("numerator", "denominator_exponent")),
    "MacaulayExpansion": (lambda: MacaulayExpansion(3, (5, 3)), ("degree", "tops")),
    "HilbertFunctionSpec": (lambda: HilbertFunctionSpec((1, 3, 4), "max-growth"),
                            ("initial", "tail")),
    "OSequenceCheck": (lambda: is_o_sequence(HilbertFunctionSpec((1, 3, 7), 0), 3),
                       ("ok", "degree", "reason")),
    "ConstructionReport": (lambda: construct(4, 2),
                           ("ideal", "branch", "predicted", "measured", "series",
                            "betti")),
    "BettiTable": (lambda: BettiTable(((1, 0), (0, 2))), ("rows",)),
    "Invariants": (lambda: Invariants(6, 4, 2, 1, 0),
                   ("n", "regularity", "h_degree", "dim", "depth")),
}


def _same(a, b):
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert type(a) is type(b)


@pytest.mark.parametrize("name", list(VALUES))
def test_value_contract(name):
    make, fields = VALUES[name]
    value = make()
    assert type(value).__name__ == name
    _same(value, make())
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                  copy.deepcopy(value)):
        _same(clone, value)
    if name == "MonomialIdeal":
        assert value.gens and value.lcm_exponents  # fills both caches
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                      copy.deepcopy(value)):
            _same(clone, value)
            assert clone.gens == value.gens
    for attr in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, attr, None)
        with pytest.raises(AttributeError):
            delattr(value, attr)
    as_tuple = tuple(getattr(value, f) for f in fields)
    assert (value == as_tuple) is (name == "Invariants")
    args = ", ".join(f"{f}={getattr(value, f)!r}" for f in fields)
    assert repr(value) == f"{name}({args})"
    _same(make(), value)  # the checks above changed nothing


def test_repr_example():
    assert repr(MonomialIdeal(2, ((1, 0),))) == "MonomialIdeal(n=2, exponent_rows=((1, 0),))"
    assert repr(is_o_sequence(HilbertFunctionSpec((1, 2), 2), 2)) == (
        "OSequenceCheck(ok=True, degree=None, reason=None)")


def test_distinct_types_never_equal():
    # same field values, different types
    assert HPolynomial((1, 2)) != Monomial((1, 2))


NON_INT_SCALARS = {
    "ideal-float-n": lambda: MonomialIdeal(2.0, [(1, 1)]),
    "ideal-bool-n": lambda: MonomialIdeal(True, [(1,)]),
    "ideal-rows-float-n": lambda: MonomialIdeal.from_exponent_rows(2.0, [(1, 1)]),
    "ideal-json-bool-n": lambda: MonomialIdeal.from_json_dict(
        {"n": True, "generators": [[1]]}),
    "series-float-exponent": lambda: HilbertSeries((1,), 1.5),
    "series-bool-exponent": lambda: HilbertSeries((1,), True),
    "expansion-float-degree": lambda: MacaulayExpansion(2.0, (3, 1)),
    "expansion-bool-degree": lambda: MacaulayExpansion(True, (1,)),
    "expansion-float-top": lambda: MacaulayExpansion(2, (3.0, 1)),
    "expansion-bool-top": lambda: MacaulayExpansion(1, (True,)),
}


@pytest.mark.parametrize("name", list(NON_INT_SCALARS))
def test_non_int_scalars_rejected(name):
    with pytest.raises(TypeError):
        NON_INT_SCALARS[name]()


def test_expansion_tops_stored_as_tuple():
    tops = [3, 1]
    expansion = MacaulayExpansion(2, tops)
    tops.append(0)
    assert expansion.tops == (3, 1)
    assert expansion.value() == 4
    _same(expansion, MacaulayExpansion(2, (3, 1)))


HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")


@pytest.mark.parametrize("flags", [(), ("-S",)], ids=["site", "no-site"])
def test_cli_import_footprint(flags):
    # -S matters: site can pre-load typing through a .pth file on one host
    # and not on another, which would hide a typing import from the check
    probe = ("import sys; before = set(sys.modules); import lexseg.cli; "
             f"print(sorted(set({HEAVY!r}) & (set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, *flags, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
