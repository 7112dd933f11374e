"""Seeded CLI fuzz: malformed and extreme ideal files, spec files and flags
for every subcommand, through `main` in-process.

Every outcome is a documented exit code (argparse's `SystemExit(2)` counts
as 2), no other exception escapes, and a nonzero exit prints nothing to
stdout.  The in-process inputs stay small or are answered before any real
work: exponents are at most 10^3, oracle boxes are either small or over the
box cap, and r, s and grids are at most 12.  Requests that only a generator,
entry, box or Betti-table cap stops, and that would allocate gigabytes or run
for hours without it, run in a child process under an address-space limit,
as do the stability predicates on a generator of degree 10^8.
"""

import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from lexseg.cli import main

SEEDS = range(8)
CASES_PER_SEED = 40
EXIT_CODES = {0, 2, 3, 4}

# whole files; None is a file that is not UTF-8
BAD_FILES = ["{not json", "", "[]", "null", "7", '"text"', None, "{}"]
IDEALS = BAD_FILES + [
    '{"n": 2}', '{"generators": []}', '{"n": 2, "generators": "ab"}',
    '{"n": 2, "generators": 5}', '{"n": 2, "generators": [[0, 0]]}',
    '{"n": 0, "generators": []}', '{"n": 0, "generators": [[]]}',
    '{"n": 3, "generators": []}',
    '{"n": 1, "generators": [[1000]]}',
    '{"n": 2, "generators": [[1000, 0], [999, 1]]}',
    # not stable, and its oracle box is over the cap
    '{"n": 3, "generators": [[1000, 0, 0], [0, 1000, 0], [0, 0, 1000]]}',
]
SPECS = BAD_FILES + [
    '{"initial": [1, 6, 5]}', '{"tail": {"constant": 1}}',
    '{"initial": [], "tail": {"constant": 1}}',
    '{"initial": [1, 2, 4], "tail": {"constant": 4}}',
    '{"initial": [1, 3, 7], "tail": {"constant": 0}}',
    '{"initial": [2, 1], "tail": {"constant": 1}}',
    '{"initial": [1], "tail": "max-growth"}',
    '{"initial": [1, 6, 5], "tail": "bogus"}',
    '{"initial": [1, 6, 5], "tail": {"constant": 5}}',
    '{"initial": [1, 0], "tail": {"constant": 0}}',
]
NOT_INTS = [1.5, True, "1", None, [1], {}]
SMALL = ["1", "2", "3", "7", "12"]
MALFORMED = ["0", "-1", "x", "1.5", ""]
FORMATS = ["text", "json", "text", "json", "xml"]


def _random_ideal(rng):
    n = rng.randint(1, 3)
    rows = [[rng.choice((0, 0, 1, 2, 3)) for _ in range(n)]
            for _ in range(rng.randint(0, 4))]
    kind = rng.randrange(5)
    if kind == 1 and rows:
        rows[rng.randrange(len(rows))][rng.randrange(n)] = rng.choice(NOT_INTS + [-1])
    elif kind == 2 and rows:  # ragged, or empty when n = 1
        rows[rng.randrange(len(rows))] = [1] * rng.choice((n - 1, n + 1))
    elif kind == 3:
        n = rng.choice((0, -1, 2.0, "2", None))
    return json.dumps({"n": n, "generators": rows})


def _random_spec(rng):
    initial = [1] + [rng.randint(0, 8) for _ in range(rng.randint(0, 4))]
    tail = rng.choice(({"constant": rng.randint(0, 8)}, "max-growth"))
    kind = rng.randrange(4)
    if kind == 1:
        initial[rng.randrange(len(initial))] = rng.choice(NOT_INTS + [-1])
    elif kind == 2:
        tail = rng.choice(({"constant": -1}, {"constant": 1.5}, {}, [], 3.0))
    return json.dumps({"initial": initial, "tail": tail})


def _number(rng, valid):
    return rng.choice(valid if rng.random() < 0.85 else MALFORMED)


def _random_argv(rng, tmp_path, index):
    """One request; file arguments are written under ``tmp_path``."""
    def input_file(pool, make):
        path = tmp_path / f"input{index}.json"
        if rng.random() < 0.05:
            return str(tmp_path / "missing.json")
        text = rng.choice(pool) if rng.random() < 0.4 else make(rng)
        if text is None:
            path.write_bytes(b"\xff\xfe\x00bad")
        else:
            path.write_text(text)
        return str(path)

    command = rng.choice(("construct", "analyze", "lexify", "expansion", "betti",
                          "verify-grid"))
    if command == "construct":
        argv = ["--r", _number(rng, SMALL), "--s", _number(rng, SMALL)]
    elif command == "analyze":
        argv = [input_file(IDEALS, _random_ideal),
                "--max-degree", _number(rng, ["0", "8", "1000", "1000000000"])]
    elif command == "lexify":
        argv = [input_file(SPECS, _random_spec),
                "--n", _number(rng, ["1", "2", "3", "6", "200"])]
    elif command == "expansion":
        argv = ["--a", _number(rng, ["1", "5", str(10**40)]),
                "--d", _number(rng, ["1", "2", "1000"])]
    elif command == "betti":
        argv = [input_file(IDEALS, _random_ideal)]
    else:
        argv = ["--rmax", _number(rng, ["1", "2", "3"]),
                "--smax", _number(rng, ["1", "2", "3"])]
    if command in ("analyze", "betti", "verify-grid") and rng.random() < 0.5:
        argv.append("--oracle")
    if command == "expansion" and rng.random() < 0.5:
        argv.append("--growth")
    if command in ("construct", "lexify") and rng.random() < 0.3:
        argv += ["--out", str(tmp_path / rng.choice(("out.json", "missing/out.json")))]
    if command != "verify-grid" and rng.random() < 0.5:
        argv += ["--format", rng.choice(FORMATS)]
    if rng.random() < 0.1:
        del argv[rng.randrange(len(argv))]
    if rng.random() < 0.05:
        argv.append("--bogus")
    return [command] + argv


@pytest.mark.parametrize("seed", SEEDS)
def test_every_exit_is_documented(capsys, tmp_path, seed):
    rng = random.Random(seed)
    for index in range(CASES_PER_SEED):
        argv = _random_argv(rng, tmp_path, index)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        assert code in EXIT_CODES, argv
        assert code == 0 or out == "", argv


def _limit_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("argv, cap", [
    (["construct", "--r", "1", "--s", "100000"], "entries), cap is"),
    (["construct", "--r", "1000", "--s", "2"], "entries), cap is"),
    (["construct", "--r", "2000", "--s", "2"], "minimal generators, cap is"),
    # the second step's spec lists s - 1 values: refused before it is built
    (["construct", "--r", "20000000", "--s", "10000000"], "minimal generators, cap is"),
    (["construct", "--r", "2000000000", "--s", "1000000000"],
     "minimal generators, cap is"),
    (["lexify", "{input}", "--n", "100000"], "entries), cap is"),
    (["lexify", "{input}", "--n", "10000000"], "minimal generators, cap is"),
    (["lexify", "{horizon}", "--n", "100"], "minimal generators, cap is"),
    (["analyze", "{ideal}"], "200000000 entries (100000000 rows of 2), cap is"),
    (["betti", "{ideal}"], "200000000 entries (100000000 rows of 2), cap is"),
    (["analyze", "{ideal}", "--oracle"], "multidegree box has 100000001 cells, cap is"),
    (["analyze", "{unstable}"], "multidegree box has 600000006 cells, cap is"),
    (["betti", "{unstable}"], "ideal is not stable; use the brute-force oracle"),
    (["analyze", "{table}"], "6020000 entries (20000 rows of 301), cap is"),
    (["betti", "{table}"], "6020000 entries (20000 rows of 301), cap is"),
    # a < d: the expansion is a unit terms, refused before any is listed
    (["expansion", "--a", "1000000000000", "--d", "10000000000000"],
     "list 1000000000000 terms, cap is"),
    (["expansion", "--a", "1000000000000", "--d", "10000000000000", "--growth"],
     "list 1000000000000 terms, cap is")],
    ids=["first-step-s", "second-step-r", "second-step-r-generators",
         "second-step-long-spec", "second-step-huge-spec",
         "lexify-h1-zero", "lexify-h1-zero-generators", "lexify-horizon",
         "analyze-degree", "betti-degree", "analyze-oracle-degree",
         "analyze-unstable-degree", "betti-unstable-degree", "analyze-table",
         "betti-table", "expansion-unit-tail", "expansion-growth-unit-tail"])
def test_over_cap_exits_3_before_allocating(tmp_path, argv, cap):
    # H(1) = 0: every variable is a generator, n rows of n entries
    spec = tmp_path / "h1-zero.json"
    spec.write_text('{"initial": [1, 0], "tail": {"constant": 0}}')
    # (x1^(10^8)): a stable ideal whose table has a row per degree and whose
    # oracle box has a cell per degree
    ideal = tmp_path / "huge-degree.json"
    ideal.write_text('{"n": 2, "generators": [[100000000, 0]]}')
    # (x2^(10^8), x3^5) in 3 variables: not stable, so only the oracle serves
    unstable = tmp_path / "huge-degree-unstable.json"
    unstable.write_text('{"n": 3, "generators": [[0, 100000000, 0], [0, 0, 5]]}')
    # H(k) = C(99 + k, k) through degree 4, then constant: more than 4*10^6
    # degrees of the horizon walk would each gain a generator
    horizon = tmp_path / "horizon.json"
    horizon.write_text('{"initial": [1, 100, 5050, 171700, 4421275], '
                       '"tail": {"constant": 4421275}}')
    # (x1, ..., x299, x300^20000): a lexsegment ideal of 300 generators whose
    # dense Betti table has 20000 rows of 301 entries
    table = tmp_path / "dense-table.json"
    rows = [[int(i == j) for i in range(300)] for j in range(299)]
    table.write_text(json.dumps({"n": 300, "generators": rows + [[0] * 299 + [20000]]}))
    files = {"{input}": str(spec), "{ideal}": str(ideal), "{horizon}": str(horizon),
             "{table}": str(table), "{unstable}": str(unstable)}
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-m", "lexseg.cli", *(files.get(a, a) for a in argv)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60, preexec_fn=_limit_address_space)
    assert done.returncode == 3, done.stderr
    assert done.stdout == "" and "Traceback" not in done.stderr
    assert cap in done.stderr


def test_lexsegment_degree_gap_walks_only_generator_degrees(tmp_path):
    # (x1, x2^300000) in 1000 variables, a 6 KB file: a lexsegment walk
    # through every degree up to 300000 would build a 1001-entry tally at each
    ideal = tmp_path / "gap.json"
    rows = [[1] + [0] * 999, [0, 300000] + [0] * 998]
    ideal.write_text(json.dumps({"n": 1000, "generators": rows}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-m", "lexseg.cli", "analyze", str(ideal)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60, preexec_fn=_limit_address_space)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert "stable: yes   strongly stable: yes   lexsegment: yes\n" in done.stdout
    assert "regularity: 299999\n" in done.stdout


def test_stability_predicates_on_a_huge_degree():
    # each generator is held as its runs, so a degree of 10^8 costs no more
    # than a degree of 1: x1 * x2^(10^8 - 1) is not in (x2^(10^8)), and
    # (x1^(10^8)) is strongly stable
    code = ("from lexseg import MonomialIdeal, is_stable, is_strongly_stable\n"
            "print(is_stable(MonomialIdeal(2, [(0, 10**8)])),"
            " is_strongly_stable(MonomialIdeal(2, [(10**8, 0)])))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_address_space)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False True\n"


def test_kpolynomial_cap_on_a_huge_degree():
    # the recursion's polynomials for (x2^(10^8)) would hold 10^8 + 1
    # coefficients: refused before it starts, not a MemoryError; (x1^(10^8))
    # is stable, but its table is over the Betti-table cap, so it meets the
    # same cap
    code = ("from lexseg import KPolynomialTooLargeError, MonomialIdeal, hilbert_series\n"
            "for row in [(0, 10**8), (10**8, 0)]:\n"
            "    try:\n"
            "        hilbert_series(MonomialIdeal(2, [row]))\n"
            "    except KPolynomialTooLargeError as exc:\n"
            "        print(exc)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_address_space)
    assert done.returncode == 0, done.stderr
    line = ("the K-polynomial recursion could build polynomials of degree "
            "100000000, cap is 10000000\n")
    assert done.stdout == 2 * line
