"""The four workloads: their items, the timed call of each, and its checks.

An item is one construction, one analyze report, one oracle Betti table or
one CLI process.  `run` is the timed call.  `observe` turns its result into
facts, outside the timed interval, and the item fails unless every fact in
`expected` matches.  Checks may call the library (the pivot K-polynomial,
the closed-form table, `is_lexsegment`), always as an independent second
route to the value under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs

import lexseg
import lexseg.cli

HERE = Path(__file__).resolve().parent
CLI_ROTATIONS = 20  # passes of the five-command mix per cli round: 100 processes
# Rounds of grid per run.  Every cell but the flagship is timed this often and
# reported as the median of its timings, so a few slow seconds of the host
# move one timing of a cell, not the cell.
GRID_ROUNDS = 2


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    observe: Callable[[object], dict]
    expected: dict
    gens: int | None = None  # generator count of the input, if known up front
    box: int | None = None  # multidegree box cells of the input
    repeat: bool = True  # timed again in every round after the first


@dataclass
class Workload:
    """A run times rounds over ``items``: the first round runs them all, in
    order; later rounds run those that repeat.  It stops once ``min_rounds``
    are done and the run's seconds have elapsed, at the end of a round or,
    after ``min_rounds``, of any ``stride`` items."""

    name: str
    items: list[Item]
    # cli only: the command that starts a CLI process, shared by every item
    # so a traced pass can swap in the tracing launcher.
    launcher: list[str] | None = None
    notes: dict = field(default_factory=dict)
    min_rounds: int = 1
    stride: int | None = None  # None: whole rounds only
    # Per item, the median of its timings is its latency (pooled=False), or
    # every timing is a latency sample of its own (pooled=True).
    pooled: bool = True
    reshuffle: random.Random | None = None  # reorders each later round


def _pivot_matches(ideal, coefficients) -> bool:
    """Whether coefficients equal the pivot-engine K-polynomial."""
    pivot = lexseg.kpolynomial(ideal, "pivot")
    coefficients = list(coefficients)
    while len(coefficients) > 1 and coefficients[-1] == 0:
        coefficients.pop()
    return tuple(coefficients) == tuple(pivot)


def _times_one_minus_t(poly, times: int) -> list[int]:
    out = list(poly)
    for _ in range(times):
        out = [a - b for a, b in zip(out + [0], [0] + out)]
    return out


# --- grid -------------------------------------------------------------------

def _grid_item(r: int, s: int) -> Item:
    expected = {"ok": True, "regularity": r, "h_degree": s,
                "n_within_bound": True, "lexsegment": True}
    flagship = (r, s) == inputs.FLAGSHIP
    if flagship:
        expected["generators"] = inputs.FLAGSHIP_GENERATORS
        expected["betti_text"] = inputs.FLAGSHIP_BETTI_TEXT

    def observe(rep):
        ideal = rep.ideal
        facts = {"ok": rep.ok, "regularity": rep.measured.regularity,
                 "h_degree": rep.measured.h_degree,
                 "n_within_bound": ideal.n <= max(r, s) + 2,
                 "lexsegment": lexseg.is_lexsegment(ideal),
                 "gens": len(ideal.gens)}
        if "generators" in expected:
            facts["generators"] = tuple(m.exponents for m in ideal.gens)
            facts["betti_text"] = lexseg.ek_betti_table(ideal).to_text()
        return facts

    # The flagship's 2^20-subset call takes about as long as a whole round of
    # the other cells, so it is timed once per run.
    return Item(f"construct({r},{s})", lambda: lexseg.construct(r, s),
                observe, expected, repeat=not flagship)


def grid(rng, smoke: bool) -> Workload:
    if smoke:
        cells = [(1, 1), (1, 3), (2, 1), (3, 1), (3, 3)]
    else:
        cells = [(r, s) for r in range(1, 13) for s in range(1, 13)]
    rng.shuffle(cells)
    return Workload("grid", [_grid_item(r, s) for r, s in cells],
                    min_rounds=GRID_ROUNDS, pooled=False,
                    reshuffle=rng)


# --- analyze ----------------------------------------------------------------

def analyze_report(n: int, rows) -> dict:
    """What `lexseg analyze` reports, through the public API."""
    ideal = lexseg.MonomialIdeal.from_exponent_rows(n, rows)
    series = lexseg.hilbert_series(ideal)
    stable = lexseg.is_stable(ideal)
    report = {
        "ideal": ideal,
        "series": series,
        "h": series.h_polynomial().coefficients,
        "hilbert_function": [series.coefficient(k) for k in range(9)],
        "dim": lexseg.krull_dimension(ideal),
        "stable": stable,
        "strongly_stable": lexseg.is_strongly_stable(ideal),
        "lexsegment": lexseg.is_lexsegment(ideal),
        "table": (lexseg.ek_betti_table(ideal) if stable
                  else lexseg.bruteforce_betti_table(ideal)),
    }
    report["regularity"] = report["table"].regularity
    report["depth"] = n - report["table"].projective_dimension
    return report


def _analyze_item(label: str, n: int, rows, pinned: dict) -> Item:
    expected = {"stable": True, "strongly_stable": True,
                "euler_matches_pivot": True, "series_matches_pivot": True,
                **pinned}

    def observe(rep):
        ideal, series = rep["ideal"], rep["series"]
        unreduced = _times_one_minus_t(series.numerator,
                                       ideal.n - series.denominator_exponent)
        facts = {
            "stable": rep["stable"],
            "strongly_stable": rep["strongly_stable"],
            "euler_matches_pivot": _pivot_matches(
                ideal, rep["table"].euler_kpolynomial()),
            "series_matches_pivot": _pivot_matches(ideal, unreduced),
            "dim": rep["dim"], "depth": rep["depth"],
            "regularity": rep["regularity"], "h": rep["h"],
            "h_degree": len(rep["h"]) - 1,
            "hilbert_function": rep["hilbert_function"],
        }
        return {k: facts[k] for k in expected}

    return Item(label, lambda: analyze_report(n, rows), observe, expected,
                gens=len(rows), box=inputs.box_cells(rows))


def analyze(rng, smoke: bool) -> Workload:
    items = []
    if not smoke:
        for name, pinned in inputs.FIXTURE_INVARIANTS.items():
            n, rows = inputs.FIXTURES[name]
            items.append(_analyze_item(name, n, rows, pinned))
    schedule = {(3, 2, 6): 2, (4, 7, 9): 1} if smoke else inputs.ANALYZE_SCHEDULE
    for i, (n, rows) in enumerate(inputs.strongly_stable_ideals(rng, schedule)):
        items.append(_analyze_item(f"borel#{i}", n, rows, {}))
    rng.shuffle(items)
    return Workload("analyze", items)


# --- oracle -----------------------------------------------------------------

def _oracle_item(label: str, n: int, rows) -> Item:
    stable = inputs.is_stable(rows)
    expected = {"euler_matches_pivot": True}
    if stable:
        expected["matches_ek"] = True

    def run():
        return lexseg.bruteforce_betti_table(
            lexseg.MonomialIdeal.from_exponent_rows(n, rows))

    def observe(table):
        ideal = lexseg.MonomialIdeal.from_exponent_rows(n, rows)
        facts = {"euler_matches_pivot": _pivot_matches(ideal, table.euler_kpolynomial())}
        if stable:
            facts["matches_ek"] = table.rows == lexseg.ek_betti_table(ideal).rows
        return facts

    return Item(label, run, observe, expected, gens=len(rows),
                box=inputs.box_cells(rows))


def oracle(rng, smoke: bool) -> Workload:
    items = []
    if not smoke:
        for name in ("example2", "remark3"):
            n, rows = inputs.FIXTURES[name]
            items.append(_oracle_item(name, n, rows))
    schedule = {(1, 1, 1, 1): 1, (2, 1, 1, 1): 1} if smoke else inputs.ORACLE_SCHEDULE
    for i, (n, rows) in enumerate(inputs.non_stable_ideals(rng, schedule)):
        items.append(_oracle_item(f"random#{i}", n, rows))
    rng.shuffle(items)
    return Workload("oracle", items)


# --- cli --------------------------------------------------------------------

def child_env() -> dict:
    """Environment for child interpreters: the library from this checkout."""
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(argv: list[str]) -> tuple[int, str, str, int]:
    """Run a child to completion: (exit code, stdout, stderr, peak RSS in KiB)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=HERE.parent, text=True)
    # Read in turn, not with communicate(): that would reap the child and lose
    # its resource usage.  The commands write far less to stderr than a pipe holds.
    out = proc.stdout.read()
    err = proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, usage.ru_maxrss


def in_process(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = lexseg.cli.main(argv)
    return code, buf.getvalue()


def _cli_commands(rng, workdir: Path) -> list[list[str]]:
    """The five-command mix, with small seeded inputs written to workdir."""
    r, s = rng.choice(inputs.SMALL_CELLS)
    stable = inputs.strongly_stable_ideals(rng, {(4, 3, 8): 1})[0]
    unstable = inputs.non_stable_ideals(rng, {(2, 1, 1, 1): 1})[0]
    n_hf, spec = inputs.hilbert_function_spec(rng)
    files = {
        "stable.json": {"n": stable[0], "generators": [list(g) for g in stable[1]]},
        "unstable.json": {"n": unstable[0], "generators": [list(g) for g in unstable[1]]},
        "hf.json": spec,
    }
    for name, data in files.items():
        (workdir / name).write_text(json.dumps(data))
    return [
        ["construct", "--r", str(r), "--s", str(s)],
        ["analyze", str(workdir / "stable.json")],
        ["betti", str(workdir / "unstable.json"), "--oracle"],
        ["lexify", str(workdir / "hf.json"), "--n", str(n_hf)],
        ["expansion", "--a", str(rng.randint(1, 10_000)),
         "--d", str(rng.randint(1, 30)), "--growth"],
    ]


def _cli_item(argv: list[str], launcher: list[str], reference: dict) -> Item:
    """One CLI process; ``launcher`` is read at call time."""
    key = tuple(argv)

    def observe(result):
        code, out, _err, _rss = result
        if key not in reference:
            reference[key] = in_process(argv)
        ref_code, ref_out = reference[key]
        return {"exit_code": code, "reference_exit_code": ref_code,
                "stdout_matches": out == ref_out}

    return Item(argv[0], lambda: spawn(launcher + argv), observe,
                {"exit_code": 0, "reference_exit_code": 0, "stdout_matches": True})


def cli(rng, smoke: bool, stack: contextlib.ExitStack) -> Workload:
    workdir = Path(stack.enter_context(
        tempfile.TemporaryDirectory(prefix=".perfbench-", dir=HERE.parent)))
    commands = _cli_commands(rng, workdir)
    launcher = [sys.executable, "-m", "lexseg.cli"]
    reference: dict = {}
    rotations = 1 if smoke else CLI_ROTATIONS
    items = [_cli_item(argv, launcher, reference)
             for _ in range(rotations) for argv in commands]
    shown = [" ".join(Path(a).name if os.sep in a else a for a in c) for c in commands]
    return Workload("cli", items, launcher=launcher, notes={"commands": shown},
                    stride=len(commands))


def build(name: str, seed: int, smoke: bool, stack: contextlib.ExitStack) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "cli":
        return cli(rng, smoke, stack)
    return {"grid": grid, "analyze": analyze, "oracle": oracle}[name](rng, smoke)
