#!/usr/bin/env python3
"""The lexseg benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the library is imported from ./src.

Workloads (BENCHMARK.json lists the first two and says why):
  grid     construct(r, s) for all 144 cells of [1,12]^2, in seeded order
  cli      100 cold `python -m lexseg.cli` processes, a rotating mix of five
           small commands
  oracle   the brute-force Koszul Betti table on both fixtures and 190
           seeded non-stable ideals of fixed lcm shapes
  analyze  the `lexseg analyze` report on both fixtures and 98 seeded
           strongly stable ideals with generator counts on both sides of 20
oracle and analyze run and are covered by --smoke, but are left out of
BENCHMARK.json: their run-to-run spread exceeded the bounds on the host they
were tuned on (see BASELINE.md).

One caller, one process, no threads: each item starts when the previous one
has finished (a closed loop).  A run times rounds over the workload's items
until --seconds have elapsed and the workload's fewest rounds are done; every
round has at least 100 items.  grid times each of the 143 cells other than
the flagship (4, 2) in each of 2 rounds, reshuffled, and takes the median of
a cell's timings as its latency; the flagship is timed once.  cli keeps
every process's time as a sample and stops after a whole rotation of the
five commands.  Each timed call's result is checked outside its timed
interval; a call that raises or fails a check counts as failed.

Every time in the end-to-end metrics is calibrated to the host's speed
(yardstick.py): a fixed task of the benchmark's own is timed at most every
0.25 s through the run, and each timed call is scaled by the task's nominal
time over its median time near that call.  The shared host this was tuned
on runs up to ~1.7x slower in some minutes than in others; raw times keep
that, calibrated times divide it out.  The raw figures are printed and kept
in the record line under "uncalibrated".  Span times from the tracer
(busy_s, self_s) are raw; cli.interpreter_s, cli.import_s and the trace.*
rates are calibrated.

--trace 0 reports the end-to-end metrics:
  setup_s        median over 9 fresh processes of the time from process start
                 to the first item: interpreter start, `import lexseg`,
                 input generation
  items_per_s    latency samples divided by their sum
  latency_p50_s  median of the latency samples
  latency_p90_s  their 90th percentile (at least 10 samples beyond it)
  peak_rss_mb    peak resident memory of the process doing the work; for cli
                 the largest CLI process
error_rate (failed / attempted) is printed with them and given in the
result's "attempted" and "failed" fields.

--trace 1 times one untraced round, then one round with a span recorder
around each module's public functions (tracer.py), and reports the
per-layer metrics of that round plus the tracing overhead.

--smoke runs every workload at a tiny size, traced and untraced, checks that
every metric named in BENCHMARK.json is emitted, and checks that corrupting
one expected value makes the run report a failure.

The last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("grid", "cli", "oracle", "analyze")
SETUP_REPEATS = 9  # fresh processes per run for setup_s and the cli.* start-up times
GEN_BANDS = ((1, 5), (6, 10), (11, 15), (16, 20), (21, 30), (31, 60), (61, None))


@dataclass
class Run:
    """What the rounds of a run measured."""

    # item -> (start, seconds) of each of its timed calls
    samples: dict[int, list[tuple[float, float]]] = field(default_factory=dict)
    marks: yardstick.Marks = field(default_factory=yardstick.Marks)
    pooled: bool = True
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    rounds: int = 0
    child_rss_kib: int = 0
    child_spans: list[dict] = field(default_factory=list)
    gens: list[int] = field(default_factory=list)  # per item of the first round
    box_cells: int = 0

    @property
    def attempted(self) -> int:
        return sum(len(t) for t in self.samples.values())

    def latencies(self, calibrated: bool = True) -> list[float]:
        """Every timing, or each item's median timing; calibrated to the
        host speed of `yardstick` unless ``calibrated`` is false."""
        scale = self.marks.scale if calibrated else (lambda start, end: 1.0)
        per_item = [[d * scale(t, t + d) for t, d in calls]
                    for calls in self.samples.values()]
        if self.pooled:
            return [d for calls in per_item for d in calls]
        return [statistics.median(calls) for calls in per_item]

    def items_per_s(self, calibrated: bool = True) -> float:
        lat = self.latencies(calibrated)
        return len(lat) / sum(lat)


def measure(wl, seconds: float, recorder=None, one_round: bool = False) -> Run:
    """Rounds over the workload's items until ``seconds`` have elapsed and
    ``wl.min_rounds`` rounds are done (see `workloads.Workload`).

    With ``one_round`` or a span recorder, exactly the first round; the
    recorder is paused while results are checked.
    """
    run = Run(pooled=wl.pooled)
    clock = time.perf_counter
    start = clock()
    last = 1 if one_round or recorder is not None else None
    order = list(enumerate(wl.items))
    while True:
        for done, (index, item) in enumerate(order, 1):
            run.marks.due()
            if recorder is not None:
                recorder.item = index
                recorder.active = True
            t0 = clock()
            try:
                result = item.run()
                error = None
            except Exception as exc:  # an item that raises counts as failed
                error = f"{item.label}: raised {type(exc).__name__}: {exc}"
            run.samples.setdefault(index, []).append((t0, clock() - t0))
            if recorder is not None:
                recorder.active = False
            if error is None:
                try:
                    facts = item.observe(result)
                    bad = {k: facts.get(k) for k, v in item.expected.items()
                           if facts.get(k) != v}
                    if bad:
                        error = f"{item.label}: check failed: {bad}"
                except Exception as exc:
                    error = f"{item.label}: check raised {type(exc).__name__}: {exc}"
            if error is not None:
                run.failed += 1
                if len(run.failures) < 5:
                    run.failures.append(error[:300])
            else:
                if wl.launcher is not None:
                    run.child_rss_kib = max(run.child_rss_kib, result[3])
                    spans = result[2].rstrip().rpartition("\n")[2]
                    if spans.startswith(tracer.MARK):
                        run.child_spans.append(json.loads(spans[len(tracer.MARK):]))
                if run.rounds == 0:
                    run.gens.append(facts.get("gens", item.gens) or 0)
                    run.box_cells += item.box or 0
            if (last is None and run.rounds >= wl.min_rounds and wl.stride
                    and done % wl.stride == 0 and clock() - start >= seconds):
                run.rounds += 1  # a partial round
                run.marks.take()
                return run
        run.rounds += 1
        if run.rounds == last or (last is None and run.rounds >= wl.min_rounds
                                  and clock() - start >= seconds):
            run.marks.take()
            return run
        order = [(i, it) for i, it in enumerate(wl.items) if it.repeat]
        if wl.reshuffle is not None:
            wl.reshuffle.shuffle(order)


def _median_child_seconds(argv: list[str], from_stdout: bool) -> float:
    """Median over fresh processes of the time to their first stdout line,
    or of the seconds value that line reports, calibrated by `yardstick`
    marks taken around each process."""
    import workloads

    samples = []
    marks = yardstick.Marks()
    for _ in range(SETUP_REPEATS):
        marks.take()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=workloads.child_env(),
                                cwd=ROOT, text=True)
        with proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or not line.strip():
            raise RuntimeError(f"{argv[1:]} exited {proc.returncode}")
        marks.take()
        samples.append((float(line) if from_stdout else elapsed)
                       * marks.scale(t0, t0 + elapsed))
    return statistics.median(samples)


def setup_seconds(name: str, seed: int) -> float:
    return _median_child_seconds(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"], from_stdout=False)


def end_to_end(run: Run, setup_s: float, wl) -> dict:
    if wl.launcher is not None:
        rss_kib = run.child_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lat = run.latencies()
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (run.items_per_s(), "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_p90_s": (statistics.quantiles(lat, n=10)[8], "s"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }


def uncalibrated(run: Run) -> dict:
    """The run's raw timings and the calibration task's times."""
    lat = run.latencies(calibrated=False)
    return {"raw_items_per_s": run.items_per_s(calibrated=False),
            "raw_latency_p50_s": statistics.median(lat),
            "raw_latency_p90_s": statistics.quantiles(lat, n=10)[8],
            "calibration_marks": len(run.marks.durations),
            "calibration_task_median_s": statistics.median(run.marks.durations),
            "calibration_task_nominal_s": yardstick.NOMINAL_S}


def traced(wl, untraced: Run) -> tuple[dict, Run]:
    """One pass under the span recorder; the per-layer metrics of that pass."""
    if wl.launcher is not None:
        plain = list(wl.launcher)
        wl.launcher[:] = [sys.executable, str(HERE / "cli_child.py")]
        try:
            run = measure(wl, 0, one_round=True)
        finally:
            wl.launcher[:] = plain
        snap: dict = {}
        for part in run.child_spans:
            tracer.merge(snap, part)
        if len(run.child_spans) != run.attempted - run.failed:
            raise RuntimeError("span report missing from a traced CLI process")
    else:
        recorder = tracer.Tracer()
        recorder.install()
        try:
            run = measure(wl, 0, recorder)
        finally:
            recorder.uninstall()
        snap = recorder.snapshot()
    metrics = tracer.layer_metrics(snap)
    # Both start-up times are taken to the child's first line of output.
    metrics["cli.interpreter_s"] = (_median_child_seconds(
        [sys.executable, "-c", "print(0.0)"], from_stdout=False), "s")
    metrics["cli.import_s"] = (_median_child_seconds(
        [sys.executable, "-c", "import time; t = time.perf_counter(); import lexseg.cli; "
         "print(time.perf_counter() - t)"], from_stdout=True), "s")
    metrics["trace.untraced_items_per_s"] = (untraced.items_per_s(), "1/s")
    metrics["trace.traced_items_per_s"] = (run.items_per_s(), "1/s")
    metrics["trace.overhead_pct"] = (
        100.0 * (untraced.items_per_s() / run.items_per_s() - 1.0), "%")
    return metrics, run


def _histogram(gens: list[int]) -> dict:
    hist = {}
    for lo, hi in GEN_BANDS:
        label = f"{lo}-{hi}" if hi else f"{lo}+"
        hist[label] = sum(1 for g in gens if g >= lo and (hi is None or g <= hi))
    return hist


def _git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(dist: str):
    if importlib.util.find_spec(dist) is None:
        return None
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "unknown"


def environment(seed: int) -> dict:
    from lexseg import _kernels

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "kernel_mode": _kernels.kernel_mode(),
        "numba": _version("numba"),
        "numpy": _version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _git_commit(),
        "seed": seed,
    }


def shape(wl, run: Run) -> dict:
    return {"items_per_round": len(wl.items), "rounds": run.rounds,
            "timed_calls": run.attempted,
            "generators": _histogram(run.gens), "box_cells": run.box_cells,
            **wl.notes}


def print_metrics(title: str, metrics: dict, samples: int) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  (latency samples: {samples})")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    with contextlib.ExitStack() as stack:
        wl = workloads.build(name, seed, smoke=False, stack=stack)
        # Tracing overhead compares one untraced round with one traced round.
        plain = measure(wl, seconds, one_round=trace)
        runs = [plain]
        if trace:
            metrics, traced_run = traced(wl, plain)
            runs.append(traced_run)
            samples = len(traced_run.latencies())
        else:
            metrics = end_to_end(plain, setup_seconds(name, seed), wl)
            samples = len(plain.latencies())
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(f"workload {name}  seed {seed}  trace {int(trace)}")
    print_metrics("metrics:", metrics, samples)
    print(f"  error_rate {failed / attempted:.6g} ({failed} of {attempted} items)")
    for line in (f for r in runs for f in r.failures):
        print(f"  FAILED {line}")
    raw = uncalibrated(plain)
    for key, value in raw.items():
        print(f"  {key:<44} {value:>14.6g}")
    record = {"workload": name, "environment": environment(seed), "uncalibrated": raw,
              "shape": shape(wl, plain), "latency_samples": samples,
              "error_rate": failed / attempted, "failures": [f for r in runs for f in r.failures]}
    print(json.dumps(record))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def smoke() -> int:
    """Tiny runs of every workload: metric names emitted, corruption caught."""
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"] for m in spec["end_to_end"]}
    want_layers = {m["name"] for m in spec["per_layer"]}
    problems = []
    for name in WORKLOADS:
        with contextlib.ExitStack() as stack:
            wl = workloads.build(name, 1, smoke=True, stack=stack)
            plain = measure(wl, 0)
            e2e = end_to_end(plain, setup_seconds(name, 1), wl)
            layers, traced_run = traced(wl, plain)
            if set(e2e) != want_e2e:
                problems.append(f"{name}: end-to-end names {sorted(set(e2e) ^ want_e2e)}")
            if set(layers) != want_layers:
                problems.append(f"{name}: per-layer names {sorted(set(layers) ^ want_layers)}")
            if plain.failed or traced_run.failed:
                problems.append(f"{name}: failures {plain.failures + traced_run.failures}")
            first = wl.items[0].expected
            first[next(iter(first))] = object()  # a value no fact can equal
            corrupted = measure(wl, 0, one_round=True)
            if corrupted.failed == 0:
                problems.append(f"{name}: a corrupted expected value went unnoticed")
            print(f"smoke {name}: {plain.attempted} items, "
                  f"error_rate {plain.failed / plain.attempted:g}, "
                  f"corrupted error_rate {corrupted.failed / corrupted.attempted:g}")
    for p in problems:
        print(f"SMOKE FAILED {p}")
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test at tiny size")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload, print 'ready' and exit (times setup_s)")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "lexseg" / "__init__.py").is_file():
        print(f"error: no lexseg sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.setup_only:
        import workloads

        with contextlib.ExitStack() as stack:
            workloads.build(args.workload, args.seed, smoke=False, stack=stack)
            print("ready", flush=True)
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
