"""Span recorder around the public functions of each lexseg module.

The benchmark traces from outside the library: it replaces each listed
function, on every lexseg module attribute bound to it, with a wrapper that
times the call.  `from .x import f` leaves copies of ``f`` in several
modules, so every binding is swapped, and `uninstall` puts the originals back.

Spans nest.  A function's busy time counts only its outermost activation;
its self time is its duration minus the time of traced calls made inside it.
Aggregates are kept per function rather than per span.
"""

from __future__ import annotations

import math
import sys
import time

# module -> traced public functions; one layer per module.
LAYERS = {
    "constructions": ("construct",),
    "macaulay": ("lex_ideal_from_hf", "macaulay_growth", "macaulay_expansion",
                 "is_o_sequence"),
    "hilbert": ("kpolynomial", "hilbert_series"),
    "monomials": ("is_stable", "krull_dimension", "contains", "is_lexsegment",
                  "is_strongly_stable", "minimal_generators"),
    "eliahou_kervaire": ("ek_betti_table", "regularity", "depth"),
    "betti_oracle": ("bruteforce_betti_table",),
    "_kernels": ("koszul_scan", "bareiss_rank", "kpoly_counts", "count_standard"),
    "cli": ("main",),
}

# Functions whose recompute ratio is reported: calls per distinct ideal.
PER_IDEAL = {"hilbert.hilbert_series", "monomials.is_stable",
             "monomials.krull_dimension"}

# kpolynomial's `auto` engine switches at this generator count.
SMALL_G_MAX = 20

# Prefix of the stderr line on which a traced CLI process reports its spans.
MARK = "PERFBENCH-SPANS "


class Stat:
    __slots__ = ("calls", "busy", "self_time", "depth", "ideals", "small_g",
                 "large_g", "box_cells", "bail_redos")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.depth = 0
        self.ideals = set()
        self.small_g = 0.0
        self.large_g = 0.0
        self.box_cells = 0
        self.bail_redos = 0


def _ideal_key(ideal):
    return ideal.n, tuple(m.exponents for m in ideal.gens)


class Tracer:
    """Install with `install()`, pause with `active = False`, read `snapshot()`."""

    def __init__(self):
        self.stats = {f"{mod}.{fn}": Stat() for mod, fns in LAYERS.items()
                      for fn in fns}
        self.active = True
        self.item = 0  # serial of the current item, keys distinct ideals
        self._children = []  # traced time spent inside each open span
        self._patched = []

    def _wrap(self, key, fn):
        stat = self.stats[key]
        children = self._children
        per_ideal = key in PER_IDEAL
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            children.append(0.0)
            stat.depth += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.depth -= 1
                inner = children.pop()
                if children:
                    children[-1] += dt
                stat.calls += 1
                stat.self_time += dt - inner
                if stat.depth == 0:
                    stat.busy += dt
            if per_ideal:
                stat.ideals.add((self.item, _ideal_key(args[0])))
            if key == "hilbert.kpolynomial":
                if len(args[0].gens) <= SMALL_G_MAX:
                    stat.small_g += dt
                else:
                    stat.large_g += dt
            elif key == "betti_oracle.bruteforce_betti_table":
                stat.box_cells += math.prod(e + 1 for e in args[0].lcm_exponents)
            elif key == "_kernels.koszul_scan":
                stat.bail_redos += int(out[2])
            return out

        return traced

    def install(self):
        """Swap every lexseg module binding of each traced function."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "lexseg" or name.startswith("lexseg."))]
        for mod_name, fns in LAYERS.items():
            home = sys.modules[f"lexseg.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def snapshot(self) -> dict:
        """Plain-data aggregates, mergeable across processes with `merge`."""
        return {key: {"calls": s.calls, "busy": s.busy, "self": s.self_time,
                      "ideals": len(s.ideals), "small_g": s.small_g,
                      "large_g": s.large_g, "box_cells": s.box_cells,
                      "bail_redos": s.bail_redos}
                for key, s in self.stats.items()}


def merge(total: dict, part: dict) -> dict:
    for key, fields in part.items():
        acc = total.setdefault(key, dict.fromkeys(fields, 0))
        for field, value in fields.items():
            acc[field] += value
    return total


# Per-layer metrics reported for each traced function.  Names use
# "kernels" for lexseg._kernels, since a metric name starts with a letter.
REPORTED = {
    "hilbert.kpolynomial": ("calls", "busy_s", "small_g.busy_s", "large_g.busy_s"),
    "hilbert.hilbert_series": ("calls", "self_s", "calls_per_ideal"),
    "monomials.is_stable": ("calls", "busy_s", "calls_per_ideal"),
    "monomials.krull_dimension": ("calls", "busy_s", "calls_per_ideal"),
    "monomials.contains": ("calls",),
    "monomials.is_lexsegment": ("busy_s",),
    "monomials.is_strongly_stable": ("busy_s",),
    "monomials.minimal_generators": ("busy_s",),
    "macaulay.lex_ideal_from_hf": ("calls", "busy_s", "self_s"),
    "macaulay.macaulay_growth": ("calls",),
    "macaulay.macaulay_expansion": ("busy_s",),
    "macaulay.is_o_sequence": ("busy_s",),
    "eliahou_kervaire.ek_betti_table": ("calls", "self_s"),
    "eliahou_kervaire.regularity": ("calls",),
    "eliahou_kervaire.depth": ("calls",),
    "constructions.construct": ("calls", "busy_s", "self_s"),
    "betti_oracle.bruteforce_betti_table": ("calls", "busy_s", "self_s"),
    "_kernels.koszul_scan": ("calls", "busy_s"),
    "_kernels.bareiss_rank": ("calls", "busy_s"),
    "_kernels.kpoly_counts": ("calls", "busy_s"),
    "_kernels.count_standard": ("calls", "busy_s"),
    "cli.main": ("busy_s",),
}
FIELDS = {"calls": ("calls", "count"), "busy_s": ("busy", "s"), "self_s": ("self", "s"),
          "small_g.busy_s": ("small_g", "s"), "large_g.busy_s": ("large_g", "s")}


def layer_metrics(snap: dict) -> dict:
    """The per-layer metrics the benchmark reports, from merged aggregates."""
    out = {}
    for key, suffixes in REPORTED.items():
        agg = snap[key]
        name = key.replace("_kernels.", "kernels.")
        for suffix in suffixes:
            if suffix == "calls_per_ideal":
                seen = agg["ideals"]
                out[f"{name}.{suffix}"] = (agg["calls"] / seen if seen else 0.0, "ratio")
            else:
                field, unit = FIELDS[suffix]
                out[f"{name}.{suffix}"] = (agg[field], unit)
    out["betti_oracle.box_cells"] = (
        snap["betti_oracle.bruteforce_betti_table"]["box_cells"], "count")
    out["betti_oracle.bail_redos"] = (snap["_kernels.koszul_scan"]["bail_redos"], "count")
    return out
