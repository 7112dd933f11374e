"""The library names the benchmark harness relies on.

`perfbench/tracer.py` wraps the functions listed in its `LAYERS` table by
name, and `perfbench/run.py` and `perfbench/workloads.py` call
`_kernels.kernel_mode()` and `kpolynomial(ideal, "pivot")`.  A rename or
removal here would break `--trace 1` and `--smoke` without any other test
failing.
"""

import importlib
import runpy
from pathlib import Path

from lexseg import _kernels, fixture, kpolynomial

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    # run_path compiles the source and writes no bytecode next to it
    layers = runpy.run_path(str(TRACER))["LAYERS"]
    for module, names in layers.items():
        home = importlib.import_module(f"lexseg.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"lexseg.{module}.{name}"


def test_kernel_mode_and_pivot_engine():
    assert _kernels.kernel_mode() == "python"
    assert kpolynomial(fixture("example2"), "pivot") == kpolynomial(fixture("example2"))
