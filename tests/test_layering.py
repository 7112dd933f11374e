"""The package's import structure, read from the source with `ast`: no
lexseg module imports another lexseg module inside a function, and the
module import graph has no cycle."""

import ast
from pathlib import Path

import lexseg

PACKAGE = Path(lexseg.__file__).parent
MODULES = {p.stem: p for p in PACKAGE.glob("*.py")}


def _lexseg_targets(node):
    """The lexseg modules an import statement reads ("__init__" for the
    package itself)."""
    if isinstance(node, ast.Import):
        return {(a.name.split(".") + ["__init__"])[1] for a in node.names
                if a.name.split(".")[0] == "lexseg"}
    if not isinstance(node, ast.ImportFrom):
        return set()
    parts = node.module.split(".") if node.module else []
    if node.level == 0:
        if parts[:1] != ["lexseg"]:
            return set()
        parts = parts[1:]
    if parts:
        return {parts[0]}
    # "from . import name": a submodule, or a name from the package itself
    return {a.name if a.name in MODULES else "__init__" for a in node.names}


def _imports(path):
    """(every lexseg target of the module, those imported inside a function)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    inner = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                inner |= _lexseg_targets(node)
    every = set()
    for node in ast.walk(tree):
        every |= _lexseg_targets(node)
    return every, inner


def test_no_function_level_lexseg_import():
    offenders = {name: sorted(inner) for name, path in MODULES.items()
                 for inner in [_imports(path)[1]] if inner}
    assert offenders == {}


def test_import_graph_has_no_cycle():
    graph = {name: _imports(path)[0] - {name} for name, path in MODULES.items()}
    assert {"__init__", "monomials", "hilbert", "cli"} <= set(graph)
    assert all(t in MODULES for targets in graph.values() for t in targets), graph
    done, on_path = set(), []

    def visit(name):
        if name in on_path:
            cycle = on_path[on_path.index(name):] + [name]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if name in done:
            return
        on_path.append(name)
        for target in sorted(graph[name]):
            visit(target)
        on_path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)


def test_monomials_does_not_import_hilbert():
    assert "hilbert" not in _imports(MODULES["monomials"])[0]


def test_hilbert_does_not_import_kernels():
    # inclusion-exclusion is a test oracle; the series has one engine
    assert "_kernels" not in _imports(MODULES["hilbert"])[0]
