"""The benchmark under perfbench/ reaches into the package by name: it
rebinds the functions listed in perfbench/spans.py, calls them with fixed
arguments, and imports names from wordrep (count_semi_transitive_naive among
them).  These checks read those files as text (nothing there is run or
imported), so a rename under src/ fails here and not only in the
benchmark's own tests.
"""

import ast
import dataclasses
import importlib
import inspect
import pathlib

import pytest

from wordrep import SearchStats, graph_from_edge_list

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

# the arguments the benchmark's wrapper of each kind passes to the function
G = graph_from_edge_list(3, [(1, 2), (2, 3)])
CALLS = {"decide": (G,), "enumerate": (3,), "search": (G, SearchStats()), "word": (G, 2, [0])}


def _constant(path: pathlib.Path, name: str):
    """The literal value a file assigns to a module-level name."""
    for node in ast.parse(path.read_text("utf-8")).body:
        if isinstance(node, ast.Assign) and \
                [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


SPANS = PERFBENCH / "spans.py"
HOOKS = list(_constant(SPANS, "BOUNDARIES")) + list(_constant(SPANS, "ENTRY_POINTS").values())


@pytest.mark.parametrize("module, name, span, kind", HOOKS,
                         ids=[f"{m}.{n}" for m, n, _, _ in HOOKS])
def test_hook_resolves_and_binds(module, name, span, kind):
    fn = getattr(importlib.import_module(module), name)
    assert callable(fn)
    if kind in CALLS:
        inspect.signature(fn).bind(*CALLS[kind])


def test_search_stats_counters():
    names = {f.name for f in dataclasses.fields(SearchStats)}
    assert {"nodes", "propagations", "shortcut_checks", "shortcut_conflicts"} <= names


def test_entropy_table_takes_long_ok():
    # perfbench/worker.py calls entropy_table(7, long_ok=True); the other
    # fixed call shapes are the wrapper kinds in CALLS
    from wordrep.census import entropy_table
    inspect.signature(entropy_table).bind(7, long_ok=True)


def test_benchmark_imports_resolve():
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("wordrep"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{path.name}: {node.module}.{alias.name}"
