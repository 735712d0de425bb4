"""The public surface: every exported name is used by the package itself
or documented in the README, so nothing is exported only for its tests;
the private names and search state that cross modules; the error classes
and the size caps the README lists."""

import ast
import itertools
import pathlib
import re

import pytest

import wordrep
from wordrep import (
    NON_REPRESENTABLE,
    Decision,
    SearchStats,
    canonical_form,
    count_semi_transitive,
    decide,
    entropy_table,
    enumerate_graphs,
    find_k_uniform_word,
    graph_from_edge_list,
    verify_certificate,
)
from wordrep import errors
from wordrep.orientations import count_semi_transitive_naive

PACKAGE = pathlib.Path(wordrep.__file__).parent
README = PACKAGE.parents[1] / "README.md"


def test_every_export_resolves_once():
    assert len(set(wordrep.__all__)) == len(wordrep.__all__)
    for name in wordrep.__all__:
        assert getattr(wordrep, name) is not None, name


def test_every_export_has_a_caller_or_is_documented():
    # each module's lines, less those that define a name (def, class or
    # assignment) so that a definition does not count as its own use
    defining = re.compile(r"^\s*(?:def|class)\s+(\w+)|^\s*(\w+)\s*(?::[^=]*)?=(?!=)")
    uses = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for line in path.read_text(encoding="utf-8").splitlines():
            m = defining.match(line)
            uses.setdefault(m and (m.group(1) or m.group(2)), []).append(line)
    spans = re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))
    unused = []
    for name in wordrep.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        in_code = any(word.search(line)
                      for defined, lines in uses.items() if defined != name
                      for line in lines)
        if not (in_code or any(word.search(span) for span in spans)):
            unused.append(name)
    assert unused == []


# ---------------------------------------------------------------------------
# the boundaries between modules

SHARED_PRIVATE = {"_bits", "_pairs", "_components", "_Searcher",
                  "_forward_semi_transitive", "_color_classes"}
SEARCH_STATE = {"fwd", "bwd", "closure", "frames"}


def test_modules_share_only_the_listed_private_names():
    # a private name crosses modules only from this list, and only
    # orientations.py touches _Searcher's undo state: every other module
    # drives the search through assign and retract
    shared, state = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                shared |= {a.name for a in node.names if a.name.startswith("_")}
            elif isinstance(node, ast.Attribute) and node.attr in SEARCH_STATE \
                    and path.name != "orientations.py":
                state.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert shared <= SHARED_PRIVATE, shared - SHARED_PRIVATE
    assert state == []


def test_only_graphs_imports_numpy():
    # class enumeration and canonical forms are numpy's only users; the
    # search, the words and every re-check run without it
    users = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            if any(m.partition(".")[0] == "numpy" for m in modules):
                users.add(path.name)
    assert users == {"graphs.py"}


def test_one_error_class_per_decision_a_caller_makes():
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, Exception)}
    assert classes == {"WordrepError", "OutOfRangeError", "TooLargeError",
                       "CyclicInputError", "ParseError"}
    assert all(issubclass(getattr(errors, name), errors.WordrepError) for name in classes)


G9 = graph_from_edge_list(9, [])
M25 = graph_from_edge_list(8, list(itertools.combinations(range(1, 9), 2))[:25])


# one case per row of the README's "Size caps" table
@pytest.mark.parametrize("call", [
    pytest.param(lambda: canonical_form(G9), id="canonical-form"),
    pytest.param(lambda: list(enumerate_graphs(8)), id="enumerate-graphs"),
    pytest.param(lambda: entropy_table(8), id="entropy-table"),
    pytest.param(lambda: decide(graph_from_edge_list(41, [])), id="orientation-search"),
    pytest.param(lambda: count_semi_transitive(M25), id="count"),
    pytest.param(lambda: count_semi_transitive_naive(M25), id="count-naive"),
    pytest.param(lambda: verify_certificate(G9, Decision(NON_REPRESENTABLE, None, SearchStats())),
                 id="refutation-recheck"),
    pytest.param(lambda: find_k_uniform_word(graph_from_edge_list(11, []), 3), id="word-search"),
])
def test_every_size_cap_raises_too_large(call):
    with pytest.raises(errors.TooLargeError):
        call()
