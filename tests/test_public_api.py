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
    are_isomorphic,
    canonical_form,
    count_semi_transitive,
    decide,
    entropy_table,
    enumerate_graphs,
    find_k_uniform_word,
    find_proper_coloring,
    graph_from_edge_list,
    graph_of_word,
    orientation_from_arcs,
    verify_certificate,
    word_from_letters,
)
from wordrep import errors
from wordrep.census import SpeedRow
from wordrep.graphs import CanonicalForm, Graph, GraphClass, VertexColoring, _Frozen, _Record
from wordrep.orientations import (
    BACKWARD,
    FORWARD,
    Conflict,
    Orientation,
    count_semi_transitive_naive,
    find_shortcut,
    lemma1_propagate,
)
from wordrep.verify import CheckResult
from wordrep.words import Word
from wordrep.wordsearch import WordSearchResult

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

SHARED_PRIVATE = {"_bits", "_components", "_Searcher", "_order_semi_transitive",
                  "_three_colourable", "_deletion_codes", "_orbit_codes", "_enumerable_n",
                  "_integer", "_decimal", "_Record", "_Frozen", "_cached",
                  "_non_comparability_vertex"}
SEARCH_STATE = {"found", "rows"}


def test_modules_share_only_the_listed_private_names():
    # a private name crosses modules only from this list, and only
    # orientations.py touches _Searcher's search state: other modules hand
    # states back to propagate untouched
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


RECHECK_ROUTE = {"verify_certificate", "semi_transitive_orientations", "is_semi_transitive",
                 "find_shortcut", "count_semi_transitive_naive"}
SEARCH_NAMES = {"_Searcher", "propagate", "_no_shortcut", "_packed_rows", "_four_cycles",
                "_order_semi_transitive", "_shortcut_patterns"}


def test_recheck_route_shares_no_code_with_the_search():
    # the certificate re-check is independent only while no function on its
    # route, nor any module-level function one of them names, names the search
    defs = {}
    for name in ("decision.py", "orientations.py", "graphs.py"):
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        defs.update((node.name, node) for node in tree.body
                    if isinstance(node, ast.FunctionDef))
    route, named, todo = set(), set(), sorted(RECHECK_ROUTE)
    while todo:
        fn = todo.pop()
        if fn in route:
            continue
        route.add(fn)
        for node in ast.walk(defs[fn]):
            if isinstance(node, (ast.Name, ast.Attribute)):
                ident = node.id if isinstance(node, ast.Name) else node.attr
                named.add(ident)
                todo += [ident] if ident in defs else []
    assert {"_blocks", "_far_pair", "_place", "_require_total", "_walk"} <= route
    assert named & SEARCH_NAMES == set()


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


def test_source_parses_at_the_declared_python_floor():
    # no module may use syntax newer than the declared floor's grammar
    pyproject = (pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert 'requires-python = ">=3.10"' in pyproject
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_one_error_class_per_decision_a_caller_makes():
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, Exception)}
    assert classes == {"WordrepError", "OutOfRangeError", "TooLargeError", "ParseError"}
    assert all(issubclass(getattr(errors, name), errors.WordrepError) for name in classes)


G9 = graph_from_edge_list(9, [])
N9M25 = graph_from_edge_list(9, list(itertools.combinations(range(1, 10), 2))[:25])
G41 = graph_from_edge_list(41, [])
M25 = graph_from_edge_list(8, list(itertools.combinations(range(1, 9), 2))[:25])
P1200 = graph_from_edge_list(1200, [(v, v + 1) for v in range(1, 1200)])
# 1 -> 2 -> ... -> 1200 plus the arc 1 -> 1200, every edge FORWARD
C1200 = Orientation(graph_from_edge_list(1200, P1200.edges + ((1, 1200),)), (FORWARD,) * 1200)


# at least one case per row of the README's "Size caps" table
@pytest.mark.parametrize("call", [
    pytest.param(lambda: canonical_form(G9), id="canonical-form"),
    pytest.param(lambda: list(enumerate_graphs(9)), id="enumerate-graphs"),
    pytest.param(lambda: entropy_table(9), id="entropy-table"),
    pytest.param(lambda: decide(graph_from_edge_list(41, [])), id="orientation-search"),
    pytest.param(lambda: lemma1_propagate(G41, Orientation(G41, ())), id="four-cycle-propagation"),
    pytest.param(lambda: count_semi_transitive(M25), id="count"),
    pytest.param(lambda: count_semi_transitive_naive(M25), id="count-naive"),
    pytest.param(lambda: count_semi_transitive_naive(graph_from_edge_list(501, [(1, 2)])),
                 id="count-naive-vertices"),
    pytest.param(lambda: verify_certificate(N9M25, Decision(NON_REPRESENTABLE, None, SearchStats())),
                 id="refutation-recheck"),
    pytest.param(lambda: verify_certificate(graph_from_edge_list(501, []),
                                            Decision(NON_REPRESENTABLE, None, SearchStats())),
                 id="refutation-recheck-vertices"),
    pytest.param(lambda: find_k_uniform_word(graph_from_edge_list(11, []), 3), id="word-search"),
    pytest.param(lambda: find_proper_coloring(P1200, 2), id="proper-coloring"),
    pytest.param(lambda: are_isomorphic(P1200, P1200), id="isomorphism"),
    pytest.param(lambda: graph_of_word(word_from_letters(range(1, 1002))), id="graph-of-word"),
])
def test_every_size_cap_raises_too_large(call):
    with pytest.raises(errors.TooLargeError):
        call()


def test_shortcut_scan_has_no_size_cap():
    # the scan tests each arc's interval and recurses along no path: the
    # 1,199-arc path under the arc 1 -> 1200 is found, not refused
    c = find_shortcut(C1200)
    assert c.kind == "Shortcut" and (c.witness[0], c.witness[-1]) == (1, 1200)


# ---------------------------------------------------------------------------
# the records: plain classes that keep the value semantics, repr and field
# order they had as frozen dataclasses (SearchStats as a mutable one)

G3 = Graph(3, ((1, 2),))
FORM = CanonicalForm(3, 1)
ARC = Orientation(G3, (FORWARD,))
RECORDS = [
    (G3, "Graph(n=3, edges=((1, 2),))"),
    (VertexColoring((1, 2, 1)), "VertexColoring(color=(1, 2, 1))"),
    (FORM, "CanonicalForm(n=3, code=1)"),
    (GraphClass(FORM, 2, 3),
     "GraphClass(form=CanonicalForm(n=3, code=1), aut_size=2, labelled_size=3)"),
    (ARC, "Orientation(base=Graph(n=3, edges=((1, 2),)), dirs=(1,))"),
    (Conflict("Shortcut", (1, 2, 3, 1)), "Conflict(kind='Shortcut', witness=(1, 2, 3, 1))"),
    (SearchStats(1, 2, 3, 4, 0.5), "SearchStats(nodes=1, propagations=2, shortcut_checks=3, "
                                   "shortcut_conflicts=4, wall_time_s=0.5)"),
    (Decision("Representable", ARC, SearchStats()),
     "Decision(verdict='Representable', witness=Orientation(base=Graph(n=3, edges=((1, 2),)), "
     "dirs=(1,)), stats=SearchStats(nodes=0, propagations=0, shortcut_checks=0, "
     "shortcut_conflicts=0, wall_time_s=0.0))"),
    (SpeedRow(3, 4, 8, 1.0, ("3:1",)),
     "SpeedRow(n=3, a_n=4, b_n=8, entropy=1.0, nonrep_classes=('3:1',))"),
    (CheckResult("k4-words", True, "ok"), "CheckResult(name='k4-words', passed=True, detail='ok')"),
    (Word((1, 2, 1)), "Word(letters=(1, 2, 1))"),
    (WordSearchResult(Word((1,)), 1, 3),
     "WordSearchResult(word=Word(letters=(1,)), k_tried=1, nodes=3)"),
]


def _record(cls, values):
    """A record of cls with these field values, past its constructor's checks."""
    record = cls.__new__(cls)
    for name, value in zip(cls._fields, values):
        object.__setattr__(record, name, value)
    return record


def test_records_cover_every_record_class():
    def subclasses(cls):
        return {s for sub in cls.__subclasses__() for s in {sub} | subclasses(sub)}
    package = {cls for cls in subclasses(_Record) if cls.__module__.startswith("wordrep.")}
    assert {type(r) for r, _ in RECORDS} == package - {_Frozen}


@pytest.mark.parametrize("record, text", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_record_keeps_its_value_semantics(record, text):
    cls, values = type(record), tuple(getattr(record, name) for name in record._fields)
    # the repr fixes the field order, which _asdict and so --json keep
    assert repr(record) == text
    assert list(record._asdict().items()) == list(zip(cls._fields, values))
    # equal exactly when the class and the fields are equal
    twin = cls(*values)
    assert twin == record and not twin != record and twin is not record
    assert record != _record(type("Sub", (cls,), {}), values)
    assert record.__eq__(values) is NotImplemented and record != values
    for i in range(len(values)):
        assert record != _record(cls, values[:i] + (object(),) + values[i + 1:])
    if cls is SearchStats:
        with pytest.raises(TypeError):
            hash(record)
        # mutable, through object's own __setattr__, which the search's
        # counter writes take
        assert cls.__setattr__ is object.__setattr__
        return
    try:
        expected = hash(values)
    except TypeError:   # Decision holds an unhashable SearchStats
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected
    for name in cls._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert all(getattr(record, name) is value for name, value in zip(cls._fields, values))


PATH3 = Graph(3, ((1, 2), (2, 3)))


@pytest.mark.parametrize("make, items", [
    (lambda items: Graph(3, items), PATH3.edges),
    (lambda items: Orientation(PATH3, items), (FORWARD, BACKWARD)),
    (VertexColoring, (1, 2, 1)),
], ids=["Graph", "Orientation", "VertexColoring"])
def test_record_holds_its_sequence_as_a_tuple(make, items):
    # the sequence is read once, into a tuple, before it is validated: a
    # generator is not used up by the check, a list or an iterator gives
    # the record that the tuple gives, hash included, and a tuple is kept
    # as it is, with no copy
    record = make(items)
    assert record._values()[-1] is items
    for other in (make(list(items)), make(iter(items)), make(x for x in items)):
        assert type(other._values()[-1]) is tuple
        assert other == record and hash(other) == hash(record)
    for bad in (None, 5):
        with pytest.raises(errors.OutOfRangeError, match="must be iterable"):
            make(bad)


def test_builders_refuse_a_non_iterable_list():
    # the edge and arc lists are read as the records read their sequences,
    # and the letters by Word itself, so no builder lets a bare TypeError out
    with pytest.raises(errors.OutOfRangeError, match="^edges must be iterable, got 5$"):
        graph_from_edge_list(3, 5)
    with pytest.raises(errors.OutOfRangeError, match="^arcs must be iterable, got None$"):
        orientation_from_arcs(PATH3, None)
    with pytest.raises(errors.OutOfRangeError, match="^letters are positive integers"):
        word_from_letters(5)
