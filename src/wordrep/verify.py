"""Reference checks over the bundled artifacts: the known words, the
orientation counts, and the 7-vertex refutation with its forcing replay.
Everything here is deterministic, so two runs print identical bytes.
"""

from __future__ import annotations

from .bundled import bundled_graph, bundled_word
from .decision import NON_REPRESENTABLE, decide, verify_certificate
from .graphs import Graph, _Frozen, are_isomorphic
from .orientations import (
    Conflict,
    count_semi_transitive,
    count_semi_transitive_naive,
    lemma1_propagate,
    orientation_from_arcs,
)
from .words import Word, graph_of_word, parse_word, represents, uniformity

K4_WORDS = ("1234", "3142", "123412", "12341234", "432143214321")


class CheckResult(_Frozen):
    _fields = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)


def _check_m_word(m: Graph, w: Word) -> list[CheckResult]:
    out = [CheckResult("m-word-represents", represents(w, m),
                       "1213423 represents the triangle 2-3-4 plus pendant edge 1-2")]
    gw = graph_of_word(w)
    non_alt = tuple(
        (x, y)
        for x in range(1, 5) for y in range(x + 1, 5)
        if not gw.has_edge(x, y))
    out.append(CheckResult(
        "m-word-nonalternating-pairs",
        non_alt == ((1, 3), (1, 4)),
        f"non-alternating pairs {non_alt}, expected ((1, 3), (1, 4))"))
    return out


def _check_k4_words(k4: Graph) -> list[CheckResult]:
    bad = [s for s in K4_WORDS if not represents(parse_word(s), k4)]
    return [CheckResult(
        "k4-words", not bad,
        "all of " + ", ".join(K4_WORDS) + " represent K4" if not bad
        else "rejected: " + ", ".join(bad))]


def _check_petersen(petersen: Graph, w: Word) -> list[CheckResult]:
    out = [CheckResult(
        "petersen-word-uniform",
        len(w) == 30 and uniformity(w) == 3,
        f"30 letters, each of 1..10 exactly 3 times (got k={uniformity(w)})")]
    g = graph_of_word(w)
    out.append(CheckResult(
        "petersen-word-graph",
        are_isomorphic(g, petersen),
        "graph of the word is isomorphic to the Petersen graph"))
    return out


def _check_refutation(a: Graph) -> list[CheckResult]:
    d = decide(a)
    refuted = d.verdict == NON_REPRESENTABLE
    confirmed = refuted and verify_certificate(a, d)
    s = d.stats
    detail = (
        f"search nodes={s.nodes} propagations={s.propagations} "
        f"leaf_checks={s.shortcut_checks} leaf_conflicts={s.shortcut_conflicts}; "
        "re-check by the walk over acyclic orientations with the first edge "
        "FORWARD, cut at its first placed shortcut, "
        f"{'confirms' if confirmed else 'FAILED'}")
    return [CheckResult("a-refutation", refuted and confirmed, detail)]


def _check_max_degree(a: Graph) -> list[CheckResult]:
    """The paper's headline: A has max degree 4, so a graph of max degree
    4 need not be representable, where every graph of max degree 3 is.
    The row checks A's degrees only.  The census refutes one other class
    of max degree 4 at n = 7, 7:03ef71, with 13 edges; the row names it
    and the test that checks it."""
    return [CheckResult(
        "a-max-degree", a.max_degree() == 4,
        f"A has max degree {a.max_degree()}, degrees {a.degree_sequence()}; "
        "7:03ef71, the other refuted class of max degree 4 at n = 7, is "
        "checked by the census tests (test_refuted_classes_of_max_degree_4)")]


def _check_case_replay(a: Graph) -> list[CheckResult]:
    start = orientation_from_arcs(a, [(1, 2), (6, 1)])
    result = lemma1_propagate(a, start)
    if isinstance(result, Conflict):
        return [CheckResult("a-case-replay", False,
                            f"unexpected {result.kind} conflict {result.witness}")]
    forced = set(result.arcs()) - set(start.arcs())
    expected = {(5, 2), (6, 5)}
    return [CheckResult(
        "a-case-replay", forced == expected,
        f"assigning 1->2 and 6->1 forces {sorted(forced)}, expected [(5, 2), (6, 5)]")]


def _check_counts(graphs: dict[str, Graph], a_refuted: bool) -> list[CheckResult]:
    """Fast and naive orientation counts of K4, C4 and A, taken from
    graphs by name.  a_refuted: the a-refutation check passed, so
    verify_certificate has already run the walk the naive count runs on
    A, one block, semi_transitive_orientations of A, and it yielded
    nothing: that is the naive count of A being 0.  A is walked again
    only when the check did not pass."""
    got = {}
    ok = True
    for name, expected in (("K4", 24), ("C4", 6), ("A", 0)):
        g = graphs[name]
        fast = count_semi_transitive(g)
        naive = 0 if name == "A" and a_refuted else count_semi_transitive_naive(g)
        got[name] = (fast, naive)
        ok = ok and fast == naive == expected
    detail = ", ".join(
        f"{name}: fast={f} naive={nv}" for name, (f, nv) in got.items())
    return [CheckResult("orientation-counts", ok,
                        detail + " (expected 24, 6, 0)")]


def run_all_checks() -> list[CheckResult]:
    """Every check, in table order; each bundled file is read and parsed
    once per run."""
    graphs = {name: bundled_graph(name) for name in ("M", "K4", "C4", "A", "petersen")}
    checks: list[CheckResult] = []
    checks.extend(_check_m_word(graphs["M"], bundled_word("M")))
    checks.extend(_check_k4_words(graphs["K4"]))
    checks.extend(_check_petersen(graphs["petersen"], bundled_word("petersen")))
    refutation = _check_refutation(graphs["A"])
    checks.extend(refutation)
    checks.extend(_check_max_degree(graphs["A"]))
    checks.extend(_check_case_replay(graphs["A"]))
    checks.extend(_check_counts(graphs, refutation[0].passed))
    return checks
