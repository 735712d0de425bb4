"""Reference checks over the bundled artifacts: the known words, the
orientation counts, and the 7-vertex refutation with its forcing replay.
Everything here is deterministic, so two runs print identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bundled import bundled_graph, bundled_word
from .decision import NON_REPRESENTABLE, decide, verify_certificate
from .graphs import are_isomorphic
from .orientations import (
    Conflict,
    count_semi_transitive,
    count_semi_transitive_naive,
    lemma1_propagate,
    orientation_from_arcs,
)
from .words import graph_of_word, parse_word, represents, uniformity

K4_WORDS = ("1234", "3142", "123412", "12341234", "432143214321")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_m_word() -> list[CheckResult]:
    m = bundled_graph("M")
    w = bundled_word("M")
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


def _check_k4_words() -> list[CheckResult]:
    k4 = bundled_graph("K4")
    bad = [s for s in K4_WORDS if not represents(parse_word(s), k4)]
    return [CheckResult(
        "k4-words", not bad,
        "all of " + ", ".join(K4_WORDS) + " represent K4" if not bad
        else "rejected: " + ", ".join(bad))]


def _check_petersen() -> list[CheckResult]:
    w = bundled_word("petersen")
    out = [CheckResult(
        "petersen-word-uniform",
        len(w) == 30 and uniformity(w) == 3,
        f"30 letters, each of 1..10 exactly 3 times (got k={uniformity(w)})")]
    g = graph_of_word(w)
    out.append(CheckResult(
        "petersen-word-graph",
        are_isomorphic(g, bundled_graph("petersen")),
        "graph of the word is isomorphic to the Petersen graph"))
    return out


def _check_refutation() -> list[CheckResult]:
    a = bundled_graph("A")
    d = decide(a)
    refuted = d.verdict == NON_REPRESENTABLE
    confirmed = refuted and verify_certificate(a, d)
    s = d.stats
    detail = (
        f"search nodes={s.nodes} propagations={s.propagations} "
        f"leaf_checks={s.shortcut_checks} leaf_conflicts={s.shortcut_conflicts}; "
        f"re-check over the orientations of all {a.n}! vertex orders "
        f"{'confirms' if confirmed else 'FAILED'}")
    return [CheckResult("a-refutation", refuted and confirmed, detail)]


def _check_case_replay() -> list[CheckResult]:
    a = bundled_graph("A")
    start = orientation_from_arcs(a, [(1, 2), (6, 1)])
    result = lemma1_propagate(a, start)
    if isinstance(result, Conflict):
        return [CheckResult("a-case-replay", False,
                            f"unexpected conflict on cycle {result.witness}")]
    forced = set(result.arcs()) - set(start.arcs())
    expected = {(5, 2), (6, 5)}
    return [CheckResult(
        "a-case-replay", forced == expected,
        f"assigning 1->2 and 6->1 forces {sorted(forced)}, expected [(5, 2), (6, 5)]")]


def _check_counts(a_refuted: bool) -> list[CheckResult]:
    """Fast and naive orientation counts of K4, C4 and A.  a_refuted: the
    a-refutation check passed, so verify_certificate has already swept A's
    acyclic orientations and found none semi-transitive, which is the
    naive count of A being 0; the sweep runs again only when it did not."""
    got = {}
    ok = True
    for name, expected in (("K4", 24), ("C4", 6), ("A", 0)):
        g = bundled_graph(name)
        fast = count_semi_transitive(g)
        naive = 0 if name == "A" and a_refuted else count_semi_transitive_naive(g)
        got[name] = (fast, naive)
        ok = ok and fast == naive == expected
    detail = ", ".join(
        f"{name}: fast={f} naive={nv}" for name, (f, nv) in got.items())
    return [CheckResult("orientation-counts", ok,
                        detail + " (expected 24, 6, 0)")]


def run_all_checks() -> list[CheckResult]:
    checks: list[CheckResult] = []
    checks.extend(_check_m_word())
    checks.extend(_check_k4_words())
    checks.extend(_check_petersen())
    refutation = _check_refutation()
    checks.extend(refutation)
    checks.extend(_check_case_replay())
    checks.extend(_check_counts(refutation[0].passed))
    return checks
