"""The top-level decision procedure and its certificates."""

import json
import time
from collections import Counter

import pytest

from wordrep import decision, orientations, verify
from wordrep.bundled import bundled_graph
from wordrep.census import census
from wordrep.decision import (
    NON_REPRESENTABLE,
    REPRESENTABLE,
    Decision,
    decide,
    verify_certificate,
)
from wordrep.errors import TooLargeError
from wordrep.graphs import delete_vertex, enumerate_graphs, graph_from_edge_list
from wordrep.orientations import (
    BACKWARD,
    FORWARD,
    SEARCH_MAX_N,
    Orientation,
    SearchStats,
    count_semi_transitive,
    find_semi_transitive,
    is_semi_transitive,
)

from helpers import run_cli


def complete(n):
    return graph_from_edge_list(
        n, [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)])


def _timed_decide(g):
    start = time.perf_counter()
    d = decide(g)
    return d, time.perf_counter() - start


def test_decide_examples():
    assert decide(bundled_graph("A")).verdict == NON_REPRESENTABLE
    assert decide(bundled_graph("K4")).verdict == REPRESENTABLE
    assert decide(bundled_graph("M")).verdict == REPRESENTABLE


def test_decide_witness_is_valid():
    for name in ("K4", "M", "C4", "C5", "petersen"):
        d = decide(bundled_graph(name))
        assert d.verdict == REPRESENTABLE
        assert d.witness is not None and is_semi_transitive(d.witness)


def test_complete_fast_path():
    for n in (1, 2, 5, 8):
        d = decide(complete(n))
        assert d.verdict == REPRESENTABLE
        assert d.witness.dirs == (FORWARD,) * len(complete(n).edges)
        assert is_semi_transitive(d.witness)
    # no special case: the search walks K20's 190 edges FORWARD and checks
    # one leaf (about 2 ms); a leaf scan over every path takes seconds
    d, seconds = min((_timed_decide(complete(20)) for _ in range(3)),
                     key=lambda r: r[1])
    assert d.witness.dirs == (FORWARD,) * 190 and seconds < 0.2


def test_near_complete_is_fast():
    # K16 minus the edge 1-2 is Representable after one leaf check, which
    # no longer enumerates the directed paths of the near-tournament
    g = graph_from_edge_list(
        16, [e for e in complete(16).edges if e != (1, 2)])
    d, seconds = min((_timed_decide(g) for _ in range(3)),
                     key=lambda r: r[1])
    assert d.verdict == REPRESENTABLE and d.stats.shortcut_checks == 1
    assert seconds < 0.1


def test_search_vertex_cap():
    # the search recurses once per branched edge: K40's 780 levels stay
    # under Python's default recursion limit of 1000
    assert SEARCH_MAX_N == 40
    assert decide(complete(40)).verdict == REPRESENTABLE
    with pytest.raises(TooLargeError):
        decide(complete(41))
    for n in (41, 99999999999):
        for search in (decide, find_semi_transitive, count_semi_transitive):
            with pytest.raises(TooLargeError):
                search(graph_from_edge_list(n, []))


def test_nonrep_stats_cover_search():
    d = decide(bundled_graph("A"))
    assert d.witness is None
    assert d.stats.nodes > 0
    assert d.stats.propagations > 0


def test_verify_certificate_positive():
    k4 = bundled_graph("K4")
    d = decide(k4)
    assert verify_certificate(k4, d)
    a = bundled_graph("A")
    assert verify_certificate(a, decide(a))


def test_verify_certificate_rejects_bad_witness():
    k4 = bundled_graph("K4")
    # cyclic triangle 1->2, 2->3, 3->1 inside an otherwise forward K4
    dirs = [FORWARD] * 6
    dirs[k4.edge_index[(1, 3)]] = BACKWARD
    bogus = Decision(REPRESENTABLE, Orientation(k4, tuple(dirs)), SearchStats())
    assert not verify_certificate(k4, bogus)
    missing = Decision(REPRESENTABLE, None, SearchStats())
    assert not verify_certificate(k4, missing)
    other_graph = Decision(REPRESENTABLE, decide(bundled_graph("C4")).witness,
                           SearchStats())
    assert not verify_certificate(k4, other_graph)


def test_verify_certificate_rejects_false_refutation():
    claim = Decision(NON_REPRESENTABLE, None, SearchStats())
    for g in (complete(6), complete(8), bundled_graph("M")):
        assert not verify_certificate(g, claim)


def test_verify_certificate_too_large():
    claim = Decision(NON_REPRESENTABLE, None, SearchStats())
    with pytest.raises(TooLargeError):
        verify_certificate(graph_from_edge_list(9, [(1, 2)]), claim)


def test_verify_certificate_confirms_every_n7_refutation():
    # the acyclic orientation walk has no edge cap: it also covers the six
    # refutations with 15 or 16 edges
    keys = set(census(7).nonrep_classes)
    graphs = [cls.graph for cls in enumerate_graphs(7) if cls.form.key in keys]
    assert len(graphs) == 26
    assert sum(len(g.edges) >= 15 for g in graphs) == 6
    for g in graphs:
        d = decide(g)
        assert d.verdict == NON_REPRESENTABLE
        assert verify_certificate(g, d)


def _sweeps_per_graph(monkeypatch):
    """Count acyclic_orientations calls per graph, under the names that
    verify_certificate and count_semi_transitive_naive look up."""
    calls = Counter()
    sweep = orientations.acyclic_orientations

    def counted(g):
        calls[g] += 1
        return sweep(g)

    monkeypatch.setattr(decision, "acyclic_orientations", counted)
    monkeypatch.setattr(orientations, "acyclic_orientations", counted)
    return calls


def test_verify_paper_sweeps_a_once(monkeypatch):
    # the refutation re-check is the naive count of A being 0, so
    # orientation-counts reuses it and A's 888 orientations are swept once
    calls = _sweeps_per_graph(monkeypatch)
    checks = verify.run_all_checks()
    assert all(c.passed for c in checks)
    assert calls[bundled_graph("A")] == 1


def test_verify_paper_counts_a_when_refutation_fails(monkeypatch):
    # with no confirmed refutation to reuse, A is counted for real
    calls = _sweeps_per_graph(monkeypatch)
    monkeypatch.setattr(verify, "verify_certificate", lambda g, d: False)
    checks = {c.name: c for c in verify.run_all_checks()}
    assert not checks["a-refutation"].passed
    assert checks["orientation-counts"].passed
    assert "A: fast=0 naive=0" in checks["orientation-counts"].detail
    assert calls[bundled_graph("A")] == 1


def test_hereditary_closure_n6():
    # every one-vertex deletion of a representable graph stays representable
    for n in range(2, 7):
        for cls in enumerate_graphs(n):
            if decide(cls.graph).verdict != REPRESENTABLE:
                continue
            for v in range(1, n + 1):
                sub = delete_vertex(cls.graph, v)
                assert decide(sub).verdict == REPRESENTABLE


def test_max_degree_three_always_representable():
    hits = 0
    for n in range(1, 8):
        for cls in enumerate_graphs(n):
            g = cls.graph
            if g.is_connected() and g.max_degree() <= 3:
                hits += 1
                assert decide(g).verdict == REPRESENTABLE
    assert hits > 100


def test_decision_json_shape(capsys):
    payload = json.loads(run_cli(capsys, "decide", "M", "--json")[1])
    assert set(payload) == {"verdict", "witness", "stats"}
    assert payload["verdict"] == REPRESENTABLE
    assert all(len(arc) == 2 for arc in payload["witness"])
    assert set(payload["stats"]) == {
        "nodes", "propagations", "shortcut_checks",
        "shortcut_conflicts", "wall_time_s"}
    json.dumps(payload)  # serializable
    neg = json.loads(run_cli(capsys, "decide", "A", "--json")[1])
    assert neg["witness"] is None


def test_decision_text(capsys):
    assert run_cli(capsys, "decide", "A")[1] == "NonRepresentable\n"
    text = run_cli(capsys, "decide", "K4")[1]
    assert text.startswith("Representable\n")
    assert "1 2 >" in text
