"""The top-level decision procedure and its certificates."""

import itertools
import json
import random
import time
from collections import Counter

import pytest

from wordrep import orientations, verify
from wordrep.bundled import bundled_graph
from wordrep.census import census
from wordrep.decision import (
    NON_REPRESENTABLE,
    REPRESENTABLE,
    Decision,
    decide,
    verify_certificate,
)
from wordrep.errors import OutOfRangeError, TooLargeError
from wordrep.graphs import delete_vertex, enumerate_graphs, graph_from_edge_list
from wordrep.orientations import (
    BACKWARD,
    FORWARD,
    SEARCH_MAX_N,
    Conflict,
    Orientation,
    SearchStats,
    count_semi_transitive,
    find_semi_transitive,
    is_semi_transitive,
    lemma1_propagate,
    semi_transitive_orientations,
)

from helpers import random_graph, run_cli


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
    # one guard, the search's own, for every entry point
    for n in (41, 99999999999):
        g = graph_from_edge_list(n, [])
        for search in (decide, find_semi_transitive, count_semi_transitive,
                       lambda g: lemma1_propagate(g, Orientation(g, ()))):
            with pytest.raises(TooLargeError, match=rf"^orientation search supports n <= 40, got {n}$"):
                search(g)


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


def test_verify_certificate_of_k20_is_fast():
    # the re-check tests each arc's interval once and enumerates no path:
    # well under a millisecond for K20's transitive witness, where walking
    # every directed path inside each interval took about a second
    g = complete(20)
    d = decide(g)
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        assert verify_certificate(g, d)
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 0.25


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


def test_edgeless_graphs_have_the_empty_witness():
    for n in (1, 3):
        g = graph_from_edge_list(n, [])
        d = decide(g)
        assert d.verdict == REPRESENTABLE and d.witness.dirs == ()
        assert verify_certificate(g, d)


def test_verify_certificate_rejects_false_refutation():
    # every class with n <= 5 is representable, so some orientation with
    # the first edge FORWARD passes; the five edgeless ones have no first
    # edge, and their one orientation must still be checked
    claim = Decision(NON_REPRESENTABLE, None, SearchStats())
    graphs = [cls.graph for n in range(1, 6) for cls in enumerate_graphs(n)]
    assert sum(not g.edges for g in graphs) == 5
    for g in graphs + [complete(6), complete(8), bundled_graph("M")]:
        assert not verify_certificate(g, claim)


def test_verify_certificate_checks_half_of_a(monkeypatch):
    # reversing every arc keeps semi-transitivity, so the refutation
    # re-check walks only the orientations with the first edge FORWARD,
    # and cuts each branch at its first placed shortcut: 219 nodes, where
    # generate-and-test tests 444 orientations
    nodes = []
    walk = orientations._walk

    def counted(g, i, *state):   # state: out, desc, anc, dirs
        nodes.append(state[-1])
        return walk(g, i, *state)

    monkeypatch.setattr(orientations, "_walk", counted)
    a = bundled_graph("A")
    assert verify_certificate(a, decide(a))
    assert len(nodes) == 219
    assert nodes[0] == () and all(dirs[0] == FORWARD for dirs in nodes[1:])


def test_verify_certificate_rejects_unknown_verdict():
    # only the two verdicts decide emits are certified; any other one, a
    # misspelt verdict or None, is not read as a refutation of A
    a = bundled_graph("A")
    for verdict in ("representable", "nonrepresentable", None, ""):
        with pytest.raises(OutOfRangeError, match=f"^verdict {verdict!r} is neither "):
            verify_certificate(a, Decision(verdict, None, SearchStats()))


def test_verify_certificate_too_large():
    claim = Decision(NON_REPRESENTABLE, None, SearchStats())
    with pytest.raises(TooLargeError):
        verify_certificate(graph_from_edge_list(9, complete(9).edges[:25]), claim)


def test_refutation_recheck_past_eight_vertices():
    # past n = 8 the walk is capped by edges, as the counts are: it confirms
    # decide's refutations of the odd wheels W9 and W11, of A after a path
    # of 4 edges and of seeded graphs with n = 9..12 and at most 24 edges,
    # and it rejects a refutation of the representable Petersen graph
    claim = Decision(NON_REPRESENTABLE, None, SearchStats())

    def wheel(k):
        rim = [(v, v + 1) for v in range(2, k + 1)] + [(2, k + 1)]
        return graph_from_edge_list(k + 1, [(1, v) for v in range(2, k + 2)] + rim)

    a = bundled_graph("A")
    path_a = graph_from_edge_list(
        5 + a.n, [(v, v + 1) for v in range(1, 5)] + [(u + 5, v + 5) for u, v in a.edges])
    graphs = [wheel(9), wheel(11), path_a]
    rng = random.Random(912)
    for _ in range(80):
        n = rng.randint(9, 12)
        core = sorted(rng.sample(range(1, n + 1), rng.randint(6, 8)))
        pairs = list(itertools.combinations(core, 2))
        graphs.append(graph_from_edge_list(n, rng.sample(pairs, min(len(pairs), rng.randint(14, 20)))))
    refuted = [decide(g).verdict == NON_REPRESENTABLE for g in graphs]
    assert refuted[:3] == [True] * 3 and sum(refuted[3:]) == 7
    assert [verify_certificate(g, claim) for g in graphs] == refuted
    assert not verify_certificate(bundled_graph("petersen"), claim)
    # an 8-vertex graph with more than 24 edges is the complement of a
    # graph of at most 3 edges, which has two isolated vertices, so is one
    # of the 9 classes on 6 vertices padded to 8: decide finds each
    # complement representable, and the walk, which keeps every n <= 8 in
    # range, rejects a refutation of each
    small = [cls.graph for cls in enumerate_graphs(6) if len(cls.graph.edges) <= 3]
    assert len(small) == 9
    for h in small:
        g = graph_from_edge_list(8, [e for e in complete(8).edges if e not in h.edges])
        assert decide(g).verdict == REPRESENTABLE
        assert not verify_certificate(g, claim)


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


def test_refutation_recheck_agrees_with_decide():
    # a claimed refutation is confirmed exactly when the search refutes:
    # on every class with n <= 7 (the 27 refutations among them) and on
    # seeded random 8-vertex graphs of both verdicts.  Each witness is the
    # walk's first yield: the FORWARD-first search's witness is the
    # lexicographically least semi-transitive orientation, as is that yield
    claim = Decision(NON_REPRESENTABLE, None, SearchStats())
    graphs = [cls.graph for n in range(1, 8) for cls in enumerate_graphs(n)]
    assert len(graphs) == 1252
    rng = random.Random(25)
    graphs += [random_graph(rng, 8, rng.uniform(0.55, 0.85)) for _ in range(60)]
    verdicts = Counter()
    for g in graphs:
        d = decide(g)
        refuted = d.verdict == NON_REPRESENTABLE
        assert verify_certificate(g, claim) == refuted
        assert d.witness == next(semi_transitive_orientations(g), None)
        verdicts[g.n == 8, refuted] += 1
    assert verdicts[False, True] == 27
    assert verdicts[True, True] == 11 and verdicts[True, False] == 49


def _walks_per_graph(monkeypatch):
    """Count walks per graph at their root node, orientations._walk with
    no edge placed: semi_transitive_orientations, which verify_certificate
    runs, starts there, and so does count_semi_transitive_naive, which
    runs the same walk."""
    calls = Counter()
    walk = orientations._walk

    def counted(g, i, *rest):
        calls[g] += i == 0
        return walk(g, i, *rest)

    monkeypatch.setattr(orientations, "_walk", counted)
    return calls


def test_verify_paper_sweeps_a_once(monkeypatch):
    # the refutation re-check is the naive count of A being 0, the same
    # walk finding no survivor, so orientation-counts reuses it and A is
    # walked once
    calls = _walks_per_graph(monkeypatch)
    checks = verify.run_all_checks()
    assert all(c.passed for c in checks)
    assert calls[bundled_graph("A")] == 1


def test_verify_paper_counts_a_when_refutation_fails(monkeypatch):
    # with no confirmed refutation to reuse, A is counted for real
    calls = _walks_per_graph(monkeypatch)
    monkeypatch.setattr(verify, "verify_certificate", lambda g, d: False)
    checks = {c.name: c for c in verify.run_all_checks()}
    assert not checks["a-refutation"].passed
    assert checks["orientation-counts"].passed
    assert "A: fast=0 naive=0" in checks["orientation-counts"].detail
    assert calls[bundled_graph("A")] == 1


def test_verify_paper_fails_on_a_replay_conflict(monkeypatch, capsys):
    # a forcing conflict in the replay of A's case fails that row, and
    # verify-paper exits 1
    monkeypatch.setattr(verify, "lemma1_propagate",
                        lambda g, o: Conflict("Lemma1Cycle", (1, 2, 3, 4)))
    checks = {c.name: c for c in verify.run_all_checks()}
    replay = checks["a-case-replay"]
    assert not replay.passed
    assert replay.detail == "unexpected Lemma1Cycle conflict (1, 2, 3, 4)"
    code, out = run_cli(capsys, "verify-paper")
    assert code == 1 and "unexpected Lemma1Cycle conflict (1, 2, 3, 4)" in out


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
