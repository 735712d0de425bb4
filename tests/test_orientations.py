"""Acyclicity, shortcut detection, semi-transitivity, the four-cycle
forcing rule, the search, and the coloring construction."""

import collections
import itertools
import math
import random
import time

import numpy as np
import pytest

from wordrep.bundled import bundled_graph
from wordrep.census import census
from wordrep.errors import OutOfRangeError, TooLargeError
from wordrep.graphs import (
    VertexColoring,
    _edge_mask,
    _order_semi_transitive,
    enumerate_graphs,
    find_proper_coloring,
    graph_from_edge_list,
)
from wordrep.orientations import (
    BACKWARD,
    FORWARD,
    Conflict,
    Orientation,
    SEARCH_MAX_N,
    SearchStats,
    _blocks,
    _four_cycles,
    _Searcher,
    count_semi_transitive,
    count_semi_transitive_naive,
    find_semi_transitive,
    find_shortcut,
    format_orientation,
    is_semi_transitive,
    lemma1_propagate,
    orient_by_coloring,
    orientation_from_arcs,
    semi_transitive_orientations,
)

from helpers import (
    acyclic_orientations,
    all_graphs,
    arc_masks,
    enumerate_total_orientations,
    generate_and_test_count,
    random_graph,
    ref_blocks,
    ref_cycle_legs,
    ref_find_shortcut,
    ref_four_cycles,
    ref_is_acyclic,
    ref_is_semi_transitive,
    ref_propagate,
    total_orientations_as_arcs,
    unpacked_closure,
    vertex_order_orientations,
)

K4 = graph_from_edge_list(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
C4 = graph_from_edge_list(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
C5 = graph_from_edge_list(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
DIAMOND = graph_from_edge_list(4, [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])
K3 = graph_from_edge_list(3, [(1, 2), (1, 3), (2, 3)])


def increasing(g):
    return Orientation(g, (FORWARD,) * len(g.edges))


def test_partial_guards():
    partial = orientation_from_arcs(C4, [(1, 2)])
    with pytest.raises(OutOfRangeError, match=r"^operation needs a total orientation "
                                              r"\(3 edges unassigned\)$"):
        find_shortcut(partial)
    with pytest.raises(OutOfRangeError, match=r"^operation needs a total orientation "):
        is_semi_transitive(partial)
    with pytest.raises(OutOfRangeError, match=r"^1-3 is not an edge of the graph$"):
        orientation_from_arcs(C4, [(1, 3)])
    with pytest.raises(OutOfRangeError, match=r"^edge 1-2 given both directions$"):
        orientation_from_arcs(C4, [(1, 2), (2, 1)])
    with pytest.raises(OutOfRangeError, match=r"^edge 1-4 is unassigned$"):
        partial.arc(1)
    # an arc is read as graph_from_edge_list reads an edge: two endpoints,
    # each an integer by operator.index, so 1.0 is no vertex
    for arc, shown in ((("1", 2), r"\('1', 2\)"), (None, "None"), ((1,), r"\(1,\)"),
                       ((1, 2, 3), r"\(1, 2, 3\)"), ((1.0, 2), r"\(1\.0, 2\)")):
        with pytest.raises(OutOfRangeError, match=rf"^an arc is two integer endpoints, got {shown}$"):
            orientation_from_arcs(C4, [arc])
    assert orientation_from_arcs(C4, [(np.int64(2), 1)]).dirs == (BACKWARD, None, None, None)


def test_orientation_rejects_bogus_directions():
    # a direction other than FORWARD, BACKWARD or None would read as an arc
    # (anything but FORWARD reads as BACKWARD) and pass as total, so a
    # certificate carrying it could be accepted.  An array equal to 1
    # elementwise is unhashable, so it is no direction either.  A base that
    # is not a Graph has no edges for the directions to align with
    path = graph_from_edge_list(3, [(1, 2), (2, 3)])
    bogus = r"is not FORWARD \(1\), BACKWARD \(-1\) or None"
    for base, dirs, message in (
            (path, (7, 0), rf"direction 7 of edge 1-2 {bogus}"),
            (path, (FORWARD, 2), rf"direction 2 of edge 2-3 {bogus}"),
            (path, (None, "1"), rf"direction '1' of edge 2-3 {bogus}"),
            (path, (BACKWARD, [1]), rf"direction \[1\] of edge 2-3 {bogus}"),
            (path, (np.array([1]), FORWARD), rf"direction array\(\[1\]\) of edge 1-2 {bogus}"),
            (path, (FORWARD,), r"1 directions for 2 edges"),
            (None, (), r"base must be a Graph, got None"),
            ("abc", (), r"base must be a Graph, got 'abc'")):
        with pytest.raises(OutOfRangeError, match=rf"^{message}$"):
            Orientation(base, dirs)
    assert Orientation(path, (None, BACKWARD)).dirs == (None, BACKWARD)


def test_find_shortcut_c4():
    o = orientation_from_arcs(C4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    c = find_shortcut(o)
    assert c == Conflict("Shortcut", (1, 2, 3, 4))
    assert not is_semi_transitive(o)


def test_find_shortcut_none_cases():
    assert find_shortcut(increasing(K4)) is None
    for arcs in total_orientations_as_arcs(K3):
        o = orientation_from_arcs(K3, arcs)
        if ref_is_acyclic(3, arcs):
            assert find_shortcut(o) is None


def test_find_shortcut_rejects_cyclic():
    # stored order 1-2, 1-4, 2-3, 3-4: 4 reaches 1 only once 3->4 is placed
    cyclic = orientation_from_arcs(C4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    assert find_shortcut(cyclic) == Conflict("DirectedCycle", (3, 4))
    assert not is_semi_transitive(cyclic)


def test_c4_sixteen_orientations():
    # 16 total: 2 cyclic, 8 with three consecutive edges, 6 good
    verdicts = [is_semi_transitive(o) for o in enumerate_total_orientations(C4)]
    assert sum(verdicts) == 6
    for o in enumerate_total_orientations(C4):
        arcs = set(o.arcs())
        three_in_a_row = any(
            {(a, b), (b, c), (c, d)} <= arcs or {(d, c), (c, b), (b, a)} <= arcs
            for a, b, c, d in [(1, 2, 3, 4), (2, 3, 4, 1), (3, 4, 1, 2), (4, 1, 2, 3)])
        if three_in_a_row:
            assert not is_semi_transitive(o)


def test_against_reference_random():
    rng = random.Random(60902)
    for _ in range(250):
        g = random_graph(rng, rng.randint(2, 6))
        dirs = tuple(rng.choice((FORWARD, BACKWARD)) for _ in g.edges)
        o = Orientation(g, dirs)
        assert is_semi_transitive(o) == ref_is_semi_transitive(g, list(o.arcs()))


def test_reversal():
    assert is_semi_transitive(increasing(K4)) and \
        is_semi_transitive(Orientation(K4, (BACKWARD,) * 6))
    # the reversed 4-cycle is still a cycle
    cyclic = orientation_from_arcs(C4, [(2, 1), (3, 2), (4, 3), (1, 4)])
    assert not is_semi_transitive(cyclic)
    assert find_shortcut(cyclic) == Conflict("DirectedCycle", (4, 3))


def test_reversal_invariance_random():
    rng = random.Random(1203)
    for _ in range(1000):
        g = random_graph(rng, rng.randint(2, 7))
        o = Orientation(g, tuple(rng.choice((FORWARD, BACKWARD)) for _ in g.edges))
        reversed_o = Orientation(g, tuple(-d for d in o.dirs))
        assert is_semi_transitive(o) == is_semi_transitive(reversed_o)


def test_lemma1_replay_on_a():
    a = bundled_graph("A")
    start = orientation_from_arcs(a, [(1, 2), (6, 1)])
    result = lemma1_propagate(a, start)
    assert isinstance(result, Orientation)
    assert set(result.arcs()) - set(start.arcs()) == {(5, 2), (6, 5)}


def test_lemma1_trigger_conflict():
    o = orientation_from_arcs(C4, [(1, 2), (2, 3), (3, 4)])
    result = lemma1_propagate(C4, o)
    assert isinstance(result, Conflict) and result.kind == "Lemma1Cycle"
    assert result.witness == (1, 2, 3, 4)
    with pytest.raises(OutOfRangeError, match=r"^orientation does not belong to this graph$"):
        lemma1_propagate(K4, o)


def test_lemma1_empty_is_fixed_point():
    for g in (C4, K4):
        result = lemma1_propagate(g, Orientation(g, (None,) * len(g.edges)))
        assert isinstance(result, Orientation)
        assert result.dirs == (None,) * len(g.edges)
    # every 4-cycle of K4 has both chords, so even the run 1->2->3->4 of the
    # transitive tournament forces nothing
    o = orientation_from_arcs(K4, [(1, 2), (2, 3), (3, 4)])
    assert lemma1_propagate(K4, o) == o


def test_lemma1_keeps_unforced_edges_unassigned():
    # on C4 plus the pendant edge 4-5, 1->2 and 2->3 force 4->3 and 1->4;
    # the pendant edge is on no 4-cycle and stays None
    g = graph_from_edge_list(5, C4.edges + ((4, 5),))
    result = lemma1_propagate(g, orientation_from_arcs(g, [(1, 2), (2, 3)]))
    assert result.dirs == (FORWARD, FORWARD, FORWARD, BACKWARD, None)
    path = graph_from_edge_list(3, [(1, 2), (2, 3)])
    o = Orientation(path, (None, BACKWARD))
    assert lemma1_propagate(path, o) == o


def test_searches_build_no_edge_dict():
    # every search looks its edge ids up in a flat list (_edge_ids), so
    # none builds the graph's edge_index dict
    from wordrep.decision import decide
    from wordrep.wordsearch import find_word
    calls = (decide, count_semi_transitive, find_word,
             lambda g: lemma1_propagate(g, Orientation(g, (None,) * len(g.edges))))
    for call in calls:
        for source in (C4, DIAMOND, K4, bundled_graph("A")):
            if call is find_word and source.n > 4:
                continue   # A's refutation up to k = 3 is a slow word search
            g = graph_from_edge_list(source.n, source.edges)
            call(g)
            assert "adj" in vars(g) and "edge_index" not in vars(g)


def test_lemma1_forcing_on_c4():
    # arcs 1->2, 2->3 block both runs through them: 3->4 would finish
    # 1->2->3->4 and 4->1 would finish 4->1->2->3; one chord (the diamond's
    # 1-3) does not lift the rule
    for g in (C4, DIAMOND):
        o = orientation_from_arcs(g, [(1, 2), (2, 3)])
        result = lemma1_propagate(g, o)
        assert isinstance(result, Orientation)
        forced = set(result.arcs()) - {(1, 2), (2, 3)}
        assert forced == {(4, 3), (1, 4)}


def test_lemma1_statement_on_all_classes():
    # no semi-transitive orientation has a 4-cycle with at most one chord
    # carrying three consecutively oriented edges; as any three of its four
    # legs are consecutive, it has exactly two legs each way round
    from wordrep.graphs import enumerate_graphs
    for n in range(2, 6):
        for cls in enumerate_graphs(n):
            g = cls.graph
            cycles = [(a, b, c, d) for a, b, c, d in ref_four_cycles(g)
                      if not (g.has_edge(a, c) and g.has_edge(b, d))]
            if not cycles:
                continue
            for o in enumerate_total_orientations(g):
                if not is_semi_transitive(o):
                    continue
                arcs = set(o.arcs())
                for a, b, c, d in cycles:
                    ring = [(a, b), (b, c), (c, d), (d, a)]
                    for i in range(4):
                        run = [ring[i], ring[(i + 1) % 4], ring[(i + 2) % 4]]
                        assert not all(p in arcs for p in run)
                        assert not all((q, p) in arcs for p, q in run)
                    # the balanced form: exactly two legs each way round
                    assert sum(p in arcs for p in ring) == 2


def _ref_four_cycles(g):
    """The forcing rule's index rebuilt from the literal quadruple scan
    (helpers.ref_cycle_legs): the flat table, each cycle with the edge
    masks of its four legs and of the legs signed -1, and the cycle
    itself; and per edge the mask of the ids of the cycles that pass
    along it, read from their vertices."""
    entries = ref_cycle_legs(g)
    table = [(sum(2 ** e for e, _sign in legs),
              sum(2 ** e for e, sign in legs if sign == -1), cycle)
             for legs, cycle in entries]
    through = [0] * len(g.edges)
    for i, (_, (a, b, c, d)) in enumerate(entries):
        for x, y in ((a, b), (b, c), (c, d), (d, a)):
            through[g.edges.index((min(x, y), max(x, y)))] += 2 ** i
    return table, through


def test_four_cycles_match_quadruple_scan():
    # same cycles in the same order: a cycle's place in the table is its
    # id, the forcing rule reads the lowest dirty id first, and that order
    # fixes the search's propagations counter.  Each edge's mask names
    # exactly the cycles through the edge.
    from wordrep.graphs import enumerate_graphs
    rng = random.Random(1405)
    graphs = [g for n in range(1, 6) for g in all_graphs(n)]
    graphs += [cls.graph for n in range(1, 8) for cls in enumerate_graphs(n)]
    graphs += [random_graph(rng, rng.randint(6, 9), rng.choice((0.3, 0.5, 0.7, 0.9)))
               for _ in range(120)]
    graphs.append(bundled_graph("A"))
    for g in graphs:
        assert _four_cycles(g) == _ref_four_cycles(g)
    # 6 cycles of A, 4 edges each
    table, through = _four_cycles(bundled_graph("A"))
    assert len(table) == 6 and sum(m.bit_count() for m in through) == 24
    # every 4-cycle of K20 has both chords
    k20 = graph_from_edge_list(20, list(itertools.combinations(range(1, 21), 2)))
    assert _four_cycles(k20) == ([], [0] * 190)


def test_lemma1_witnesses_are_sparse_four_cycles():
    # on seeded random partial orientations, cyclic ones included, every
    # Lemma1Cycle names a 4-cycle of g with at most one chord, and every
    # DirectedCycle the arc of an edge of g
    rng = random.Random(7141)
    seen = collections.Counter()
    for _ in range(600):
        g = random_graph(rng, rng.randint(4, 8), rng.choice((0.4, 0.6, 0.8)))
        arcs = [(u, v) if rng.random() < 0.5 else (v, u)
                for u, v in g.edges if rng.random() < 0.5]
        result = lemma1_propagate(g, orientation_from_arcs(g, arcs))
        if isinstance(result, Orientation):
            continue
        seen[result.kind] += 1
        if result.kind == "DirectedCycle":
            assert len(result.witness) == 2 and g.has_edge(*result.witness)
            continue
        assert result.kind == "Lemma1Cycle"
        a, b, c, d = cycle = result.witness
        assert len(set(cycle)) == 4
        ring = [(a, b), (b, c), (c, d), (d, a)]
        assert all(g.has_edge(x, y) for x, y in ring)
        assert not (g.has_edge(a, c) and g.has_edge(b, d))
    assert seen["Lemma1Cycle"] > 50 and seen["DirectedCycle"] > 0


def test_lemma1_refuses_a_directed_cycle():
    # lemma1_propagate is the search's node step, closure included: a
    # forced arc whose head already reaches its tail ends the run.  Here
    # 2->5 and 5->6 go one way round the chordless 4-cycle 2-3-6-5, which
    # forces 2->3 and 3->6, and 3->6 would close 1->3->6->1
    g = graph_from_edge_list(6, [(1, 3), (1, 6), (2, 3), (2, 5), (3, 6), (4, 5), (5, 6)])
    start = orientation_from_arcs(g, [(1, 3), (6, 1), (2, 5), (5, 4), (5, 6)])
    assert lemma1_propagate(g, start) == Conflict("DirectedCycle", (3, 6))
    # an arc of the start itself: 1->2 and 3->1 placed, 2->3 is refused
    cyclic = orientation_from_arcs(K3, [(1, 2), (2, 3), (3, 1)])
    assert lemma1_propagate(K3, cyclic) == Conflict("DirectedCycle", (2, 3))


def test_lemma1_fixpoints_are_acyclic():
    # from seeded acyclic partial orientations (a random subset of the
    # arcs of a random vertex order), every fixpoint extends the start and
    # is acyclic, and every refusal names the forced arc of an edge of g
    # the start leaves free
    rng = random.Random(3206)
    kinds = collections.Counter()
    for _ in range(2000):
        g = random_graph(rng, rng.randint(4, 8), rng.choice((0.4, 0.6, 0.8)))
        rank = {v: i for i, v in enumerate(rng.sample(range(1, g.n + 1), g.n))}
        arcs = [(u, v) if rank[u] < rank[v] else (v, u)
                for u, v in g.edges if rng.random() < 0.5]
        result = lemma1_propagate(g, orientation_from_arcs(g, arcs))
        if isinstance(result, Orientation):
            kinds["fixpoint"] += 1
            assert set(arcs) <= set(result.arcs())
            assert ref_is_acyclic(g.n, result.arcs())
        else:
            kinds[result.kind] += 1
            if result.kind == "DirectedCycle":
                assert len(result.witness) == 2 and g.has_edge(*result.witness)
                assert not {result.witness, result.witness[::-1]} & set(arcs)
    assert len(kinds) == 3 and kinds["DirectedCycle"] > 10


@pytest.mark.slow
def test_mask_kernel_matches_leg_by_leg_reference():
    # the search's propagate, on edge masks, against the rule walked leg by
    # leg through a list (helpers.ref_propagate) on seeded partial
    # orientations, cyclic ones included: the same result (fixpoint,
    # conflict cycle or refused arc) and the same placements, both
    # refusing arcs that close a directed cycle and taking their pending
    # work lowest first: arcs by edge, dirty cycles by id, which is the
    # reference's lexicographic order.  A second batch of arcs lands on
    # the first one's fixpoint and may repeat arcs in force, which
    # propagate skips; the reference is handed them filtered out.
    rng = random.Random(1818)
    outcomes = collections.Counter()
    for _ in range(1000):
        g = random_graph(rng, rng.randint(4, 8), rng.choice((0.4, 0.6, 0.8)))
        m = len(g.edges)
        batches = [[(e, rng.choice((FORWARD, BACKWARD)))
                    for e in rng.sample(range(m), rng.randint(0, m // 2))]
                   for _ in range(2)]
        s = _Searcher(g, SearchStats())
        state = 0, 0, 0
        dirs = [None] * m
        trail = []

        def place(e, d):
            arcs = [g.edges[f] if dirs[f] == FORWARD else g.edges[f][::-1] for f in trail]
            arcs.append(g.edges[e] if d == FORWARD else g.edges[e][::-1])
            if not ref_is_acyclic(g.n, arcs):
                return False
            dirs[e] = d
            trail.append(e)
            return True

        for batch in batches:
            want = ref_propagate(g, dirs, [(e, d) for e, d in batch
                                           if dirs[e] != d], place)
            got, *state = s.propagate(*state, *arc_masks(batch))
            fwd, bwd, _ = state
            assert got == want
            assert fwd & bwd == 0 and s.dirs(fwd, bwd) == dirs
            assert (fwd | bwd).bit_count() == len(trail)
            outcomes[len(got or ())] += 1
            if got is not None:
                break
    # every outcome shows up: placed (0), refused arc (2), conflict cycle (4)
    assert min(outcomes.values()) > 20 and len(outcomes) == 3


def test_forcing_fixpoint_is_order_independent():
    # the rule's answer does not depend on the order its pending work is
    # taken in: on seeded batches the reference taking its arcs to place,
    # dirty cycles to read and forced legs in shuffled orders reaches a
    # fixpoint exactly when propagate does, and the same masks; a failure
    # may end on another cycle or a refusal
    rng = random.Random(3107)
    outcomes = collections.Counter()
    for _ in range(600):
        g = random_graph(rng, rng.randint(4, 8), rng.choice((0.4, 0.6, 0.8)))
        m = len(g.edges)
        batch = [(e, rng.choice((FORWARD, BACKWARD)))
                 for e in rng.sample(range(m), rng.randint(0, m // 2))]
        s = _Searcher(g)
        got, fwd, bwd, _ = s.propagate(0, 0, 0, *arc_masks(batch))
        outcomes[len(got or ())] += 1
        for _ in range(4):
            dirs = [None] * m

            def place(e, d):
                trial = dirs[:e] + [d] + dirs[e + 1:]
                arcs = [g.edges[f] if x == FORWARD else g.edges[f][::-1]
                        for f, x in enumerate(trial) if x is not None]
                if not ref_is_acyclic(g.n, arcs):
                    return False
                dirs[e] = d
                return True

            want = ref_propagate(g, dirs, batch, place, rng)
            assert (want is None) == (got is None)
            if got is None:
                assert dirs == s.dirs(fwd, bwd)
    # every outcome shows up: placed (0), refused arc (2), conflict cycle (4)
    assert min(outcomes.values()) > 20 and len(outcomes) == 3


def test_acyclic_orientations_are_the_acyclic_sweep():
    # the walk refuses only arcs that close a cycle and never dead-ends, so
    # it yields exactly the acyclic members of the 2^m sweep, once each and
    # in the same order
    from wordrep.graphs import enumerate_graphs
    graphs = [cls.graph for n in range(1, 6) for cls in enumerate_graphs(n)]
    for g in graphs + [bundled_graph("A")]:
        sweep = [o for o in enumerate_total_orientations(g)
                 if ref_is_acyclic(g.n, o.arcs())]
        assert list(acyclic_orientations(g)) == sweep
    assert len(sweep) == 888   # graph A


@pytest.mark.slow
def test_acyclic_orientations_match_the_vertex_orders():
    # the walk against the n! vertex orders, orientation for orientation
    # and in order: every class with n <= 6, the refuted classes at n = 7,
    # K8, seeded random graphs with n = 8 and an edgeless graph
    from wordrep.census import census
    from wordrep.graphs import enumerate_graphs
    graphs = [cls.graph for n in range(1, 7) for cls in enumerate_graphs(n)]
    assert len(graphs) == 208
    refuted = set(census(7).nonrep_classes)
    graphs += [cls.graph for cls in enumerate_graphs(7) if cls.form.key in refuted]
    assert len(graphs) == 208 + 26
    rng = random.Random(2108)
    graphs += [graph_from_edge_list(8, list(itertools.combinations(range(1, 9), 2))),
               graph_from_edge_list(8, [])]
    graphs += [random_graph(rng, 8, rng.uniform(0.2, 0.8)) for _ in range(20)]
    for g in graphs:
        assert list(acyclic_orientations(g)) == list(vertex_order_orientations(g))


def test_acyclic_orientations_too_large():
    with pytest.raises(TooLargeError):
        next(acyclic_orientations(graph_from_edge_list(9, [(1, 2)])))


@pytest.mark.slow
def test_walk_is_generate_and_test():
    # the walk cuts a branch at its first placed shortcut, so it yields
    # exactly the semi-transitive acyclic orientations with the first edge
    # FORWARD, in order, and the naive count is twice as many: every class
    # with n <= 6 and K4, C4, M and A against plain generate-and-test
    graphs = [cls.graph for n in range(1, 7) for cls in enumerate_graphs(n)]
    assert len(graphs) == 208
    counts = []
    for g in graphs + [K4, C4, bundled_graph("M"), bundled_graph("A")]:
        passing = [o for o in acyclic_orientations(g)
                   if o.dirs[:1] != (BACKWARD,) and is_semi_transitive(o)]
        assert list(semi_transitive_orientations(g)) == passing
        counts.append(count_semi_transitive_naive(g))
        assert counts[-1] == generate_and_test_count(g)
    assert sum(counts[:208]) == 7292 and counts[208:] == [24, 6, 12, 0]
    with pytest.raises(TooLargeError):
        next(semi_transitive_orientations(
            graph_from_edge_list(9, list(itertools.combinations(range(1, 10), 2))[:25])))


def test_lemma1_soundness_random():
    # forcings derived from a subset of a true solution never contradict it
    rng = random.Random(8080)
    for _ in range(25):
        g = random_graph(rng, rng.randint(4, 6))
        solutions = [o for o in enumerate_total_orientations(g)
                     if is_semi_transitive(o)]
        for o in rng.sample(solutions, min(8, len(solutions))):
            arcs = list(o.arcs())
            for _ in range(5):
                subset = rng.sample(arcs, rng.randint(0, len(arcs)))
                result = lemma1_propagate(g, orientation_from_arcs(g, subset))
                assert isinstance(result, Orientation)
                assert set(result.arcs()) <= set(arcs)


def test_find_semi_transitive_examples():
    a = bundled_graph("A")
    assert find_semi_transitive(a) is None
    o = find_semi_transitive(K4)
    assert list(o.arcs()) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    o5 = find_semi_transitive(C5)
    assert o5 is not None and is_semi_transitive(o5)


def test_find_semi_transitive_deterministic():
    for g in (K4, C4, C5, bundled_graph("M")):
        first = find_semi_transitive(g)
        second = find_semi_transitive(g)
        assert first == second


def test_count_examples():
    assert count_semi_transitive(K4) == 24
    assert count_semi_transitive(C4) == 6
    assert count_semi_transitive(bundled_graph("A")) == 0
    # C_n, n >= 4: all 2^n orientations but the two directed cycles and
    # the 2n with n - 1 arcs one way round, whose odd arc is a shortcut
    for n in range(4, 13):
        cycle = graph_from_edge_list(n, [(v, v % n + 1) for v in range(1, n + 1)])
        assert count_semi_transitive(cycle) == count_semi_transitive_naive(cycle) == 2 ** n - 2 * n - 2


def test_count_matches_naive_bit_for_bit():
    for g in (K4, C4, C5, K3, bundled_graph("M"), bundled_graph("A")):
        assert count_semi_transitive(g) == count_semi_transitive_naive(g)


def _disjoint_union(*graphs):
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges]
        offset += g.n
    return graph_from_edge_list(offset, edges)


def test_components_are_searched_in_turn():
    # A after a 33-vertex path: A is refuted once, not once for every
    # orientation of the path (about 7 * 10^10 nodes in one search)
    path = graph_from_edge_list(33, [(v, v + 1) for v in range(1, 33)])
    g = _disjoint_union(path, bundled_graph("A"))
    assert g.n == SEARCH_MAX_N
    stats = SearchStats()
    start = time.perf_counter()
    assert find_semi_transitive(g, stats) is None
    assert time.perf_counter() - start < 1.0
    # the path's 32 arcs and its leaf, then A's 17 nodes
    assert stats.nodes == 33 + 17
    # a path of 6 edges stored first and glued at its end to A's vertex 1
    # (then 7) is one component: A is refuted below each of its 2^6
    # orientations, in 17 (then 11) nodes each
    a = bundled_graph("A")
    for at, per_leaf in ((1, 17), (7, 11)):
        label = dict(zip([at] + [v for v in a.vertices() if v != at], range(7, 14)))
        glued = graph_from_edge_list(13, [(v, v + 1) for v in range(1, 7)] +
                                     [(label[u], label[v]) for u, v in a.edges])
        stats = SearchStats()
        assert find_semi_transitive(glued, stats) is None
        assert stats.nodes == per_leaf * 2 ** 6
    assert count_semi_transitive(_disjoint_union(C4, C4, K3)) == 6 * 6 * 6 == 216


def test_every_part_starts_from_the_empty_state(monkeypatch):
    # find and count root every part's search at (0, 0, 0), whatever the
    # parts before it left; only finding records a leaf, ORed into found
    from wordrep.orientations import _search
    parts = (bundled_graph("M"), C5, K4)
    g = _disjoint_union(*parts)
    total = math.prod(map(count_semi_transitive_naive, parts))
    roots, depth = [], [0]
    branch = _Searcher.branch

    def spy(self, part, first_only, *state):
        if not depth[0]:
            roots.append((first_only, state))
        depth[0] += 1
        try:
            return branch(self, part, first_only, *state)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(_Searcher, "branch", spy)
    o = find_semi_transitive(g)
    assert o is not None and is_semi_transitive(o)
    assert len(o.dirs) == len(g.edges) and None not in o.dirs
    assert roots == [(True, (0, 0, 0))] * 3
    roots.clear()
    count, searcher = _search(g, None, False)
    assert count == total
    assert roots == [(False, (0, 0, 0))] * len(_blocks(g)) and len(roots) > 3
    assert searcher.found == (0, 0)


def test_blocks_match_the_cycle_definition():
    # seeded graphs with n <= 7, isolated vertices included: one block per
    # class of edges on a common simple cycle, each bridge alone
    rng = random.Random(15)
    graphs = [random_graph(rng, rng.randint(1, 7), rng.choice((0.2, 0.35, 0.5, 0.7)))
              for _ in range(300)]
    assert sum(len(g.edges) == 0 for g in graphs) > 5
    assert sum(len(_blocks(g)) > 1 for g in graphs) > 80
    for g in graphs + [bundled_graph("A"), K4]:
        assert _blocks(g) == [sum(1 << e for e in block) for block in ref_blocks(g)]


BOWTIE = graph_from_edge_list(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
TREE = graph_from_edge_list(8, [(1, 2), (1, 3), (1, 4), (2, 5), (5, 6), (5, 7), (7, 8)])


def _with_pendant(g):
    return graph_from_edge_list(g.n + 1, list(g.edges) + [(g.n, g.n + 1)])


@pytest.mark.parametrize("g, count", [
    (BOWTIE, 6 * 6),
    (TREE, 2 ** 7),
    (_with_pendant(K4), 24 * 2),
    (_with_pendant(bundled_graph("A")), 0),
    (graph_from_edge_list(1, []), 1),
    (graph_from_edge_list(5, []), 1),
])
def test_count_is_a_product_over_blocks(g, count):
    assert count_semi_transitive(g) == count_semi_transitive_naive(g) == count


def test_naive_count_past_eight_vertices():
    # the naive count is capped by edges, as the fast one is, not by n: it
    # re-checks the 1,320 that count-orientations prints
    # for Petersen, and seeded graphs with n = 9..12 and m <= 16, their
    # edges among 6..n of the vertices, refuted ones included
    petersen = bundled_graph("petersen")
    assert count_semi_transitive_naive(petersen) == count_semi_transitive(petersen) == 1320
    rng = random.Random(913)
    zeros = 0
    for _ in range(40):
        n = rng.randint(9, 12)
        core = rng.sample(range(1, n + 1), rng.randint(6, n))
        pairs = list(itertools.combinations(sorted(core), 2))
        g = graph_from_edge_list(n, rng.sample(pairs, min(len(pairs), rng.randint(10, 16))))
        count = count_semi_transitive(g)
        assert count_semi_transitive_naive(g) == count
        zeros += count == 0
    assert zeros == 3


def test_naive_count_past_twelve_vertices():
    # seeded graphs with n = 13..25 and m <= 24, their edges among 8..10
    # of the vertices so that each walk stays small: the naive count
    # agrees with the counter, refuted graphs included
    rng = random.Random(1325)
    zeros = 0
    for _ in range(20):
        n = rng.randint(13, 25)
        core = rng.sample(range(1, n + 1), rng.randint(8, 10))
        pairs = list(itertools.combinations(sorted(core), 2))
        g = graph_from_edge_list(n, rng.sample(pairs, rng.randint(18, 24)))
        count = count_semi_transitive(g)
        assert count_semi_transitive_naive(g) == count
        zeros += count == 0
    assert zeros == 5


def test_two_to_the_blocks_divides_every_count():
    # reversing one block of a semi-transitive orientation keeps it so
    rng = random.Random(16)
    for _ in range(150):
        g = random_graph(rng, rng.randint(2, 8), rng.choice((0.25, 0.4, 0.55)))
        if len(g.edges) <= 24:
            count = count_semi_transitive(g)
            assert count % 2 ** len(_blocks(g)) == 0
            if g.n <= 6:
                assert count == count_semi_transitive_naive(g)


def test_count_walks_each_block_once():
    # P_25, at the edge cap: 24 one-edge blocks of 2 nodes each, where one
    # tree over all the edges takes about 2^25 nodes; the naive count
    # walks each block on its own too, where one walk over all the edges
    # passed 2^23 leaves (about 77 s)
    path = graph_from_edge_list(25, [(v, v + 1) for v in range(1, 25)])
    assert len(path.edges) == 24
    stats = SearchStats()
    start = time.perf_counter()
    assert count_semi_transitive(path, stats) == 2 ** 24
    assert time.perf_counter() - start < 0.5
    assert stats.nodes <= 48
    start = time.perf_counter()
    assert count_semi_transitive_naive(path) == 2 ** 24
    assert time.perf_counter() - start < 1.0
    # a 12-edge path whose end is A's vertex 1: 12 bridges, then A's 17
    # nodes once, not once per orientation of the path (139,263 nodes)
    a = bundled_graph("A")
    g = graph_from_edge_list(12 + a.n, [(v, v + 1) for v in range(1, 13)]
                             + [(u + 12, v + 12) for u, v in a.edges])
    stats = SearchStats()
    assert count_semi_transitive(g, stats) == 0
    assert stats.nodes <= 48


def test_witness_is_lex_least_on_disjoint_unions():
    # the first semi-transitive orientation in the acyclic walk's
    # lexicographic order (FORWARD < BACKWARD) is the search's witness,
    # and the count is the number of semi-transitive acyclic orientations
    rng = random.Random(44)
    for _ in range(30):
        n1 = rng.randint(2, 6)
        g = _disjoint_union(random_graph(rng, n1, 0.7), random_graph(rng, rng.randint(2, 8 - n1), 0.7))
        valid = [o for o in acyclic_orientations(g) if is_semi_transitive(o)]
        assert find_semi_transitive(g) == (valid[0] if valid else None)
        assert count_semi_transitive(g) == len(valid)


def test_count_too_many_edges():
    # the cap bounds the largest block: K8 is one block of 28 edges
    big = graph_from_edge_list(
        8, [(u, v) for u in range(1, 8) for v in range(u + 1, 9)])
    assert len(big.edges) == 28
    message = r"^exact counting capped at 24 edges a block, got a block of 28$"
    with pytest.raises(TooLargeError, match=message):
        count_semi_transitive(big)
    with pytest.raises(TooLargeError, match=message):
        count_semi_transitive_naive(big)
    # every block is checked before the first is searched: three bridges,
    # the first blocks by lowest edge, then that K8 on 4..11
    tail = graph_from_edge_list(11, [(1, 2), (2, 3), (3, 4)] + [
        (u + 3, v + 3) for u, v in big.edges])
    stats = SearchStats()
    with pytest.raises(TooLargeError, match=message):
        count_semi_transitive(tail, stats)
    assert stats.nodes == 0


def test_search_count_consistency_all_n5():
    from wordrep.graphs import enumerate_graphs
    for n in range(1, 6):
        for cls in enumerate_graphs(n):
            found = find_semi_transitive(cls.graph) is not None
            assert found == (count_semi_transitive(cls.graph) > 0)


def test_propagation_is_pure_pruning():
    # propagation-enabled counts equal plain enumeration on every graph
    from wordrep.graphs import enumerate_graphs
    for n in range(2, 6):
        for cls in enumerate_graphs(n):
            assert count_semi_transitive(cls.graph) == \
                count_semi_transitive_naive(cls.graph)


def test_search_stats_populated():
    stats = SearchStats()
    assert find_semi_transitive(bundled_graph("A"), stats) is None
    assert stats.nodes > 0 and stats.propagations > 0
    assert stats.wall_time_s > 0


def test_search_counters_locked():
    # (nodes, propagations, leaf checks, leaf conflicts) of fixed runs, so a
    # refactor cannot silently change the search tree
    def counters(s):
        return (s.nodes, s.propagations, s.shortcut_checks, s.shortcut_conflicts)

    from wordrep.decision import decide
    from wordrep.graphs import enumerate_graphs
    assert counters(decide(bundled_graph("A")).stats) == (17, 70, 0, 0)
    stats = SearchStats()
    total = sum(count_semi_transitive(cls.graph, stats) for cls in enumerate_graphs(6))
    # searching the components in turn moved these from (17574, 5844,
    # 6643, 110): a disconnected graph's tree is a sum over components,
    # not a product.  Checking each 4-cycle once by its balance, not each
    # of its triples, queues forced legs in another order, so failing
    # branches reach their conflict after other numbers of placements:
    # propagations 5828 -> 5816 here and 5249 -> 5271 below.  Counting
    # block by block, each from its root edge FORWARD only (the BACKWARD
    # half is the reversals, and blocks multiply), moved them from
    # (17288, 5816, 6533, 110).  Placing each forced leg at once, before
    # the next cycle is read, moved propagations from 71 (A), 2475 and
    # 5271 below: a failing branch places another number of arcs before
    # its conflict, and every other counter stays.  Reading the lowest
    # dirty cycle next, from a mask of cycle ids, instead of the cycles of
    # the lowest unread edge, moved propagations from 66 (A) and 5349
    # below, for the same reason; 2487 here did not move
    assert (total, counters(stats)) == (6533, (6400, 2487, 2331, 50))
    runs = [(len(cls.graph.edges) == 21, decide(cls.graph))
            for cls in enumerate_graphs(7)]
    assert sum(d.witness is None for _, d in runs) == 26
    # one more node and leaf check for each further component with an edge
    # (from 8936 and 1017).  decide runs the neighbourhood test at its
    # first failure, and the 20 refutations it flags stop there: nodes and
    # propagations moved from 8987 and 5372; no representable class here
    # fails before its witness, and no refutation fails first at a leaf
    assert tuple(map(sum, zip(*(counters(d.stats) for k7, d in runs if not k7)))) == \
        (8843, 3772, 1068, 0)
    # K7 is searched like any graph: its 21 edges FORWARD, one leaf
    assert [counters(d.stats) for k7, d in runs if k7] == [(22, 0, 1, 0)]


# ---------------------------------------------------------------------------
# the search's reachability closure and its leaf test

def _leaf_test(o):
    """The search's leaf verdict on the total acyclic orientation o, read
    through branch on the full edge mask, where no edge is free: every
    arc is placed before the forcing rule runs, so the closure is whole
    even when the rule finds a conflict."""
    s = _Searcher(o.base)
    _, fwd, bwd, c = s.propagate(0, 0, 0, *arc_masks(enumerate(o.dirs)))
    assert s.dirs(fwd, bwd) == list(o.dirs)
    return s.branch((1 << len(o.dirs)) - 1, True, fwd, bwd, c) == 1


def _ref_closure(n, arcs):
    """Strict descendants of each vertex as bitmasks, by depth-first
    search over a set of arcs."""
    succ = {v: [h for t, h in arcs if t == v] for v in range(1, n + 1)}
    desc = [0] * (n + 1)
    for v in range(1, n + 1):
        seen, stack = set(), list(succ[v])
        while stack:
            w = stack.pop()
            if w not in seen:
                seen.add(w)
                stack.extend(succ[w])
        desc[v] = sum(1 << w for w in seen)
    return desc


@pytest.mark.slow
def test_leaf_test_is_semi_transitivity():
    # the closure's interval test against the literal path scan: every
    # acyclic orientation of every class with n <= 6 and of graph A, and
    # seeded vertex-order orientations of random graphs with n = 7..9
    from wordrep.graphs import enumerate_graphs
    small = [o for n in range(1, 7) for cls in enumerate_graphs(n)
             for o in acyclic_orientations(cls.graph)]
    assert len(small) == 21188
    rng = random.Random(4242)
    ordered = []
    for _ in range(600):
        g = random_graph(rng, rng.randint(7, 9))
        pos = rng.sample(range(g.n), g.n)
        ordered.append(Orientation(g, tuple(
            FORWARD if pos[u - 1] < pos[v - 1] else BACKWARD for u, v in g.edges)))
    passed = []
    for group in (small, list(acyclic_orientations(bundled_graph("A"))), ordered):
        verdicts = [_leaf_test(o) for o in group]
        assert verdicts == [find_shortcut(o) is None for o in group]
        passed.append(sum(verdicts))
    # 7292 semi-transitive orientations over the n <= 6 classes, none of A
    assert passed[:2] == [7292, 0] and 0 < passed[2] < len(ordered)


def test_vertex_order_test_is_the_first_witness():
    # the vertex order 1..n orients every edge FORWARD: its literal path
    # scan passes exactly when decide's witness is all FORWARD, and then
    # the census's test of the orders that keep 1..4 first passes too, on
    # every class with n <= 7 and on seeded random graphs with n = 8, the
    # widest codes the census's tables hold
    from wordrep.decision import decide
    rng = random.Random(1606)
    graphs = [cls.graph for n in range(1, 8) for cls in enumerate_graphs(n)]
    graphs += [random_graph(rng, 8, rng.choice((0.2, 0.35, 0.5, 0.7))) for _ in range(500)]
    passed = 0
    for g in graphs:
        first = is_semi_transitive(increasing(g))
        witness = decide(g).witness
        assert first == (witness is not None and witness.dirs == increasing(g).dirs)
        [ok] = _order_semi_transitive(g.n, [_edge_mask(g)])
        assert ok or not first
        passed += first
    # 866 of the classes pass, and some but not all random graphs
    assert 866 < passed < len(graphs)


def test_interval_test_at_the_widest_packing():
    # n = SEARCH_MAX_N packs the closure in rows of w = 41 bits.  K40 is
    # searched with its 780 edges FORWARD and one leaf; K40 - {1,40} is a
    # transitive tournament less one arc, and K40 - {2,39} is not
    # semi-transitive in vertex order: 1->40 has the non-adjacent pair
    # 2 ~> 39 in its interval
    from wordrep.decision import decide
    k40 = graph_from_edge_list(40, list(itertools.combinations(range(1, 41), 2)))
    stats = decide(k40).stats
    assert (stats.nodes, stats.propagations, stats.shortcut_checks,
            stats.shortcut_conflicts) == (781, 0, 1, 0)
    less = {e: graph_from_edge_list(40, [f for f in k40.edges if f != e])
            for e in ((1, 40), (2, 39))}
    assert _leaf_test(increasing(less[1, 40])) and not _leaf_test(increasing(less[2, 39]))
    # sparse random graphs with n = 30..40 in seeded vertex orders, against
    # the literal path scan
    rng = random.Random(4040)
    passed = 0
    for _ in range(60):
        g = random_graph(rng, rng.randint(30, 40), rng.choice((0.05, 0.08, 0.1)))
        pos = rng.sample(range(g.n), g.n)
        o = Orientation(g, tuple(
            FORWARD if pos[u - 1] < pos[v - 1] else BACKWARD for u, v in g.edges))
        ok = _leaf_test(o)
        assert ok == (find_shortcut(o) is None)
        passed += ok
    assert 0 < passed < 60


def test_packed_rows_are_built_at_the_first_leaf(monkeypatch):
    # the leaf test's packed adjacency rows are built once per searcher, at
    # its first leaf: a refutation with no leaf and the word search, which
    # never reaches one, never build them
    from wordrep import orientations
    from wordrep.decision import decide
    from wordrep.wordsearch import find_word
    builds = []
    packed_rows = orientations._packed_rows
    monkeypatch.setattr(orientations, "_packed_rows",
                        lambda g, w: builds.append(g) or packed_rows(g, w))
    assert decide(bundled_graph("A")).stats.shortcut_checks == 0
    for name in ("A", "M", "K4", "C5"):
        find_word(bundled_graph(name), 3)
    assert builds == []
    stats = SearchStats()
    assert count_semi_transitive(C4, stats) == 6
    assert stats.shortcut_checks > 1 and builds == [C4]


def _placed_arcs(g, fwd, bwd):
    """The arcs two edge masks of the search hold, in stored edge order."""
    return [(u, v) if fwd >> e & 1 else (v, u)
            for e, (u, v) in enumerate(g.edges) if (fwd | bwd) >> e & 1]


@pytest.mark.slow
def test_searcher_closure_invariant():
    # seeded walks over a stack of search states: in every state no edge
    # is placed both ways, the dirs view reads the placed arcs, the
    # closure is the transitive closure of the placed arcs, an arc
    # propagated from it is refused exactly when it would close a directed
    # cycle, and propagate leaves the searcher as it was
    rng = random.Random(99)
    refusals = 0

    def check(s, state):
        nonlocal refusals
        g = s.g
        fwd, bwd, c = state
        assert fwd & bwd == 0
        arcs = _placed_arcs(g, fwd, bwd)
        dirs = s.dirs(fwd, bwd)
        assert [(u, v) if d == FORWARD else (v, u)
                for (u, v), d in zip(g.edges, dirs) if d is not None] == arcs
        desc = _ref_closure(g.n, arcs)
        assert unpacked_closure(s, c) == desc
        before = dict(vars(s))
        for e, d in itertools.product(range(len(g.edges)), (FORWARD, BACKWARD)):
            if dirs[e] is not None:
                continue
            u, v = g.edges[e]
            arc = (u, v) if d == FORWARD else (v, u)
            _, f, b, cc = s.propagate(fwd, bwd, c, *arc_masks([(e, d)]))
            # the arc is placed before the rule runs, so it is in the masks
            # unless refused, whatever the rule found after it
            placed = s.dirs(f, b)[e] == d
            assert placed == ref_is_acyclic(g.n, arcs + [arc])
            assert unpacked_closure(s, cc) == _ref_closure(g.n, _placed_arcs(g, f, b))
            refusals += not placed
            assert vars(s) == before

    for _ in range(40):
        s = _Searcher(random_graph(rng, rng.randint(2, 8), 0.6), SearchStats())
        stack = [(0, 0, 0)]   # the root, then one state per propagate kept
        for _ in range(40):
            free = [e for e, d in enumerate(s.dirs(*stack[-1][:2])) if d is None]
            if free and (len(stack) == 1 or rng.random() < 0.7):
                outcome, *state = s.propagate(*stack[-1], *arc_masks(
                    [(rng.choice(free), rng.choice((FORWARD, BACKWARD)))]))
                check(s, state)
                if outcome is None:
                    stack.append(tuple(state))
            elif len(stack) > 1:
                del stack[1 + rng.randrange(len(stack) - 1):]
            check(s, stack[-1])
    assert refusals > 100


def test_propagate_is_a_function_of_its_state():
    # the search hands one state to each child in turn: propagating the
    # same arcs from the same state twice gives the same 4-tuple, right
    # after a sibling propagate that was refused or hit a conflict too
    rng = random.Random(2323)
    siblings = collections.Counter()
    for _ in range(800):
        g = random_graph(rng, rng.randint(4, 8), rng.choice((0.4, 0.6, 0.8)))
        s = _Searcher(g, SearchStats())
        m = len(g.edges)
        if m < 3:
            continue

        def arcs():
            return arc_masks([(e, rng.choice((FORWARD, BACKWARD)))
                              for e in rng.sample(range(m), rng.randint(1, m // 3))])

        outcome, *state = s.propagate(0, 0, 0, *arcs())
        if outcome is not None:
            continue
        batch = arcs()
        first = s.propagate(*state, *batch)
        sibling = s.propagate(*state, *arcs())
        assert s.propagate(*state, *batch) == first
        siblings[len(sibling[0] or ())] += 1
    # placed (0), refused arc (2) and conflict cycle (4) siblings all show up
    assert min(siblings.values()) > 20 and len(siblings) == 3


def test_orient_by_coloring_triangle():
    o = orient_by_coloring(K3, VertexColoring((1, 2, 3)))
    assert list(o.arcs()) == [(1, 2), (1, 3), (2, 3)]
    assert is_semi_transitive(o)


def test_orient_by_coloring_bipartite_c4():
    col = find_proper_coloring(C4, 2)
    o = orient_by_coloring(C4, col)
    assert is_semi_transitive(o)
    # all arcs go from one class to the other, so no path has two edges
    heads = {h for _, h in o.arcs()}
    tails = {t for t, _ in o.arcs()}
    assert heads.isdisjoint(tails)


def test_orient_by_coloring_petersen():
    pet = bundled_graph("petersen")
    col = find_proper_coloring(pet, 3)
    assert col is not None
    assert is_semi_transitive(orient_by_coloring(pet, col))


def test_orient_by_coloring_guards():
    with pytest.raises(OutOfRangeError, match=r"^edge 1-2 is monochromatic$"):
        orient_by_coloring(K3, VertexColoring((1, 1, 2)))
    with pytest.raises(OutOfRangeError, match=r"^coloring does not cover the vertex set$"):
        orient_by_coloring(K3, VertexColoring((1, 2)))
    g5 = graph_from_edge_list(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    with pytest.raises(OutOfRangeError, match=r"^construction needs at most 3 colors, got 4$"):
        orient_by_coloring(g5, VertexColoring((1, 2, 3, 4, 1)))


def test_orientation_format_round_trip():
    # the text format is output only: the "n m" header, then one "tail head >"
    # line per stored edge, in stored edge order
    assert format_orientation(increasing(K4)) == \
        "4 6\n1 2 >\n1 3 >\n1 4 >\n2 3 >\n2 4 >\n3 4 >\n"
    assert format_orientation(Orientation(C5, (BACKWARD,) * 5)) == \
        "5 5\n2 1 >\n5 1 >\n3 2 >\n4 3 >\n5 4 >\n"
    o = orientation_from_arcs(C4, [(1, 2), (3, 2), (3, 4), (1, 4)])
    assert format_orientation(o) == "4 4\n1 2 >\n1 4 >\n3 2 >\n3 4 >\n"
    with pytest.raises(OutOfRangeError, match=r"^operation needs a total orientation "):
        format_orientation(orientation_from_arcs(C4, [(1, 2)]))


def _assert_same_conflict(o, c, expected):
    """c, find_shortcut's answer on o, agrees with ref_find_shortcut's
    expected: the same kind, the same DirectedCycle arc, and a Shortcut
    on the same arc whose path is a genuine shortcut of o."""
    assert (c is None) == (expected is None)
    if c is None:
        return
    assert c.kind == expected.kind
    if c.kind == "DirectedCycle":
        assert c.witness == expected.witness
        return
    assert (c.witness[0], c.witness[-1]) == (expected.witness[0], expected.witness[-1])
    _assert_genuine_shortcut(o, c.witness)


def _assert_genuine_shortcut(o, path):
    # consecutive arcs really form a directed path and its closing edge
    # exists; some inner pair must be absent or misdirected
    arcs = set(o.arcs())
    assert len(path) >= 4
    for i in range(len(path) - 1):
        assert (path[i], path[i + 1]) in arcs
    assert (path[0], path[-1]) in arcs
    assert any(
        (path[i], path[j]) not in arcs
        for i, j in itertools.combinations(range(len(path)), 2))


@pytest.mark.slow
def test_find_shortcut_matches_unpruned_dfs():
    # the interval test finds a shortcut on the same first arc, or none, as
    # the literal walk over every directed path, and its path is a genuine
    # shortcut: on every acyclic orientation of every class with n <= 6,
    # and of the 26 refutations at n = 7
    keys = set(census(7).nonrep_classes)
    graphs = [cls.graph for n in range(1, 7) for cls in enumerate_graphs(n)]
    graphs += [cls.graph for cls in enumerate_graphs(7) if cls.form.key in keys]
    checked = 0
    for g in graphs:
        for o in acyclic_orientations(g):
            _assert_same_conflict(o, find_shortcut(o), ref_find_shortcut(o))
            checked += 1
    assert checked == 21_188 + 28_584
    # and the arc step that grows the descendants refuses exactly the
    # cyclic ones, at the first arc that closes a cycle: every total
    # orientation of every class with n <= 5, of which 1,195 are acyclic
    checked = cyclic = 0
    for g in (cls.graph for n in range(1, 6) for cls in enumerate_graphs(n)):
        for dirs in itertools.product((FORWARD, BACKWARD), repeat=len(g.edges)):
            o = Orientation(g, dirs)
            expected = ref_find_shortcut(o)
            _assert_same_conflict(o, find_shortcut(o), expected)
            checked += 1
            cyclic += expected is not None and expected.kind == "DirectedCycle"
    assert (checked, cyclic) == (3_457, 2_262)


def test_conflict_witnesses_are_genuine():
    rng = random.Random(515)
    seen = collections.Counter()
    for _ in range(400):
        g = random_graph(rng, rng.randint(3, 6))
        o = Orientation(g, tuple(rng.choice((FORWARD, BACKWARD)) for _ in g.edges))
        c = find_shortcut(o)
        if c is None:
            continue
        seen[c.kind] += 1
        stored = list(o.arcs())
        if c.kind == "DirectedCycle":
            # an arc of o whose head reaches its tail over the arcs stored
            # before it, and no earlier arc closes a cycle
            i = stored.index(c.witness)
            assert ref_is_acyclic(g.n, stored[:i]) and not ref_is_acyclic(g.n, stored[:i + 1])
            continue
        assert c.kind == "Shortcut" and ref_is_acyclic(g.n, stored)
        _assert_genuine_shortcut(o, c.witness)
    assert seen["Shortcut"] > 20 and seen["DirectedCycle"] > 20
