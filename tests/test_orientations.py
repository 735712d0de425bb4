"""Acyclicity, shortcut detection, semi-transitivity, the four-cycle
forcing rule, the search, and the coloring construction."""

import collections
import itertools
import random
import time

import pytest

from wordrep.bundled import bundled_graph
from wordrep.errors import CyclicInputError, OutOfRangeError, TooLargeError
from wordrep.graphs import (
    VertexColoring,
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
    _forward_semi_transitive,
    _four_cycles,
    _Searcher,
    acyclic_orientations,
    count_semi_transitive,
    count_semi_transitive_naive,
    find_semi_transitive,
    find_shortcut,
    format_orientation,
    is_semi_transitive,
    lemma1_propagate,
    orient_by_coloring,
    orientation_from_arcs,
)

from helpers import (
    all_graphs,
    enumerate_total_orientations,
    random_graph,
    ref_blocks,
    ref_cycle_legs,
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


def test_orientation_rejects_bogus_directions():
    # a direction other than FORWARD, BACKWARD or None would read as an arc
    # (anything but FORWARD reads as BACKWARD) and pass as total, so a
    # certificate carrying it could be accepted
    path = graph_from_edge_list(3, [(1, 2), (2, 3)])
    for dirs, edge, value in (((7, 0), "1-2", "7"), ((FORWARD, 2), "2-3", "2"),
                              ((None, "1"), "2-3", "'1'"), ((BACKWARD, [1]), "2-3", r"\[1\]")):
        with pytest.raises(OutOfRangeError, match=rf"^direction {value} of edge {edge} is not "
                                                  r"FORWARD \(1\), BACKWARD \(-1\) or None$"):
            Orientation(path, dirs)
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
    cyclic = orientation_from_arcs(C4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    with pytest.raises(CyclicInputError):
        find_shortcut(cyclic)


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
    with pytest.raises(CyclicInputError):
        find_shortcut(cyclic)


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


def test_lemma1_empty_is_fixed_point():
    for g in (C4, K4):
        result = lemma1_propagate(g, Orientation(g, (None,) * len(g.edges)))
        assert isinstance(result, Orientation)
        assert result.dirs == (None,) * len(g.edges)
    # every 4-cycle of K4 has both chords, so even the run 1->2->3->4 of the
    # transitive tournament forces nothing
    o = orientation_from_arcs(K4, [(1, 2), (2, 3), (3, 4)])
    assert lemma1_propagate(K4, o) == o


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
    (helpers.ref_cycle_legs): per edge, each cycle with the edge masks of
    its four legs and of the legs signed -1, its four edges in traversal
    order, and the cycle itself."""
    return [[(sum(2 ** e for e, _sign in legs),
              sum(2 ** e for e, sign in legs if sign == -1),
              tuple(e for e, _sign in legs), cycle)
             for legs, cycle in entries]
            for entries in ref_cycle_legs(g)]


def test_four_cycles_match_quadruple_scan():
    # same cycles in the same order: the order fixes the propagation queue
    # and with it the search's counters
    from wordrep.graphs import enumerate_graphs
    rng = random.Random(1405)
    graphs = [g for n in range(1, 6) for g in all_graphs(n)]
    graphs += [cls.graph for n in range(1, 8) for cls in enumerate_graphs(n)]
    graphs += [random_graph(rng, rng.randint(6, 9), rng.choice((0.3, 0.5, 0.7, 0.9)))
               for _ in range(120)]
    graphs.append(bundled_graph("A"))
    for g in graphs:
        assert _four_cycles(g) == _ref_four_cycles(g)
    # one entry per edge of each cycle: 6 cycles of A, 24 entries
    assert sum(map(len, _four_cycles(bundled_graph("A")))) == 24
    # every 4-cycle of K20 has both chords
    k20 = graph_from_edge_list(20, list(itertools.combinations(range(1, 21), 2)))
    assert not any(_four_cycles(k20))


def test_lemma1_witnesses_are_sparse_four_cycles():
    # on seeded random partial orientations every Lemma1Cycle names a
    # 4-cycle of g with at most one chord
    rng = random.Random(7141)
    seen = 0
    for _ in range(600):
        g = random_graph(rng, rng.randint(4, 8), rng.choice((0.4, 0.6, 0.8)))
        arcs = [(u, v) if rng.random() < 0.5 else (v, u)
                for u, v in g.edges if rng.random() < 0.5]
        result = lemma1_propagate(g, orientation_from_arcs(g, arcs))
        if isinstance(result, Orientation):
            continue
        seen += 1
        assert result.kind == "Lemma1Cycle"
        a, b, c, d = cycle = result.witness
        assert len(set(cycle)) == 4
        ring = [(a, b), (b, c), (c, d), (d, a)]
        assert all(g.has_edge(x, y) for x, y in ring)
        assert not (g.has_edge(a, c) and g.has_edge(b, d))
    assert seen > 50


def test_mask_kernel_matches_leg_by_leg_reference():
    # the search's propagate, on edge masks, against the rule walked leg by
    # leg through a list (helpers.ref_propagate) on seeded partial
    # orientations, cyclic ones included: the same result (fixpoint,
    # conflict cycle or refusal) and the same placements, with no closure
    # (as lemma1_propagate runs it) and with one (refusing arcs that close
    # a directed cycle).  A second batch of arcs lands on the first one's
    # fixpoint and may repeat arcs in force, which propagate skips; the
    # reference is handed them filtered out.
    rng = random.Random(1818)
    outcomes = collections.Counter()
    for _ in range(1000):
        g = random_graph(rng, rng.randint(4, 8), rng.choice((0.4, 0.6, 0.8)))
        m = len(g.edges)
        batches = [[(e, rng.choice((FORWARD, BACKWARD)))
                    for e in rng.sample(range(m), rng.randint(0, m // 2))]
                   for _ in range(2)]
        for closure in (None, 0):
            s = _Searcher(g, SearchStats())
            s.closure = closure
            dirs = [None] * m
            trail = []

            def place(e, d):
                arcs = [g.edges[f] if dirs[f] == FORWARD else g.edges[f][::-1] for f in trail]
                arcs.append(g.edges[e] if d == FORWARD else g.edges[e][::-1])
                if closure is not None and not ref_is_acyclic(g.n, arcs):
                    return False
                dirs[e] = d
                trail.append(e)
                return True

            for batch in batches:
                if closure is None:   # with no closure nothing refuses an arc against one placed
                    batch = [(e, d) for e, d in batch if dirs[e] in (None, d)]
                want = ref_propagate(g, dirs, [(e, d) for e, d in batch
                                               if dirs[e] != d], place)
                got = s.propagate(batch)
                assert got == want
                assert s.fwd & s.bwd == 0 and s.dirs == dirs
                assert (s.fwd | s.bwd).bit_count() == len(trail)
                outcomes[closure, "placed" if got is None else "cycle" if got else "refused"] += 1
                if got is not None:
                    break
    # every outcome shows up: refusals only where there is a closure
    assert min(outcomes.values()) > 20 and len(outcomes) == 5


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
    assert count_semi_transitive(_disjoint_union(C4, C4, K3)) == 6 * 6 * 6 == 216


def test_blocks_match_the_cycle_definition():
    # seeded graphs with n <= 7, isolated vertices included: one block per
    # class of edges on a common simple cycle, each bridge alone
    rng = random.Random(15)
    graphs = [random_graph(rng, rng.randint(1, 7), rng.choice((0.2, 0.35, 0.5, 0.7)))
              for _ in range(300)]
    assert sum(len(g.edges) == 0 for g in graphs) > 5
    assert sum(len(_blocks(g)) > 1 for g in graphs) > 80
    for g in graphs + [bundled_graph("A"), K4]:
        assert _blocks(g) == ref_blocks(g)


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
    # tree over all the edges takes about 2^25 nodes
    path = graph_from_edge_list(25, [(v, v + 1) for v in range(1, 25)])
    assert len(path.edges) == 24
    stats = SearchStats()
    start = time.perf_counter()
    assert count_semi_transitive(path, stats) == 2 ** 24
    assert time.perf_counter() - start < 0.5
    assert stats.nodes <= 48
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
    big = graph_from_edge_list(
        8, [(u, v) for u in range(1, 8) for v in range(u + 1, 9)])
    assert len(big.edges) == 28
    with pytest.raises(TooLargeError, match=r"^exact counting capped at 24 edges, got 28$"):
        count_semi_transitive(big)
    with pytest.raises(TooLargeError, match=r"^exact counting capped at 24 edges, got 28$"):
        count_semi_transitive_naive(big)


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
    assert counters(decide(bundled_graph("A")).stats) == (17, 71, 0, 0)
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
    # (17288, 5816, 6533, 110)
    assert (total, counters(stats)) == (6533, (6400, 2475, 2331, 50))
    runs = [(len(cls.graph.edges) == 21, decide(cls.graph))
            for cls in enumerate_graphs(7)]
    assert sum(d.witness is None for _, d in runs) == 26
    # one more node and leaf check for each further component with an edge
    # (from 8936 and 1017)
    assert tuple(map(sum, zip(*(counters(d.stats) for k7, d in runs if not k7)))) == \
        (8987, 5271, 1068, 0)
    # K7 is searched like any graph: its 21 edges FORWARD, one leaf
    assert [counters(d.stats) for k7, d in runs if k7] == [(22, 0, 1, 0)]


# ---------------------------------------------------------------------------
# the search's reachability closure and its leaf test

def _leaf_test(o):
    """The search's leaf verdict on the total acyclic orientation o: every
    arc is placed before the forcing rule runs, so the closure is whole
    even when the rule finds a conflict."""
    s = _Searcher(o.base, SearchStats())
    s.propagate(list(enumerate(o.dirs)))
    assert s.dirs == list(o.dirs)
    return s.leaf_ok()


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
    # the vertex order 1..n orients every edge FORWARD: the test agrees
    # with the literal path scan of that orientation, and passes exactly
    # when decide's witness is all FORWARD, on every class with n <= 7 and
    # on seeded random graphs with n = 8..12
    from wordrep.decision import decide
    from wordrep.graphs import enumerate_graphs
    rng = random.Random(1606)
    graphs = [cls.graph for n in range(1, 8) for cls in enumerate_graphs(n)]
    graphs += [random_graph(rng, rng.randint(8, 12), rng.choice((0.2, 0.35, 0.5, 0.7)))
               for _ in range(500)]
    passed = 0
    for g in graphs:
        ok = _forward_semi_transitive(g)
        assert ok == is_semi_transitive(increasing(g))
        witness = decide(g).witness
        assert ok == (witness is not None and witness.dirs == increasing(g).dirs)
        passed += ok
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
    assert _forward_semi_transitive(k40) and _forward_semi_transitive(less[1, 40])
    assert not _forward_semi_transitive(less[2, 39])
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
        assert _forward_semi_transitive(g) == is_semi_transitive(increasing(g))
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


def _placed_arcs(s):
    """The arcs the search's two edge masks hold, in stored edge order."""
    return [(u, v) if s.fwd >> e & 1 else (v, u)
            for e, (u, v) in enumerate(s.g.edges) if (s.fwd | s.bwd) >> e & 1]


def test_searcher_closure_invariant():
    # seeded assign/retract walks: after every step no edge is placed both
    # ways, the dirs view reads the placed arcs, the search's closure is the
    # transitive closure of the placed arcs, and an assigned arc is refused
    # exactly when it would close a directed cycle
    rng = random.Random(99)
    refusals = 0

    def check(s):
        nonlocal refusals
        g = s.g
        assert s.fwd & s.bwd == 0
        arcs = _placed_arcs(s)
        assert [(u, v) if d == FORWARD else (v, u)
                for (u, v), d in zip(g.edges, s.dirs) if d is not None] == arcs
        desc = _ref_closure(g.n, arcs)
        assert unpacked_closure(s) == desc
        state = s.fwd, s.bwd, s.closure
        for e, d in itertools.product(range(len(g.edges)), (FORWARD, BACKWARD)):
            if s.dirs[e] is not None:
                continue
            u, v = g.edges[e]
            arc = (u, v) if d == FORWARD else (v, u)
            s.assign([(e, d)])
            # the arc is placed before the rule runs, so it is in the masks
            # unless refused, whatever the rule found after it
            placed = s.dirs[e] == d
            assert placed == ref_is_acyclic(g.n, arcs + [arc])
            assert unpacked_closure(s) == _ref_closure(g.n, _placed_arcs(s))
            refusals += not placed
            s.retract()
            assert (s.fwd, s.bwd, s.closure) == state

    for _ in range(40):
        s = _Searcher(random_graph(rng, rng.randint(2, 8), 0.6), SearchStats())
        for _ in range(40):
            free = [e for e, d in enumerate(s.dirs) if d is None]
            if free and (not s.frames or rng.random() < 0.7):
                ok = s.assign([(rng.choice(free), rng.choice((FORWARD, BACKWARD)))])
                check(s)
                if not ok:
                    s.retract()
            elif s.frames:
                for _ in range(rng.randrange(len(s.frames)), len(s.frames)):
                    s.retract()
            check(s)
    assert refusals > 100


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


def test_conflict_witnesses_are_genuine():
    rng = random.Random(515)
    seen = 0
    for _ in range(400):
        g = random_graph(rng, rng.randint(3, 6))
        o = Orientation(g, tuple(rng.choice((FORWARD, BACKWARD)) for _ in g.edges))
        if not ref_is_acyclic(g.n, o.arcs()):
            continue
        c = find_shortcut(o)
        if c is None:
            continue
        seen += 1
        path = c.witness
        arcs = set(o.arcs())
        assert len(path) >= 4
        # consecutive arcs really form a directed path and its closing
        # edge exists; some inner pair must be absent or misdirected
        for i in range(len(path) - 1):
            assert (path[i], path[i + 1]) in arcs
        assert (path[0], path[-1]) in arcs
        assert any(
            (path[i], path[j]) not in arcs
            for i, j in itertools.combinations(range(len(path)), 2))
    assert seen > 20
