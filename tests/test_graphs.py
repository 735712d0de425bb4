"""Graph values, edge-list I/O, K4 detection, canonical forms,
isomorphism, and class enumeration."""

import dataclasses
import itertools
import math
import random
import re

import numpy as np
import pytest

from wordrep.bundled import bundled_graph
from wordrep.errors import OutOfRangeError, ParseError, TooLargeError
from wordrep.graphs import (
    _color_classes,
    _deletion_codes,
    _edge_mask,
    _graph_from_mask,
    _order_semi_transitive,
    _shortcut_patterns,
    _three_class_codes,
    _three_colourable,
    canonical_form,
    are_isomorphic,
    delete_vertex,
    enumerate_graphs,
    find_proper_coloring,
    format_edge_list,
    graph_from_edge_list,
    is_k4_free,
    parse_edge_list,
)
from wordrep.orientations import BACKWARD, FORWARD, Orientation, is_semi_transitive

from helpers import (
    all_graphs,
    brute_canonical,
    random_graph,
    ref_colorable,
    ref_enumerate_graphs,
)

K4 = graph_from_edge_list(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
C4 = graph_from_edge_list(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
C5 = graph_from_edge_list(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])


def test_adjacency_is_cached_on_the_frozen_graph():
    # adj and edge_index are computed on first use and kept in the
    # instance __dict__, past the frozen dataclass's __setattr__; the
    # cached values take no part in equality or hashing
    g = graph_from_edge_list(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert "adj" not in vars(g) and "edge_index" not in vars(g)
    assert g.adj is g.adj and vars(g)["adj"] is g.adj
    assert g.adj == (0, 0b10100, 0b1010, 0b10100, 0b1010)
    assert g.edge_index is g.edge_index
    assert g.edge_index == {(1, 2): 0, (1, 4): 1, (2, 3): 2, (3, 4): 3}
    assert g == C4 and hash(g) == hash(C4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.adj = ()


def test_construction_normalizes():
    g = graph_from_edge_list(4, [(3, 2), (2, 3), (4, 2), (1, 2)])
    assert g.edges == ((1, 2), (2, 3), (2, 4))
    assert g.has_edge(2, 3) and g.has_edge(3, 2)
    assert not g.has_edge(1, 3) and not g.has_edge(2, 2)
    assert g.degree_sequence() == (1, 3, 1, 1)


def test_construction_m_graph():
    m = graph_from_edge_list(4, [(1, 2), (2, 3), (2, 4), (3, 4)])
    non_edges = [(u, v) for u in range(1, 5) for v in range(u + 1, 5)
                 if not m.has_edge(u, v)]
    assert non_edges == [(1, 3), (1, 4)]
    assert m == bundled_graph("M")


def test_construction_a_graph():
    a = bundled_graph("A")
    assert a.n == 7 and len(a.edges) == 12
    assert a.degree_sequence() == (3, 3, 3, 4, 4, 3, 4)


def test_construction_k1():
    g = graph_from_edge_list(1, [])
    assert g.n == 1 and g.edges == ()


def test_construction_errors():
    with pytest.raises(OutOfRangeError):
        graph_from_edge_list(3, [(1, 4)])
    with pytest.raises(OutOfRangeError):
        graph_from_edge_list(3, [(0, 2)])
    with pytest.raises(OutOfRangeError, match=r"^self-loop at vertex 2$"):
        graph_from_edge_list(3, [(2, 2)])
    with pytest.raises(OutOfRangeError):
        graph_from_edge_list(0, [])
    # n, endpoints and deleted vertices are integers: numpy's pass and are
    # stored as int, a bool is its int value, anything else is refused by name
    for pair in ((1, 2.5), (1, "2"), (1, None), (1, 2, 3), 5):
        with pytest.raises(OutOfRangeError, match=r"^an edge is two integer endpoints, "
                                                  rf"got {re.escape(repr(pair))}$"):
            graph_from_edge_list(3, [pair])
    for n in (2.5, "3", None):
        with pytest.raises(OutOfRangeError, match=r"^vertex count must be an integer, got "):
            graph_from_edge_list(n, [])
    p3 = graph_from_edge_list(np.int64(3), [(True, np.int32(2)), (np.uint8(2), 3)])
    assert p3 == graph_from_edge_list(3, [(1, 2), (2, 3)])
    assert all(type(x) is int for x in (p3.n, *itertools.chain(*p3.edges)))
    with pytest.raises(OutOfRangeError, match=r"^vertex must be an integer, got 1\.5$"):
        delete_vertex(p3, 1.5)
    assert delete_vertex(p3, np.int64(1)).edges == ((1, 2),)
    with pytest.raises(OutOfRangeError, match=r"^no bundled graph 'B'; choose from A, M, "):
        bundled_graph("B")


def test_connectivity_and_completeness():
    assert K4.is_connected() and C4.is_connected()
    assert len(K4.edges) == math.comb(4, 2) > len(C4.edges)
    two_parts = graph_from_edge_list(4, [(1, 2), (3, 4)])
    assert not two_parts.is_connected()
    assert graph_from_edge_list(1, []).is_connected()


def test_edge_list_round_trip():
    for g in (K4, C4, C5, bundled_graph("A"), bundled_graph("petersen")):
        text = format_edge_list(g)
        assert parse_edge_list(text) == g
        assert format_edge_list(parse_edge_list(text)) == text


def test_edge_list_comments_and_blank_lines():
    g = parse_edge_list("# leading comment\n\n3 2\n1 2\n# inner\n2 3\n")
    assert g.edges == ((1, 2), (2, 3))


def test_edge_list_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_edge_list("3 2\n1 2\nx y\n")
    assert e.value.line == 3
    with pytest.raises(ParseError):
        parse_edge_list("3 2\n1 2\n")          # fewer lines than m
    with pytest.raises(ParseError):
        parse_edge_list("3 1\n1 2\n2 3\n")      # more lines than m
    with pytest.raises(ParseError):
        parse_edge_list("")                     # no header
    with pytest.raises(ParseError):
        parse_edge_list("3 1\n1 2 3\n")         # three tokens
    with pytest.raises(ParseError):
        parse_edge_list("2 1\n1 3\n")           # endpoint out of range
    # str.isdigit accepts these, int() rejects the first and reads the
    # second as 3; only ASCII digits are integers here
    for digit in ("\u00b3", "\u0663"):
        with pytest.raises(ParseError) as e:
            parse_edge_list(f"3 1\n2 {digit}\n")
        assert (e.value.line, e.value.column) == (2, 3)


def test_delete_vertex_relabels():
    g = graph_from_edge_list(4, [(1, 2), (2, 3), (3, 4)])
    assert delete_vertex(g, 1).edges == ((1, 2), (2, 3))
    assert delete_vertex(g, 3).edges == ((1, 2),)
    with pytest.raises(OutOfRangeError):
        delete_vertex(g, 5)
    with pytest.raises(OutOfRangeError):
        delete_vertex(graph_from_edge_list(1, []), 1)


def test_is_k4_free():
    assert not is_k4_free(K4)
    assert is_k4_free(C4)
    assert is_k4_free(bundled_graph("A"))
    k5_minus = graph_from_edge_list(
        5, [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)])
    assert not is_k4_free(k5_minus)
    # against every 4-vertex subset: every class with n <= 6, then a seeded
    # batch of random graphs with n from 7 to 10
    rng = random.Random(4444)
    graphs = [cls.graph for n in range(1, 7) for cls in enumerate_graphs(n)]
    graphs += [random_graph(rng, rng.randint(7, 10), rng.uniform(0.3, 0.8))
               for _ in range(300)]
    for g in graphs:
        brute = not any(all(g.has_edge(u, v) for u, v in itertools.combinations(quad, 2))
                        for quad in itertools.combinations(g.vertices(), 4))
        assert is_k4_free(g) == brute
    assert 0 < sum(map(is_k4_free, graphs)) < len(graphs)


def test_proper_coloring_exact():
    c = find_proper_coloring(C5, 3)
    assert c is not None and c.is_proper(C5) and c.num_colors() == 3
    assert find_proper_coloring(C5, 2) is None
    assert find_proper_coloring(K4, 3) is None
    assert find_proper_coloring(K4, 4) is not None
    pet = bundled_graph("petersen")
    c = find_proper_coloring(pet, 3)
    assert c is not None and c.is_proper(pet)
    even = graph_from_edge_list(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
    c = find_proper_coloring(even, 2)
    assert c is not None and c.is_proper(even)
    # no colour at all colours nothing, not even a single vertex
    for g in (graph_from_edge_list(1, []), C4, K4):
        for k in (0, -1):
            assert find_proper_coloring(g, k) is None


def test_proper_coloring_matches_brute_force():
    # every labelled graph with n <= 5: a colouring exists exactly when a
    # generate-and-test over the k^n assignments finds one, and it is
    # proper, uses colours 1..k and covers every vertex
    for n in range(1, 6):
        for g in all_graphs(n):
            for k in range(1, 5):
                c = find_proper_coloring(g, k)
                assert (c is not None) == ref_colorable(g, k), (g, k)
                if c is not None:
                    assert len(c.color) == n and c.is_proper(g)
                    assert set(c.color) <= set(range(1, k + 1))


def _code(n, edges):
    # MSB-first upper-triangle code: pair (1, 2) is the top slot
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    return sum(1 << len(pairs) - 1 - pairs.index(e) for e in edges)


def test_three_class_codes_are_the_three_colourings():
    # one code per partition of 1..n into three nonempty blocks, the
    # Stirling numbers S(n, 3): the pairs that a colouring using all three
    # colours leaves inside its classes, by generate-and-test over 3^n
    for n in range(1, 8):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        want = {_code(n, [(u, v) for u, v in pairs if col[u - 1] == col[v - 1]])
                for col in itertools.product(range(3), repeat=n) if len(set(col)) == 3}
        got = _three_class_codes(n).tolist()
        assert len(got) == len(set(got)) and set(got) == want, n
    assert [len(_three_class_codes(n)) for n in range(1, 8)] == [0, 0, 1, 6, 25, 90, 301]
    assert _three_class_codes(3).tolist() == [0]


def test_three_colourable_codes_match_the_backtracking():
    # the census's test from class codes alone: against _color_classes on
    # every class with n <= 7, and against generate-and-test on every
    # labelled graph with n <= 5
    total = 0
    for n in range(1, 8):
        classes = list(enumerate_graphs(n))
        assert _three_colourable(n, [cls.form.code for cls in classes]) == [
            _color_classes(cls.graph, 3) is not None for cls in classes], n
        total += len(classes)
    assert total == 1252
    for n in range(1, 6):
        graphs = list(all_graphs(n))
        assert _three_colourable(n, [_code(n, g.edges) for g in graphs]) == [
            ref_colorable(g, 3) for g in graphs], n


def _orders(n):
    """The vertex orders that keep 1, 2, 3, 4 first, in itertools order."""
    return [(*range(1, min(n, 4) + 1), *rest) for rest in itertools.permutations(range(5, n + 1))]


def _patterns(n, sizes, closed=True):
    """The (path, whole) table from itertools, one row per order of
    _orders(n) and one column per sequence increasing in that order with
    one of the given sizes; closed=False leaves x0-xk out of path."""
    def code(seqs):
        return _code(n, [tuple(sorted(e)) for e in seqs])
    table = [[(code(list(zip(seq, seq[1:])) + [(seq[0], seq[-1])] * closed),
               code(itertools.combinations(seq, 2)))
              for k in sizes for seq in itertools.combinations(order, k)]
             for order in _orders(n)]
    return np.array(table, np.int32).reshape(len(table), -1, 2).transpose(2, 0, 1)


def test_order_test_is_the_definition_of_a_shortcut(monkeypatch):
    # the census's vertex-order test from codes alone, against the literal
    # path scan of every order that keeps 1..4 first (each edge from the
    # earlier vertex to the later) on every labelled graph with n <= 5,
    # every class with n <= 7 and seeded graphs with n = 8; one pattern
    # per subset of four or more vertices and order
    rng = random.Random(3708)
    cases = {n: list(all_graphs(n)) for n in range(1, 6)}
    cases.update((n, [cls.graph for cls in enumerate_graphs(n)]) for n in (6, 7))
    cases[8] = [random_graph(rng, 8, rng.choice((0.3, 0.5, 0.7))) for _ in range(300)]
    positions = {n: [{v: i for i, v in enumerate(order)} for order in _orders(n)] for n in cases}
    want = {n: [any(is_semi_transitive(Orientation(g, tuple(FORWARD if pos[u] < pos[v] else BACKWARD
                                                            for u, v in g.edges)))
                    for pos in positions[n]) for g in gs]
            for n, gs in cases.items()}
    codes = {n: [_code(n, g.edges) for g in gs] for n, gs in cases.items()}

    def exact(n):
        return _order_semi_transitive(n, codes[n]) == want[n]

    assert all(map(exact, cases))
    # (orders, patterns): (n - 4)! orders, 2^n - 1 - n - C(n,2) - C(n,3) patterns
    assert [_shortcut_patterns(n).shape for n in range(1, 9)] == [
        (2, math.factorial(max(n - 4, 0)), 2 ** n - 1 - n - math.comb(n, 2) - math.comb(n, 3))
        for n in range(1, 9)] == [
        (2, 1, 0), (2, 1, 0), (2, 1, 0), (2, 1, 1), (2, 1, 6), (2, 2, 22), (2, 6, 64), (2, 24, 163)]
    for n in range(1, 9):
        got, ref = _shortcut_patterns(n), _patterns(n, range(4, n + 1))
        for got_row, ref_row in zip(got.transpose(1, 2, 0).tolist(), ref.transpose(1, 2, 0).tolist()):
            assert sorted(map(tuple, got_row)) == sorted(map(tuple, ref_row)), n
    # a test that skips longer paths misses C5's 1->5, and one whose
    # pattern lacks x0-xk flags the plain path 1-2-3-4
    for mutant in (lambda n: _patterns(n, [4]), lambda n: _patterns(n, range(4, n + 1), False)):
        monkeypatch.setattr("wordrep.graphs._shortcut_patterns", mutant)
        assert not all(map(exact, cases))
    # the order 1..n alone misses classes that only a later order certifies
    monkeypatch.setattr("wordrep.graphs._shortcut_patterns", lambda n: _shortcut_patterns(n)[:, :1])
    assert not exact(6) and not exact(7)
    monkeypatch.undo()
    assert all(map(exact, cases))


def test_canonical_form_relabelings_agree():
    c4_again = graph_from_edge_list(4, [(1, 3), (3, 2), (2, 4), (4, 1)])
    assert canonical_form(C4) == canonical_form(c4_again)
    assert canonical_form(K4) != canonical_form(C4)
    p3 = graph_from_edge_list(3, [(1, 2), (2, 3)])
    k3 = graph_from_edge_list(3, [(1, 2), (2, 3), (1, 3)])
    assert canonical_form(p3) != canonical_form(k3)


def test_canonical_form_matches_brute_force_small():
    # between graphs: equal codes exactly when the brute canonical agrees
    for n in (3, 4):
        graphs = list(all_graphs(n))
        codes = [canonical_form(g) for g in graphs]
        brutes = [brute_canonical(g) for g in graphs]
        for i in range(len(graphs)):
            for j in range(i + 1, len(graphs)):
                assert (codes[i] == codes[j]) == (brutes[i] == brutes[j])


def test_canonical_form_invariance_random():
    rng = random.Random(2718)
    for _ in range(200):
        n = rng.randint(2, 7)
        g = random_graph(rng, n)
        code = canonical_form(g)
        for _ in range(10):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            relabeled = graph_from_edge_list(
                n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])
            assert canonical_form(relabeled) == code


def test_canonical_form_too_large():
    g = graph_from_edge_list(9, [(1, 2)])
    with pytest.raises(TooLargeError):
        canonical_form(g)


def test_canonical_key_shape():
    assert canonical_form(graph_from_edge_list(1, [])).key == "1:0"
    key = canonical_form(bundled_graph("A")).key
    assert key.startswith("7:") and len(key.split(":")[1]) == 6


def test_enumerate_class_counts():
    assert [sum(1 for _ in enumerate_graphs(n)) for n in range(1, 8)] == \
        [1, 2, 4, 11, 34, 156, 1044]


def test_enumerate_matches_from_scratch_sweep():
    # the incremental orbit codes give the same classes, in the same order,
    # with the same representative, form and automorphism count
    for n in range(1, 8):
        assert [(cls, cls.graph) for cls in enumerate_graphs(n)] == \
            list(ref_enumerate_graphs(n))


def test_canonical_codes_lie_below_the_sweep_limit():
    # a canonical code puts a least-degree vertex first and its neighbours
    # last, so its top n - 1 bits, vertex 1's row, are 2^delta - 1; a class
    # with 2m <= C(n,2) has delta <= 2 * (C(n,2) // 2) // n, so its code is
    # below the limit that the class sweep sizes its seen array to
    cycles = {n: canonical_form(graph_from_edge_list(n, [(v, v % n + 1) for v in range(1, n + 1)]))
              for n in (6, 7)}
    for n in range(1, 8):
        s, rest = math.comb(n, 2), math.comb(n - 1, 2)
        limit = 1 << rest + 2 * (s // 2) // n
        swept = []
        for cls in enumerate_graphs(n):
            g = cls.graph
            assert cls.form.code >> rest == (1 << min(g.degree_sequence())) - 1
            if 2 * len(g.edges) <= s:
                assert cls.form.code < limit
                swept.append(cls.form)
        # the cycle has least degree 2 = d, so no smaller power of two
        # holds every swept code
        if n in cycles:
            assert cycles[n] in swept and cycles[n].code >= limit // 2
    assert [1 << math.comb(n - 1, 2) + 2 * (math.comb(n, 2) // 2) // n for n in (6, 7)] == \
        [1 << 12, 1 << 17]


def test_class_representatives_are_built_on_first_read():
    # a class holds its code; its graph is built on the first read and the
    # same object comes back after
    for n in range(1, 8):
        for cls in enumerate_graphs(n):
            assert "graph" not in vars(cls)
            g = cls.graph
            assert g == _graph_from_mask(n, cls.form.code)
            assert cls.graph is g


def test_deletion_codes_match_delete_vertex():
    # the code of g - v for each v, against delete_vertex on the graph
    rng = random.Random(11)
    for n in range(2, 9):
        for _ in range(40):
            g = random_graph(rng, n)
            assert _deletion_codes(n, _edge_mask(g)) == \
                [_edge_mask(delete_vertex(g, v)) for v in g.vertices()]
    assert _deletion_codes(1, 0) == [0]


def test_enumerate_closed_under_complement():
    # the sweep lists the complements of the classes it sweeps without
    # sweeping them: each must be a listed class with the same |Aut|
    for n in range(1, 8):
        classes = {cls.form.code: cls for cls in enumerate_graphs(n)}
        for cls in classes.values():
            g = cls.graph
            rest = [p for p in itertools.combinations(g.vertices(), 2) if not g.has_edge(*p)]
            twin = classes[canonical_form(graph_from_edge_list(n, rest)).code]
            assert twin.aut_size == cls.aut_size


def test_enumerate_labelled_sizes_sum():
    for n in range(1, 8):
        total = sum(c.labelled_size for c in enumerate_graphs(n))
        assert total == 2 ** math.comb(n, 2)


def test_enumerate_aut_size_brute_force():
    # |Aut| counted the slow way: permutations that map the edge set onto itself
    for n in range(1, 6):
        for cls in enumerate_graphs(n):
            edges = set(cls.graph.edges)
            fixing = sum(
                1 for perm in itertools.permutations(range(1, n + 1))
                if {tuple(sorted((perm[u - 1], perm[v - 1])))
                    for u, v in edges} == edges)
            assert cls.aut_size == fixing
            assert cls.labelled_size * fixing == math.factorial(n)


def test_canonical_form_n8_random():
    # the only coverage of the 8-vertex relabel table
    rng = random.Random(8)
    graphs = [random_graph(rng, 8) for _ in range(20)]
    forms = [canonical_form(g) for g in graphs]
    pairs = [(u, v) for u in range(1, 8) for v in range(u + 1, 9)]
    for g, form in zip(graphs, forms):
        for _ in range(5):
            perm = list(range(1, 9))
            rng.shuffle(perm)
            relabeled = graph_from_edge_list(
                8, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])
            assert canonical_form(relabeled) == form
        rebuilt = graph_from_edge_list(
            8, [pairs[i] for i, b in enumerate(format(form.code, "028b")) if b == "1"])
        assert are_isomorphic(rebuilt, g)
    for g, form in zip(graphs, forms):
        for h, other in zip(graphs, forms):
            assert (form == other) == are_isomorphic(g, h)


def test_enumerate_representatives_are_canonical():
    for cls in enumerate_graphs(4):
        assert canonical_form(cls.graph).code == cls.form.code
        assert math.factorial(4) % cls.aut_size == 0


def test_enumerate_too_large():
    with pytest.raises(TooLargeError):
        list(enumerate_graphs(8))
    with pytest.raises(OutOfRangeError, match=r"^vertex count must be >= 1, got 0$"):
        list(enumerate_graphs(0))
    with pytest.raises(OutOfRangeError, match=r"^vertex count must be an integer, got 4\.0$"):
        list(enumerate_graphs(4.0))
    assert [cls.form for cls in enumerate_graphs(np.int64(4))] == \
        [cls.form for cls in enumerate_graphs(4)]


def test_are_isomorphic():
    relabel = graph_from_edge_list(4, [(2, 4), (4, 1), (1, 3), (3, 2)])
    assert are_isomorphic(C4, relabel)
    assert not are_isomorphic(C4, K4)
    c6 = graph_from_edge_list(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
    two_triangles = graph_from_edge_list(
        6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    # same degree sequence, different structure
    assert not are_isomorphic(c6, two_triangles)
    assert are_isomorphic(bundled_graph("petersen"), bundled_graph("petersen"))


def test_are_isomorphic_agrees_with_canonical_form():
    rng = random.Random(99)
    graphs = [random_graph(rng, 5) for _ in range(25)]
    for g in graphs:
        for h in graphs:
            assert are_isomorphic(g, h) == (canonical_form(g) == canonical_form(h))


def test_canonical_form_of_bit_string_round_trip():
    g = bundled_graph("A")
    form = canonical_form(g)
    bits = format(form.code, "021b")
    assert len(bits) == 21
    pairs = [(u, v) for u in range(1, 7) for v in range(u + 1, 8)]
    rebuilt = graph_from_edge_list(
        7, [pairs[i] for i, b in enumerate(bits) if b == "1"])
    assert are_isomorphic(rebuilt, g)
    assert canonical_form(rebuilt) == form
