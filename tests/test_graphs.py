"""Graph values, edge-list I/O, K4 detection, canonical forms,
isomorphism, and class enumeration."""

import itertools
import math
import random

import pytest

from wordrep.bundled import bundled_graph
from wordrep.errors import OutOfRangeError, ParseError, TooLargeError
from wordrep.graphs import (
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


def test_construction_normalizes():
    g = graph_from_edge_list(4, [(3, 2), (2, 3), (4, 2), (1, 2)])
    assert g.edges == ((1, 2), (2, 3), (2, 4))
    assert g.has_edge(2, 3) and g.has_edge(3, 2)
    assert not g.has_edge(1, 3)
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
        assert list(enumerate_graphs(n)) == list(ref_enumerate_graphs(n))


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
