"""The slowest known inputs inside the README's "Size caps", one per
row, locked by their deterministic search counters.  Colouring,
isomorphism, canonical forms and the graph of a word keep no counter,
so their rows lock answers only.  Wall time is not gated: the README
gives each measured time next to its cap row.  A change that makes one
of these fast re-locks its counters, with the reason, rather than
loosening them."""

import itertools
import random

import pytest

from wordrep.bundled import bundled_graph
from wordrep.decision import NON_REPRESENTABLE, decide
from wordrep.graphs import (CanonicalForm, are_isomorphic, canonical_form, find_proper_coloring,
                            graph_from_edge_list)
from wordrep.orientations import SearchStats, count_semi_transitive, count_semi_transitive_naive
from wordrep.verify import verify_certificate
from wordrep.words import Word, graph_of_word, represents
from wordrep.wordsearch import WordSearchResult, find_word

from helpers import random_regular, wheel_hub_last

pytestmark = pytest.mark.slow


def wheel(k):
    """W_k: hub 1 and the rim 2..k+1 in cycle order."""
    rim = [(v, v + 1) for v in range(2, k + 1)] + [(2, k + 1)]
    return graph_from_edge_list(k + 1, [(1, v) for v in range(2, k + 2)] + rim)


def path_then_a(length):
    """The path 1..length+1, stored first, glued at A's vertex 1, with A
    relabelled onto length+1..length+7."""
    a = bundled_graph("A")
    return graph_from_edge_list(length + a.n, [(v, v + 1) for v in range(1, length + 1)]
                                + [(u + length, v + length) for u, v in a.edges])


# odd wheels: the hub's neighbourhood, the rim, is an odd cycle and not a
# comparability graph, so the neighbourhood test that decide runs at its
# first failure refutes them after one node per hub edge (by search alone
# W19 took 5,779 nodes, W23 39,604 and W27 271,444, growing about x6.9 per
# four rim vertices); W39 has SEARCH_MAX_N vertices.  A path before A,
# whose neighbourhoods all pass: the search refutes A again below each of
# the path's 2^(L-1) orientations with its first edge FORWARD, so the
# nodes double per path edge
@pytest.mark.parametrize("g, nodes", [
    pytest.param(wheel(19), 20, id="W19"),
    pytest.param(wheel(23), 24, id="W23"),
    pytest.param(wheel(27), 28, id="W27"),
    pytest.param(wheel(39), 40, id="W39"),
    pytest.param(path_then_a(10), 17_408, id="path-10-A"),
    pytest.param(path_then_a(12), 69_632, id="path-12-A"),
])
def test_decide_worst_cases(g, nodes):
    d = decide(g)
    assert d.verdict == NON_REPRESENTABLE
    assert (d.stats.nodes, d.stats.shortcut_checks) == (nodes, 0)


def test_refutation_recheck_worst_case():
    # the walk cuts each branch only inside A, so it repeats A's walk for
    # each of the path's orientations; path-10 + A takes about 3 s
    g = path_then_a(8)
    assert verify_certificate(g, decide(g))


def test_count_worst_case():
    # one 16-edge block most of whose orientations pass: the search forces
    # nothing on a cycle and tests every FORWARD-rooted leaf
    c16 = graph_from_edge_list(16, [(v, v % 16 + 1) for v in range(1, 17)])
    stats = SearchStats()
    assert count_semi_transitive(c16, stats) == 65_502 == count_semi_transitive_naive(c16)
    assert (stats.nodes, stats.shortcut_checks, stats.shortcut_conflicts) == (65_535, 32_767, 16)


def test_find_word_worst_case():
    # W13 with the hub last: the k = 2 search on its 28 letters took
    # 96,106 nodes and 3.1-5.3 s; the hub's neighbourhood C13 is not a
    # comparability graph, so no search runs now
    assert find_word(wheel_hub_last(13), 2) == WordSearchResult(None, 2, 0)
    # the order of last copies: Petersen at k = 2 took 1,060,265 nodes, at
    # k = 3 another 3,307,284 (now 707 + 51,978), and A after a 5-edge
    # path, whose neighbourhoods all pass, 100,244 at k = 2
    petersen = bundled_graph("petersen")
    assert find_word(petersen, 2) == WordSearchResult(None, 2, 707)
    res = find_word(petersen, 3)
    assert (res.k_tried, res.nodes) == (3, 52_685) and represents(res.word, petersen)
    assert find_word(path_then_a(5), 2) == WordSearchResult(None, 2, 5_520)


def mycielski(k):
    """M_k, chromatic number k: M2 = K2, and M_(i+1) adds a twin u' of
    each vertex u, adjacent to u's neighbours, and a vertex joined to
    every twin."""
    n, edges = 2, [(1, 2)]
    for _ in range(k - 2):
        edges += ([(u + n, v) for u, v in edges] + [(u, v + n) for u, v in edges]
                  + [(v + n, 2 * n + 1) for v in range(1, n + 1)])
        n = 2 * n + 1
    return graph_from_edge_list(n, edges)


def test_coloring_worst_case():
    # M6 (47 vertices, 236 edges) has no 4-colouring, and the search must
    # exhaust them; at 5 colours it runs past a minute (ROADMAP item 23)
    m6 = mycielski(6)
    assert (m6.n, len(m6.edges)) == (47, 236)
    assert find_proper_coloring(m6, 4) is None
    assert find_proper_coloring(m6, 6).is_proper(m6)


def cubic_pairs(n):
    """With random.Random(n), round after round: a cubic graph g, another
    drawn on its own, and g relabelled."""
    rng = random.Random(n)
    while True:
        g, other = random_regular(rng, n, 3), random_regular(rng, n, 3)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        yield g, other, graph_from_edge_list(n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])


def test_isomorphism_worst_case():
    # the slowest of six rounds at n = 40, for both answers, is the third;
    # at n = 60 a pair takes seconds (ROADMAP item 23)
    g, other, copy = next(itertools.islice(cubic_pairs(40), 2, None))
    assert not are_isomorphic(g, other)
    assert are_isomorphic(g, copy)


def test_canonical_form_worst_case():
    # every 8-vertex graph costs the same: the least code over all 40,320
    # relabellings of its 28 vertex pairs
    cube = graph_from_edge_list(8, [(u + 1, (u ^ b) + 1) for u in range(8) for b in (1, 2, 4)])
    perm = (2, 7, 1, 8, 4, 6, 3, 5)
    relabelled = graph_from_edge_list(8, [(perm[u - 1], perm[v - 1]) for u, v in cube.edges])
    assert relabelled != cube
    assert canonical_form(cube) == canonical_form(relabelled) == CanonicalForm(8, 15_054_720)


def test_graph_of_word_worst_case():
    # 1,000 letters, the cap, each written three times: every pair
    # alternates, so the graph is K1000
    g = graph_of_word(Word(tuple(range(1, 1001)) * 3))
    assert (g.n, len(g.edges)) == (1000, 499_500)
