"""The slowest known inputs inside the README's "Size caps", one per
searching row, locked by their deterministic search counters.  Wall time
is not gated: the README gives each measured time next to its cap row.
A change that makes one of these fast re-locks its counters, with the
reason, rather than loosening them."""

import pytest

from wordrep.bundled import bundled_graph
from wordrep.decision import NON_REPRESENTABLE, decide
from wordrep.graphs import graph_from_edge_list
from wordrep.orientations import SearchStats, count_semi_transitive, count_semi_transitive_naive
from wordrep.verify import verify_certificate
from wordrep.wordsearch import WordSearchResult, find_word

from helpers import wheel_hub_last

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


# odd wheels: no leaf is reached, and the nodes grow about x6.9 per four
# rim vertices; a path before A: the search refutes A again below each of
# the path's 2^(L-1) orientations with its first edge FORWARD, so the
# nodes double per path edge
@pytest.mark.parametrize("g, nodes", [
    pytest.param(wheel(19), 5_779, id="W19"),
    pytest.param(wheel(23), 39_604, id="W23"),
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
