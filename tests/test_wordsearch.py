"""The bounded k-uniform word search against the generate-and-test oracle."""

import itertools
import random
from collections import Counter

import numpy as np
import pytest

from wordrep.bundled import bundled_graph
from wordrep.decision import NON_REPRESENTABLE, Decision, verify_certificate
from wordrep.errors import OutOfRangeError, TooLargeError
from wordrep.graphs import _non_comparability_vertex, enumerate_graphs, graph_from_edge_list
from wordrep.orientations import SearchStats, is_semi_transitive
from wordrep.words import Word, graph_of_word, represents, uniformity
from wordrep.wordsearch import WordSearchResult, find_k_uniform_word, find_word

from helpers import (
    acyclic_orientations,
    all_graphs,
    k_uniform_words,
    lex_min_2_uniform_word,
    naive_lex_min_word,
    placement_alternates,
    placement_words,
    random_graph,
    ref_alternates,
    ref_lex_min_word,
    two_uniform_placements,
    wheel_hub_last,
)

K4 = graph_from_edge_list(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
M = graph_from_edge_list(4, [(1, 2), (2, 3), (2, 4), (3, 4)])
K1 = graph_from_edge_list(1, [])
# the 5-wheel, the smallest graph with no representing word
W5 = wheel_hub_last(5)


def test_k_uniform_examples():
    assert find_k_uniform_word(K4, 1).letters == (1, 2, 3, 4)
    assert find_k_uniform_word(K4, 2).letters == (1, 2, 3, 4, 1, 2, 3, 4)
    assert find_k_uniform_word(M, 1) is None
    assert find_k_uniform_word(K1, 1).letters == (1,)


def test_find_word_examples():
    res = find_word(M, 2)
    assert res.word is not None and res.k_tried == 2
    assert uniformity(res.word) == 2
    assert represents(res.word, M)

    res = find_word(bundled_graph("A"), 2)
    assert res.word is None and res.k_tried == 2

    res = find_word(K1, 1)
    assert res.word.letters == (1,)
    assert res.k_tried == 1


def test_guards():
    # a multiplicity below 1 is out of range; one above the letter cap is
    # too large
    with pytest.raises(OutOfRangeError):
        find_k_uniform_word(K4, 0)
    with pytest.raises(TooLargeError):
        find_k_uniform_word(bundled_graph("petersen"), 4)   # 40 letters
    with pytest.raises(OutOfRangeError):
        find_word(K4, 0)
    with pytest.raises(OutOfRangeError):
        find_word(K4, k_max=0)
    # sizes are read with operator.index: floats and strings are out of
    # range, numpy integers pass
    for k in (2.0, "2", None):
        with pytest.raises(OutOfRangeError, match=r"^k_max must be an integer, got "):
            find_word(M, k)
        with pytest.raises(OutOfRangeError, match=r"^multiplicity must be an integer, got "):
            find_k_uniform_word(M, k)
    assert find_word(M, np.int64(2)) == find_word(M, 2)
    assert find_k_uniform_word(M, np.int64(2)) == find_k_uniform_word(M, 2)


def test_deterministic():
    for g in (K4, M, bundled_graph("C5")):
        first = find_word(g, 3)
        second = find_word(g, 3)
        assert first.word == second.word
        assert first.k_tried == second.k_tried
        assert first.nodes == second.nodes


def test_found_words_verified_independently():
    rng = random.Random(1123)
    found = 0
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 6))
        res = find_word(g, 2)
        if res.word is not None:
            found += 1
            assert uniformity(res.word) == res.k_tried
            assert represents(res.word, g)
    assert found > 25


@pytest.mark.parametrize("ns, flagged", [
    pytest.param(range(1, 8), [0, 0, 0, 0, 0, 1, 20], id="n<=7"),
    pytest.param([8], [702], id="n=8", marks=pytest.mark.slow),
])
def test_non_comparability_neighbourhoods_are_refuted(ns, flagged):
    # in a word-representable graph every neighbourhood is a comparability
    # graph, so each class the test flags is refuted: W5 at n = 6, 20 of
    # the 26 refuted classes at n = 7 and 702 of the 956 at n = 8.  decide
    # runs the same test, so the refutation is re-checked by the walk,
    # which does not
    claim = Decision(NON_REPRESENTABLE, None, SearchStats())
    counts = []
    for n in ns:
        hits = [cls.graph for cls in enumerate_graphs(n)
                if _non_comparability_vertex(cls.graph) is not None]
        assert all(verify_certificate(g, claim) for g in hits)
        counts.append(len(hits))
    assert counts == flagged


def test_find_word_is_the_plain_loop_over_k():
    # the neighbourhood test moves no answer: on every class with n <= 7,
    # find_word gives the word and k_tried of trying k = 1..k_max in turn
    for n in range(1, 8):
        k_max = 3 if n <= 6 else 2
        for cls in enumerate_graphs(n):
            g = cls.graph
            words = (find_k_uniform_word(g, k) for k in range(1, k_max + 1))
            found = next(((w, k) for k, w in enumerate(words, 1) if w is not None), (None, k_max))
            res = find_word(g, k_max)
            assert (res.word, res.k_tried) == found


def test_find_word_refutes_a_non_comparability_neighbourhood_unsearched():
    # the test runs where the k = 2 search would: W11 at k_max = 3, whose
    # k = 3 search needs 36 letters, past the cap of 30, is refuted with no
    # node; W15 needs 32 letters at k = 2, so it still hits the cap.  The
    # hub is the vertex named: its neighbourhood is the rim, C11, and each
    # rim vertex has three neighbours, too few to fail
    assert _non_comparability_vertex(wheel_hub_last(11)) == 12
    assert find_word(wheel_hub_last(11), 3) == WordSearchResult(None, 3, 0)
    with pytest.raises(TooLargeError, match=r"asked for 16\*2$"):
        find_word(wheel_hub_last(15), 2)


def test_search_equals_generate_and_test():
    # the pruned search must return exactly the lexicographically first
    # k-uniform representing word, which is what plain enumeration finds
    for n in range(1, 6):
        for cls in enumerate_graphs(n):
            g = cls.graph
            for k in range(1, 4):
                if n * k > 10:
                    continue
                expected = naive_lex_min_word(g, k)
                got = find_k_uniform_word(g, k)
                if expected is None:
                    assert got is None
                else:
                    assert got is not None and got.letters == expected


def test_search_equals_backtracking_at_k3():
    # 3-uniform words past n = 3, against a backtracking that checks
    # nothing but pairwise alternation and shares no code with the search.
    # k = 4 and 5 (up to 25 letters) add searches where letters run out
    # while others still have copies left, the case that lets the finish
    # check read one for "at most one copy left"
    for n, k in [(n, 3) for n in range(1, 7)] + [(n, k) for k in (4, 5) for n in range(1, 6)]:
        for cls in enumerate_graphs(n):
            got = find_k_uniform_word(cls.graph, k)
            assert (got.letters if got else None) == ref_lex_min_word(cls.graph, k)


@pytest.mark.slow
def test_search_equals_generate_and_test_longer_words():
    # n*k up to 12: every 4-vertex class at k=3
    for cls in enumerate_graphs(4):
        expected = naive_lex_min_word(cls.graph, 3)
        got = find_k_uniform_word(cls.graph, 3)
        if expected is None:
            assert got is None
        else:
            assert got is not None and got.letters == expected


@pytest.mark.slow
def test_wheel_has_no_2_uniform_word():
    # the full 12-letter enumeration agrees with the pruned search; the
    # vectorised oracle tests all 7,484,400 words in about 1 s, where the
    # pure-Python one took about 25 s
    assert find_k_uniform_word(W5, 2) is None
    assert lex_min_2_uniform_word(W5) is None


def test_vectorised_oracle_matches_the_naive_one():
    # the placements are every 2-uniform word once, their alternation is
    # the literal one, and the vectorised oracle finds the naive oracle's
    # word on every labelled graph (so every class) with n <= 4
    for n in range(1, 5):
        pos = np.concatenate(list(two_uniform_placements(n)))
        words = placement_words(pos)
        assert sorted(words) == list(k_uniform_words(n, 2))
        for x, y in itertools.combinations(range(1, n + 1), 2):
            assert placement_alternates(pos, x, y).tolist() == \
                [ref_alternates(w, x, y) for w in words]
        for g in all_graphs(n):
            assert lex_min_2_uniform_word(g) == naive_lex_min_word(g, 2)
    blocks = [len(pos) for pos in two_uniform_placements(6)]
    assert blocks == [113400] * 66   # 66 * 10! / 2^5 = 12! / 2^6 words


def test_k_uniform_words_order():
    # the oracle's generator yields every k-uniform word once, sorted
    for n in range(0, 5):
        for k in (1, 2):
            multiset = [x for x in range(1, n + 1) for _ in range(k)]
            assert list(k_uniform_words(n, k)) == \
                sorted(set(itertools.permutations(multiset)))


def test_word_search_agrees_with_vertex_orders_n6():
    # refutations are re-checked by the acyclic orientation walk, which shares
    # no code with the forcing rule the word search now prunes by
    found_at = Counter()
    for cls in enumerate_graphs(6):
        g = cls.graph
        res = find_word(g, 3)
        if res.word is not None:
            assert represents(res.word, g)
        else:
            assert not any(map(is_semi_transitive, acyclic_orientations(g)))
        found_at[res.k_tried if res.word is not None else None] += 1
    assert found_at == {1: 1, 2: 153, 3: 1, None: 1}


def test_search_keeps_the_rotations_of_random_words():
    # a rotation of a uniform word represents the same graph, so each
    # rotation of w that starts with 1 bounds the lex-least word from
    # above; a prune that dropped a representing word would return a
    # greater word or None
    rng = random.Random(2016)
    for _ in range(80):
        n = rng.randint(6, 7)
        letters = [x for x in range(1, n + 1) for _ in range(2)]
        rng.shuffle(letters)
        rotation = min(tuple(letters[i:] + letters[:i])
                       for i, x in enumerate(letters) if x == 1)
        g = graph_of_word(Word(tuple(letters)))
        got = find_k_uniform_word(g, 2)
        assert got is not None and got.letters <= rotation


def test_word_search_counters_locked():
    # node counts of fixed runs, so a refactor cannot silently change the
    # search tree; refutations search only the words starting with 1.
    # The first-occurrence orientation prune moved them: W5 at k = 2 from
    # 405 to 4, A from 88,162 to 52 and the sweep from 1,387 to 1,349.
    # find_word refutes W5 by its hub's neighbourhood, C5, with no node
    # (8 for k = 2 and 3 before).  The order of last copies moved C5 from
    # 26 to 13 and the sweep from 1,349 to 1,292
    counter = [0]
    assert find_k_uniform_word(W5, 2, counter) is None
    assert counter == [4]
    assert find_word(W5, 3).nodes == 0
    assert {name: find_word(bundled_graph(name), 3).nodes
            for name in ("A", "M", "K4", "C5")} == \
        {"A": 52, "M": 9, "K4": 5, "C5": 13}
    counter = [0]
    for n in range(1, 6):
        for cls in enumerate_graphs(n):
            for k in range(1, 4):
                find_k_uniform_word(cls.graph, k, counter)
    assert counter == [1292]


def test_petersen_2_uniform_refutation_nodes():
    # 1,060,265 nodes before the order of last copies
    counter = [0]
    assert find_k_uniform_word(bundled_graph("petersen"), 2, counter) is None
    assert counter == [707]
