"""The bounded k-uniform word search against the generate-and-test oracle."""

import itertools
import random
from collections import Counter

import numpy as np
import pytest

from wordrep.bundled import bundled_graph
from wordrep.errors import OutOfRangeError, TooLargeError
from wordrep.graphs import enumerate_graphs, graph_from_edge_list
from wordrep.orientations import acyclic_orientations, is_semi_transitive
from wordrep.words import Word, graph_of_word, represents, uniformity
from wordrep.wordsearch import find_k_uniform_word, find_word

from helpers import (
    all_graphs,
    k_uniform_words,
    lex_min_2_uniform_word,
    naive_lex_min_word,
    placement_alternates,
    placement_words,
    random_graph,
    ref_alternates,
    two_uniform_placements,
)

K4 = graph_from_edge_list(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
M = graph_from_edge_list(4, [(1, 2), (2, 3), (2, 4), (3, 4)])
K1 = graph_from_edge_list(1, [])
# the 5-wheel, the smallest graph with no representing word
W5 = graph_from_edge_list(
    6, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5),
        (1, 6), (2, 6), (3, 6), (4, 6), (5, 6)])


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
    # 405 to 4, A from 88,162 to 52 and the sweep from 1,387 to 1,349
    counter = [0]
    assert find_k_uniform_word(W5, 2, counter) is None
    assert counter == [4]
    assert {name: find_word(bundled_graph(name), 3).nodes
            for name in ("A", "M", "K4", "C5")} == \
        {"A": 52, "M": 9, "K4": 5, "C5": 26}
    counter = [0]
    for n in range(1, 6):
        for cls in enumerate_graphs(n):
            for k in range(1, 4):
                find_k_uniform_word(cls.graph, k, counter)
    assert counter == [1349]


@pytest.mark.slow
def test_petersen_2_uniform_refutation_nodes():
    counter = [0]
    assert find_k_uniform_word(bundled_graph("petersen"), 2, counter) is None
    assert counter == [1060265]
