"""Alternation semantics, word parsing, and the word-to-graph map."""

import random
import time

import numpy as np
import pytest

from wordrep.bundled import bundled_word
from wordrep.errors import OutOfRangeError, ParseError
from wordrep.graphs import delete_vertex, graph_from_edge_list
from wordrep.words import (
    Word,
    format_word,
    graph_of_word,
    parse_word,
    represents,
    uniformity,
    word_from_letters,
)

from helpers import random_word, ref_alternates

M = graph_from_edge_list(4, [(1, 2), (2, 3), (2, 4), (3, 4)])
K4 = graph_from_edge_list(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
M_WORD = parse_word("1213423")


def test_alternates_known_pairs():
    g = graph_of_word(M_WORD)
    assert g.has_edge(1, 2)
    assert not g.has_edge(1, 3)
    assert not g.has_edge(1, 4)
    assert g.has_edge(2, 3)
    assert g.has_edge(3, 4)
    assert graph_of_word(word_from_letters((2, 1))).has_edge(1, 2)


def test_alternates_against_reference():
    # graph_of_word's one-pass edges against the literal restriction check
    rng = random.Random(31415)
    contiguous = 0
    for _ in range(300):
        letters = random_word(rng, rng.randint(2, 6), rng.randint(2, 14))
        w = word_from_letters(letters)
        present = sorted(w.alphabet)
        if present[-1] != len(present):
            continue
        contiguous += 1
        g = graph_of_word(w)
        for i, x in enumerate(present):
            for y in present[i + 1:]:
                assert g.has_edge(x, y) == ref_alternates(letters, x, y)
    assert contiguous > 150


def test_graph_of_word_examples():
    assert graph_of_word(parse_word("1234")) == K4
    assert graph_of_word(M_WORD) == M
    assert graph_of_word(parse_word("11")) == graph_from_edge_list(1, [])


def test_graph_of_word_contiguity():
    with pytest.raises(OutOfRangeError, match=r"^alphabet must be 1\.\.3; missing 2$"):
        graph_of_word(word_from_letters((1, 3)))
    with pytest.raises(OutOfRangeError, match=r"^alphabet must be 1\.\.2; missing 1$"):
        graph_of_word(word_from_letters((2, 2)))
    with pytest.raises(OutOfRangeError, match=r"missing 2, 3$"):
        graph_of_word(word_from_letters((4, 1, 4)))
    # a huge letter fails fast, and the message lists only the first gaps
    start = time.perf_counter()
    with pytest.raises(OutOfRangeError) as exc:
        graph_of_word(word_from_letters((1, 10**9, 1)))
    assert time.perf_counter() - start < 1.0
    assert str(exc.value) == ("alphabet must be 1..1000000000; missing "
                              "2, 3, 4, 5, 6, ... (999999998 in all)")


def test_graph_of_word_is_one_pass():
    # every pair of 1 2 ... 1000 alternates; one pair test per rescan of
    # the word would cost about 5 * 10^8 letter visits
    # the best of 3 runs, so one run slowed by a busy machine does not fail
    word = word_from_letters(range(1, 1001))
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        g = graph_of_word(word)
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 1.0
    assert g.n == 1000 and len(g.edges) == 1000 * 999 // 2


def test_represents():
    assert represents(parse_word("123412"), K4)
    assert not represents(M_WORD, K4)
    assert represents(M_WORD, M)


def test_represents_alphabet_mismatch_is_an_error():
    mismatch = r" != graph vertex set 1\.\.4$"
    with pytest.raises(OutOfRangeError, match=r"^word alphabet \[1, 2, 3\]" + mismatch):
        represents(parse_word("123"), K4)
    with pytest.raises(OutOfRangeError, match=r"^word alphabet \[1, 2, 3, 4, 5\]" + mismatch):
        represents(parse_word("12345"), K4)
    with pytest.raises(OutOfRangeError, match=r"^word alphabet \[1, 2, 3, 5\]" + mismatch):
        represents(parse_word("1235"), K4)
    with pytest.raises(OutOfRangeError, match=r"^word alphabet \[1, 2, 3, 1000000000\]" + mismatch):
        represents(word_from_letters((1, 2, 3, 10**9)), K4)


def test_uniformity():
    assert uniformity(parse_word("1234")) == 1
    assert uniformity(bundled_word("petersen")) == 3
    assert uniformity(M_WORD) is None
    assert uniformity(parse_word("1 1 1")) == 3


def test_word_construction_errors():
    with pytest.raises(OutOfRangeError):
        word_from_letters(())
    with pytest.raises(OutOfRangeError):
        word_from_letters((1, 0))
    # Word holds the guards itself, so a Word built directly skips none
    with pytest.raises(OutOfRangeError, match=r"^a word must be nonempty$"):
        graph_of_word(Word(()))
    with pytest.raises(OutOfRangeError, match=r"^letters are positive integers, got 0$"):
        graph_of_word(Word((0,)))
    # letters are read as integers: floats and strings fail, numpy's ints pass
    with pytest.raises(OutOfRangeError, match=r"^letters are positive integers: 'float'"):
        word_from_letters((1.5,))
    with pytest.raises(OutOfRangeError, match=r"^letters are positive integers: 'str'"):
        word_from_letters(("a",))
    w = word_from_letters(np.array([2, 1], dtype=np.int64))
    assert w == Word((2, 1)) and all(type(x) is int for x in w.letters)
    # A is a bundled graph but has no bundled word
    with pytest.raises(OutOfRangeError, match=r"^no bundled word 'A'; choose from M, K4, petersen$"):
        bundled_word("A")


def test_reversal_preserves_graph():
    rng = random.Random(777)
    for _ in range(120):
        n = rng.randint(1, 5)
        letters = list(range(1, n + 1)) + list(
            random_word(rng, n, rng.randint(0, 8)))
        rng.shuffle(letters)
        w = word_from_letters(letters)
        assert graph_of_word(word_from_letters(letters[::-1])) == graph_of_word(w)


def test_rotation_preserves_graph_of_uniform_words():
    # the word search only tries words that start with letter 1, because
    # every cyclic shift of a k-uniform word represents the same graph
    rng = random.Random(2008)
    for _ in range(200):
        n, k = rng.randint(1, 7), rng.randint(1, 3)
        letters = [x for x in range(1, n + 1) for _ in range(k)]
        rng.shuffle(letters)
        g = graph_of_word(word_from_letters(letters))
        for i in range(1, len(letters)):
            assert graph_of_word(word_from_letters(letters[i:] + letters[:i])) == g
    # uniformity is needed: 121 alternates on 1-2, its rotation 211 does not
    assert graph_of_word(parse_word("121")).has_edge(1, 2)
    assert not graph_of_word(parse_word("211")).has_edge(1, 2)


def test_deletion_matches_vertex_deletion():
    rng = random.Random(424242)
    for _ in range(120):
        n = rng.randint(2, 5)
        letters = list(range(1, n + 1)) + list(
            random_word(rng, n, rng.randint(0, 8)))
        rng.shuffle(letters)
        w = word_from_letters(letters)
        g = graph_of_word(w)
        for x in range(1, n + 1):
            # delete every x and shift the letters above it down by one
            reduced = word_from_letters(a - (a > x) for a in letters if a != x)
            assert graph_of_word(reduced) == delete_vertex(g, x)


def test_parse_decimal_tokens():
    assert parse_word("1 2 13 4").letters == (1, 2, 13, 4)
    assert parse_word("1,2,13,4").letters == (1, 2, 13, 4)
    assert parse_word("1,2,").letters == parse_word(",1 ,2").letters == (1, 2)
    assert parse_word("  7 ").letters == (7,)
    assert parse_word("10 10").letters == (10, 10)


def test_parse_compact_digits():
    assert parse_word("1213423").letters == (1, 2, 1, 3, 4, 2, 3)
    assert parse_word("9").letters == (9,)


def test_parse_parenthesized_letters():
    w = parse_word("12(10)3(11)")
    assert w.letters == (1, 2, 10, 3, 11)
    assert bundled_word("petersen").letters == (
        1, 3, 8, 7, 2, 9, 6, 10, 7, 4, 9, 3, 5, 4, 1, 2, 8, 3, 10, 7,
        6, 8, 5, 10, 1, 9, 4, 5, 6, 2)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_word("")
    with pytest.raises(ParseError):
        parse_word("10")        # ambiguous: compact form has no digit 0
    with pytest.raises(ParseError):
        parse_word("120")
    with pytest.raises(ParseError):
        parse_word("1 0 2")
    with pytest.raises(ParseError):
        parse_word("1 x 2")
    with pytest.raises(ParseError):
        parse_word("12(10")     # unclosed group
    with pytest.raises(ParseError):
        parse_word("1(0)2")
    # str.isdigit and \d accept these; only ASCII digits are letters
    for digit in ("\u00b3", "\u0663"):
        for text in (f"1 2 {digit}", digit, f"12({digit})", f"1{digit}"):
            with pytest.raises(ParseError):
                parse_word(text)


def test_format_round_trip():
    # any word of length >= 2 round-trips (the output has separators);
    # single letters round-trip up to 9, and "1" is the only single-letter
    # word over a contiguous alphabet anyway
    rng = random.Random(5)
    for _ in range(50):
        letters = random_word(rng, 12, rng.randint(2, 10))
        w = word_from_letters(letters)
        assert parse_word(format_word(w)) == w
    for x in range(1, 10):
        assert parse_word(format_word(Word((x,)))) == Word((x,))
    assert format_word(Word((1, 10, 2))) == "1 10 2"


def test_bare_digit_run_is_compact():
    # a separator-free digit string is always read as compact digits
    assert parse_word("11").letters == (1, 1)
    assert parse_word("112233").letters == (1, 1, 2, 2, 3, 3)
