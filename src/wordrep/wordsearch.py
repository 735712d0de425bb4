"""Bounded search for k-uniform representing words.

The word is built left to right; at each position the candidate letters
are tried in increasing label order, which fixes the output completely.

Symmetry: only words starting with letter 1 are searched. A cyclic shift
of a k-uniform word represents the same graph, so if any k-uniform word
represents g, one starting with 1 does, and the lex-least one starts
with 1 anyway. This prunes refutations only; every found word is the same.

The only other pruning is alternation itself, kept as per-letter bitmasks
(bit y set = letter y):

  * adj[x], non[x]: neighbours and non-neighbours of x;
  * wait[x]: letters that have not appeared since the last x and whose
    pair with x is still open: every neighbour, and each non-neighbour
    not yet broken;
  * broken[x]: non-neighbours whose restriction with x has repeated a
    letter, so the pair can never alternate;
  * rem2: letters with two or more copies left.

Placing x again repeats x in its restriction with every letter of
wait[x]. If one of them is a neighbour, x is rejected (the pair could
never alternate again); the rest become broken. Once x has no copies
left, a non-neighbour y that is not broken with x and has at most one
copy left can never repeat either, so x is rejected too. Every pair is
checked that way when its later letter runs out, so a finished word
represents g.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import TooLargeError
from .graphs import Graph
from .words import Word

SEARCH_MAX_LETTERS = 30
DEFAULT_K_MAX = 3


@dataclass(frozen=True)
class WordSearchResult:
    word: Word | None
    k_tried: int   # multiplicity reached (the successful k, or the cap)
    nodes: int
    wall_time_s: float


def find_k_uniform_word(g: Graph, k: int, _node_counter: list[int] | None = None) -> Word | None:
    """First k-uniform representing word in the deterministic order, or
    None when no k-uniform word represents g."""
    if k < 1:
        raise TooLargeError(f"multiplicity must be >= 1, got {k}")
    if g.n * k > SEARCH_MAX_LETTERS:
        raise TooLargeError(
            f"word search capped at {SEARCH_MAX_LETTERS} letters, "
            f"asked for {g.n}*{k}")
    n = g.n
    length = n * k
    nodes = _node_counter if _node_counter is not None else [0]

    letters = range(1, n + 1)
    full = sum(1 << x for x in letters)
    adj = g.adj
    non = [0] + [full & ~adj[x] & ~(1 << x) for x in letters]
    remaining = [k] * (n + 1)
    word: list[int] = []

    def search(wait: list[int], broken: list[int], rem2: int) -> bool:
        # the lists belong to the caller: children get copies
        nodes[0] += 1
        if len(word) == length:
            return True   # each pair was checked when its later letter ran out
        for x in letters if word else (1,):   # cyclic shifts: start with 1
            left = remaining[x]
            if not left:
                continue
            fresh = wait[x]   # x repeats in its restriction with these
            if fresh & adj[x]:
                continue
            bx = 1 << x
            left -= 1
            child_rem2 = rem2 & ~bx if left < 2 else rem2
            child_broken = broken
            if fresh:
                child_broken = broken[:]
                child_broken[x] |= fresh
                while fresh:
                    low = fresh & -fresh
                    child_broken[low.bit_length() - 1] |= bx
                    fresh ^= low
            if not left and non[x] & ~child_broken[x] & ~child_rem2:
                continue
            not_x = ~bx
            child_wait = [w & not_x for w in wait]
            child_wait[x] = adj[x] | non[x] & ~child_broken[x]
            remaining[x] = left
            word.append(x)
            if search(child_wait, child_broken, child_rem2):
                return True
            word.pop()
            remaining[x] = left + 1
        return False

    rem2 = full if k >= 2 else 0
    if rem2 == 0 and any(non):
        return None   # with one copy each, a non-edge can never repeat
    if search([0] * (n + 1), [0] * (n + 1), rem2):
        return Word(tuple(word))
    return None


def find_word(g: Graph, k_max: int = DEFAULT_K_MAX) -> WordSearchResult:
    """Iterate k = 1..k_max, returning the first success."""
    if k_max < 1:
        raise TooLargeError(f"k_max must be >= 1, got {k_max}")
    counter = [0]
    start = time.perf_counter()
    for k in range(1, k_max + 1):
        w = find_k_uniform_word(g, k, counter)
        if w is not None:
            return WordSearchResult(w, k, counter[0], time.perf_counter() - start)
    return WordSearchResult(None, k_max, counter[0], time.perf_counter() - start)
