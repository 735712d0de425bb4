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

Orientation prune: orient each edge of g from the letter whose first
copy comes first.  For a uniform word representing g this first-occurrence
orientation is semi-transitive (Halldorsson, Kitaev & Pyatkin, "Semi-
transitive orientations and word-representable graphs", DAM 2016).  So
when x first appears, every edge from x to a letter not yet seen must
point out of x; the edges to letters already seen were fixed when those
appeared.  These arcs go into one _Searcher, the orientation search's
state, kept for the whole call: its assign skips the ones already in
force and places the rest through the four-cycle forcing rule and the
closure's acyclicity test.  A conflict (a forced arc pointing the other
way, a 4-cycle with three legs going one way round, or a directed cycle)
rejects x; retract restores the search's two edge masks and closure,
after a rejection or on backtracking.  The word search never reads
them.  Each forced arc holds in every semi-transitive orientation that
extends the arcs in force, so the first-occurrence orientation of any
representing word extends the partial orientation of each of its
prefixes: no representing word is cut.  That holds for every word, so
it holds for the ones starting with 1 that the cyclic-shift symmetry
keeps (each judged by its own first occurrences), and the word found is
the same lex-least one.

The prune is off when g has no 4-cycle with at most one chord (Petersen,
of girth 5, is such a graph): then nothing is ever forced, and arcs that
all point from an earlier first copy to a later one follow one order and
cannot close a cycle, so it would cut nothing and only cost time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OutOfRangeError, TooLargeError
from .graphs import Graph
from .orientations import BACKWARD, FORWARD, SearchStats, _Searcher
from .words import Word

SEARCH_MAX_LETTERS = 30
DEFAULT_K_MAX = 3


@dataclass(frozen=True)
class WordSearchResult:
    word: Word | None
    k_tried: int   # multiplicity reached (the successful k, or the cap)
    nodes: int


def find_k_uniform_word(g: Graph, k: int, _node_counter: list[int] | None = None) -> Word | None:
    """First k-uniform representing word in the deterministic order, or
    None when no k-uniform word represents g."""
    if k < 1:
        raise OutOfRangeError(f"multiplicity must be >= 1, got {k}")
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
    rem2 = full if k >= 2 else 0
    if rem2 == 0 and any(non):
        return None   # with one copy each, a non-edge can never repeat

    remaining = [k] * (n + 1)
    st = _Searcher(g, SearchStats())
    # after its first copy x has k - 1 left; with no 4-cycle of at most
    # one chord the orientation prune cuts nothing, and -1 never matches
    first_left = k - 1 if any(st.cycles) else -1
    assign, retract = st.assign, st.retract
    # out_arcs[x]: (neighbour y, edge x-y, the direction x -> y)
    out_arcs: list[list[tuple[int, int, int]]] = [[] for _ in range(n + 1)]
    for e, (u, v) in enumerate(g.edges):
        out_arcs[u].append((v, e, FORWARD))
        out_arcs[v].append((u, e, BACKWARD))
    word: list[int] = []
    count = 0   # nodes; one add to the caller's list at the end is cheaper

    def search(wait: list[int], broken: list[int], rem2: int) -> bool:
        # the lists belong to the caller: children get copies
        nonlocal count
        count += 1
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
            if left == first_left:
                # x's first copy: its edges to unseen letters point out of
                # x.  assign skips an arc already in force and refuses one
                # forced the other way, as it closes a cycle.  With no
                # arcs there is nothing to assign or retract.
                arcs = [(e, d) for y, e, d in out_arcs[x] if remaining[y] == k]
                if arcs and not assign(arcs):
                    retract()
                    continue
            not_x = ~bx
            child_wait = [w & not_x for w in wait]
            # every other letter, less the non-neighbours broken with x
            child_wait[x] = full & not_x & ~child_broken[x]
            remaining[x] = left
            word.append(x)
            if search(child_wait, child_broken, child_rem2):
                return True
            word.pop()
            remaining[x] = left + 1
            if left == first_left and arcs:
                retract()
        return False

    found = search([0] * (n + 1), [0] * (n + 1), rem2)
    nodes[0] += count
    return Word(tuple(word)) if found else None


def find_word(g: Graph, k_max: int = DEFAULT_K_MAX) -> WordSearchResult:
    """Iterate k = 1..k_max, returning the first success."""
    if k_max < 1:
        raise OutOfRangeError(f"k_max must be >= 1, got {k_max}")
    counter = [0]
    for k in range(1, k_max + 1):
        w = find_k_uniform_word(g, k, counter)
        if w is not None:
            return WordSearchResult(w, k, counter[0])
    return WordSearchResult(None, k_max, counter[0])
