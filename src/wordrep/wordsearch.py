"""Bounded search for k-uniform representing words.

The word is built left to right; at each position the candidate letters
are tried in increasing label order, which fixes the output completely.

Symmetry: only words starting with letter 1 are searched. A cyclic shift
of a k-uniform word represents the same graph, so if any k-uniform word
represents g, one starting with 1 does, and the lex-least one starts
with 1 anyway. This prunes refutations only; every found word is the same.

Alternation itself prunes as the word grows, kept as per-letter bitmasks
(bit y set = letter y):

  * adj[x], non[x]: neighbours and non-neighbours of x;
  * wait[x]: letters that have not appeared since the last x and whose
    pair with x is still open: every neighbour, and each non-neighbour
    not yet broken;
  * broken[x]: non-neighbours whose restriction with x has repeated a
    letter, so the pair can never alternate;
  * one: letters seen with exactly one copy left.

Placing x again repeats x in its restriction with every letter of
wait[x]. If one of them is a neighbour, x is rejected (the pair could
never alternate again); the rest become broken. Once x has no copies
left, a non-neighbour y that is not broken with x and has at most one
copy left can never repeat either, so x is rejected too. Every pair is
checked that way when its later letter runs out, so a finished word
represents g.

The finish check reads one for "at most one copy left".  With one copy
of each letter (k = 1) no non-edge can ever repeat, so the search
returns None at once when g has one; that exit carries the k = 1 case,
leaving only complete graphs, where non[x] is 0.  For k >= 2, let x
place its last copy while a non-neighbour y is still open with x, and
suppose y has no copy left.  When y placed its last copy, x had r >= 1
copies left.  If r = 1, x had been placed, so it was in one, and y's
own finish check rejected y unless the pair was already broken.  If
r >= 2, x is placed twice after y's last copy with no y in between,
and at the second of these y is in wait[x], so the pair breaks.  Both
contradict y being open, so among x's open non-neighbours "at most one
copy left" and "in one" pick out the same letters.

Order of last copies: take y and z in one, L the one placed more
recently.  If y ~ z, their restriction alternates and ends with L, so
the other letter's last copy must come before L's.  If y and z are not
adjacent and their pair is not broken, the restriction alternates too,
and the order "other, L" would keep it alternating to the end, so L's
last copy must come first.  As masks, y's last copy must precede those
of (adj[y] & ~wait[y] | non[y] & wait[y]) & one (wait[y] already leaves
out the broken non-neighbours).  Last copies take distinct positions,
so a cycle in this order rules out every completion.  Placing some
other letter does not change the relation of y and z, and placing y or
z for the last time takes it out of one, so a cycle can only appear
through a letter x just added to one, which is last there: its
predecessors are adj[x] & one and its successors its open
non-neighbours in one.  x is rejected when a walk from its successors
along the order reaches a predecessor.  Only prefixes with no
representing completion are cut, so the word found and every
refutation stay the same, for any k.

Orientation prune: orient each edge of g from the letter whose first
copy comes first.  For a uniform word representing g this first-occurrence
orientation is semi-transitive (Halldorsson, Kitaev & Pyatkin, "Semi-
transitive orientations and word-representable graphs", DAM 2016).  So
when x first appears, every edge from x to a letter not yet seen must
point out of x; the edges to letters already seen were fixed when those
appeared.  As edge masks, these arcs are inc[x] & ~seen, x's edges less
those of the letters already seen, FORWARD where they go to a larger
letter (up[x]) and BACKWARD elsewhere.  They go to the propagate of one
_Searcher, kept for the whole call, with the orientation search's state
at the prefix, which search hands on beside seen and its other
per-prefix values and never reads.  propagate skips the arcs already in
force and places the rest through the closure's acyclicity test and the
four-cycle forcing rule, whose work list is a mask of cycle ids: the
cycles an arc has been placed on since they were last read.
A conflict (a forced arc pointing the other way, a 4-cycle with three
legs going one way round, or a directed cycle) rejects x; otherwise the
state it returns is the child's.  Each forced arc holds in every
semi-transitive orientation that extends the arcs in force, so the
first-occurrence orientation of any representing word extends the
partial orientation of each of its prefixes: no representing word is
cut.  That holds for every word, so it holds for the ones starting with
1 that the cyclic-shift symmetry keeps (each judged by its own first
occurrences), and the word found is the same lex-least one.

The prune is off when g has no 4-cycle with at most one chord (Petersen,
of girth 5, is such a graph), so the _Searcher's table of cycles is
empty: then nothing is ever forced, and arcs that all point from an
earlier first copy to a later one follow one order and cannot close a
cycle, so it would cut nothing and only cost time.

Neighbourhood test (find_word only): in a word-representable graph every
neighbourhood N(v) is a comparability graph (Kitaev & Pyatkin, "On
representable graphs", J. Autom. Lang. Comb. 2008).  Rotate a uniform
word representing g so that it starts with v and restrict it to N(v):
each letter of N(v) alternates with v, so one copy of each falls between
consecutive copies of v, and what is left is a concatenation of
permutations of N(v) that represents N(v).  Permutationally representable
graphs are exactly the comparability graphs (Kitaev & Seif, "Word problem
of the Perkins semigroup via directed acyclic graphs", Order 2008).  So
find_word, after k = 1 and before its first k >= 2 search, asks
graphs._non_comparability_vertex for such a v; it drops from each N(v)
the vertices adjacent to all the rest or to none of it, and tests what
is left by implication classes when five or more remain.  A vertex named
refutes g at every k, with no search and so with nodes 0.  The test runs
only when the k = 2 search would, 2n within SEARCH_MAX_LETTERS, so every
input that hit the letter cap at k = 1 or 2 still does.  decide runs the
same test, at its search's first failure, so only verify_certificate's
walk re-checks such a refutation by its own route.
"""

from __future__ import annotations

from .errors import OutOfRangeError, TooLargeError
from .graphs import Graph, _Frozen, _integer, _non_comparability_vertex
from .orientations import _Searcher
from .words import Word

SEARCH_MAX_LETTERS = 30
DEFAULT_K_MAX = 3


class WordSearchResult(_Frozen):
    # k_tried: the multiplicity reached (the successful k, or the cap)
    _fields = ("word", "k_tried", "nodes")

    def __init__(self, word: Word | None, k_tried: int, nodes: int):
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "k_tried", k_tried)
        object.__setattr__(self, "nodes", nodes)


def find_k_uniform_word(g: Graph, k: int, _node_counter: list[int] | None = None) -> Word | None:
    """First k-uniform representing word in the deterministic order, or
    None when no k-uniform word represents g.  A non-integer k raises
    OutOfRangeError (_integer)."""
    k = _integer(k, "multiplicity")
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
    if k == 1 and any(non):
        return None   # with one copy each, a non-edge can never repeat

    remaining = [k] * (n + 1)
    st = _Searcher(g)
    # after its first copy x has k - 1 left; with no 4-cycle of at most
    # one chord the orientation prune cuts nothing, and -1 never matches
    first_left = k - 1 if st.cycles else -1
    propagate = st.propagate
    # inc[x]: x's edges, as an edge mask; up[x]: those to a larger letter,
    # which point out of x FORWARD
    inc, up = [0] * (n + 1), [0] * (n + 1)
    for e, (u, v) in enumerate(g.edges):
        inc[u] |= 1 << e
        inc[v] |= 1 << e
        up[u] |= 1 << e
    word: list[int] = []
    count = 0   # nodes; one add to the caller's list at the end is cheaper

    def search(wait: list[int], broken: list[int], one: int, state: tuple, seen: int) -> bool:
        # the lists belong to the caller: children get copies.  one: the
        # letters seen with one copy left.  seen: the edges of the letters
        # already in the word, as an edge mask
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
            child_broken = broken
            if fresh:
                child_broken = broken[:]
                child_broken[x] |= fresh
                while fresh:
                    low = fresh & -fresh
                    child_broken[low.bit_length() - 1] |= bx
                    fresh ^= low
            if not left:
                if non[x] & ~child_broken[x] & one:
                    continue
                child_one = one & ~bx
            elif left == 1:
                # x's last copy must follow those of its neighbours in one
                # and precede those of its open non-neighbours there; a
                # walk along the same order from the latter must not reach
                # the former
                pred = adj[x] & one
                reach = todo = non[x] & ~child_broken[x] & one
                while todo and not reach & pred:
                    low = todo & -todo
                    todo ^= low
                    y = low.bit_length() - 1
                    w = wait[y]
                    new = (adj[y] & ~w | non[y] & w) & one & ~reach
                    reach |= new
                    todo |= new
                if reach & pred:
                    continue
                child_one = one | bx
            else:
                child_one = one
            child_state, child_seen = state, seen
            if left == first_left:
                # x's first copy: its edges to unseen letters point out of
                # x.  propagate skips an arc already in force and refuses
                # one forced the other way, as it closes a cycle.
                arcs = inc[x] & ~seen
                if arcs:
                    result = propagate(*state, arcs & up[x], arcs & ~up[x])
                    if result[0] is not None:
                        continue
                    child_state = result[1:]
                child_seen = seen | inc[x]
            not_x = ~bx
            child_wait = [w & not_x for w in wait]
            # every other letter, less the non-neighbours broken with x
            child_wait[x] = full & not_x & ~child_broken[x]
            remaining[x] = left
            word.append(x)
            if search(child_wait, child_broken, child_one, child_state, child_seen):
                return True
            word.pop()
            remaining[x] = left + 1
        return False

    found = search([0] * (n + 1), [0] * (n + 1), 0, (0, 0, 0), 0)
    nodes[0] += count
    return Word(tuple(word)) if found else None


def find_word(g: Graph, k_max: int = DEFAULT_K_MAX) -> WordSearchResult:
    """Iterate k = 1..k_max, returning the first success.  A non-integer
    k_max raises OutOfRangeError (_integer).

    Before the k = 2 search, and only when it would run (k_max >= 2 and
    2n letters within SEARCH_MAX_LETTERS, so every input that raised
    TooLargeError at k = 1 or 2 still does), g is refuted with no search
    when some neighbourhood is not a comparability graph, which no word
    of any k allows (the module docstring gives the theorem).  The k = 1
    attempt has then counted no node either, a non-edge ending it before
    its first, so nodes is 0; k_tried is k_max, as for any refutation."""
    k_max = _integer(k_max, "k_max")
    if k_max < 1:
        raise OutOfRangeError(f"k_max must be >= 1, got {k_max}")
    counter = [0]
    for k in range(1, k_max + 1):
        if k == 2 and 2 * g.n <= SEARCH_MAX_LETTERS and _non_comparability_vertex(g) is not None:
            break
        w = find_k_uniform_word(g, k, counter)
        if w is not None:
            return WordSearchResult(w, k, counter[0])
    return WordSearchResult(None, k_max, counter[0])
