"""Reference implementations and generators shared by the test modules.

Everything here re-derives the definitions from scratch with different
data structures than the package (lists/sets/dicts instead of bitmasks,
literal pattern matching instead of incremental scans), so agreement is
meaningful.
"""

from __future__ import annotations

import itertools
import math
import operator
import pathlib
import random

import numpy as np

import wordrep
from wordrep.bundled import GRAPH_NAMES
from wordrep.cli import main
from wordrep.graphs import (
    CanonicalForm,
    Graph,
    GraphClass,
    _orbit_codes,
    graph_from_edge_list,
)
from wordrep.orientations import BACKWARD, FORWARD, Orientation


# ---------------------------------------------------------------------------
# words

def ref_alternates(letters, x: int, y: int) -> bool:
    """Literal reading of the definition: the restriction to {x, y} holds
    only those two letters, so it is xyxy... or yxyx... exactly when no
    two neighbours in it are equal."""
    r = [a for a in letters if a == x or a == y]
    return not any(map(operator.eq, r, r[1:]))


def k_uniform_words(n: int, k: int):
    """All words with each of 1..n exactly k times, lexicographic order:
    the sorted word, then multiset next-permutation until none is left."""
    word = [x for x in range(1, n + 1) for _ in range(k)]
    while True:
        yield tuple(word)
        # the longest non-increasing suffix starts after position i
        i = len(word) - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        # swap word[i] with the last suffix letter above it, then sort
        # the suffix by reversing it
        j = len(word) - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1:] = word[:i:-1]


def naive_lex_min_word(g: Graph, k: int):
    """Generate-and-test oracle: first k-uniform word representing g in
    lexicographic order, or None.  A word represents g when every pair
    of letters alternates exactly if it is an edge."""
    pairs = [(x, y, g.has_edge(x, y))
             for x, y in itertools.combinations(range(1, g.n + 1), 2)]
    for letters in k_uniform_words(g.n, k):
        for x, y, adjacent in pairs:
            if ref_alternates(letters, x, y) != adjacent:
                break
        else:
            return letters
    return None


def two_uniform_placements(n: int):
    """Every 2-uniform word on letters 1..n, as int8 blocks of letter
    positions: pos[r, x] holds the two ascending positions of letter x + 1
    in word r.  One block per pair of slots that letter 1 takes, so a
    caller holds 1/C(2n, 2) of the words at a time (113,400 at n = 6)."""
    rest = (np.concatenate(list(two_uniform_placements(n - 1))) if n > 1
            else np.zeros((1, 0, 2), np.int8))
    for a, b in itertools.combinations(range(2 * n), 2):
        free = np.delete(np.arange(2 * n, dtype=np.int8), [a, b])
        block = np.empty((len(rest), n, 2), np.int8)
        block[:, 0] = a, b
        block[:, 1:] = free[rest]
        yield block


def placement_alternates(pos, x: int, y: int):
    """Per word, whether letters x and y alternate: exactly one y lies
    between the two x's."""
    a1, a2, b1, b2 = pos[:, x - 1, 0], pos[:, x - 1, 1], pos[:, y - 1, 0], pos[:, y - 1, 1]
    return ((a1 < b1) & (b1 < a2)) != ((a1 < b2) & (b2 < a2))


def placement_words(pos):
    """The words, as tuples, whose letter positions pos holds."""
    rows, n, _ = pos.shape
    words = np.empty((rows, 2 * n), np.int8)
    letters = np.repeat(np.arange(1, n + 1, dtype=np.int8), 2)
    np.put_along_axis(words, pos.reshape(rows, 2 * n).astype(np.intp),
                      np.broadcast_to(letters, words.shape), axis=1)
    return [tuple(w) for w in words.tolist()]


def lex_min_2_uniform_word(g: Graph):
    """naive_lex_min_word(g, 2) vectorised: every 2-uniform word, and
    every letter pair in it, is tested against g's edges, one block of
    placements at a time."""
    pairs = [(x, y, g.has_edge(x, y))
             for x, y in itertools.combinations(range(1, g.n + 1), 2)]
    found = []
    for pos in two_uniform_placements(g.n):
        ok = np.ones(len(pos), bool)
        for x, y, adjacent in pairs:
            ok &= placement_alternates(pos, x, y) == adjacent
        found.extend(placement_words(pos[ok]))
    return min(found, default=None)


# ---------------------------------------------------------------------------
# orientations

def ref_is_acyclic(n: int, arcs) -> bool:
    arcs = set(arcs)
    verts = set(range(1, n + 1))
    while verts:
        sources = {v for v in verts
                   if not any((u, v) in arcs for u in verts)}
        if not sources:
            return False
        verts -= sources
        arcs = {(u, v) for (u, v) in arcs if u in verts and v in verts}
    return True


def unpacked_closure(s) -> list[int]:
    """An orientation searcher's packed closure as one descendant mask per
    vertex: entry v is row v, bits v*w to v*w + w - 1 (entry 0 unused)."""
    return [s.closure >> v * s.w & s.row for v in range(s.w)]


def ref_is_semi_transitive(g: Graph, arcs) -> bool:
    arcs = set(arcs)
    if not ref_is_acyclic(g.n, arcs):
        return False
    succ = {v: sorted(w for (u, w) in arcs if u == v) for v in g.vertices()}

    def paths(frm, to):
        # all simple directed paths frm -> to
        stack = [(frm, (frm,))]
        while stack:
            v, path = stack.pop()
            for w in succ[v]:
                if w == to:
                    yield path + (to,)
                elif w not in path:
                    stack.append((w, path + (w,)))

    for (t, h) in arcs:
        for path in paths(t, h):
            if len(path) < 4:
                continue
            for i, j in itertools.combinations(range(len(path)), 2):
                if (path[i], path[j]) not in arcs:
                    return False
    return True


def ref_four_cycles(g: Graph):
    found = set()
    for quad in itertools.combinations(g.vertices(), 4):
        for a, b, c, d in itertools.permutations(quad):
            if a != min(quad) or b > d:
                continue
            if g.has_edge(a, b) and g.has_edge(b, c) and \
                    g.has_edge(c, d) and g.has_edge(d, a):
                found.add((a, b, c, d))
    return sorted(found)


def ref_cycle_legs(g: Graph):
    """The forcing rule's cycles from the literal quadruple scan: the
    4-cycles of ref_four_cycles less those with both chords, each listed
    under its four edges as (legs, cycle), legs the four (edge, sign) in
    traversal order, sign +1 when the stored (u < v) direction agrees
    with the traversal a->b->c->d->a and -1 when not."""
    by_edge = [[] for _ in g.edges]
    for a, b, c, d in ref_four_cycles(g):
        if g.has_edge(a, c) and g.has_edge(b, d):
            continue
        legs = tuple((g.edge_index[min(x, y), max(x, y)], 1 if x < y else -1)
                     for x, y in ((a, b), (b, c), (c, d), (d, a)))
        for e, _sign in legs:
            by_edge[e].append((legs, (a, b, c, d)))
    return by_edge


def ref_propagate(g: Graph, dirs, arcs, place):
    """The four-cycle forcing rule walked leg by leg through a list of
    directions (dirs[e] is FORWARD, BACKWARD or None), as the search ran
    it before it held its state in edge masks.  The cycles and their
    signed legs come from ref_cycle_legs, not from the search's index, so
    no mask is read.

    Place each (edge, direction) of arcs, then run the rule to fixpoint:
    once two legs of a cycle go one way round, every free leg is forced
    the other way.  place(e, d) sets dirs[e] = d and returns False to
    refuse.  Returns None when all is placed, a cycle with three legs
    going one way round, or () when place refused."""
    cycles = ref_cycle_legs(g)
    for e, d in arcs:
        if not place(e, d):
            return ()
    # (edge, forced direction), or (edge, None) for an edge already placed
    queue = [(e, None) for e, _ in arcs]
    while queue:
        e, d = queue.pop()
        if d is not None:
            if dirs[e] is not None:
                continue
            if not place(e, d):
                return ()
        for legs, cycle in cycles[e]:
            free = []
            ahead = back = 0   # legs going round, and going back
            for f, sign in legs:
                x = dirs[f]
                if x is None:
                    free.append((f, sign))
                elif x == sign:
                    ahead += 1
                else:
                    back += 1
            if ahead > 2 or back > 2:
                return cycle
            # the free legs go the other way: back is -sign, round is sign
            if ahead == 2:
                queue += [(f, -sign) for f, sign in free]
            elif back == 2:
                queue += free
    return None


def ref_blocks(g: Graph):
    """Edge indices of each block, in stored order, blocks by first edge,
    from the definition: two edges share a block iff they lie on a common
    simple cycle, and an edge on no cycle is a block alone.  Every simple
    cycle is listed from its least vertex, as the set of its edges."""
    nbrs = {v: [w for w in g.vertices() if tuple(sorted((v, w))) in g.edges]
            for v in g.vertices()}
    cycles = []

    def extend(path):
        for w in nbrs[path[-1]]:
            if w == path[0] and len(path) >= 3:
                ring = path + [w]
                cycles.append({tuple(sorted(p)) for p in zip(ring, ring[1:])})
            elif w > path[0] and w not in path:
                extend(path + [w])

    for v in g.vertices():
        extend([v])
    blocks = set()
    for e in g.edges:
        shared = {e}.union(*(c for c in cycles if e in c))
        blocks.add(tuple(sorted(g.edges.index(f) for f in shared)))
    return sorted(map(list, blocks))


def enumerate_total_orientations(g: Graph):
    """All 2^m total orientations, lexicographic with FORWARD < BACKWARD:
    the literal generate-and-test sweep the acyclic orientation walk is
    checked against."""
    for dirs in itertools.product((FORWARD, BACKWARD), repeat=len(g.edges)):
        yield Orientation(g, dirs)


def vertex_order_orientations(g: Graph):
    """Every acyclic orientation once, lexicographic with FORWARD <
    BACKWARD, from the n! vertex orders: each acyclic orientation is the
    one its topological orders induce, so the orders induce all of them
    and nothing else.  Rows are de-duplicated and sorted by their keys,
    first edge most significant."""
    pos = np.array(list(itertools.permutations(range(g.n))), np.int8)
    # back[p, e]: stored edge e = (u, v) points backward, v is before u in p
    back = pos[:, [u - 1 for u, _ in g.edges]] > pos[:, [v - 1 for _, v in g.edges]]
    _, first = np.unique(back @ (1 << np.arange(len(g.edges))[::-1]), return_index=True)
    for row in np.where(back[first], BACKWARD, FORWARD).tolist():
        yield Orientation(g, tuple(row))


def total_orientations_as_arcs(g: Graph):
    for choices in itertools.product((0, 1), repeat=len(g.edges)):
        yield [
            (u, v) if pick == 0 else (v, u)
            for (u, v), pick in zip(g.edges, choices)]


# ---------------------------------------------------------------------------
# colourings

def ref_colorable(g: Graph, k: int) -> bool:
    """Generate-and-test: whether some assignment of k colours to the n
    vertices leaves no edge with both ends one colour."""
    return any(all(col[u - 1] != col[v - 1] for u, v in g.edges)
               for col in itertools.product(range(k), repeat=g.n))


# ---------------------------------------------------------------------------
# isomorphism

def brute_canonical(g: Graph):
    """Minimum relabeled edge tuple over all n! permutations."""
    best = None
    for perm in itertools.permutations(range(1, g.n + 1)):
        relabeled = tuple(sorted(
            tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in g.edges))
        if best is None or relabeled < best:
            best = relabeled
    return (g.n, best)


def ref_enumerate_graphs(n: int):
    """The class sweep computed from scratch: every class's n! orbit codes
    come from one gather-sum over the relabel table, where the package
    updates the last class's codes by the slots that change, and every
    representative is built by testing each of the C(n,2) slots of its
    code, where the package walks the set bits."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    fact = math.factorial(n)
    seen = bytearray(1 << math.comb(n, 2))
    marks = np.frombuffer(seen, dtype=np.uint8)
    mask = 0
    while mask != -1:
        codes = _orbit_codes(n, mask)
        marks[codes] = 1
        aut = int((codes == mask).sum())
        edges = [p for i, p in enumerate(pairs) if mask >> (len(pairs) - 1 - i) & 1]
        yield GraphClass(Graph(n, tuple(edges)), CanonicalForm(n, mask), aut, fact // aut)
        mask = seen.find(0, mask + 1)


# ---------------------------------------------------------------------------
# generators

def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    pairs = [e for e in itertools.combinations(range(1, n + 1), 2)
             if rng.random() < p]
    return graph_from_edge_list(n, pairs)


def random_word(rng: random.Random, alphabet: int, length: int):
    return tuple(rng.randint(1, alphabet) for _ in range(length))


def random_3partite(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    parts = [rng.randrange(3) for _ in range(n + 1)]
    pairs = [
        (u, v) for u, v in itertools.combinations(range(1, n + 1), 2)
        if parts[u] != parts[v] and rng.random() < p]
    return graph_from_edge_list(n, pairs)


def all_graphs(n: int):
    """Every labelled graph on n vertices."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        yield graph_from_edge_list(
            n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


# ---------------------------------------------------------------------------
# command line

def run_cli(capsys, *argv) -> tuple[int, str]:
    """Exit code and stdout of main(argv); a bundled graph's name stands
    for its edge-list file."""
    data = pathlib.Path(wordrep.__file__).parent / "data"
    code = main([str(data / f"{a}.edges") if a in GRAPH_NAMES else a for a in argv])
    return code, capsys.readouterr().out
