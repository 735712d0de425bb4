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
from wordrep.errors import TooLargeError
from wordrep.graphs import (
    CanonicalForm,
    Graph,
    GraphClass,
    _bits,
    _orbit_codes,
    graph_from_edge_list,
)
from wordrep.orientations import BACKWARD, FORWARD, Conflict, Orientation, is_semi_transitive


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


def ref_find_shortcut(o: Orientation):
    """find_shortcut by the literal path definition: a cyclic
    orientation's witness is the first arc whose stored prefix
    ref_is_acyclic rejects; otherwise, for each arc t->h in stored order,
    every directed path from t is walked until it reaches h or a sink,
    and the first path of three or more arcs that misses an inner pair
    arc is the witness."""
    arcs = [(u, v) if d == FORWARD else (v, u) for (u, v), d in zip(o.base.edges, o.dirs)]
    if not ref_is_acyclic(o.base.n, arcs):
        i = next(i for i in range(len(arcs)) if not ref_is_acyclic(o.base.n, arcs[:i + 1]))
        return Conflict("DirectedCycle", arcs[i])
    out = [0] * (o.base.n + 1)
    into = [0] * (o.base.n + 1)
    for t, h in arcs:
        out[t] |= 1 << h
        into[h] |= 1 << t

    def dfs(h, path, on_path, closed):
        for w in _bits(out[path[-1]]):
            if w == h:
                if len(path) >= 3 and not (closed and on_path & ~into[h] == 0):
                    return tuple(path) + (h,)
                continue
            path.append(w)
            hit = dfs(h, path, on_path | 1 << w, closed and on_path & ~into[w] == 0)
            path.pop()
            if hit is not None:
                return hit
        return None

    for t, h in arcs:
        hit = dfs(h, [t], 1 << t, True)
        if hit is not None:
            return Conflict("Shortcut", hit)
    return None


def unpacked_closure(s, c) -> list[int]:
    """A closure c packed as the orientation searcher s packs it, as one
    descendant mask per vertex: entry v is row v, bits v*w to v*w + w - 1
    (entry 0 unused)."""
    return [c >> v * s.w & s.row for v in range(s.w)]


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
    4-cycles of ref_four_cycles less those with both chords, in
    lexicographic order, each as (legs, cycle), legs the four (edge, sign)
    in traversal order, sign +1 when the stored (u < v) direction agrees
    with the traversal a->b->c->d->a and -1 when not."""
    cycles = []
    for a, b, c, d in ref_four_cycles(g):
        if g.has_edge(a, c) and g.has_edge(b, d):
            continue
        legs = tuple((g.edge_index[min(x, y), max(x, y)], 1 if x < y else -1)
                     for x, y in ((a, b), (b, c), (c, d), (d, a)))
        cycles.append((legs, (a, b, c, d)))
    return cycles


def arc_masks(arcs) -> tuple[int, int]:
    """(edge, direction) pairs as the search's two edge masks: the edges
    to place FORWARD, and those to place BACKWARD."""
    arcs = list(arcs)
    return (sum(1 << e for e, d in arcs if d == FORWARD),
            sum(1 << e for e, d in arcs if d == BACKWARD))


def ref_propagate(g: Graph, dirs, arcs, place, rng: random.Random | None = None):
    """The four-cycle forcing rule walked leg by leg through a list of
    directions (dirs[e] is FORWARD, BACKWARD or None), as the search ran
    it before it held its state in edge masks.  The cycles and their
    signed legs come from ref_cycle_legs, not from the search's index, so
    no mask is read.

    Place each (edge, direction) of arcs, then run the rule to fixpoint
    over the set of dirty cycles, those with a leg placed since they were
    last read: once two legs of a cycle go one way round, every free leg
    is forced the other way and placed at once, and dirties its cycles,
    the one that forced it included.  place(e, d) sets dirs[e] = d and
    returns False to refuse.  Returns None when all is placed, a cycle
    with three legs going one way round, or the arc (tail, head) that
    place refused.

    The pending work (the arcs to place, the dirty cycles, each cycle's
    forced legs) is taken lowest first, edges by index and cycles in
    lexicographic order, as the search takes it, or, given rng, in a
    shuffled order."""
    cycles = ref_cycle_legs(g)

    def arc(e, d):
        return g.edges[e] if d == FORWARD else g.edges[e][::-1]

    def order(pending):
        return rng.sample(sorted(pending), len(pending)) if rng else sorted(pending)

    through = [[] for _ in g.edges]   # each edge's cycle ids
    for i, (legs, _) in enumerate(cycles):
        for e, _sign in legs:
            through[e].append(i)
    dirty = set()
    for e, d in order(arcs):
        if not place(e, d):
            return arc(e, d)
        dirty.update(through[e])
    while dirty:
        i = order(dirty)[0]
        dirty.remove(i)
        legs, cycle = cycles[i]
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
        if ahead == 2 or back == 2:
            for f, sign in order(free):
                d = -sign if ahead == 2 else sign
                if not place(f, d):
                    return arc(f, d)
                dirty.update(through[f])
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


def acyclic_orientations(g: Graph):
    """Every acyclic orientation of g once, lexicographic (all-FORWARD first),
    with no search: edge by edge in stored order, FORWARD before BACKWARD, an
    arc is refused when its head reaches its tail.  No branch dies: an acyclic
    partial orientation extends to a total one along a topological order.  At
    most n! come out, so n <= 8.  closure holds at bit x * n the row x reaches;
    placing t->h ORs row h into each row holding t: their col bits times it.
    Tested against enumerate_total_orientations and vertex_order_orientations;
    with is_semi_transitive it is the generate-and-test reference that
    semi_transitive_orientations, which cuts branches, is checked against."""
    n, last = g.n, len(g.edges) - 1
    if n > 8:
        raise TooLargeError(f"acyclic orientation walk supports n <= 8, got {n}")
    col, row = sum(1 << x * n for x in range(n)), (1 << n) - 1
    steps = [((FORWARD, 1 << (v - 1) * n + u - 1, u - 1, (v - 1) * n),
              (BACKWARD, 1 << (u - 1) * n + v - 1, v - 1, (u - 1) * n)) for u, v in g.edges]
    leaves = [] if steps else [()]

    def extend(i: int, closure: int, dirs: tuple[int, ...]) -> None:
        for d, refused, t, h in steps[i]:   # h: the head's row offset
            if closure & refused:
                continue
            if i == last:
                leaves.append(dirs + (d,))
            else:
                extend(i + 1, closure | (closure >> t & col) * (closure >> h & row), dirs + (d,))

    if steps:
        extend(0, sum(1 << x * (n + 1) for x in range(n)), ())   # x reaches x
    yield from (Orientation(g, dirs) for dirs in leaves)


def generate_and_test_count(g: Graph) -> int:
    """The number of semi-transitive orientations by plain generate-and-test:
    is_semi_transitive on every acyclic orientation."""
    return sum(map(is_semi_transitive, acyclic_orientations(g)))


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
# comparability graphs

def ref_comparability(g: Graph) -> bool:
    """Generate-and-test: whether some acyclic orientation of g is
    transitive, each arc's head pointing only where its tail points.  A
    transitive orientation has no directed cycle, so the acyclic ones are
    the only candidates."""
    for o in acyclic_orientations(g):
        out = [set() for _ in range(g.n + 1)]
        for t, h in o.arcs():
            out[t].add(h)
        if all(out[h] <= out[t] for t, h in o.arcs()):
            return True
    return False


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
    """The class sweep computed from scratch, as (class, representative)
    pairs: every class's n! orbit codes come from one gather-sum over the
    relabel table, where the package updates the last class's codes by the
    slots that change, and every representative is built by testing each
    of the C(n,2) slots of its code, where the package walks the set bits."""
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
        yield GraphClass(CanonicalForm(n, mask), aut, fact // aut), Graph(n, tuple(edges))
        mask = seen.find(0, mask + 1)


# ---------------------------------------------------------------------------
# generators

def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    pairs = [e for e in itertools.combinations(range(1, n + 1), 2)
             if rng.random() < p]
    return graph_from_edge_list(n, pairs)


def random_regular(rng: random.Random, n: int, d: int) -> Graph:
    """A random d-regular graph: shuffle d copies of each vertex and pair
    them off, until the pairs hold no loop and no repeated edge."""
    while True:
        points = [v for v in range(1, n + 1) for _ in range(d)]
        rng.shuffle(points)
        pairs = {tuple(sorted(points[i:i + 2])) for i in range(0, n * d, 2)}
        if len(pairs) == n * d // 2 and all(u != v for u, v in pairs):
            return graph_from_edge_list(n, sorted(pairs))


def wheel_hub_last(k: int) -> Graph:
    """W_k with the rim 1..k in cycle order and the hub k + 1."""
    rim = [(v, v % k + 1) for v in range(1, k + 1)]
    return graph_from_edge_list(k + 1, rim + [(v, k + 1) for v in range(1, k + 1)])


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
