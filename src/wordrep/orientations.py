"""Directed side of the toolkit: orientations of a graph's edges,
acyclicity, shortcut detection, semi-transitivity, the four-cycle forcing
rule, the backtracking search for a semi-transitive orientation (one
connected component at a time, one block at a time when counting), and
the walk over acyclic orientations, cut at the first placed shortcut,
that re-checks it.

The search's state is three ints, passed down as values: two edge masks
of the partial orientation, FORWARD and BACKWARD, and its reachability
closure packed into one int.  So the forcing rule counts a cycle's legs
by popcount, acyclicity is a one-bit test per arc, semi-transitivity at
a leaf is a few mask tests on the packed closure, read in place (the
interval lemma, _no_shortcut), and backtracking undoes nothing.
find_shortcut, is_semi_transitive and the walk
semi_transitive_orientations, the independent route that certificates
and counts are re-checked by, test the same lemma per arc instead, on
one descendant and one ancestor mask per vertex (_far_pair).
The census certifies most small graphs with no search and no Graph, by
vertex orders tested on their codes (graphs._order_semi_transitive).

Each route grows reachability by one rule.  The search's is the packed
row update in _Searcher.propagate: placing t->h ORs h and all h reaches
into the rows of t and of every ancestor of t, one product.  The
re-check route's is _place, the same step on one descendant and one
ancestor mask per vertex, which find_shortcut and the walk both add
their arcs by.

An orientation assigns each stored edge (u, v), u < v, one of FORWARD
(u -> v), BACKWARD (v -> u) or None (unassigned).  A total acyclic
orientation is semi-transitive when no directed path v1...vk (k >= 4)
between the endpoints of an edge v1->vk misses an inner pair edge; such a
path makes v1->vk a shortcut.  In particular a 4-cycle with at most one
chord has at most two legs each way round, and exactly two once it is
fully oriented.  Any three of its four legs are consecutive, a->b->c->d
say: the closing leg d->a would make a directed cycle, and a->d a
shortcut unless both chords a-c and b-d are edges.
"""

from __future__ import annotations

import math
import operator
import time
from collections.abc import Iterable, Iterator

from .errors import OutOfRangeError, TooLargeError
from .graphs import (BACKTRACK_MAX_N, CANONICAL_MAX_N, Graph, VertexColoring, _bits,
                     _components, _Frozen, _Record)

FORWARD = 1
BACKWARD = -1
_DIRECTIONS = frozenset((FORWARD, BACKWARD, None))

COUNT_MAX_EDGES = 24
# K40 branches on at most C(40, 2) = 780 edges, one recursion level each,
# under Python's default limit of 1000 frames
SEARCH_MAX_N = 40


class Orientation(_Frozen):
    _fields = ("base", "dirs")

    def __init__(self, base: Graph, dirs: Iterable[int | None]):   # aligned with base.edges
        dirs = self._tuple(dirs, "directions")
        if not isinstance(base, Graph):
            raise OutOfRangeError(f"base must be a Graph, got {base!r}")
        if len(dirs) != len(base.edges):
            raise OutOfRangeError(
                f"{len(dirs)} directions for {len(base.edges)} edges")
        for (u, v), d in zip(base.edges, dirs):   # name the first bad one
            try:
                if d in _DIRECTIONS:
                    continue
            except TypeError:   # an unhashable entry is no direction
                pass
            raise OutOfRangeError(f"direction {d!r} of edge {u}-{v} is not "
                                  "FORWARD (1), BACKWARD (-1) or None")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "dirs", dirs)

    @property
    def is_total(self) -> bool:
        return None not in self.dirs

    def arc(self, i: int) -> tuple[int, int]:
        """(tail, head) of the i-th stored edge; edge must be assigned."""
        u, v = self.base.edges[i]
        d = self.dirs[i]
        if d is None:
            raise OutOfRangeError(f"edge {u}-{v} is unassigned")
        return (u, v) if d == FORWARD else (v, u)

    def arcs(self) -> list[tuple[int, int]]:
        """(tail, head) of each assigned edge, in stored order."""
        return [(u, v) if d == FORWARD else (v, u)
                for (u, v), d in zip(self.base.edges, self.dirs) if d is not None]


class Conflict(_Frozen):
    # find_shortcut: Shortcut | DirectedCycle; lemma1_propagate: Lemma1Cycle | DirectedCycle
    _fields = ("kind", "witness")

    def __init__(self, kind: str, witness: tuple[int, ...]):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "witness", witness)


class SearchStats(_Record):
    """Counters of the orientation search, summed over every search that
    is handed the object.  nodes: calls of _Searcher.branch, each part's
    root and the leaves included.  propagations: arcs placed by the
    forcing rule, the branching arc not counted, those placed before a
    conflict ends the branch included; so it depends on the order the
    rule reads its cycles in, as no answer and no other counter does.
    shortcut_checks: leaves tested for a shortcut; shortcut_conflicts:
    those that have one.  wall_time_s: time spent searching.  Mutable,
    so branch's writes take object's own __setattr__, and unhashable."""

    _fields = ("nodes", "propagations", "shortcut_checks", "shortcut_conflicts", "wall_time_s")

    def __init__(self, nodes: int = 0, propagations: int = 0, shortcut_checks: int = 0,
                 shortcut_conflicts: int = 0, wall_time_s: float = 0.0):
        self.nodes = nodes
        self.propagations = propagations
        self.shortcut_checks = shortcut_checks
        self.shortcut_conflicts = shortcut_conflicts
        self.wall_time_s = wall_time_s


def orientation_from_arcs(g: Graph, arcs) -> Orientation:
    """Build an orientation from (tail, head) pairs, read as
    graph_from_edge_list reads its edge list and each edge's endpoints."""
    dirs: list[int | None] = [None] * len(g.edges)
    for arc in _Frozen._tuple(arcs, "arcs"):
        try:
            t, h = map(operator.index, arc)
        except (TypeError, ValueError):
            raise OutOfRangeError(f"an arc is two integer endpoints, got {arc!r}") from None
        key = (t, h) if t < h else (h, t)
        idx = g.edge_index.get(key)
        if idx is None:
            raise OutOfRangeError(f"{t}-{h} is not an edge of the graph")
        d = FORWARD if (t, h) == key else BACKWARD
        if dirs[idx] is not None and dirs[idx] != d:
            raise OutOfRangeError(f"edge {key[0]}-{key[1]} given both directions")
        dirs[idx] = d
    return Orientation(g, dirs)


def _require_total(o: Orientation) -> None:
    if not o.is_total:
        unassigned = sum(1 for d in o.dirs if d is None)
        raise OutOfRangeError(
            f"operation needs a total orientation ({unassigned} edges unassigned)")


def find_shortcut(o: Orientation) -> Conflict | None:
    """The arc closing a directed cycle, else the first shortcut, or None.

    _place, the walk's arc step, places the arcs in stored order, growing
    each vertex's descendant and ancestor masks; the first arc t->h it
    refuses, as h already reaches t, is DirectedCycle (t, h), the name
    lemma1_propagate gives a forced one.  Then the first arc t->h in
    stored order whose interval holds a far pair x, y (_far_pair) is a
    Shortcut, witnessed by the path t ~> x ~> y ~> h that _path builds.
    No path is enumerated, so nothing recurses and n is uncapped.
    """
    _require_total(o)
    arcs = o.arcs()
    out, desc, anc = [0] * (o.base.n + 1), [0] * (o.base.n + 1), [0] * (o.base.n + 1)
    for t, h in arcs:
        if _place(out, desc, anc, t, h) is None:
            return Conflict("DirectedCycle", (t, h))
    for t, h in arcs:
        if (pair := _far_pair(o.base.adj, desc, anc, t, h)) is not None:
            return Conflict("Shortcut", _path(out, anc, (t, *pair, h)))
    return None


def _far_pair(adj, desc, anc, t: int, h: int) -> tuple[int, int] | None:
    """The least x, then the least y, of the interval I = {t, h} +
    {z : t ~> z ~> h} of the arc t->h with x ~> y and x, y non-adjacent,
    or None; desc and anc hold each vertex's descendants and ancestors.

    Lemma: t->h is a shortcut, skipped by a directed path of at least 3
    arcs that misses an edge between two of its vertices, iff such a pair
    exists.  If it does, t ~> x ~> y ~> h is a path (the arcs are
    acyclic) of at least 3 arcs, as x ~> y takes two or more and
    {x, y} != {t, h}, and it misses the edge x-y.  Conversely every vertex
    of a path t ~> h lies in I, so its non-adjacent pair is such an x, y.
    Along a directed path of an acyclic orientation an adjacent pair is an
    arc pointing along it, so adjacency stands in for arcs, for a total
    orientation (find_shortcut) and a partial one
    (semi_transitive_orientations) alike."""
    span = rest = (desc[t] | 1 << t) & (anc[h] | 1 << h)
    while rest:
        x = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        if far := desc[x] & span & ~adj[x]:
            return x, (far & -far).bit_length() - 1
    return None


def _path(out, anc, stops: tuple[int, ...]) -> tuple[int, ...]:
    """A directed path through stops, each of which is the next or reaches
    it: each step goes to the least out-neighbour that is, or reaches, the
    next stop."""
    path = [stops[0]]
    for b in stops[1:]:
        while path[-1] != b:
            step = out[path[-1]] & (anc[b] | 1 << b)
            path.append((step & -step).bit_length() - 1)
    return tuple(path)


def is_semi_transitive(o: Orientation) -> bool:
    return find_shortcut(o) is None


# ---------------------------------------------------------------------------
# four-cycle rule: a 4-cycle with at most one chord has at most two legs
# each way round, and exactly two once it is fully oriented (see the module
# docstring).  A K4-free graph has no 4-cycle with both chords, so there
# every 4-cycle counts.  Traversal frame per cycle (a,b,c,d): a leg's sign
# is +1 when its stored (u<v) direction agrees with the traversal
# a->b->c->d->a, -1 when not, so a leg goes round exactly when its
# direction is its sign.  The legs as two edge masks: ring, all four, and
# minus, the sign -1 ones.

def _edge_ids(g: Graph) -> list[int]:
    """Each edge's place in g.edges, at u * (n + 1) + v and at
    v * (n + 1) + u of one flat list, so a look-up needs no ordered pair;
    (n + 1)^2 entries, 1,681 at SEARCH_MAX_N."""
    w = g.n + 1
    ids = [0] * (w * w)
    for i, (u, v) in enumerate(g.edges):
        ids[u * w + v] = ids[v * w + u] = i
    return ids


def _four_cycles(g: Graph) -> tuple[list[tuple], list[int]]:
    """The 4-cycles with at most one chord as one flat table of
    (ring, minus, cycle) entries, a cycle's id its place in the table,
    and for each edge the mask of the ids of the cycles through it.
    Cycles (a, b, c, d) come in lexicographic order, straight from the
    adjacency masks: a is the smallest vertex and c is opposite it, so
    each pair b < d of common neighbours of a and c above a closes one.
    When a-c is an edge, the ds adjacent to b are dropped, so no cycle
    with both chords is visited.  The bits are walked inline, and an a's
    cycles, found by c, are sorted only when there are two or more.  The
    legs' edge ids come from the flat list of _edge_ids."""
    adj, ids, w = g.adj, _edge_ids(g), g.n + 1
    table: list[tuple] = []
    through = [0] * len(g.edges)
    for a in g.vertices():
        up = adj[a] & -1 << a + 1   # b and d are two of a's neighbours above a
        if not up & up - 1:
            continue
        cycles = []   # (b, c, d)
        for c in range(a + 1, g.n + 1):
            common = up & adj[c]
            chord = adj[a] >> c & 1
            while common & common - 1:
                low = common & -common
                common ^= low
                b = low.bit_length() - 1
                ds = common & ~adj[b] if chord else common
                while ds:
                    low = ds & -ds
                    ds ^= low
                    cycles.append((b, c, low.bit_length() - 1))
        if len(cycles) > 1:
            cycles.sort()
        for b, c, d in cycles:
            # a is the least vertex, so a->b goes with its stored edge and
            # d->a against it
            ab, bc, cd, da = ids[a * w + b], ids[b * w + c], ids[c * w + d], ids[d * w + a]
            bit = 1 << len(table)
            through[ab] |= bit
            through[bc] |= bit
            through[cd] |= bit
            through[da] |= bit
            table.append((1 << ab | 1 << bc | 1 << cd | 1 << da,
                          (b > c) << bc | (d < c) << cd | 1 << da, (a, b, c, d)))
    return table, through


# ---------------------------------------------------------------------------
# the interval lemma: semi-transitivity from a packed reachability closure,
# with no path enumeration, at the search's leaves.

def _packed_rows(g: Graph, w: int) -> int:
    """g's adjacency packed as the search's closure is: row v, bits v*w to
    v*w + w - 1, holds v's neighbours."""
    adj_rows = 0
    for v, mask in enumerate(g.adj):
        adj_rows |= mask << v * w
    return adj_rows


def _no_shortcut(c: int, w: int, row: int, col: int, adj_rows: int) -> bool:
    """Whether a total acyclic orientation has no shortcut, given c, its
    reachability closure packed as the search keeps it: row v, bits v*w to
    v*w + w - 1, holds v's strict descendants; row is one row's mask and
    col bit 0 of every row.

    Arc u->v has a shortcut iff its interval I = {u, v} + {x : u ~> x ~> v}
    holds some x ~> y with x, y non-adjacent.  Proof: u ~> x ~> y ~> v is
    then a path (the orientation is acyclic) of at least 3 arcs, as x ~> y
    takes two or more and {x, y} != {u, v}, and it misses the edge x-y;
    conversely a shortcut path, so its non-adjacent pair, lies in I.  In
    an acyclic orientation x ~> y with x, y adjacent is the arc x->y, so
    the pairs to look for are the bits of c & ~adj_rows, row x's far ys.

    Grouped by x instead of by arc: x and a far y lie in the interval of
    u->v exactly when x is at or below u and v is at or below y.  So each
    x with a far y gets one mask, reach, of everything at or below its
    far ys, and one test of reach, copied into every row, against the
    out-neighbours of the rows at or below which x lies: those with bit
    x set, and row x.  The orientation is total, so the out-neighbours
    are c & adj_rows."""
    far = c & ~adj_rows
    out = c & adj_rows
    while far:
        x = ((far & -far).bit_length() - 1) // w
        ys = far >> x * w & row
        far ^= ys << x * w
        reach = 0
        while ys:
            low = ys & -ys
            ys ^= low
            reach |= c >> (low.bit_length() - 1) * w & row | low
        if out & (c >> x & col | 1 << x * w) * row & reach * col:
            return False
    return True


# ---------------------------------------------------------------------------
# backtracking search

class _Searcher:
    """Depth-first search over edge directions, lexicographic edge order,
    FORWARD first.  Every assignment runs the four-cycle forcing rule to
    fixpoint, on every graph: the rule skips only 4-cycles with both chords,
    where it is unsound.

    A node's state is three ints, (fwd, bwd, c), handed down as values, so
    each node keeps the state it was handed and backtracking restores
    nothing.  Bit e of fwd is set when edge e is placed FORWARD, of bwd
    when BACKWARD.  c is the reachability closure of the arcs placed so
    far, packed into one int: row v, bits v*w to v*w + w - 1 with
    w = n + 1, holds v's strict descendants.  Arc t->h closes a directed
    cycle exactly when h already reaches t, a one-bit test.  Once it is
    placed, t and every ancestor of t also reach h and all h reaches; one
    product of the rows holding t (as their lowest bits) with that set
    writes it into each of them, with no carry between rows.
    Arcs reach propagate the same way, as two edge masks, FORWARD and
    BACKWARD.  The forcing rule reads its cycles from cycles, the flat
    table of _four_cycles, and its work list is a mask of cycle ids: the
    cycles an arc has been placed on since they were last read, each
    edge's ids kept in through.

    Shortcut checks run at the leaves only, with no path enumeration: the
    interval lemma of _no_shortcut on the packed closure as it stands,
    against the packed adjacency rows, built at the first leaf.

    branch propagates one arc, the lowest free edge of its part either
    way.  The word search threads states through its own recursion,
    propagating the edges from each letter's first copy to the letters
    not yet seen, of which propagate skips the arcs already in force.
    lemma1_propagate runs the same step from the root state on a whole
    partial orientation."""

    def __init__(self, g: Graph, stats: SearchStats | None = None):
        # the n cap of the search and of lemma1_propagate, beside the n^2-bit closure it bounds
        if g.n > SEARCH_MAX_N:
            raise TooLargeError(
                f"orientation search supports n <= {SEARCH_MAX_N}, got {g.n}")
        self.g = g
        self.stats = stats if stats is not None else SearchStats()
        self.w = g.n + 1
        self.row = (1 << self.w) - 1
        # bit 0 of every row: picks out the rows that hold a given vertex
        self.col = ((1 << self.w * self.w) - 1) // self.row
        self.cycles, self.through = _four_cycles(g)
        self.rows: int | None = None   # _packed_rows, built at the first leaf
        self.found = (0, 0)   # finding: fwd and bwd of each part's passing leaf, ORed

    def dirs(self, fwd: int, bwd: int) -> list[int | None]:
        """The partial orientation in two edge masks, one direction or None
        per edge, edge 0 first: FORWARD where fwd has the edge's bit,
        BACKWARD where bwd has it."""
        return [FORWARD if fwd >> e & 1 else BACKWARD if bwd >> e & 1 else None
                for e in range(len(self.g.edges))]

    def propagate(self, fwd: int, bwd: int, c: int, to_fwd: int, to_bwd: int
                  ) -> tuple[tuple[int, ...] | None, int, int, int]:
        """Place the arcs of the edge masks to_fwd (FORWARD) and to_bwd
        (BACKWARD) on the state (fwd, bwd, c), lowest edge first, then run
        the four-cycle rule to fixpoint: once two legs of a cycle go one
        way round, every free leg is forced the other way.  An arc already
        in force is skipped; a placement that closes a directed cycle is
        refused.

        The work list is dirty, a mask of cycle ids: each placed arc,
        given or forced, ORs in its edge's mask of cycles, and the rule
        reads the lowest dirty cycle next.  The free legs a cycle forces
        leave the reading loop for the placement loop of the given arcs,
        lowest edge first, and the cycle's own bit, set again by its legs,
        is cleared: it now holds two legs each way.  Each forced arc holds
        in every orientation that extends the state and obeys the rule,
        so whether the rule reaches a fixpoint, and which, does not depend
        on the reading order; which cycle or refusal ends a failing run,
        and how much is placed before it, does.

        Returns (outcome, fwd, bwd, c).  The outcome is None when all is
        placed, a cycle with three legs going one way round, or the
        refused arc (t, h); the state returned then holds what was placed
        before it.
        Legs are counted by popcount, and the free legs walked by bit,
        each one's direction read from the cycle's minus mask."""
        cycles, through, ends = self.cycles, self.through, self.g.edges
        w, row, col = self.w, self.row, self.col
        new = to_fwd & ~fwd | to_bwd & ~bwd   # the arcs to place
        ups = to_fwd   # those of new to place FORWARD
        dirty = low = 0
        while True:
            while new:
                bit = new & -new
                new ^= bit
                e = bit.bit_length() - 1
                if ups & bit:
                    t, h = ends[e]
                else:
                    h, t = ends[e]
                if c >> h * w + t & 1:
                    return (t, h), fwd, bwd, c
                c |= (c >> t & col | 1 << t * w) * (c >> h * w & row | 1 << h)
                if ups & bit:
                    fwd |= bit
                else:
                    bwd |= bit
                dirty |= through[e]
            dirty &= ~low   # the cycle that forced new: two legs each way
            placed = fwd | bwd
            while dirty:
                low = dirty & -dirty
                dirty ^= low
                ring, minus, cycle = cycles[low.bit_length() - 1]
                on = placed & ring
                # legs going round: FORWARD ones of sign +1, BACKWARD of -1
                ahead = (on & (fwd ^ minus)).bit_count()
                if on == ring:   # all four placed: two each way, or three one way
                    if ahead != 2:
                        return cycle, fwd, bwd, c
                    continue
                back = on.bit_count() - ahead
                # the free legs go the other way, FORWARD where ups has
                # their bit: sign -1 (minus) when they go back, +1 round
                if ahead == 2:
                    ups = minus
                elif back == 2:
                    ups = ~minus
                elif ahead > 2 or back > 2:
                    return cycle, fwd, bwd, c
                else:
                    continue
                new = ring ^ on
                break
            else:
                return None, fwd, bwd, c

    def branch(self, part: int, first_only: bool, fwd: int, bwd: int, c: int) -> int:
        """Number of semi-transitive orientations of the edges in the mask
        part (a component's or a block's) below the node (fwd, bwd, c),
        with part's first edge FORWARD: no placed or forced arc crosses
        parts, so the node with none of part's edges placed is its root,
        the one node that tries FORWARD alone, as the BACKWARD subtree
        there holds exactly the reversals of the FORWARD one.  Each child
        gets the state propagate returned.  With first_only the walk stops
        at the first leaf that passes the shortcut check, and ORs its arcs
        into found."""
        stats = self.stats
        stats.nodes += 1
        placed = fwd | bwd
        free = part & ~placed
        if not free:
            stats.shortcut_checks += 1
            rows = self.rows
            if rows is None:
                rows = self.rows = _packed_rows(self.g, self.w)
            if not _no_shortcut(c, self.w, self.row, self.col, rows):
                stats.shortcut_conflicts += 1
                return 0
            if first_only:
                self.found = self.found[0] | fwd, self.found[1] | bwd
            return 1
        low = free & -free
        # every edge placed after low itself was forced
        mark = placed.bit_count() + 1
        count = 0
        for up, down in ((low, 0),) if free == part else ((low, 0), (0, low)):
            outcome, f, b, cc = self.propagate(fwd, bwd, c, up, down)
            forced = (f | b).bit_count() - mark
            if forced > 0:
                stats.propagations += forced
            if outcome is None:
                count += self.branch(part, first_only, f, b, cc)
                if count and first_only:
                    return count
        return count


def lemma1_propagate(g: Graph, o: Orientation) -> Orientation | Conflict:
    """Fixpoint of the four-cycle forcing rule over a partial orientation.

    Once two legs of a 4-cycle with at most one chord go one way round,
    every unassigned leg is forced the other way.  Returns a Lemma1Cycle
    conflict if some cycle ends up with three legs going one way round,
    and a DirectedCycle conflict naming the arc (t, h), of o or forced,
    that would close a directed cycle, as h already reaches t.  Sound on
    every graph: 4-cycles with both chords are not indexed.  It is the
    search's node step, _Searcher.propagate, from the root state, so a
    fixpoint returned is acyclic.  Its packed closure grows as n^2 bits
    however few the edges, so n > SEARCH_MAX_N (40) raises TooLargeError:
    the cap is the search's own guard, in _Searcher, with its message.
    """
    if o.base != g:
        raise OutOfRangeError("orientation does not belong to this graph")
    s = _Searcher(g)
    fwd = sum(1 << e for e, d in enumerate(o.dirs) if d == FORWARD)
    bwd = sum(1 << e for e, d in enumerate(o.dirs) if d == BACKWARD)
    outcome, fwd, bwd, _ = s.propagate(0, 0, 0, fwd, bwd)
    if outcome is None:
        return Orientation(g, s.dirs(fwd, bwd))
    return Conflict("Lemma1Cycle" if len(outcome) == 4 else "DirectedCycle", outcome)


def _blocks(g: Graph) -> list[int]:
    """Each block (biconnected component) of g as an edge mask, by lowest
    edge.  One depth-first search: each subtree hands up its edges not yet
    in a block, and those of w's, with the tree edge v-w, form a block
    once w's subtree has no edge above v.  Edge ids come from the flat
    list of _edge_ids."""
    adj, ids, stride = g.adj, _edge_ids(g), g.n + 1
    depth = [0] * (g.n + 1)   # 0: not yet visited
    blocks: list[int] = []

    def visit(v: int, d: int) -> tuple[int, int]:
        """Search below v at depth d; the least depth an edge from v's
        subtree reaches, and the subtree's edges not yet in a block."""
        depth[v] = low = d
        edges, at = 0, v * stride
        for w in _bits(adj[v]):
            e = 1 << ids[at + w]
            if not depth[w]:
                below, up = visit(w, d + 1)
                if below < d:
                    low = min(low, below)
                    edges |= up | e
                else:
                    blocks.append(up | e)
            elif depth[w] < d - 1:   # back edge to an ancestor above the parent
                edges |= e
                low = min(low, depth[w])
        return low, edges

    for v in g.vertices():
        if adj[v] and not depth[v]:
            visit(v, 1)
    return sorted(blocks, key=lambda b: b & -b)


def _counted_blocks(g: Graph) -> list[int]:
    """_blocks(g), checked before any is counted: TooLargeError when one
    has more than COUNT_MAX_EDGES (24) edges.  Each block is counted on
    its own, in at most 2^(its edges) leaves, so the largest block bounds
    the cost, not the graph's edge count."""
    blocks = _blocks(g)
    largest = max(map(int.bit_count, blocks), default=0)
    if largest > COUNT_MAX_EDGES:
        raise TooLargeError(
            f"exact counting capped at {COUNT_MAX_EDGES} edges a block, got a block of {largest}")
    return blocks


def _search(g: Graph, stats: SearchStats | None, first_only: bool) -> tuple[int, _Searcher]:
    """The number of semi-transitive orientations of g, as a product of
    independent searches run in turn, each twice its FORWARD root
    subtree; a factor of 0 ends the search.  Every part starts from no
    arc placed, in both modes: no placed or forced arc, directed cycle or
    shortcut crosses parts, so each part's search is the same from any
    state the others leave.

    Counting, the parts are the blocks, as _counted_blocks' edge masks by
    lowest edge: a directed cycle, and a shortcut with the edge it skips, lie on
    one cycle of g, so in one block, and g's orientations are the
    products of its blocks' ones.  Finding, they are the components with
    an edge (every edge at once when there are fewer than two), only
    whether the product is nonzero matters, and each part's first passing
    leaf is ORed into found: the witness is the product of the
    components' FORWARD-first witnesses, which is the FORWARD-first
    witness of g, as its edge order interleaves theirs.  Finding splits
    no further, as the decisions are mostly tiny: over the seed-0
    benchmark `decide` inputs, _blocks took 14.5 us a graph against
    1.3 us for the component partition above, and searching by blocks
    made `decide` x1.225 slower (ROADMAP.md item 2: in process, paired
    over 30 alternated rounds; 2-core Xeon VM, Python 3.11)."""
    start = time.perf_counter()
    searcher = _Searcher(g, stats)
    if first_only:
        comps = [c for c in _components(g) if c & c - 1]   # two or more vertices
        parts = [(1 << len(g.edges)) - 1] if len(comps) < 2 else [
            sum(1 << i for i, (u, _) in enumerate(g.edges) if c >> u & 1) for c in comps]
    else:
        parts = _counted_blocks(g)
    found = 1
    for part in parts:
        found *= 2 * searcher.branch(part, first_only, 0, 0, 0)
        if not found:
            break
    searcher.stats.wall_time_s += time.perf_counter() - start
    return found, searcher


def find_semi_transitive(g: Graph, stats: SearchStats | None = None) -> Orientation | None:
    """A semi-transitive orientation if one exists, else None.

    Deterministic: the witness is the one the sequential FORWARD-first
    lexicographic search reaches first (its reversal is equally valid)."""
    found, searcher = _search(g, stats, True)
    return Orientation(g, searcher.dirs(*searcher.found)) if found else None


def count_semi_transitive(g: Graph, stats: SearchStats | None = None) -> int:
    """Exact number of total semi-transitive orientations: the product
    over g's blocks of twice the block's count with its first edge
    FORWARD.  No directed cycle or shortcut crosses two blocks, and
    reversing every arc keeps an orientation semi-transitive.  Capped at
    COUNT_MAX_EDGES (24) edges in the largest block (_counted_blocks), so
    a 40-vertex path, 39 blocks of one edge, counts 2^39."""
    return _search(g, stats, False)[0]


def semi_transitive_orientations(g: Graph) -> Iterator[Orientation]:
    """Every semi-transitive orientation of g with its first stored edge
    FORWARD, lazily and in lexicographic order (all-FORWARD first); an
    edgeless g has one, with no arcs.  Reversing every arc keeps an
    orientation semi-transitive, so these are half of all of them.

    No search and no propagation: a walk edge by edge in stored order,
    FORWARD before BACKWARD, with the first edge FORWARD only.  Each arc
    is placed by _place, which refuses it when its head already reaches
    its tail and otherwise grows the descendant and ancestor masks, and a
    branch is cut as soon as its placed arcs hold a shortcut, found by
    _far_pair on the placed arcs against g's adjacency.  It rests on three
    lemmas:

    1. Placed arcs only grow down a branch, so a placed shortcut is a
       shortcut of every total orientation below it: a cut loses nothing.
    2. Along a directed path of an acyclic orientation, an adjacent pair
       is an arc pointing along the path.  So adjacency masks can stand in
       for in-arc masks, and a shortcut is a path with a non-adjacent pair.
    3. Every shortcut has a last-placed arc, and it is found at that arc's
       node.  That arc t->h is the skipped arc u->v or lies on the path
       u ~> v, so u is t or an ancestor of t and v is h or a descendant of
       h, and each placed arc u->v of that kind is scanned once t->h is.

    So a leaf, a total orientation, is reached exactly when it is acyclic
    and semi-transitive.  Each is induced by a vertex order, and has its
    first edge FORWARD, so there are at most min(n!, 2^m) / 2 leaves, and
    the walk runs when n <= CANONICAL_MAX_N (8) or m <= COUNT_MAX_EDGES
    (24), the fast counter's cap; a graph A after a path of 12 edges
    yields nothing after 4.6 s (2^11 copies of A's 219 nodes; 2-core Xeon
    VM, Python 3.11.7).  n is capped at BACKTRACK_MAX_N (500), as each
    node copies three mask lists of n + 1 entries."""
    if g.n > CANONICAL_MAX_N and len(g.edges) > COUNT_MAX_EDGES:
        raise TooLargeError(
            f"semi-transitive orientation walk supports n <= {CANONICAL_MAX_N} "
            f"or at most {COUNT_MAX_EDGES} edges, got n = {g.n} and {len(g.edges)} edges")
    if g.n > BACKTRACK_MAX_N:
        raise TooLargeError(
            f"semi-transitive orientation walk supports n <= {BACKTRACK_MAX_N}, got {g.n}")
    yield from _walk(g, 0, [0] * (g.n + 1), [0] * (g.n + 1), [0] * (g.n + 1), ())


def _walk(g: Graph, i: int, out, desc, anc, dirs: tuple[int, ...]) -> Iterator[Orientation]:
    """One node of semi_transitive_orientations: edges 0..i-1 placed as
    dirs, out, desc and anc their out-arcs, descendants and ancestors per
    vertex, as masks; a leaf once i is the number of edges.  Each child
    gets its own copies of all three, with edge i placed by _place."""
    if i == len(g.edges):
        yield Orientation(g, dirs)
        return
    u, v = g.edges[i]
    for d, t, h in ((FORWARD, u, v), (BACKWARD, v, u)) if i else ((FORWARD, u, v),):
        out_, desc_, anc_ = out[:], desc[:], anc[:]
        placed = _place(out_, desc_, anc_, t, h)
        if placed is not None and not _placed_shortcut(out_, g.adj, desc_, anc_, *placed):
            yield from _walk(g, i + 1, out_, desc_, anc_, dirs + (d,))


def _place(out, desc, anc, t: int, h: int) -> tuple[int, int] | None:
    """Add the arc t->h to out, the mask below of h and its descendants
    to desc of each x in the mask ups of t and its ancestors, and ups to
    anc of each y in below, in place; None, with nothing added, when h
    already reaches t.  Returns (ups, below)."""
    if desc[h] >> t & 1:
        return None
    ups, below = anc[t] | 1 << t, desc[h] | 1 << h
    out[t] |= 1 << h
    for rest, grow, add in ((ups, desc, below), (below, anc, ups)):
        while rest:
            grow[(rest & -rest).bit_length() - 1] |= add
            rest &= rest - 1
    return ups, below


def _placed_shortcut(out, adj, desc, anc, ups, below) -> bool:
    """Whether some arc x->y, x in the mask ups and y in the mask below,
    is skipped by a path of the arcs in out that misses an edge of adj:
    whether its interval holds a far pair (_far_pair)."""
    while ups:
        x = (ups & -ups).bit_length() - 1
        ups &= ups - 1
        heads = out[x] & below
        while heads:
            low = heads & -heads
            heads ^= low
            if _far_pair(adj, desc, anc, x, low.bit_length() - 1) is not None:
                return True
    return False


def count_semi_transitive_naive(g: Graph) -> int:
    """The product over g's blocks (_blocks) of twice the number of
    orientations semi_transitive_orientations yields for the block's own
    graph, Graph(g.n, its edges in stored order); 1 for an edgeless g, the
    empty product.  No search, no propagation and no forcing; the anchor
    the fast counter must match, so capped as it is, at COUNT_MAX_EDGES
    (24) edges in the largest block (_counted_blocks), and by the walk at
    n <= BACKTRACK_MAX_N (500).

    It trusts one lemma, as the fast counter does: a directed cycle, and a
    shortcut together with the edge it skips, lie on one cycle of g, so
    inside one block, and g's semi-transitive orientations are the
    products of its blocks' ones.  Its worst case is one block most of
    whose orientations pass, as the fast count's is: C16 takes 0.25 s and
    C24, at the cap, 86 s, where the fast count takes 0.35 and 148 s
    (2-core Xeon VM, Python 3.11.7)."""
    return math.prod(
        2 * sum(1 for _ in semi_transitive_orientations(
            Graph(g.n, (g.edges[i] for i in _bits(block)))))
        for block in _counted_blocks(g))


# ---------------------------------------------------------------------------
# construction from a proper coloring with at most three classes: every
# edge points from the lower color class to the higher.  Any directed path
# then ascends through at most three classes, so it has at most two edges
# and no shortcut can exist.

def orient_by_coloring(g: Graph, coloring: VertexColoring) -> Orientation:
    if len(coloring.color) != g.n:
        raise OutOfRangeError("coloring does not cover the vertex set")
    for u, v in g.edges:
        if coloring.of(u) == coloring.of(v):
            raise OutOfRangeError(f"edge {u}-{v} is monochromatic")
    if coloring.num_colors() > 3:
        raise OutOfRangeError(
            f"construction needs at most 3 colors, got {coloring.num_colors()}")
    dirs = tuple(
        FORWARD if coloring.of(u) < coloring.of(v) else BACKWARD
        for u, v in g.edges)
    return Orientation(g, dirs)


# ---------------------------------------------------------------------------
# text format, output only: edge-list header, one "t h >" line per edge

def format_orientation(o: Orientation) -> str:
    _require_total(o)
    lines = [f"{o.base.n} {len(o.base.edges)}"]
    lines += [f"{t} {h} >" for t, h in o.arcs()]
    return "\n".join(lines) + "\n"
