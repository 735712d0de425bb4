"""Directed side of the toolkit: orientations of a graph's edges,
acyclicity, shortcut detection, semi-transitivity, the four-cycle forcing
rule, the backtracking search for a semi-transitive orientation (one
connected component at a time, one block at a time when counting), and
the walk over acyclic orientations that re-checks it.

The search holds its partial orientation as two edge masks, FORWARD and
BACKWARD, and keeps a reachability closure of it packed into one int, so
the forcing rule counts a cycle's legs by popcount, acyclicity is a
one-bit test per arc and semi-transitivity at a leaf is a few mask tests
on the packed closure, read in place (the interval lemma, _no_shortcut).
The same test on the packed closure of the vertex order 1..n certifies
most small graphs with no search.  find_shortcut and is_semi_transitive
enumerate directed paths literally instead, as the independent route
that certificates and counts are re-checked by.

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

import time
from dataclasses import dataclass
from typing import Iterator

from .errors import CyclicInputError, OutOfRangeError, TooLargeError
from .graphs import CANONICAL_MAX_N, Graph, VertexColoring, _bits, _components

FORWARD = 1
BACKWARD = -1
_DIRECTIONS = frozenset((FORWARD, BACKWARD, None))

COUNT_MAX_EDGES = 24
# K40 branches on at most C(40, 2) = 780 edges, one recursion level each,
# under Python's default limit of 1000 frames
SEARCH_MAX_N = 40


@dataclass(frozen=True)
class Orientation:
    base: Graph
    dirs: tuple[int | None, ...]  # aligned with base.edges

    def __post_init__(self):
        if len(self.dirs) != len(self.base.edges):
            raise OutOfRangeError(
                f"{len(self.dirs)} directions for {len(self.base.edges)} edges")
        try:
            valid = _DIRECTIONS.issuperset(self.dirs)
        except TypeError:   # an unhashable entry
            valid = False
        if not valid:
            i = next(i for i, d in enumerate(self.dirs) if d not in (FORWARD, BACKWARD, None))
            u, v = self.base.edges[i]
            raise OutOfRangeError(f"direction {self.dirs[i]!r} of edge {u}-{v} is not "
                                  "FORWARD (1), BACKWARD (-1) or None")

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

    def arcs(self) -> Iterator[tuple[int, int]]:
        for i, d in enumerate(self.dirs):
            if d is not None:
                yield self.arc(i)


@dataclass(frozen=True)
class Conflict:
    kind: str  # Shortcut | Lemma1Cycle
    witness: tuple[int, ...]


@dataclass
class SearchStats:
    nodes: int = 0
    propagations: int = 0
    shortcut_checks: int = 0
    shortcut_conflicts: int = 0
    wall_time_s: float = 0.0


def orientation_from_arcs(g: Graph, arcs) -> Orientation:
    """Build an orientation from (tail, head) pairs."""
    dirs: list[int | None] = [None] * len(g.edges)
    for t, h in arcs:
        key = (t, h) if t < h else (h, t)
        idx = g.edge_index.get(key)
        if idx is None:
            raise OutOfRangeError(f"{t}-{h} is not an edge of the graph")
        d = FORWARD if (t, h) == key else BACKWARD
        if dirs[idx] is not None and dirs[idx] != d:
            raise OutOfRangeError(f"edge {key[0]}-{key[1]} given both directions")
        dirs[idx] = d
    return Orientation(g, tuple(dirs))


def _require_total(o: Orientation) -> None:
    if not o.is_total:
        unassigned = sum(1 for d in o.dirs if d is None)
        raise OutOfRangeError(
            f"operation needs a total orientation ({unassigned} edges unassigned)")


def _acyclic(out: list[int]) -> bool:
    """Whether the arcs in the out-masks close no directed cycle: peel the
    sinks of what is left until nothing is, or no sink is."""
    left = sum(1 << v for v, mask in enumerate(out) if mask)
    while left:
        sinks = 0
        for v in _bits(left):
            if not out[v] & left:
                sinks |= 1 << v
        if not sinks:
            return False
        left ^= sinks
    return True


def find_shortcut(o: Orientation) -> Conflict | None:
    """First shortcut in deterministic order, or None.

    Scans stored edges in order; for each arc t->h enumerates every simple
    directed path t ~> h with at least 3 edges (neighbors in ascending
    order) and checks that all inner pairs are edges oriented forward along
    the path.
    """
    _require_total(o)
    arcs = [(u, v) if d == FORWARD else (v, u) for (u, v), d in zip(o.base.edges, o.dirs)]
    out = [0] * (o.base.n + 1)
    into = [0] * (o.base.n + 1)
    for t, h in arcs:
        out[t] |= 1 << h
        into[h] |= 1 << t
    if not _acyclic(out):
        raise CyclicInputError("shortcut detection needs an acyclic orientation")
    for t, h in arcs:
        hit = _shortcut_dfs(out, into, h, [t], 1 << t, True)
        if hit is not None:
            return Conflict("Shortcut", hit)
    return None


def _shortcut_dfs(out, into, h, path, on_path, closed) -> tuple[int, ...] | None:
    """closed: every pair of the path so far is an arc in path order, so
    the path closed by h misses none exactly when each of its vertices
    has an arc into h."""
    for w in _bits(out[path[-1]]):
        if w == h:
            if len(path) >= 3 and not (closed and on_path & ~into[h] == 0):
                return tuple(path) + (h,)
            continue
        if on_path >> w & 1:
            continue
        path.append(w)
        hit = _shortcut_dfs(out, into, h, path, on_path | 1 << w,
                            closed and on_path & ~into[w] == 0)
        path.pop()
        if hit is not None:
            return hit
    return None


def is_semi_transitive(o: Orientation) -> bool:
    try:
        return find_shortcut(o) is None
    except CyclicInputError:
        return False


# ---------------------------------------------------------------------------
# four-cycle rule: a 4-cycle with at most one chord has at most two legs
# each way round, and exactly two once it is fully oriented (see the module
# docstring).  A K4-free graph has no 4-cycle with both chords, so there
# every 4-cycle counts.  Traversal frame per cycle (a,b,c,d): a leg's sign
# is +1 when its stored (u<v) direction agrees with the traversal
# a->b->c->d->a, -1 when not, so a leg goes round exactly when its
# direction is its sign.  The legs as two edge masks: ring, all four, and
# minus, the sign -1 ones.

def _four_cycles(g: Graph) -> list[list[tuple]]:
    """For each edge, the 4-cycles with at most one chord through it as
    (ring, minus, legs, cycle), legs the cycle's four edge ids in
    traversal order, each leg's sign read from minus.  Cycles (a, b, c, d)
    come in lexicographic order, straight from the adjacency masks: a is
    the smallest vertex and c is opposite it, so each pair b < d of common
    neighbours of a and c above a closes one.  When a-c is an edge, the
    ds adjacent to b are dropped, so no cycle with both chords is visited.
    The bits are walked inline, and an a's cycles, found by c, are sorted
    only when there are two or more."""
    adj, index = g.adj, g.edge_index
    by_edge: list[list[tuple]] = [[] for _ in g.edges]
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
            ab, da = index[a, b], index[a, d]
            bc = index[b, c] if b < c else index[c, b]
            cd = index[c, d] if c < d else index[d, c]
            legs = ab, bc, cd, da
            entry = (1 << ab | 1 << bc | 1 << cd | 1 << da,
                     (b > c) << bc | (d < c) << cd | 1 << da, legs, (a, b, c, d))
            for e in legs:
                by_edge[e].append(entry)
    return by_edge


# ---------------------------------------------------------------------------
# the interval lemma: semi-transitivity from a packed reachability closure,
# with no path enumeration.  Shared by the search's leaves and the
# vertex-order test.

def _packed_rows(g: Graph, w: int) -> tuple[int, int]:
    """(adj_rows, non_rows): row v, bits v*w to v*w + w - 1, holds v's
    neighbours in adj_rows and every other bit of the row in non_rows."""
    adj_rows = 0
    for v, mask in enumerate(g.adj):
        adj_rows |= mask << v * w
    return adj_rows, ((1 << w * w) - 1) ^ adj_rows


def _no_shortcut(c: int, w: int, row: int, col: int, adj_rows: int, non_rows: int) -> bool:
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
    the pairs to look for are the bits of c & non_rows, row x's far ys.

    Grouped by x instead of by arc: x and a far y lie in the interval of
    u->v exactly when x is at or below u and v is at or below y.  So each
    x with a far y gets one mask, reach, of everything at or below its
    far ys, and one test of reach, copied into every row, against the
    out-neighbours of the rows at or below which x lies: those with bit
    x set, and row x.  The orientation is total, so the out-neighbours
    are c & adj_rows."""
    far = c & non_rows
    if not far:
        return True
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


def _forward_semi_transitive(g: Graph) -> bool:
    """Whether the vertex order 1..n, which orients every edge FORWARD, is
    semi-transitive: its packed closure in one pass, from n down to 1,
    then _no_shortcut.  All-FORWARD is the least orientation in the
    search's FORWARD-first lexicographic order, and the forcing rule never
    forces an edge against a semi-transitive orientation that extends the
    node, so when this passes it is the witness find_semi_transitive
    returns."""
    adj, w = g.adj, g.n + 1
    row = (1 << w) - 1
    c = 0
    for v in range(g.n, 0, -1):
        below = above = adj[v] & -1 << v + 1
        while above:
            low = above & -above
            above ^= low
            below |= c >> (low.bit_length() - 1) * w & row
        c |= below << v * w
    adj_rows, non_rows = _packed_rows(g, w)
    return _no_shortcut(c, w, row, ((1 << w * w) - 1) // row, adj_rows, non_rows)


# ---------------------------------------------------------------------------
# backtracking search

class _Searcher:
    """Depth-first search over edge directions, lexicographic edge order,
    FORWARD first.  Every assignment runs the four-cycle forcing rule to
    fixpoint, on every graph: the rule skips only 4-cycles with both chords,
    where it is unsound.

    The partial orientation is two edge masks: bit e of fwd is set when
    edge e is placed FORWARD, of bwd when BACKWARD.  Beside them the
    search keeps the reachability closure of the arcs placed so far,
    packed into one int: row v, bits v*w to v*w + w - 1 with w = n + 1,
    holds v's strict descendants.  Arc t->h closes a directed cycle
    exactly when h already reaches t, a one-bit test.  Once it is placed,
    t and every ancestor of t also reach h and all h reaches; one product
    of the rows holding t (as their lowest bits) with that set writes it
    into each of them, with no carry between rows.  A closure of None
    skips the test, for partial orientations that may be cyclic.

    The state is three immutable ints, so saving it is keeping them and
    undoing is restoring them: branch keeps its node's in a local, and
    assign opens a frame with them that retract closes, whether or not
    the assign succeeded.  dirs reads the masks as one direction or None
    per edge.

    Shortcut checks run at the leaves only, with no path enumeration: the
    interval lemma of _no_shortcut on the packed closure as it stands,
    against the packed adjacency rows, built at the first leaf.

    The word search keeps one too: it assigns each word's first-occurrence
    arcs, of which propagate skips those already in force, and retracts
    them when it backtracks.  lemma1_propagate runs propagate on one with
    no closure."""

    def __init__(self, g: Graph, stats: SearchStats):
        self.g = g
        self.stats = stats
        self.fwd = self.bwd = 0
        self.w = g.n + 1
        self.row = (1 << self.w) - 1
        # bit 0 of every row: picks out the rows that hold a given vertex
        self.col = ((1 << self.w * self.w) - 1) // self.row
        self.closure: int | None = 0
        self.frames: list[tuple[int, int, int | None]] = []  # (fwd, bwd, closure) per assign
        self.cycles = _four_cycles(g)
        self.rows: tuple[int, int] | None = None   # _packed_rows, built by leaf_ok

    @property
    def dirs(self) -> list[int | None]:
        """The partial orientation, one direction or None per edge."""
        fwd, bwd = self.fwd, self.bwd
        return [FORWARD if fwd >> e & 1 else BACKWARD if bwd >> e & 1 else None
                for e in range(len(self.g.edges))]

    def propagate(self, arcs: list[tuple[int, int]]) -> tuple[int, ...] | None:
        """Place each (edge, direction) of arcs, then run the four-cycle
        rule to fixpoint: once two legs of a cycle go one way round, every
        free leg is forced the other way.  An arc already in force is
        skipped; a placement that closes a directed cycle is refused.

        Returns None when all is placed, a cycle with three legs going one
        way round, or () on a refusal; the masks and the closure then hold
        what was placed before it.  Legs are counted by popcount, on local
        copies of the masks written back once, and walked only to queue
        two forced legs in traversal order, each leg's sign read from the
        cycle's minus mask."""
        cycles, ends, w, row, col = self.cycles, self.g.edges, self.w, self.row, self.col
        fwd, bwd, c = self.fwd, self.bwd, self.closure
        # (edge, direction) to place, or (edge, 0) to scan.  The arcs are
        # all placed, in order, before any is scanned: once the last one
        # is, the queue is empty, and the others placed here go in, to be
        # scanned after it from the end.
        queue = arcs[::-1]
        fresh = len(arcs)   # arcs still to place
        try:
            while queue:
                e, d = queue.pop()
                if d:
                    bit = 1 << e
                    if d == FORWARD:
                        held = fwd & bit
                        t, h = ends[e]
                    else:
                        held = bwd & bit
                        h, t = ends[e]
                    # an arc in force is not placed again.  A forced edge
                    # placed the other way since it was queued gave the
                    # queuing cycle three legs one way round, which returned.
                    if not held:
                        if c is not None:
                            if c >> h * w + t & 1:
                                return ()
                            c |= (c >> t & col | 1 << t * w) * (c >> h * w & row | 1 << h)
                        if d == FORWARD:
                            fwd |= bit
                        else:
                            bwd |= bit
                    if fresh:
                        fresh -= 1
                        if fresh:
                            continue
                        new = (fwd | bwd) & ~(self.fwd | self.bwd) & ~bit
                        if new:
                            queue = [(a, 0) for a, _ in arcs if new >> a & 1]
                    if held:
                        continue
                placed = fwd | bwd
                for ring, minus, legs, cycle in cycles[e]:
                    on = placed & ring
                    # legs going round: FORWARD ones of sign +1, BACKWARD of -1
                    ahead = (on & (fwd ^ minus)).bit_count()
                    if on == ring:   # all four placed: two each way, or three one way
                        if ahead != 2:
                            return cycle
                        continue
                    back = on.bit_count() - ahead
                    # the free legs go the other way: back is -sign, round is sign
                    if ahead == 2:
                        way = -1
                    elif back == 2:
                        way = 1
                    elif ahead > 2 or back > 2:
                        return cycle
                    else:
                        continue
                    free = ring ^ on
                    if free & free - 1:   # two free legs: queued in traversal order
                        for f in legs:
                            if free >> f & 1:
                                queue.append((f, -way if minus >> f & 1 else way))
                    else:
                        queue.append((free.bit_length() - 1, -way if free & minus else way))
            return None
        finally:
            self.fwd, self.bwd, self.closure = fwd, bwd, c

    def assign(self, arcs: list[tuple[int, int]]) -> bool:
        """Open a frame, place each (edge, direction) of arcs and propagate;
        False on conflict.  Either way, retract undoes it."""
        self.frames.append((self.fwd, self.bwd, self.closure))
        return self.propagate(arcs) is None

    def retract(self) -> None:
        """Close the last frame, restoring the masks and the closure."""
        self.fwd, self.bwd, self.closure = self.frames.pop()

    def leaf_ok(self) -> bool:
        """The interval lemma (_no_shortcut) on the closure, read in place.
        The packed adjacency rows it needs are built at the first leaf."""
        self.stats.shortcut_checks += 1
        rows = self.rows
        if rows is None:
            rows = self.rows = _packed_rows(self.g, self.w)
        if _no_shortcut(self.closure, self.w, self.row, self.col, rows[0], rows[1]):
            return True
        self.stats.shortcut_conflicts += 1
        return False

    def branch(self, part: int, depth: int, first_only: bool) -> int:
        """Number of semi-transitive orientations of the edges in the mask
        part (a component's or a block's) below the current node, with the
        root edge FORWARD in both modes: with none of the edges assigned
        yet the BACKWARD subtree holds exactly the reversals of the FORWARD
        one, so a count doubles this.  With first_only the walk stops at
        the first one, leaving it in the masks.  Each node keeps the three
        ints it started from and restores them after each child."""
        stats = self.stats
        stats.nodes += 1
        placed = self.fwd | self.bwd
        free = part & ~placed
        if not free:
            return int(self.leaf_ok())
        e = (free & -free).bit_length() - 1
        # every edge placed after e itself was forced
        mark = placed.bit_count() + 1
        node = self.fwd, self.bwd, self.closure
        found = 0
        for d in (FORWARD,) if depth == 0 else (FORWARD, BACKWARD):
            ok = self.propagate([(e, d)]) is None
            forced = (self.fwd | self.bwd).bit_count() - mark
            if forced > 0:
                stats.propagations += forced
            if ok:
                found += self.branch(part, depth + 1, first_only)
                if found and first_only:
                    return found
            self.fwd, self.bwd, self.closure = node
        return found


def lemma1_propagate(g: Graph, o: Orientation) -> Orientation | Conflict:
    """Fixpoint of the four-cycle forcing rule over a partial orientation.

    Once two legs of a 4-cycle with at most one chord go one way round,
    every unassigned leg is forced the other way.  Returns a Lemma1Cycle
    conflict if some cycle ends up with three legs going one way round.
    Sound on every graph: 4-cycles with both chords are not indexed.  The
    search's own propagate runs it, with no closure: o may be cyclic.
    """
    if o.base != g:
        raise OutOfRangeError("orientation does not belong to this graph")
    s = _Searcher(g, SearchStats())
    s.closure = None
    cycle = s.propagate([(e, d) for e, d in enumerate(o.dirs) if d is not None])
    if cycle is not None:
        return Conflict("Lemma1Cycle", cycle)
    return Orientation(g, tuple(s.dirs))


def _blocks(g: Graph) -> list[list[int]]:
    """Edge indices of each block (biconnected component) of g, in stored
    order, blocks by first edge.  One depth-first search: an edge joins
    the stack when first seen, and the edges stacked since a tree edge
    v-w form a block once w's subtree has no edge above v."""
    adj, index = g.adj, g.edge_index
    depth = [0] * (g.n + 1)   # 0: not yet visited
    stack: list[int] = []
    blocks: list[list[int]] = []

    def visit(v: int, d: int) -> int:
        """Search below v at depth d; the least depth an edge from v's
        subtree reaches."""
        depth[v] = low = d
        for w in _bits(adj[v]):
            e = index[(v, w) if v < w else (w, v)]
            if not depth[w]:
                mark = len(stack)
                stack.append(e)
                below = visit(w, d + 1)
                if below < d:
                    low = min(low, below)
                else:
                    blocks.append(sorted(stack[mark:]))
                    del stack[mark:]
            elif depth[w] < d - 1:   # back edge to an ancestor above the parent
                stack.append(e)
                low = min(low, depth[w])
        return low

    for v in g.vertices():
        if adj[v] and not depth[v]:
            visit(v, 1)
    return sorted(blocks)


def _search(g: Graph, stats: SearchStats, first_only: bool) -> tuple[int, _Searcher]:
    """The number of semi-transitive orientations of g, as a product of
    independent searches run in turn; a factor of 0 ends the search.

    Counting, the factors are the blocks (in the order of their first
    edge): a directed cycle, and a shortcut with the edge it skips, lie on
    one cycle of g, so in one block, and g's orientations are the
    products of its blocks' ones.  Each block counts twice its FORWARD
    root subtree.  Finding, they are the components with an edge (every
    edge at once when there are fewer than two): each found component
    keeps its arcs, and the witness is the product of the components'
    FORWARD-first witnesses, which is the FORWARD-first witness of g, as
    its edge order interleaves theirs.  Finding splits no further, as
    the decisions are mostly tiny: over the census classes with n <= 7,
    _blocks takes 21 us a call against 1.6 us for _components (2-core
    Xeon VM, Python 3.11), and deciding them all by blocks took 20-30 %
    longer."""
    if g.n > SEARCH_MAX_N:
        raise TooLargeError(
            f"orientation search supports n <= {SEARCH_MAX_N}, got {g.n}")
    start = time.perf_counter()
    searcher = _Searcher(g, stats)
    if first_only:
        comps = [c for c in _components(g) if c & c - 1]   # two or more vertices
        parts = [(1 << len(g.edges)) - 1] if len(comps) < 2 else [
            sum(1 << i for i, (u, _) in enumerate(g.edges) if c >> u & 1) for c in comps]
        factor = 1
    else:
        parts, factor = [sum(1 << e for e in block) for block in _blocks(g)], 2
    found = 1
    for part in parts:
        found *= factor * searcher.branch(part, 0, first_only)
        if not found:
            break
    stats.wall_time_s += time.perf_counter() - start
    return found, searcher


def find_semi_transitive(g: Graph, stats: SearchStats | None = None) -> Orientation | None:
    """A semi-transitive orientation if one exists, else None.

    Deterministic: the witness is the one the sequential FORWARD-first
    lexicographic search reaches first (its reversal is equally valid)."""
    found, searcher = _search(g, stats if stats is not None else SearchStats(), True)
    return Orientation(g, tuple(searcher.dirs)) if found else None


def count_semi_transitive(g: Graph, stats: SearchStats | None = None) -> int:
    """Exact number of total semi-transitive orientations: the product
    over g's blocks of twice the block's count with its first edge
    FORWARD.  No directed cycle or shortcut crosses two blocks, and
    reversing every arc keeps an orientation semi-transitive."""
    if len(g.edges) > COUNT_MAX_EDGES:
        raise TooLargeError(
            f"exact counting capped at {COUNT_MAX_EDGES} edges, got {len(g.edges)}")
    return _search(g, stats if stats is not None else SearchStats(), False)[0]


def acyclic_orientations(g: Graph) -> Iterator[Orientation]:
    """Every acyclic orientation of g once, lexicographic (all-FORWARD first),
    with no search: edge by edge in stored order, FORWARD before BACKWARD, an
    arc is refused when its head reaches its tail.  No branch dies: an acyclic
    partial orientation extends to a total one along a topological order.  At
    most n! come out, so n <= 8.  closure holds at bit x * n the row x reaches;
    placing t->h ORs row h into each row holding t: their col bits times it."""
    n, last = g.n, len(g.edges) - 1
    if n > CANONICAL_MAX_N:
        raise TooLargeError(f"acyclic orientation walk supports n <= {CANONICAL_MAX_N}, got {n}")
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


def count_semi_transitive_naive(g: Graph) -> int:
    """Plain generate-and-test over acyclic_orientations: no search, no
    propagation and no pruning; the anchor the fast counter must match."""
    if len(g.edges) > COUNT_MAX_EDGES:
        raise TooLargeError(
            f"exact counting capped at {COUNT_MAX_EDGES} edges, got {len(g.edges)}")
    return sum(map(is_semi_transitive, acyclic_orientations(g)))


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
    for i in range(len(o.dirs)):
        t, h = o.arc(i)
        lines.append(f"{t} {h} >")
    return "\n".join(lines) + "\n"
