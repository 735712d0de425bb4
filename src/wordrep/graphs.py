"""Undirected simple graphs on vertices 1..n, plus the small-n machinery
that everything else leans on: K4 detection, proper colorings, canonical
forms, isomorphism, and exhaustive enumeration of isomorphism classes.

Vertices are always the contiguous labels 1..n.  Adjacency is kept as one
bitmask per vertex (bit v set in adj[u] means u ~ v), which is the cheapest
representation at this scale and makes the search kernels branch-free.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from .errors import OutOfRangeError, ParseError, TooLargeError

if TYPE_CHECKING:   # the functions that use numpy import it themselves
    import numpy as np

CANONICAL_MAX_N = 8
# proper colouring, the isomorphism test and the shortcut scan recurse one
# level per vertex, under Python's default limit of 1000 frames with room
# for their callers
BACKTRACK_MAX_N = 500


class _cached:
    """functools.cached_property without its lock: Python 3.11 takes one
    on every first access (3.12 dropped it), which added about 1.2 us to
    each search's set-up of a fresh graph (first g.adj on 8 vertices,
    4.6 against 3.4 us; 2-core Xeon VM, Python 3.11.7).  The value goes
    into the instance __dict__, which later reads find first."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class Graph:
    """Immutable labelled graph.  Build through graph_from_edge_list."""

    n: int
    edges: tuple[tuple[int, int], ...]  # (u, v) with u < v, lexicographic

    @_cached
    def adj(self) -> tuple[int, ...]:
        # adj[v] has bit w set iff v ~ w; index 0 unused
        masks = [0] * (self.n + 1)
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @_cached
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def has_edge(self, u: int, v: int) -> bool:
        # edges are stored u < v, so no bit u of adj[u] is ever set
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(self.degree(v) for v in self.vertices())

    def max_degree(self) -> int:
        return max(self.degree_sequence())

    def is_connected(self) -> bool:
        return len(_components(self)) == 1


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _components(g: Graph) -> list[int]:
    """Vertex masks of g's connected components, by least vertex."""
    adj, comps = g.adj, []
    left = (1 << g.n + 1) - 2   # vertices 1..n
    while left:
        comp = frontier = left & -left
        while frontier and comp != left:   # comp == left: nothing else to reach
            low = frontier & -frontier
            new = adj[low.bit_length() - 1] & ~comp
            comp |= new
            frontier = frontier ^ low | new
        left &= ~comp
        comps.append(comp)
    return comps


def _integer(x, what: str) -> int:
    """x read with operator.index: integer types such as numpy's pass and
    come back as int; floats, strings and None do not."""
    try:
        return operator.index(x)
    except TypeError:
        raise OutOfRangeError(f"{what} must be an integer, got {x!r}") from None


def graph_from_edge_list(n: int, pairs) -> Graph:
    """Validate, normalize (u < v), dedupe and sort the edge list.  n and
    each endpoint are read with operator.index, as by _integer."""
    n = _integer(n, "vertex count")
    if n < 1:
        raise OutOfRangeError(f"vertex count must be >= 1, got {n}")
    seen = set()
    for pair in pairs:
        try:
            u, v = map(operator.index, pair)
        except (TypeError, ValueError):
            raise OutOfRangeError(f"an edge is two integer endpoints, got {pair!r}") from None
        if not (1 <= u <= n) or not (1 <= v <= n):
            raise OutOfRangeError(f"edge endpoint out of range 1..{n}: ({u}, {v})")
        if u == v:
            raise OutOfRangeError(f"self-loop at vertex {u}")
        seen.add((u, v) if u < v else (v, u))
    return Graph(n, tuple(sorted(seen)))


def delete_vertex(g: Graph, v: int) -> Graph:
    """Remove v and relabel v+1..n down by one to keep labels contiguous."""
    v = _integer(v, "vertex")
    if not (1 <= v <= g.n):
        raise OutOfRangeError(f"vertex {v} not in 1..{g.n}")
    if g.n == 1:
        raise OutOfRangeError("cannot delete the only vertex")

    def shift(x: int) -> int:
        return x - 1 if x > v else x

    kept = [(shift(a), shift(b)) for a, b in g.edges if v not in (a, b)]
    return graph_from_edge_list(g.n - 1, kept)


# ---------------------------------------------------------------------------
# edge-list text format: first significant line "n m", then m lines "u v";
# full-line "#" comments and blank lines allowed anywhere

def _decimal(token: str, line: int | None = None, column: int | None = None) -> int:
    """A token of ASCII digits as an int.  int() refuses more digits than
    sys.get_int_max_str_digits() (4,300 by default) with a ValueError;
    that is a ParseError here, at the given place."""
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"integer of {len(token)} digits is too long",
                         line=line, column=column) from None


def parse_edge_list(text: str) -> Graph:
    header = None
    pairs: list[tuple[int, int]] = []
    m_expected = 0
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        # ASCII only: str.isdigit also accepts "²" and "٣"
        bad = next((t for t in tokens if not (t.isascii() and t.isdigit())), None)
        if bad is not None:
            raise ParseError(f"expected decimal integers, got {bad!r}", line=lineno,
                             column=raw.index(bad) + 1)
        if len(tokens) != 2:
            raise ParseError(f"expected two integers per line, got {len(tokens)}",
                             line=lineno)
        a, b = _decimal(tokens[0], lineno), _decimal(tokens[1], lineno)
        if header is None:
            header = (a, b)
            m_expected = b
            continue
        if len(pairs) == m_expected:
            raise ParseError(f"more edge lines than the declared m={m_expected}",
                             line=lineno)
        pairs.append((a, b))
    if header is None:
        raise ParseError("empty edge list: missing 'n m' header", line=last_line or 1)
    if len(pairs) != m_expected:
        raise ParseError(
            f"declared m={m_expected} edges but found {len(pairs)}", line=last_line)
    try:
        return graph_from_edge_list(header[0], pairs)
    except OutOfRangeError as exc:
        raise ParseError(str(exc)) from exc


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def read_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"edge list is not UTF-8 text: {exc.reason} "
                             f"at byte {exc.start}") from None
    return parse_edge_list(text)


def write_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g))


# ---------------------------------------------------------------------------
# K4

def is_k4_free(g: Graph) -> bool:
    """No edge u-v has two adjacent common neighbours."""
    adj = g.adj
    for u, v in g.edges:
        common = adj[u] & adj[v]
        for w in _bits(common):
            if adj[w] & common:
                return False
    return True


# ---------------------------------------------------------------------------
# proper colorings

@dataclass(frozen=True)
class VertexColoring:
    """Total assignment vertex -> color index in 1..c."""

    color: tuple[int, ...]  # color[v - 1] for vertex v

    def of(self, v: int) -> int:
        return self.color[v - 1]

    def num_colors(self) -> int:
        return len(set(self.color))

    def is_proper(self, g: Graph) -> bool:
        return all(self.of(u) != self.of(v) for u, v in g.edges)


def _color_classes(g: Graph, k: int) -> list[int] | None:
    """Vertex masks of at most k colour classes covering g, no class
    holding an edge, or None when there are none.  Backtracking over the
    vertices by descending degree (ties by label): each joins the first
    class it has no neighbour in, or the next one tried, and each step may
    open at most one new class, which kills the colour symmetry."""
    adj = g.adj
    degree = [nbrs.bit_count() for nbrs in adj]
    # a stable sort: reverse=True keeps tied vertices in label order
    order = sorted(g.vertices(), key=degree.__getitem__, reverse=True)
    classes: list[int] = []

    def place(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for c in range(len(classes)):
            held = classes[c]
            if not adj[v] & held:
                classes[c] = held | 1 << v
                if place(i + 1):
                    return True
                classes[c] = held
        if len(classes) < k:
            classes.append(1 << v)
            if place(i + 1):
                return True
            classes.pop()
        return False

    return classes if place(0) else None


def find_proper_coloring(g: Graph, max_colors: int) -> VertexColoring | None:
    """Exact backtracking search for a proper coloring with <= max_colors:
    colour c + 1 for the vertices of the c-th of _color_classes."""
    if g.n > BACKTRACK_MAX_N:
        raise TooLargeError(f"proper colouring supports n <= {BACKTRACK_MAX_N}, got {g.n}")
    classes = _color_classes(g, max_colors)
    if classes is None:
        return None
    color = [0] * (g.n + 1)
    for c, held in enumerate(classes, 1):
        for v in _bits(held):
            color[v] = c
    return VertexColoring(tuple(color[1:]))


# ---------------------------------------------------------------------------
# canonical forms by exhaustive permutation minimization, and the census's
# certificates read from codes alone: colourings and vertex orders
#
# The upper triangle is packed into an integer with pair (1,2) at the most
# significant bit, so integer order on codes equals lexicographic order on
# the bit-strings and the orbit minimum is well defined.

@functools.cache
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((u, v) for u in range(1, n) for v in range(u + 1, n + 1))


@functools.cache
def _slot_values(n: int) -> dict[tuple[int, int], int]:
    """The MSB-first bit value of each pair's slot in a code on n vertices."""
    pairs = _pairs(n)
    return {p: 1 << (len(pairs) - 1 - i) for i, p in enumerate(pairs)}


def _edge_mask(g: Graph) -> int:
    return sum(map(_slot_values(g.n).__getitem__, g.edges))


def _graph_from_mask(n: int, mask: int) -> Graph:
    """The graph whose code is mask: from its top set bit, MSB-first slot
    order is pair order, so the edges come out sorted."""
    top = n * (n - 1) // 2 - 1
    pairs = _pairs(n)
    edges = []
    while mask:
        b = mask.bit_length() - 1
        edges.append(pairs[top - b])
        mask ^= 1 << b
    return Graph(n, tuple(edges))


@functools.cache
def _perm_tables(n: int) -> np.ndarray:
    """values[s, p] is the MSB-first bit value of the slot that pair s lands
    on under permutation p (itertools order), so a relabelled code is a gather-sum.

    One C(n,2) x n! table per n, built once: 21 x 5040 (0.4 MB) at n = 7,
    28 x 40320 (4.5 MB) at n = 8.  Codes stay below 2^28 for n <= 8, so
    int32 holds every value and every sum.
    """
    import numpy as np
    pairs = _pairs(n)
    perms = np.array(list(itertools.permutations(range(n))), np.int8)   # v -> p[v - 1] + 1
    weight = np.zeros((n, n), dtype=np.int32)   # slot value of each pair
    for (u, v), value in _slot_values(n).items():
        weight[u - 1, v - 1] = weight[v - 1, u - 1] = value
    # index arrays of shape (pairs, n!) give values[s, p] in one gather,
    # and an empty (0, 1) table for n = 1, which has no pairs
    us = [u - 1 for u, _ in pairs]
    vs = [v - 1 for _, v in pairs]
    return weight[perms[:, us].T, perms[:, vs].T]


@functools.cache
def _three_class_codes(n: int) -> np.ndarray:
    """Codes of the pairs that a colouring of 1..n with at most three
    colours leaves inside its classes, one per such colouring up to the
    colours' names, sorted: 1, 2, 5, 14, 41, 122 and 365 for n = 1..7,
    with 0, one vertex per class, among them for n <= 3.  Vertex 1 takes
    colour 0 and itertools.product colours the rest; a colouring's code
    is the OR of the slot values of its monochromatic pairs.  Built once
    per n (3^6 colourings at n = 7); int32 holds them for n <= 8, as in
    _perm_tables."""
    import numpy as np
    pairs = _pairs(n)
    values = np.array(list(_slot_values(n).values()), np.int32)
    colours = np.array([(0, *rest) for rest in itertools.product(range(3), repeat=n - 1)])
    us = [u - 1 for u, _ in pairs]
    vs = [v - 1 for _, v in pairs]
    same = colours[:, us] == colours[:, vs]
    codes = np.bitwise_or.reduce(np.where(same, values, 0), axis=1)
    return np.array(sorted(set(codes.tolist())), np.int32)


def _three_colourable(n: int, codes: list[int]) -> list[bool]:
    """For each graph code on n vertices, whether the graph is
    3-colourable: whether the code shares no bit with some code of
    _three_class_codes(n), so that some colouring with at most three
    colours leaves no edge inside a class, all in one broadcast AND."""
    import numpy as np
    masks = _three_class_codes(n)
    return ((np.array(codes, np.int32)[:, None] & masks).min(axis=1) == 0).tolist()


@functools.cache
def _shortcut_patterns(n: int) -> np.ndarray:
    """(path, whole) codes, one row per vertex order that keeps 1, 2, 3, 4
    first ((n - 4)! rows, one for n <= 5) and one column per sequence
    x0, ..., xk of k >= 3 steps increasing in that order: path holds its
    consecutive pairs and x0-xk, whole every pair of the sequence.  Under
    the order a graph holding path is a directed path x0 -> ... -> xk
    with the arc x0 -> xk, and that arc is a shortcut exactly when the
    graph misses a pair of whole.  One column per subset of four or more
    vertices: 1, 6, 22 and 64 at n = 4..7, none for n <= 3.  The rows are
    the order 1..n's columns relabelled by the first (n - 4)!
    permutations (_orbit_codes), which fix 1..4, the identity first;
    int32 holds them for n <= 8, as in _perm_tables."""
    import numpy as np
    slot = _slot_values(n)
    seqs = [seq for k in range(4, n + 1) for seq in itertools.combinations(range(1, n + 1), k)]
    paths = [sum(map(slot.get, zip(seq, seq[1:]))) + slot[seq[0], seq[-1]] for seq in seqs]
    wholes = [sum(map(slot.get, itertools.combinations(seq, 2))) for seq in seqs]
    rows = slice(math.factorial(max(n - 4, 0)))
    table = [[_orbit_codes(n, code, rows) for code in codes] for codes in (paths, wholes)]
    return np.array(table, np.int32).reshape(2, len(seqs), rows.stop).transpose(0, 2, 1)


def _order_semi_transitive(n: int, codes: list[int] | np.ndarray) -> list[bool]:
    """For each graph code on n vertices, whether some vertex order that
    keeps 1, 2, 3, 4 first, orienting each edge from the earlier vertex
    to the later, is semi-transitive: whether, for some row of
    _shortcut_patterns(n), the code holds no path without all of its
    whole, in one broadcast AND.  An order is acyclic and its directed
    paths are the sequences increasing in it, so this is the literal
    definition of a shortcut, with no closure and no Graph."""
    import numpy as np
    path, whole = _shortcut_patterns(n)
    held = np.asarray(codes, np.int32)[:, None, None] & whole
    return (~(((held & path) == path) & (held != whole)).any(axis=2)).any(axis=1).tolist()


def _orbit_codes(n: int, mask: int, perms: slice | list[int] = slice(None)) -> np.ndarray:
    """Codes of the relabelings of the graph encoded by mask under the
    permutations at index perms of the itertools order, all n! by
    default: per permutation, the OR of the slot values its edges land
    on, which are distinct powers of two, so the OR is their sum.  The
    census takes these every pass, and numpy's int32 add, which runs
    nowhere else on its path, faulted in 64 KB more of numpy's code than
    its int32 bitwise loops, which are in already."""
    import numpy as np
    values = _perm_tables(n)
    s = len(values)
    edge_slots = [i for i in range(s) if mask >> (s - 1 - i) & 1]
    return np.bitwise_or.reduce(values[:, perms][edge_slots], axis=0)


def _deletion_codes(n: int, code: int) -> list[int]:
    """The codes, on n - 1 vertices, of the graph of code less vertex v,
    relabelled v+1..n down by one as by delete_vertex, for v = 1..n.
    Moving v to 1 and keeping the rest in order, the permutation of
    itertools rank (n-1)! + ... + (n-v+1)!, leaves g - v on the low
    C(n-1, 2) bits."""
    ranks = itertools.accumulate((math.factorial(n - v) for v in range(1, n)), initial=0)
    return (_orbit_codes(n, code, list(ranks)) & (1 << math.comb(n - 1, 2)) - 1).tolist()


@dataclass(frozen=True)
class CanonicalForm:
    """Minimum, over all relabelings, of the packed upper-triangle code."""

    n: int
    code: int

    @property
    def key(self) -> str:
        s = self.n * (self.n - 1) // 2
        width = max(1, (s + 3) // 4)
        return f"{self.n}:{self.code:0{width}x}"


def canonical_form(g: Graph) -> CanonicalForm:
    if g.n > CANONICAL_MAX_N:
        raise TooLargeError(
            f"canonical form supports n <= {CANONICAL_MAX_N}, got {g.n}")
    codes = _orbit_codes(g.n, _edge_mask(g))
    return CanonicalForm(g.n, int(codes.min()))


# ---------------------------------------------------------------------------
# isomorphism-class enumeration (orbit sweep over the masks that a
# canonical code of at most C(n,2) / 2 edges can be)

@dataclass(frozen=True)
class GraphClass:
    form: CanonicalForm
    aut_size: int
    labelled_size: int        # n! / |Aut|, orbit-stabilizer

    @_cached
    def graph(self) -> Graph:
        """The representative, already canonically labelled, built from
        the code on first read: the census reads none of the 3-colourable
        classes' graphs."""
        return _graph_from_mask(self.form.n, self.form.code)


def _enumerable_n(n) -> int:
    """n as an int, for a class enumeration: 1 <= n <= CANONICAL_MAX_N,
    the cap of the orbit tables (_perm_tables), else TooLargeError or
    OutOfRangeError; a non-integer n raises OutOfRangeError (_integer)."""
    n = _integer(n, "vertex count")
    if n > CANONICAL_MAX_N:
        raise TooLargeError(
            f"class enumeration supports n <= {CANONICAL_MAX_N}, got {n}")
    if n < 1:
        raise OutOfRangeError(f"vertex count must be >= 1, got {n}")
    return n


def enumerate_graphs(n: int) -> Iterator[GraphClass]:
    """One representative per isomorphism class, ascending canonical code.

    The sweep visits masks in increasing order and skips anything already
    marked as an orbit member, so each representative is its own canonical
    form by construction.  One row holds the n! orbit codes of the last
    representative.  A code is the sum of the relabel table's values over
    the graph's edge slots, so the next representative's codes are that
    row plus the table rows of the slots it gains, minus those of the
    slots it loses, updated in place: about 2 of 10.5 edge slots at
    n = 7.  The row then marks its codes in the seen array in one
    scatter, and bytearray.find scans, in C, to the next unmarked mask.
    The seen array holds only the masks below a bound that every swept
    canonical code lies under (_class_codes), 2^17 of the 2^21 at n = 7,
    and a row marks only its codes below that bound.

    Complementing commutes with relabelling, so the complement of a class
    with m edges is a class with the same |Aut|, whose orbit codes are
    full ^ the class's, and whose canonical code is full ^ their maximum.
    So only masks with at most C(n,2) / 2 set slots are swept: the others
    are marked seen before the sweep starts, and each swept class with
    2m < C(n,2) also lists its complement.  The whole sweep runs before
    the first class is yielded, which then come out sorted by code.
    n is checked by _enumerable_n.
    """
    n = _enumerable_n(n)
    fact = math.factorial(n)
    for code, aut in _class_codes(n):
        yield GraphClass(CanonicalForm(n, code), aut, fact // aut)


def _class_codes(n: int) -> list[tuple[int, int]]:
    """(canonical code, |Aut|) of every class on n vertices, sorted: the
    orbit sweep of enumerate_graphs, whose seen array is freed on return.

    A canonical code's top n - 1 bits are vertex 1's row, which the
    minimum makes 2^delta - 1, delta the least degree: a least-degree
    vertex comes first and its neighbours last, as in Read's orderly
    generation.  A swept class has 2m <= 2 * (s // 2) edge ends, so
    delta <= d = 2 * (s // 2) // n and its code is below
    limit = 2^(C(n-1, 2) + d): 2^24 of the 2^28 masks at n = 8 (16 MiB
    of seen), 2^17 of 2^21 at n = 7.  So seen covers only the masks
    below limit, and each swept class marks only its orbit codes below
    it, 352,752 of the 2,630,880 it computes at n = 7."""
    import numpy as np
    values = _perm_tables(n)
    s = len(values)
    top, full = s - 1, (1 << s) - 1   # mask bit b is slot top - b
    limit = 1 << math.comb(n - 1, 2) + 2 * (s // 2) // n
    # seen[mask] = popcount(mask) > s // 2: read as rows of width masks,
    # one per value of the high bits, seen gets the popcount of the row's
    # high bits plus that of the low bits, added into its own bytes and
    # then compared into the same bytes read as bool.  For every
    # n <= CANONICAL_MAX_N, limit is a multiple of width and at most
    # width^2 (2^24 against 2^14 and 2^28 at n = 8), and int32 holds
    # codes of s <= 28 slots
    width = 1 << s // 2
    pop = np.array([b.bit_count() for b in range(width)], np.uint8)
    seen = bytearray(limit)
    counts = np.frombuffer(seen, np.uint8).reshape(-1, width)
    np.add(pop[:limit // width, None], pop, out=counts)
    np.greater(counts, s // 2, out=counts.view(np.bool_))
    marks = np.frombuffer(seen, np.bool_)
    # int32, as _perm_tables: only the few hundred codes below limit are
    # cast to intp, by the scatter
    codes = np.zeros(math.factorial(n), dtype=np.int32)
    found = []
    last = mask = 0
    while mask != -1:
        for bit in _bits(last ^ mask):
            if mask >> bit & 1:
                codes += values[top - bit]
            else:
                codes -= values[top - bit]
        below = codes[codes < limit]
        marks[below] = True
        aut = int(np.count_nonzero(below == mask))
        found.append((mask, aut))
        if 2 * mask.bit_count() < s:
            found.append((full ^ int(codes.max()), aut))
        last, mask = mask, seen.find(0, mask + 1)
    return sorted(found)


# ---------------------------------------------------------------------------
# explicit isomorphism search (any n, used where canonical_form is capped)

def are_isomorphic(g: Graph, h: Graph) -> bool:
    if max(g.n, h.n) > BACKTRACK_MAX_N:
        raise TooLargeError(
            f"isomorphism test supports n <= {BACKTRACK_MAX_N}, got {max(g.n, h.n)}")
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    if sorted(g.degree_sequence()) != sorted(h.degree_sequence()):
        return False
    n = g.n
    # order g's vertices so each (after the first) touches an earlier one
    # when possible; keeps the partial maps constrained
    order: list[int] = []
    placed = 0
    rest = sorted(g.vertices(), key=lambda v: (-g.degree(v), v))
    while rest:
        pick = next((v for v in rest if g.adj[v] & placed), rest[0])
        rest.remove(pick)
        order.append(pick)
        placed |= 1 << pick

    image = [0] * (n + 1)
    used = 0

    def extend(i: int) -> bool:
        nonlocal used
        if i == n:
            return True
        v = order[i]
        for w in h.vertices():
            if used >> w & 1 or h.degree(w) != g.degree(v):
                continue
            ok = True
            for prev in order[:i]:
                if g.has_edge(v, prev) != h.has_edge(w, image[prev]):
                    ok = False
                    break
            if not ok:
                continue
            image[v] = w
            used |= 1 << w
            if extend(i + 1):
                return True
            used &= ~(1 << w)
            image[v] = 0
        return False

    return extend(0)
