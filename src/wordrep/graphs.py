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
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterator

from .errors import OutOfRangeError, ParseError, TooLargeError

if TYPE_CHECKING:   # the functions that use numpy import it themselves
    import numpy as np

CANONICAL_MAX_N = 8
ENUMERATE_MAX_N = 7


@dataclass(frozen=True)
class Graph:
    """Immutable labelled graph.  Build through graph_from_edge_list."""

    n: int
    edges: tuple[tuple[int, int], ...]  # (u, v) with u < v, lexicographic

    @cached_property
    def adj(self) -> tuple[int, ...]:
        # adj[v] has bit w set iff v ~ w; index 0 unused
        masks = [0] * (self.n + 1)
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
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


def graph_from_edge_list(n: int, pairs) -> Graph:
    """Validate, normalize (u < v), dedupe and sort the edge list."""
    if n < 1:
        raise OutOfRangeError(f"vertex count must be >= 1, got {n}")
    seen = set()
    for u, v in pairs:
        if not (1 <= u <= n) or not (1 <= v <= n):
            raise OutOfRangeError(f"edge endpoint out of range 1..{n}: ({u}, {v})")
        if u == v:
            raise OutOfRangeError(f"self-loop at vertex {u}")
        seen.add((u, v) if u < v else (v, u))
    return Graph(n, tuple(sorted(seen)))


def delete_vertex(g: Graph, v: int) -> Graph:
    """Remove v and relabel v+1..n down by one to keep labels contiguous."""
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
        a, b = int(tokens[0]), int(tokens[1])
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
    classes = _color_classes(g, max_colors)
    if classes is None:
        return None
    color = [0] * (g.n + 1)
    for c, held in enumerate(classes, 1):
        for v in _bits(held):
            color[v] = c
    return VertexColoring(tuple(color[1:]))


# ---------------------------------------------------------------------------
# canonical forms by exhaustive permutation minimization
#
# The upper triangle is packed into an integer with pair (1,2) at the most
# significant bit, so integer order on codes equals lexicographic order on
# the bit-strings and the orbit minimum is well defined.

@functools.cache
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((u, v) for u in range(1, n) for v in range(u + 1, n + 1))


def _edge_mask(g: Graph) -> int:
    s = g.n * (g.n - 1) // 2
    idx = {p: i for i, p in enumerate(_pairs(g.n))}
    mask = 0
    for e in g.edges:
        mask |= 1 << (s - 1 - idx[e])
    return mask


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
    for i, (u, v) in enumerate(pairs):
        weight[u - 1, v - 1] = weight[v - 1, u - 1] = 1 << (len(pairs) - 1 - i)
    # index arrays of shape (pairs, n!) give values[s, p] in one gather,
    # and an empty (0, 1) table for n = 1, which has no pairs
    us = [u - 1 for u, _ in pairs]
    vs = [v - 1 for _, v in pairs]
    return weight[perms[:, us].T, perms[:, vs].T]


def _orbit_codes(n: int, mask: int) -> np.ndarray:
    """Codes of all n! relabelings of the graph encoded by mask: the sum,
    per permutation, of the slot values its edges land on."""
    values = _perm_tables(n)
    s = len(values)
    edge_slots = [i for i in range(s) if mask >> (s - 1 - i) & 1]
    return values[edge_slots].sum(axis=0, dtype=values.dtype)


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
# isomorphism-class enumeration (orbit sweep over all 2^C(n,2) masks)

@dataclass(frozen=True)
class GraphClass:
    graph: Graph              # representative, already canonically labelled
    form: CanonicalForm
    aut_size: int
    labelled_size: int        # n! / |Aut|, orbit-stabilizer


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
    scatter, and a scan to the next unmarked mask, done in C by
    bytearray.find, is the only pass over all 2^C(n,2) labelled graphs.
    """
    if n > ENUMERATE_MAX_N:
        raise TooLargeError(
            f"class enumeration supports n <= {ENUMERATE_MAX_N}, got {n}")
    if n < 1:
        raise OutOfRangeError(f"vertex count must be >= 1, got {n}")
    import numpy as np
    values = _perm_tables(n)
    top = len(values) - 1   # mask bit b is slot top - b
    fact = math.factorial(n)
    seen = bytearray(1 << len(values))
    marks = np.frombuffer(seen, dtype=np.uint8)
    codes = np.zeros(fact, dtype=np.intp)   # intp: the scatter needs no copy
    last = mask = 0
    while mask != -1:
        for bit in _bits(last ^ mask):
            if mask >> bit & 1:
                codes += values[top - bit]
            else:
                codes -= values[top - bit]
        marks[codes] = 1
        aut = int(np.count_nonzero(codes == mask))
        yield GraphClass(
            _graph_from_mask(n, mask),
            CanonicalForm(n, mask),
            aut,
            fact // aut,
        )
        last, mask = mask, seen.find(0, mask + 1)


# ---------------------------------------------------------------------------
# explicit isomorphism search (any n, used where canonical_form is capped)

def are_isomorphic(g: Graph, h: Graph) -> bool:
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
