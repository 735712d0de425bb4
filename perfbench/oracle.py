"""Independent answer checks.

Nothing here calls the program's searches (find_semi_transitive,
count_semi_transitive, the word search).  Every acyclic orientation of a
graph is the one induced by some vertex order, so enumerating the n! orders
and de-duplicating the induced orientations visits each acyclic orientation
once; each is then tested with is_semi_transitive.  An orientation is
semi-transitive exactly when its reversal is, so one of each reversal pair
is tested.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from wordrep import (
    BACKWARD,
    FORWARD,
    Graph,
    Orientation,
    is_semi_transitive,
    represents,
    uniformity,
    word_from_letters,
)


def _orientation(g: Graph, key: int) -> Orientation:
    # bit j of key set: edge j points from its larger to its smaller label
    return Orientation(g, tuple(
        BACKWARD if key >> j & 1 else FORWARD for j in range(len(g.edges))))


@functools.lru_cache(maxsize=None)
def _positions(n: int) -> np.ndarray:
    """Row r: the position of each vertex (column v - 1) in the r-th vertex
    order, orders in itertools.permutations order."""
    orders = np.array(list(itertools.permutations(range(n))), dtype=np.int8).reshape(-1, n)
    return np.argsort(orders, axis=1)


def _order_keys(g: Graph):
    """One key per reversal pair of acyclic orientations, each the first
    time some vertex order induces it."""
    if not g.edges:
        yield 0
        return
    pos = _positions(g.n)
    tails = np.array([u - 1 for u, _ in g.edges])
    heads = np.array([v - 1 for _, v in g.edges])
    bits = np.left_shift(np.int64(1), np.arange(len(g.edges), dtype=np.int64))
    keys = (pos[:, tails] > pos[:, heads]) @ bits
    keys = np.minimum(keys, keys ^ int(bits.sum()))
    _, first = np.unique(keys, return_index=True)
    for r in np.sort(first):
        yield int(keys[r])


def three_coloring(g: Graph) -> list[int] | None:
    """A proper colouring with colours 0..2 (index v - 1), or None."""
    colour = [-1] * (g.n + 1)
    nbrs = [[] for _ in range(g.n + 1)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)

    def place(v: int) -> bool:
        if v > g.n:
            return True
        for c in range(3):
            if all(colour[w] != c for w in nbrs[v]):
                colour[v] = c
                if place(v + 1):
                    return True
        colour[v] = -1
        return False

    return colour[1:] if place(1) else None


def is_representable(g: Graph) -> bool:
    """Word-representability by the vertex-order route.

    A 3-colouring is tried first: listing its colour classes in turn is a
    vertex order, and the paper shows the orientation it induces is
    semi-transitive, so a hit ends the search after one test.
    """
    colouring = three_coloring(g)
    if colouring is not None:
        key = 0
        for j, (u, v) in enumerate(g.edges):
            if colouring[u - 1] > colouring[v - 1]:
                key |= 1 << j
        if is_semi_transitive(_orientation(g, key)):
            return True
    return any(is_semi_transitive(_orientation(g, key)) for key in _order_keys(g))


def count_semi_transitive_orders(g: Graph) -> int:
    """Exact number of semi-transitive orientations by the vertex-order route."""
    if not g.edges:
        return 1
    return 2 * sum(
        1 for key in _order_keys(g) if is_semi_transitive(_orientation(g, key)))


def witness_ok(g: Graph, arcs) -> bool:
    """A claimed witness: one arc per edge of g, semi-transitive."""
    dirs: list[int | None] = [None] * len(g.edges)
    for t, h in arcs:
        j = g.edge_index.get((min(t, h), max(t, h)))
        if j is None or dirs[j] is not None:
            return False
        dirs[j] = FORWARD if t < h else BACKWARD
    if None in dirs:
        return False
    return is_semi_transitive(Orientation(g, tuple(dirs)))


def word_ok(g: Graph, letters, k: int) -> bool:
    """A claimed k-uniform word representing g."""
    w = word_from_letters(letters)
    return uniformity(w) == k and represents(w, g)
