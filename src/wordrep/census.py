"""Speed of the word-representable class at small n: the labelled count
b_n, the unlabelled count a_n, and the entropy log2(b_n)/C(n,2).

The census walks one representative per isomorphism class and decides
each; labelled totals come from orbit-stabilizer (a class on n vertices
has n!/|Aut| labelled copies), so nothing ever enumerates all 2^C(n,2)
labelled graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .decision import REPRESENTABLE, decide
from .errors import OutOfRangeError, TooLargeError
from .graphs import ENUMERATE_MAX_N, _color_classes, enumerate_graphs
from .orientations import _forward_semi_transitive


@dataclass(frozen=True)
class SpeedRow:
    n: int
    a_n: int
    b_n: int
    entropy: float | None  # None for n = 1, where C(n,2) = 0
    nonrep_classes: tuple[str, ...]  # canonical keys, sorted


def _entropy(n: int, b_n: int) -> float | None:
    pairs = math.comb(n, 2)
    if pairs == 0:
        return None
    return math.log2(b_n) / pairs


def census(n: int) -> SpeedRow:
    """Exact counts for vertex count n <= ENUMERATE_MAX_N (7): one verdict
    per isomorphism class, never one per labelled graph.

    Two certificates come before any search.  A 3-colourable class is
    representable: orienting each edge from the lower colour class to the
    higher leaves no directed path of three arcs, so no shortcut
    (orient_by_coloring), which holds for 667 of the 1,044 classes at
    n = 7.  Of the rest, a class whose vertex order 1..n (every edge
    FORWARD) is semi-transitive is representable too: 212 more at n = 7.
    decide searches only what is left, 171 of the 1,251 classes for
    n = 2..7.  No witness is emitted, so which certificate accepts a
    class changes no output."""
    a_n = b_n = 0
    nonrep = []
    # enumerate every class before deciding any: interleaving the orbit
    # sweep with the searches made the n = 2..7 table about 6 % slower
    for cls in list(enumerate_graphs(n)):
        g = cls.graph
        if (_color_classes(g, 3) is not None or _forward_semi_transitive(g)
                or decide(g).verdict == REPRESENTABLE):
            a_n += 1
            b_n += cls.labelled_size
        else:
            nonrep.append(cls.form.key)
    return SpeedRow(n, a_n, b_n, _entropy(n, b_n), tuple(sorted(nonrep)))


def entropy_table(n_max: int, long_ok: bool = False) -> list[SpeedRow]:
    """Rows for n = 2..n_max, 2 <= n_max <= ENUMERATE_MAX_N (7).  long_ok
    does nothing; it stays only because perfbench/worker.py passes it."""
    if n_max < 2:
        raise OutOfRangeError(f"entropy table needs n >= 2, got {n_max}")
    if n_max > ENUMERATE_MAX_N:
        raise TooLargeError(
            f"entropy table supports n <= {ENUMERATE_MAX_N}, got {n_max}")
    return [census(n) for n in range(2, n_max + 1)]

