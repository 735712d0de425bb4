"""Speed of the word-representable class at small n: the labelled count
b_n, the unlabelled count a_n, and the entropy log2(b_n)/C(n,2).

The census walks one representative per isomorphism class and settles
each, by a certificate, by heredity from the row below or by a search;
labelled totals come from orbit-stabilizer (a class on n vertices
has n!/|Aut| labelled copies), so nothing ever enumerates all 2^C(n,2)
labelled graphs.
"""

from __future__ import annotations

import itertools
import math

from .decision import REPRESENTABLE, decide
from .errors import OutOfRangeError
from .graphs import (
    GraphClass,
    _Frozen,
    _deletion_codes,
    _enumerable_n,
    _integer,
    _orbit_codes,
    _order_semi_transitive,
    _three_colourable,
    enumerate_graphs,
)


class SpeedRow(_Frozen):
    # entropy is None for n = 1, where C(n,2) = 0; nonrep_classes holds
    # canonical keys, sorted: enumerate_graphs yields classes by ascending
    # code, and one row's keys are hex of one fixed width
    _fields = ("n", "a_n", "b_n", "entropy", "nonrep_classes")

    def __init__(self, n: int, a_n: int, b_n: int, entropy: float | None,
                 nonrep_classes: tuple[str, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a_n", a_n)
        object.__setattr__(self, "b_n", b_n)
        object.__setattr__(self, "entropy", entropy)
        object.__setattr__(self, "nonrep_classes", nonrep_classes)


def _entropy(n: int, b_n: int) -> float | None:
    pairs = math.comb(n, 2)
    if pairs == 0:
        return None
    return math.log2(b_n) / pairs


def census(n: int) -> SpeedRow:
    """Exact counts for vertex count n <= CANONICAL_MAX_N (8): one verdict
    per isomorphism class, never one per labelled graph.  The row is the
    last of one pass over n = 1..n (_rows), so the rows below it are
    counted too.  Every class is settled from its code, by certificates
    and heredity, before any search.

    A 3-colourable class is representable: orienting each edge from the
    lower colour class to the higher leaves no directed path of three
    arcs, so no shortcut (orient_by_coloring), which holds for 667 of the
    1,044 classes at n = 7.  The test reads only the class codes: a graph
    is 3-colourable when its code shares no bit with the pairs that some
    colouring of 1..n with at most three colours leaves inside its
    classes (_three_colourable), so these classes build no Graph and
    never backtrack.  A class is representable too when some vertex
    order is semi-transitive (it orients each edge from the earlier
    vertex to the later), and every semi-transitive orientation is one
    of these, by a topological order.  The (n - 4)! orders that keep 1,
    2, 3, 4 first are tested on the code against the literal definition
    of a shortcut, one pattern per sequence of four or more vertices
    increasing in the order (_order_semi_transitive), on the classes the
    colouring leaves: 319 of the 377 left at n = 7, and 420 tested for
    n = 1..7.  Both tests run on chunks of 64 classes, which keeps their
    broadcast ANDs to 64 x 365 codes for the colouring and at most
    58 x 6 x 64 for the orders at n = 7 (64 x 1,094 and 64 x 24 x 163
    at n = 8, where one AND over all 12,346 classes would build int32
    arrays of 54 MB for the colouring and 99 MB for the orders); the
    chunked colouring moved the benchmark's peak RSS less than one AND
    over all 1,044.

    Representability is hereditary: deleting a vertex's letters from a
    word that represents a graph represents the graph less that vertex.
    So a class is refuted, with no Graph and no search, when one of its
    one-vertex deletions (_deletion_codes) is a labelled code of a class
    refuted in the row below: 16 classes at n = 7, each holding a 5-wheel.
    Each row hands the next the labelled codes of its refuted classes,
    W5's 72 after n = 6, and the last row hands on nothing.

    decide searches only what is left: 42 classes at n = 7, the 10
    minimal refuted ones and 32 representable, and 45 of the 1,252 for
    n = 1..7.  At n = 8 the colouring settles 6,024 of the 12,346
    classes, the orders 4,808 and heredity 909, and decide searches 605,
    47 of them refuted.  No witness is emitted, so which certificate
    settles a class changes no output.  n is checked as by
    enumerate_graphs (_enumerable_n), before the pass starts."""
    return _rows(_enumerable_n(n))[-1]


def _rows(n_max: int) -> list[SpeedRow]:
    """The census rows n = 1..n_max, in one pass (see census)."""
    rows, refuted = [], set()
    for n in range(1, n_max + 1):
        a_n = b_n = 0
        nonrep = []
        classes = enumerate_graphs(n)
        while chunk := list(itertools.islice(classes, 64)):
            codes = [cls.form.code for cls in chunk]
            settled = _three_colourable(n, codes)
            left = [i for i, coloured in enumerate(settled) if not coloured]
            for i, ordered in zip(left, _order_semi_transitive(n, [codes[i] for i in left])):
                settled[i] = ordered
            for cls, certified in zip(chunk, settled):
                if certified or _representable(cls, refuted):
                    a_n += 1
                    b_n += cls.labelled_size
                else:
                    nonrep.append(cls.form)
        rows.append(SpeedRow(n, a_n, b_n, _entropy(n, b_n),
                             tuple(form.key for form in nonrep)))
        if n < n_max:
            refuted = set().union(*(_orbit_codes(n, form.code).tolist() for form in nonrep))
    return rows


def _representable(cls: GraphClass, refuted: set[int]) -> bool:
    """A class that neither certificate of the chunk settles, so n >= 4:
    refuted by heredity when one of its deletions is in refuted, the
    labelled codes of the refuted classes one vertex smaller; else
    settled by decide."""
    n, code = cls.form.n, cls.form.code
    if not refuted.isdisjoint(_deletion_codes(n, code)):
        return False
    return decide(cls.graph).verdict == REPRESENTABLE


def entropy_table(n_max: int, long_ok: bool = False) -> list[SpeedRow]:
    """Rows for n = 2..n_max, 2 <= n_max <= CANONICAL_MAX_N (8), from one
    pass of _rows.  long_ok does nothing; it stays only because
    perfbench/worker.py passes it.  A non-integer n_max or n_max < 2
    raises OutOfRangeError (_integer); past 8 it raises as
    enumerate_graphs does (_enumerable_n)."""
    n_max = _integer(n_max, "n_max")
    if n_max < 2:
        raise OutOfRangeError(f"entropy table needs n >= 2, got {n_max}")
    return _rows(_enumerable_n(n_max))[1:]
