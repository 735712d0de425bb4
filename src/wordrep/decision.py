"""Top-level representability decision: a graph is word-representable
exactly when it admits a semi-transitive orientation, so decide() runs the
orientation search and packages the outcome with its search statistics.
"""

from __future__ import annotations

from .errors import OutOfRangeError
from .graphs import Graph, _Frozen
from .orientations import (
    Orientation,
    SearchStats,
    find_semi_transitive,
    is_semi_transitive,
    semi_transitive_orientations,
)

REPRESENTABLE = "Representable"
NON_REPRESENTABLE = "NonRepresentable"


class Decision(_Frozen):
    _fields = ("verdict", "witness", "stats")

    def __init__(self, verdict: str, witness: Orientation | None, stats: SearchStats):
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "stats", stats)


def decide(g: Graph) -> Decision:
    """Decide word-representability via the orientation search.

    Complete graphs need no special case: the search places every edge
    FORWARD (K_n has no 4-cycle without both chords, so nothing is
    forced), and its one leaf check sees a transitive tournament, whose
    closure holds no non-adjacent pair.  Graphs with n > SEARCH_MAX_N (40)
    raise TooLargeError.
    """
    stats = SearchStats()
    witness = find_semi_transitive(g, stats)
    if witness is None:
        return Decision(NON_REPRESENTABLE, None, stats)
    return Decision(REPRESENTABLE, witness, stats)


def verify_certificate(g: Graph, d: Decision) -> bool:
    """Independent re-check of a decision.

    Representable: the witness must be a total semi-transitive orientation
    of g.  NonRepresentable: semi_transitive_orientations must yield
    nothing, with no search or propagation.  It walks the acyclic
    orientations with the first edge FORWARD, which by reversal stand for
    all, and cuts a branch at its first placed shortcut: 219 nodes for
    graph A, whose 444 such orientations each hold a shortcut.  An edgeless
    graph's one orientation is yielded.  Past the walk's caps (more than
    24 edges with n > 8, or n > 500) it raises TooLargeError.  Any other
    verdict raises OutOfRangeError."""
    if d.verdict == REPRESENTABLE:
        w = d.witness
        return w is not None and w.base == g and w.is_total and is_semi_transitive(w)
    if d.verdict != NON_REPRESENTABLE:
        raise OutOfRangeError(f"verdict {d.verdict!r} is neither {REPRESENTABLE!r} "
                              f"nor {NON_REPRESENTABLE!r}")
    return next(semi_transitive_orientations(g), None) is None
