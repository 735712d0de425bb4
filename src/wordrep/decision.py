"""Top-level representability decision: a graph is word-representable
exactly when it admits a semi-transitive orientation, so decide() runs the
orientation search and packages the outcome with its search statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph
from .orientations import (
    Orientation,
    SearchStats,
    acyclic_orientations,
    find_semi_transitive,
    is_semi_transitive,
)

REPRESENTABLE = "Representable"
NON_REPRESENTABLE = "NonRepresentable"


@dataclass(frozen=True)
class Decision:
    verdict: str
    witness: Orientation | None
    stats: SearchStats


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
    of g.  NonRepresentable: is_semi_transitive must reject every acyclic
    orientation, with no search, propagation or symmetry: 888 for graph A,
    from acyclic_orientations' walk, so n > 8 raises TooLargeError."""
    if d.verdict == REPRESENTABLE:
        w = d.witness
        return w is not None and w.base == g and w.is_total and is_semi_transitive(w)
    return not any(is_semi_transitive(o) for o in acyclic_orientations(g))

