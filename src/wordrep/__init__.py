"""Word-representable graphs at desk scale.

A graph is word-representable when some word over its vertex labels has
exactly the edges as alternating letter pairs; equivalently, when the
graph admits a semi-transitive orientation.  This package decides that
for small graphs, produces witnesses on both the orientation and the
word side, and counts the class at small vertex counts.
"""

from .census import SpeedRow, census, entropy_table
from .decision import (
    NON_REPRESENTABLE,
    REPRESENTABLE,
    Decision,
    decide,
    verify_certificate,
)
from .errors import WordrepError
from .graphs import (
    CanonicalForm,
    Graph,
    GraphClass,
    VertexColoring,
    are_isomorphic,
    canonical_form,
    delete_vertex,
    enumerate_graphs,
    find_proper_coloring,
    format_edge_list,
    graph_from_edge_list,
    is_k4_free,
    parse_edge_list,
    read_edge_list,
    write_edge_list,
)
from .orientations import (
    BACKWARD,
    FORWARD,
    Conflict,
    Orientation,
    SearchStats,
    count_semi_transitive,
    find_shortcut,
    find_semi_transitive,
    format_orientation,
    is_semi_transitive,
    lemma1_propagate,
    orient_by_coloring,
    orientation_from_arcs,
)
from .words import (
    Word,
    format_word,
    graph_of_word,
    parse_word,
    represents,
    uniformity,
    word_from_letters,
)
from .wordsearch import WordSearchResult, find_k_uniform_word, find_word

__version__ = "0.1.0"

__all__ = [
    "BACKWARD",
    "CanonicalForm",
    "Conflict",
    "Decision",
    "FORWARD",
    "Graph",
    "GraphClass",
    "NON_REPRESENTABLE",
    "Orientation",
    "REPRESENTABLE",
    "SearchStats",
    "SpeedRow",
    "VertexColoring",
    "Word",
    "WordSearchResult",
    "WordrepError",
    "are_isomorphic",
    "canonical_form",
    "census",
    "count_semi_transitive",
    "decide",
    "delete_vertex",
    "entropy_table",
    "enumerate_graphs",
    "find_k_uniform_word",
    "find_proper_coloring",
    "find_semi_transitive",
    "find_shortcut",
    "find_word",
    "format_edge_list",
    "format_orientation",
    "format_word",
    "graph_from_edge_list",
    "graph_of_word",
    "is_k4_free",
    "is_semi_transitive",
    "lemma1_propagate",
    "orient_by_coloring",
    "orientation_from_arcs",
    "parse_edge_list",
    "parse_word",
    "read_edge_list",
    "represents",
    "uniformity",
    "verify_certificate",
    "word_from_letters",
    "write_edge_list",
]
