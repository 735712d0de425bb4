"""Bundled graphs and words, so the verify-paper reference checks run
offline from a fresh install.
"""

from __future__ import annotations

from .errors import OutOfRangeError
from .graphs import Graph, parse_edge_list
from .words import Word, parse_word

GRAPH_NAMES = ("A", "M", "K4", "C4", "C5", "petersen")
WORD_NAMES = ("M", "K4", "petersen")


def _read(filename: str) -> str:
    # imported here, not at the top: importlib.resources loads pathlib and
    # zipfile, 10-18 ms that only verify-paper and the bundled readers need
    from importlib import resources
    return (resources.files("wordrep") / "data" / filename).read_text("utf-8")


def bundled_graph(name: str) -> Graph:
    if name not in GRAPH_NAMES:
        raise OutOfRangeError(
            f"no bundled graph {name!r}; choose from {', '.join(GRAPH_NAMES)}")
    return parse_edge_list(_read(f"{name}.edges"))


def bundled_word(name: str) -> Word:
    if name not in WORD_NAMES:
        raise OutOfRangeError(
            f"no bundled word {name!r}; choose from {', '.join(WORD_NAMES)}")
    return parse_word(_read(f"{name}.word"))
