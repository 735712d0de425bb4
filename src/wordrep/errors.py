"""Exception types shared across the toolkit.

Every guard in the public API raises one of these rather than a bare
ValueError, so callers (and the CLI) can tell usage errors apart from
negative mathematical answers.  A class exists only where some caller
acts on it; the message says which guard fired.
"""


class WordrepError(Exception):
    """Base class for all toolkit errors; the CLI exits 2 on any of them."""


class OutOfRangeError(WordrepError):
    """A value lies outside its domain: an edge endpoint or vertex label
    outside 1..n, a self-loop, a count (vertices, multiplicity, table rows)
    too small, a word whose alphabet is not 1..n or not the graph's vertex
    set, a partial orientation where a total one is needed, or a coloring
    that is improper or has more than three colors."""


class TooLargeError(WordrepError):
    """Input exceeds a size cap of the exact methods (README "Size caps")."""


class ParseError(WordrepError):
    """A text input (edge list or word) failed to parse."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)
