"""Exception types shared across the toolkit.

Every guard in the public API raises one of these rather than a bare
ValueError, so callers (and the CLI) can tell usage errors apart from
negative mathematical answers.
"""


class WordrepError(Exception):
    """Base class for all toolkit errors."""


class OutOfRangeError(WordrepError):
    """A value lies outside its range: an edge endpoint or vertex label
    outside 1..n, or a count (vertices, multiplicity, table rows) too small."""


class SelfLoopError(WordrepError):
    """An edge joins a vertex to itself."""


class TooLargeError(WordrepError):
    """Input exceeds the supported exhaustive-search range."""


class NonContiguousAlphabetError(WordrepError):
    """A word's alphabet is not {1, ..., n} for any n."""


class AlphabetMismatchError(WordrepError):
    """A word's alphabet differs from the graph's vertex set.

    Raised instead of returning False: a word over the wrong alphabet is a
    usage error, not evidence about the graph.
    """


class PartialOrientationError(WordrepError):
    """An operation requiring a total orientation got a partial one."""


class CyclicInputError(WordrepError):
    """An operation requiring an acyclic orientation got a cyclic one."""


class TooManyEdgesError(WordrepError):
    """Exact orientation counting was requested beyond the edge cap."""


class ImproperColoringError(WordrepError):
    """A coloring assigns the same color to both ends of an edge."""


class TooManyColorsError(WordrepError):
    """The coloring-based construction needs at most three colors."""


class ParseError(WordrepError):
    """A text input (edge list or word) failed to parse."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)
