"""Words over vertex labels and the alternation semantics that turns a
word into a graph: x and y are adjacent iff deleting every other letter
from the word leaves xyxy... or yxyx...
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .errors import OutOfRangeError, ParseError
from .graphs import Graph, _pairs


@dataclass(frozen=True)
class Word:
    letters: tuple[int, ...]

    @cached_property
    def alphabet(self) -> frozenset[int]:
        return frozenset(self.letters)

    def __len__(self) -> int:
        return len(self.letters)


def word_from_letters(letters) -> Word:
    letters = tuple(letters)
    if not letters:
        raise OutOfRangeError("a word must be nonempty")
    for x in letters:
        if x < 1:
            raise OutOfRangeError(f"letters are positive integers, got {x}")
    return Word(letters)


def graph_of_word(w: Word) -> Graph:
    """The graph on {1..n} whose edges are exactly the alternating pairs."""
    # letters are distinct positive integers, so they are 1..n iff there are n
    n = max(w.alphabet)
    if len(w.alphabet) != n:
        absent = n - len(w.alphabet)
        shown = ", ".join(map(str, itertools.islice(
            (x for x in range(1, n + 1) if x not in w.alphabet), 5)))
        if absent > 5:
            shown += f", ... ({absent} in all)"
        raise OutOfRangeError(
            f"alphabet must be 1..{n}; missing {shown}")
    # one pass; since[x] masks the letters seen since the last x (-1, all
    # of them, before the first x).  A repeated x breaks its pair with each
    # letter outside since[x]; a pair alternates iff neither letter broke it.
    since = [-1] * (n + 1)
    kept = [-1] * (n + 1)   # kept[x]: the letters whose pair x has not broken
    for x in w.letters:
        kept[x] &= since[x]
        bx = 1 << x
        since = [s | bx for s in since]
        since[x] = 0
    # ok[x][y] == "1" iff y is in kept[x]
    ok = [format(k % (2 << n), f"0{n + 1}b")[::-1] for k in kept]
    return Graph(n, tuple([(x, y) for x, y in _pairs(n) if ok[x][y] == ok[y][x] == "1"]))


def represents(w: Word, g: Graph) -> bool:
    """True iff graph_of_word(w) is exactly g (labelled equality).

    A word over the wrong alphabet raises OutOfRangeError rather than
    returning False: a word over the wrong alphabet is a usage error, not
    evidence about the graph.
    """
    if len(w.alphabet) != g.n or max(w.alphabet) != g.n:
        raise OutOfRangeError(
            f"word alphabet {sorted(w.alphabet)} != graph vertex set 1..{g.n}")
    return graph_of_word(w).edges == g.edges


def uniformity(w: Word) -> int | None:
    """The common multiplicity k if w is k-uniform, else None."""
    counts = set(Counter(w.letters).values())
    if len(counts) == 1:
        return counts.pop()
    return None


# ---------------------------------------------------------------------------
# parsing and formatting
#
# Three accepted input forms:
#   "1 2 13 4" / "1,2,13,4"   decimal tokens (the canonical output form)
#   "1213423"                 compact digits, one letter per digit, labels <= 9
#   "1387296(10)74..."        compact digits with parenthesized multi-digit
#                             letters, as printed in running text
# Output is always whitespace-separated decimal tokens.  Digits are ASCII
# only: str.isdigit and \d also accept "²" and "٣".

_COMPACT_RE = re.compile(r"[1-9]|\(([0-9]+)\)")


def parse_word(text: str) -> Word:
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty word")
    if re.search(r"[\s,]", stripped):
        letters = []
        for tok in re.split(r"[\s,]+", stripped):
            if not tok:
                continue
            if not (tok.isascii() and tok.isdigit()):
                raise ParseError(f"not a decimal letter: {tok!r}")
            val = int(tok)
            if val < 1:
                raise ParseError(f"letters are positive integers, got {tok}")
            letters.append(val)
        return word_from_letters(letters)
    if len(stripped) == 1:
        if stripped not in "123456789":
            raise ParseError(f"not a letter: {stripped!r}")
        return Word((int(stripped),))
    # compact form; "0" is never a label, so a bare 0 digit is an error and
    # multi-digit letters must be written "(10)" or space-separated
    letters = []
    pos = 0
    while pos < len(stripped):
        m = _COMPACT_RE.match(stripped, pos)
        if m is None:
            raise ParseError(
                f"bad character in compact word: {stripped[pos]!r}"
                " (write multi-digit letters as '(10)' or space-separated)",
                column=pos + 1)
        if m.group(1) is not None:
            val = int(m.group(1))
            if val < 1:
                raise ParseError("letters are positive integers, got (0)",
                                 column=pos + 1)
            letters.append(val)
        else:
            letters.append(int(m.group(0)))
        pos = m.end()
    return word_from_letters(letters)


def format_word(w: Word) -> str:
    return " ".join(str(a) for a in w.letters)
