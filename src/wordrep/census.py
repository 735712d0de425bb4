"""Speed of the word-representable class at small n: the labelled count
b_n, the unlabelled count a_n, and the entropy log2(b_n)/C(n,2).

The census walks one representative per isomorphism class and decides
each; labelled totals come from orbit-stabilizer (a class on n vertices
has n!/|Aut| labelled copies), so nothing ever enumerates all 2^C(n,2)
labelled graphs.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass

from .decision import REPRESENTABLE, decide
from .errors import TooLargeError
from .graphs import GraphClass, enumerate_graphs

CENSUS_MAX_N = 6
CENSUS_MAX_N_LONG = 7


@dataclass(frozen=True)
class SpeedRow:
    n: int
    a_n: int
    b_n: int
    entropy: float | None  # None for n = 1, where C(n,2) = 0
    nonrep_classes: tuple[str, ...]  # canonical keys, sorted

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "a_n": self.a_n,
            "b_n": self.b_n,
            "entropy": self.entropy,
            "nonrep_classes": list(self.nonrep_classes),
        }


def _entropy(n: int, b_n: int) -> float | None:
    pairs = math.comb(n, 2)
    if pairs == 0:
        return None
    return math.log2(b_n) / pairs


def _decide_class(cls: GraphClass) -> tuple[str, int, str]:
    verdict = decide(cls.graph).verdict
    contribution = cls.labelled_size if verdict == REPRESENTABLE else 0
    return cls.form.key, contribution, verdict


def census(n: int, long_ok: bool = False, workers: int = 1) -> SpeedRow:
    """Exact counts for vertex count n.

    n = 7 sits behind long_ok.  It takes about 0.4 s in process (class
    enumeration 0.13 s, 1,044 decisions 0.26 s) and `census 7 --long`
    about 0.6 s end to end, on a 2-core Linux VM with Python 3.11.
    """
    limit = CENSUS_MAX_N_LONG if long_ok else CENSUS_MAX_N
    if n > limit:
        hint = "" if long_ok else f" (n = {CENSUS_MAX_N_LONG} needs the long-running flag)"
        raise TooLargeError(f"census capped at n = {limit}, got {n}{hint}")

    classes = list(enumerate_graphs(n))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_decide_class, classes, chunksize=8))
    else:
        rows = [_decide_class(cls) for cls in classes]

    b_n = sum(contribution for _, contribution, _ in rows)
    a_n = sum(1 for _, _, verdict in rows if verdict == REPRESENTABLE)
    nonrep = tuple(sorted(
        key for key, _, verdict in rows if verdict != REPRESENTABLE))
    return SpeedRow(n, a_n, b_n, _entropy(n, b_n), nonrep)


def entropy_table(n_max: int, long_ok: bool = False, workers: int = 1) -> list[SpeedRow]:
    """Rows for n = 2..n_max."""
    limit = CENSUS_MAX_N_LONG if long_ok else CENSUS_MAX_N
    if n_max > limit:
        raise TooLargeError(f"entropy table capped at n = {limit}, got {n_max}")
    return [census(n, long_ok=long_ok, workers=workers)
            for n in range(2, n_max + 1)]


def format_table(rows: list[SpeedRow]) -> str:
    header = f"{'n':>2}  {'a_n':>6}  {'b_n':>10}  {'entropy':>9}  nonrep"
    lines = [header]
    for r in rows:
        ent = "-" if r.entropy is None else f"{r.entropy:.6f}"
        lines.append(
            f"{r.n:>2}  {r.a_n:>6}  {r.b_n:>10}  {ent:>9}  {len(r.nonrep_classes)}")
    return "\n".join(lines) + "\n"
