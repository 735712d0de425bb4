"""Seeded inputs for the benchmark workloads, with their expected answers.

Each workload draws random labelled graphs from its seed and fills fixed
quotas per stratum: vertex count n, edge count m, K4-free or not, and the
expected answer.  Fixed quotas keep the mix, and with it the latency
quantiles, the same from seed to seed; only the graphs inside each stratum
change.  The expected answers come from oracle.py, never from the program.

The `paper` workload has fixed inputs and ignores the seed.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random

import oracle
from wordrep import graph_from_edge_list

REPRESENTABLE = "Representable"
NON_REPRESENTABLE = "NonRepresentable"

# Reference rows of the paper's speed table, n = 2..7.
PAPER_A = (2, 4, 11, 34, 155, 1018)
PAPER_B = (2, 8, 64, 1024, 32696, 2054480)
PAPER_NONREP = (0, 0, 0, 0, 1, 26)

# (m, K4-free, verdict, quota, samples per pass) on 8 vertices.  Sparse
# K4-free graphs hold the median; K4-free refutations are cheap because the
# four-cycle forcing rule applies; non-representable graphs with a K4 (15
# and 16 edges, 40-80 ms each) are the heavy tail.  The 8 at 16 edges are the
# slowest queries, so the 90th percentile, 17 queries from the top, falls
# inside the 15-edge stratum and not on the step between two strata.
# Denser K4 refutations (20 edges, about 0.25 s each) would fill most of a
# pass on their own and leave too few passes in a run.  The cheap queries
# are timed several times per pass: one call of a fraction of a millisecond
# can take up to 4x another of the same query, so their median needs more
# samples, and their extra calls cost little.
DECIDE_N = 8
LIGHT = 4
DECIDE_STRATA = (
    (11, True, REPRESENTABLE, 30, LIGHT),
    (12, True, REPRESENTABLE, 30, LIGHT),
    (13, True, REPRESENTABLE, 30, LIGHT),
    (14, True, REPRESENTABLE, 30, LIGHT),
    (14, True, NON_REPRESENTABLE, 3, LIGHT),
    (15, True, NON_REPRESENTABLE, 3, LIGHT),
    (16, True, NON_REPRESENTABLE, 3, LIGHT),
    (16, False, REPRESENTABLE, 4, LIGHT),
    (18, False, REPRESENTABLE, 4, LIGHT),
    (20, False, REPRESENTABLE, 4, LIGHT),
    (22, False, REPRESENTABLE, 4, LIGHT),
    (15, False, NON_REPRESENTABLE, 18, 1),
    (16, False, NON_REPRESENTABLE, 8, 1),
)

# (m, K4-free, quota) on 7 vertices; the answer is the count itself, so it
# is not stratified.  K4-containing graphs get no forcing rule and hold the
# 90th percentile.
COUNT_N = 7
COUNT_STRATA = (
    (9, True, 45),
    (11, True, 45),
    (12, True, 45),
    (13, True, 15),
    (12, False, 38),
    (13, False, 8),
)

# Words: graphs of random 2-uniform words on 7 vertices (a k = 2 word exists,
# and k = 1 words represent only complete graphs, which are skipped), and
# refutations with k_max = 2, where every k is refuted: relabelled copies of
# the five-wheel W5, the smallest non-representable graph, and random
# non-representable 7-vertex graphs.  The p90 needs at least 10 queries beyond
# it, so the set holds over 100 queries; a 7-vertex refutation costs about
# 0.2 s and a W5 refutation about 20 ms, so W5 copies make up the bulk and
# hold p50, the 7-vertex refutations hold p90, and the positives sit below.
WORDS_N = 7
WORDS_POSITIVE = 36
WORDS_POSITIVE_K_MAX = 3
WORDS_WHEELS = 54
WORDS_REFUTE_STRATA = ((13, 12),)
WORDS_REFUTE_K_MAX = 2
FIVE_WHEEL = tuple((v, v % 5 + 1) for v in range(1, 6)) + tuple(
    (v, 6) for v in range(1, 6))

MAX_DRAWS = 200_000

WORKLOADS = ("paper", "decide", "count", "words")


@dataclasses.dataclass(frozen=True)
class Query:
    n: int
    edges: tuple[tuple[int, int], ...]
    k4_free: bool
    stratum: str
    expected: object     # verdict, count, or k (None: no word up to k_max)
    k_max: int | None = None
    samples: int = 1     # timed calls per pass

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges],
                "k_max": self.k_max, "samples": self.samples}


def _pairs(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(1, n + 1), 2))


def k4_free(n: int, edges) -> bool:
    es = set(edges)
    return not any(
        all(p in es for p in itertools.combinations(quad, 2))
        for quad in itertools.combinations(range(1, n + 1), 4))


def _rng(workload: str, seed: int, *stream) -> random.Random:
    return random.Random(":".join(map(str, (workload, seed) + stream)))


def _stratified(workload: str, seed: int, n: int, quotas, classify,
                k_max: int | None = None) -> list[Query]:
    """Fill quotas keyed (m, k4_free, answer) by rejection sampling from
    G(n, m), one random stream per m; None in a key matches any value.
    classify(graph) gives the expected answer, and runs only on graphs an
    open quota could take."""
    pairs = _pairs(n)
    out: list[Query] = []
    for m in sorted({key[0] for key in quotas}):
        want = {key[1:]: q for key, q in quotas.items() if key[0] == m}
        rng = _rng(workload, seed, m)
        seen = set()
        while any(want.values()):
            if len(seen) == MAX_DRAWS:
                raise RuntimeError(f"{workload}: strata at m={m} not filled "
                                   f"after {MAX_DRAWS} graphs")
            edges = tuple(sorted(rng.sample(pairs, m)))
            if edges in seen:
                continue
            seen.add(edges)
            flag = k4_free(n, edges)
            open_keys = [k for k, q in want.items() if q and k[0] in (flag, None)]
            if not open_keys:
                continue
            answer = classify(graph_from_edge_list(n, edges))
            key = next((k for k in open_keys if k[1] in (answer, None)), None)
            if key is None:
                continue
            want[key] -= 1
            label = f"m={m} {'K4-free' if flag else 'K4'}"
            if key[1] is not None:
                label += f" {answer}"
            out.append(Query(n, edges, flag, label, answer, k_max))
    return out


def _verdict(g) -> str:
    return REPRESENTABLE if oracle.is_representable(g) else NON_REPRESENTABLE


def decide_queries(seed: int) -> list[Query]:
    quotas = {(m, f, v): q for m, f, v, q, _ in DECIDE_STRATA}
    samples = {(m, f, v): k for m, f, v, _, k in DECIDE_STRATA}
    return [dataclasses.replace(q, samples=samples[len(q.edges), q.k4_free, q.expected])
            for q in _stratified("decide", seed, DECIDE_N, quotas, _verdict)]


def count_queries(seed: int) -> list[Query]:
    quotas = {(m, f, None): q for m, f, q in COUNT_STRATA}
    return _stratified("count", seed, COUNT_N, quotas,
                       oracle.count_semi_transitive_orders)


def _word_edges(letters) -> tuple[tuple[int, int], ...]:
    edges = []
    for x, y in itertools.combinations(sorted(set(letters)), 2):
        r = [a for a in letters if a in (x, y)]
        if all(a != b for a, b in zip(r, r[1:])):
            edges.append((x, y))
    return tuple(edges)


def words_queries(seed: int) -> list[Query]:
    rng = _rng("words", seed, "positive")
    positives: list[Query] = []
    seen = set()
    complete = math.comb(WORDS_N, 2)
    while len(positives) < WORDS_POSITIVE:
        letters = list(range(1, WORDS_N + 1)) * 2
        rng.shuffle(letters)
        edges = _word_edges(letters)
        if len(edges) == complete or edges in seen:
            continue
        seen.add(edges)
        positives.append(Query(
            WORDS_N, edges, k4_free(WORDS_N, edges),
            f"2-uniform word graph k_max={WORDS_POSITIVE_K_MAX}", 2,
            WORDS_POSITIVE_K_MAX))
    wheels: list[Query] = []
    rng = _rng("words", seed, "wheel")
    seen = set()
    while len(wheels) < WORDS_WHEELS:
        perm = [0] + rng.sample(range(1, 7), 6)
        edges = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in FIVE_WHEEL))
        if edges in seen:
            continue
        seen.add(edges)
        if _verdict(graph_from_edge_list(6, edges)) != NON_REPRESENTABLE:
            raise RuntimeError("a relabelled five-wheel is not refuted")
        wheels.append(Query(6, edges, k4_free(6, edges), "relabelled W5",
                            NON_REPRESENTABLE, WORDS_REFUTE_K_MAX))
    quotas = {(m, None, NON_REPRESENTABLE): q for m, q in WORDS_REFUTE_STRATA}
    refutations = wheels + _stratified("words", seed, WORDS_N, quotas, _verdict,
                                       WORDS_REFUTE_K_MAX)
    # no k-uniform word exists for any k
    return positives + [dataclasses.replace(q, expected=None) for q in refutations]


def generate(workload: str, seed: int) -> list[Query]:
    if workload == "paper":
        return []
    return {"decide": decide_queries, "count": count_queries,
            "words": words_queries}[workload](seed)
