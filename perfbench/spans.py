"""Spans and counters recorded by wrappers around wordrep's public functions.

The wrappers sit at the module boundaries census -> graphs/decision,
decision -> orientations, verify -> decision/orientations/words, and inside
wordsearch (find_word -> find_k_uniform_word).  Each is installed by
rebinding the name the calling module looked up when it was imported, so no
file of the package changes.  The counters are the ones the program already
returns: SearchStats from the orientation search and the node counter of the
word search.

A span is (name, start, end, parent, query): `parent` indexes the span that
was open when it started, and `query` numbers the benchmark query it served.
A span's layer is its name up to the first dot.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter

from wordrep import SearchStats, is_k4_free

# (module, name looked up in it, span name, kind of wrapper)
BOUNDARIES = (
    ("wordrep.census", "census", "census.census", "plain"),
    ("wordrep.census", "enumerate_graphs", "graphs.enumerate_graphs", "enumerate"),
    ("wordrep.census", "decide", "decision.decide", "decide"),
    ("wordrep.decision", "find_semi_transitive", "orientations.find_semi_transitive", "search"),
    ("wordrep.verify", "decide", "decision.decide", "decide"),
    ("wordrep.verify", "verify_certificate", "decision.verify_certificate", "plain"),
    ("wordrep.verify", "count_semi_transitive", "orientations.count_semi_transitive", "search"),
    ("wordrep.verify", "count_semi_transitive_naive", "orientations.count_semi_transitive_naive", "plain"),
    ("wordrep.verify", "lemma1_propagate", "orientations.lemma1_propagate", "plain"),
    ("wordrep.verify", "are_isomorphic", "graphs.are_isomorphic", "plain"),
    ("wordrep.verify", "represents", "words.represents", "plain"),
    ("wordrep.verify", "graph_of_word", "words.graph_of_word", "plain"),
    ("wordrep.verify", "parse_word", "words.parse_word", "plain"),
    ("wordrep.verify", "uniformity", "words.uniformity", "plain"),
    ("wordrep.wordsearch", "find_k_uniform_word", "wordsearch.find_k_uniform_word", "word"),
)

# the benchmark's own calls into the package: (module, name, span name, kind)
ENTRY_POINTS = {
    "entropy_table": ("wordrep.census", "entropy_table", "census.entropy_table", "plain"),
    "run_all_checks": ("wordrep.verify", "run_all_checks", "verify.run_all_checks", "plain"),
    "decide": ("wordrep.decision", "decide", "decision.decide", "decide"),
    "count_semi_transitive": ("wordrep.orientations", "count_semi_transitive",
                              "orientations.count_semi_transitive", "search"),
    "find_word": ("wordrep.wordsearch", "find_word", "wordsearch.find_word", "plain"),
}

LAYERS = ("graphs", "census", "decision", "orientations", "verify", "wordsearch", "words")


def plain_entry_points() -> dict:
    return {key: getattr(importlib.import_module(mod), name)
            for key, (mod, name, _, _) in ENTRY_POINTS.items()}


class Tracer:
    """Collects spans and counters in memory while installed."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, query]
        self.counts: Counter = Counter()
        self.query: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, self.query])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _call(self, name, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    # -- wrappers, one per kind ---------------------------------------------

    def _wrap(self, name: str, kind: str, fn):
        counts = self.counts
        if kind == "plain":
            def traced(*args, **kwargs):
                return self._call(name, fn, *args, **kwargs)
        elif kind == "decide":
            def traced(g):
                counts["decision.calls"] += 1
                return self._call(name, fn, g)
        elif kind == "enumerate":
            def traced(n):
                classes = self._call(name, lambda: list(fn(n)))
                counts["graphs.classes"] += len(classes)
                counts["graphs.orbit_images"] += len(classes) * math.factorial(n)
                return iter(classes)
        elif kind == "search":
            def traced(g, stats=None):
                stats = stats if stats is not None else SearchStats()
                before = (stats.nodes, stats.propagations,
                          stats.shortcut_checks, stats.shortcut_conflicts)
                k4_free = is_k4_free(g)
                out = self._call(name, fn, g, stats)
                nodes = stats.nodes - before[0]
                counts["orientations.nodes"] += nodes
                counts["orientations.nodes_k4free" if k4_free
                       else "orientations.nodes_with_k4"] += nodes
                counts["orientations.propagations"] += stats.propagations - before[1]
                counts["orientations.leaf_checks"] += stats.shortcut_checks - before[2]
                counts["orientations.leaf_conflicts"] += stats.shortcut_conflicts - before[3]
                return out
        elif kind == "word":
            def traced(g, k, _node_counter=None):
                counter = _node_counter if _node_counter is not None else [0]
                before = counter[0]
                idx = self._open(name)
                try:
                    word = fn(g, k, counter)
                finally:
                    self._close(idx)
                # a None result refutes k; the span is named by its outcome
                outcome = "find" if word is not None else "refute"
                self.spans[idx][0] = f"wordsearch.{outcome}"
                counts[f"wordsearch.nodes_{outcome}"] += counter[0] - before
                return word
        else:
            raise ValueError(f"unknown wrapper kind {kind!r}")
        return traced

    def entry_points(self) -> dict:
        return {key: self._wrap(span, kind, getattr(importlib.import_module(mod), name))
                for key, (mod, name, span, kind) in ENTRY_POINTS.items()}

    def install(self) -> None:
        for mod_name, attr, span, kind in BOUNDARIES:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(span, kind, original))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def take(self) -> tuple[list[list], Counter]:
        """Spans and counters since the last take, and a fresh start.  The
        wrappers hold the counter itself, so it is emptied in place."""
        spans, counts = self.spans, self.counts.copy()
        self.spans = []
        self.counts.clear()
        return spans, counts


def layer_times(spans: list[list]) -> tuple[Counter, Counter]:
    """(total time per span name, self time per layer).  Self time is a
    span's duration minus that of its direct children; calls run one at a
    time, so children never overlap."""
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent] += end - start
    by_name: Counter = Counter()
    self_by_layer: Counter = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        by_name[name] += end - start
        self_by_layer[name.split(".", 1)[0]] += end - start - children[i]
    return by_name, self_by_layer


def pass_metrics(spans: list[list], counts: Counter) -> dict:
    """Per-layer metrics of one traced pass over the workload's inputs."""
    by_name, self_by_layer = layer_times(spans)
    c = counts
    search_s = (by_name["orientations.find_semi_transitive"]
                + by_name["orientations.count_semi_transitive"])
    word_s = by_name["wordsearch.find"] + by_name["wordsearch.refute"]
    word_nodes = c["wordsearch.nodes_find"] + c["wordsearch.nodes_refute"]
    out = {
        "graphs.enumerate_s": by_name["graphs.enumerate_graphs"],
        "graphs.classes": c["graphs.classes"],
        "graphs.us_per_class": _ratio(1e6 * by_name["graphs.enumerate_graphs"],
                                      c["graphs.classes"]),
        "graphs.orbit_images": c["graphs.orbit_images"],
        "decision.decide_s": by_name["decision.decide"],
        "decision.calls": c["decision.calls"],
        "decision.verify_certificate_s": by_name["decision.verify_certificate"],
        "verify.checks_s": by_name["verify.run_all_checks"],
        "orientations.search_s": search_s,
        "orientations.nodes": c["orientations.nodes"],
        "orientations.us_per_node": _ratio(1e6 * search_s, c["orientations.nodes"]),
        "orientations.nodes_k4free": c["orientations.nodes_k4free"],
        "orientations.nodes_with_k4": c["orientations.nodes_with_k4"],
        "orientations.propagations": c["orientations.propagations"],
        "orientations.leaf_checks": c["orientations.leaf_checks"],
        "orientations.leaf_conflicts": c["orientations.leaf_conflicts"],
        "orientations.leaf_yield": _ratio(
            c["orientations.leaf_checks"] - c["orientations.leaf_conflicts"],
            c["orientations.leaf_checks"]),
        "wordsearch.find_s": by_name["wordsearch.find"],
        "wordsearch.refute_s": by_name["wordsearch.refute"],
        "wordsearch.nodes_find": c["wordsearch.nodes_find"],
        "wordsearch.nodes_refute": c["wordsearch.nodes_refute"],
        "wordsearch.us_per_node": _ratio(1e6 * word_s, word_nodes),
        "words.represents_s": by_name["words.represents"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_by_layer[layer]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
