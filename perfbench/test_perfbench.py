"""Tests of the benchmark itself.  From the root of a checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import math
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
from wordrep import graph_from_edge_list  # noqa: E402
from wordrep.orientations import count_semi_transitive_naive  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _cli(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


# ---------------------------------------------------------------------------
# inputs and the independent route

def test_inputs_repeat_for_one_seed():
    assert inputs.generate("words", 5) == inputs.generate("words", 5)
    assert inputs.generate("words", 5) != inputs.generate("words", 6)


def test_order_route_matches_plain_enumeration():
    rng = random.Random(0)
    for n in range(2, 7):
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        for m in range(0, min(len(pairs), 10) + 1, 2):
            g = graph_from_edge_list(n, rng.sample(pairs, m))
            count = count_semi_transitive_naive(g)
            assert oracle.count_semi_transitive_orders(g) == count
            assert oracle.is_representable(g) == (count > 0)


def test_words_p90_has_ten_queries_beyond_it():
    qs = _generated("words", 0)
    below = math.floor(0.9 * (len(qs) - 1))   # p90 lies between this index and the next
    assert len(qs) - 1 - below >= 10
    # the 7-vertex refutations are the slowest queries, by a factor of about 8,
    # so p90 falls among them when they fill every index from `below` on
    slow = [q for q in qs if q.n == inputs.WORDS_N and q.expected is None]
    assert len(slow) >= len(qs) - below


def test_pass_count_depends_on_seconds_only():
    for workload, pass_s in worker.PASS_S.items():
        assert worker.pass_count(workload, 12) == round(12 / pass_s) >= 4
        assert worker.pass_count(workload, 0.1) == 1


def test_decide_times_only_cheap_strata_more_than_once():
    qs = _generated("decide", 0)
    heavy = [q for q in qs if not q.k4_free and q.expected == inputs.NON_REPRESENTABLE]
    assert heavy and all(q.samples == 1 for q in heavy)
    assert all(q.samples == inputs.LIGHT for q in qs if q not in heavy)
    assert all(q.samples == 1 for q in _generated("words", 0))


def test_short_passes_run_only_queries_timed_more_than_once():
    qs = [q for q in _generated("decide", 0) if len(q.edges) <= 12][:2]
    qs[1] = dataclasses.replace(qs[1], samples=1)
    job = {"workload": "decide", "seconds": 0.1, "trace": 0, "trace_path": None,
           "queries": [q.to_json() for q in qs]}
    passes = worker.run(job)["passes"]
    assert [p["full"] for p in passes] == [True] + [False] * (qs[0].samples - 1)
    for p in passes:
        ran = [t is not None for t in p["times"]]
        assert ran == [True, p["full"]]
        assert [s is not None for s in p["scales"]] == ran
        assert [a is not None for a in p["answers"]] == ran
    assert run.check_passes("decide", qs, passes) == (qs[0].samples + 1, 0)


def test_scale_uses_the_probes_around_a_query():
    meter = speed.Speedometer()
    step = speed.PROBE_EVERY_S
    meter.at = [0.0, step, 2 * step, 3 * step, 10 * step]
    meter.took = [1.0, 2.0, 4.0, 8.0, 16.0]
    ref = speed.REFERENCE_PROBE_S
    # from one probe interval before the start to one after the end
    assert meter.scale(2 * step, 2 * step) == ref / 4.0
    assert meter.scale(1.5 * step, 1.6 * step) == ref / 3.0
    # no probe in the window: the nearest one after it
    assert meter.scale(6 * step, 7 * step) == ref / 16.0
    assert meter.scale(20 * step, 21 * step) == ref / 16.0


def test_scaled_time_is_the_median_over_the_passes_that_ran_a_query():
    passes = [{"times": [1.0, 2.0], "scales": [0.5, 1.0]},
              {"times": [3.0, None], "scales": [0.5, None]},
              {"times": [5.0, None], "scales": [1.0, None]}]
    assert run.scaled_query_times(passes) == [1.5, 2.0]


def test_five_wheel_is_refuted():
    w5 = graph_from_edge_list(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
                              + [(v, 6) for v in range(1, 6)])
    assert not oracle.is_representable(w5)


# ---------------------------------------------------------------------------
# the answer check rejects planted wrong answers

@functools.lru_cache(maxsize=None)
def _generated(workload: str, seed: int) -> tuple:
    return tuple(inputs.generate(workload, seed))


def _first(workload: str, expected) -> inputs.Query:
    return next(q for q in _generated(workload, 0) if q.expected == expected)


def test_check_rejects_flipped_verdict():
    from wordrep import decide

    for verdict in (inputs.REPRESENTABLE, inputs.NON_REPRESENTABLE):
        q = _first("decide", verdict)
        answer = worker._encode("decide", decide(graph_from_edge_list(q.n, q.edges)))
        assert run.answer_ok("decide", 0, q, answer)
        flipped = inputs.NON_REPRESENTABLE if verdict == inputs.REPRESENTABLE \
            else inputs.REPRESENTABLE
        assert not run.answer_ok("decide", 0, q, [flipped, answer[1]])
    q = _first("decide", inputs.REPRESENTABLE)
    arcs = worker._encode("decide", decide(graph_from_edge_list(q.n, q.edges)))[1]
    assert not run.answer_ok("decide", 0, q, [inputs.REPRESENTABLE, arcs[1:]])
    assert not run.answer_ok("decide", 0, q, [inputs.REPRESENTABLE, None])


def test_check_rejects_off_by_one_count():
    q = _generated("count", 0)[0]
    assert run.answer_ok("count", 0, q, q.expected)
    assert not run.answer_ok("count", 0, q, q.expected + 1)
    assert not run.answer_ok("count", 0, q, q.expected - 1)


def test_check_rejects_wrong_words():
    from wordrep import find_word

    q = _first("words", 2)
    r = find_word(graph_from_edge_list(q.n, q.edges), k_max=q.k_max)
    letters = list(r.word.letters)
    assert run.answer_ok("words", 0, q, [letters, 2])
    assert not run.answer_ok("words", 0, q, [letters, 3])
    assert not run.answer_ok("words", 0, q, [None, 3])
    assert not run.answer_ok("words", 0, q, [letters[:-1], 2])
    complete = list(range(1, q.n + 1)) * 2   # represents K7, not q's graph
    assert not run.answer_ok("words", 0, q, [complete, 2])
    refuted = _first("words", None)
    assert run.answer_ok("words", 0, refuted, [None, refuted.k_max])
    assert not run.answer_ok("words", 0, refuted, [letters, 2])


def test_check_rejects_wrong_paper_rows():
    rows = run.paper_rows()
    assert run.answer_ok("paper", 0, None, rows)
    bad = [row[:] for row in rows]
    bad[-1][2] += 1          # b_7 off by one
    assert not run.answer_ok("paper", 0, None, bad)
    assert not run.answer_ok("paper", 0, None, rows[:-1])
    assert not run.answer_ok("paper", 1, None, [["a-refutation", False]])
    assert not run.answer_ok("paper", 1, None, {"error": "ValueError: x"})


# ---------------------------------------------------------------------------
# layer counters repeat exactly

def _traced_counters(workload: str, queries, passes: int = 2) -> list[dict]:
    """Deterministic orientations.* and wordsearch.* counters of each of
    several traced passes by one tracer, as the worker makes them."""
    tracer = spans.Tracer()
    api = tracer.entry_points()
    jobs = [q.to_json() for q in queries]
    out = []
    for _ in range(passes):
        tracer.install()
        try:
            worker.one_pass(workload, jobs, api, list(range(len(jobs))), tracer)
        finally:
            tracer.uninstall()
        layers = spans.pass_metrics(*tracer.take())
        out.append({k: v for k, v in layers.items()
                    if k.startswith(("orientations.", "wordsearch."))
                    and k in run.DETERMINISTIC})
    return out


def test_layer_counters_repeat_for_one_seed():
    decide_qs = [q for q in _generated("decide", 0) if len(q.edges) <= 16][:40]
    words_qs = [q for q in _generated("words", 0) if q.expected == 2]
    words_qs.append(_first("words", None))
    count_qs = list(_generated("count", 0)[:20])
    for workload, qs in (("decide", decide_qs), ("count", count_qs), ("words", words_qs)):
        first = _traced_counters(workload, qs)
        assert first[0] == first[1]
        assert _traced_counters(workload, qs, passes=1) == first[:1]
    assert first[0]["wordsearch.nodes_find"] > 0 and first[0]["wordsearch.nodes_refute"] > 0


def test_tracer_restores_the_package():
    census_mod = importlib.import_module("wordrep.census")
    original = census_mod.decide
    tracer = spans.Tracer()
    tracer.install()
    assert census_mod.decide is not original
    tracer.uninstall()
    assert census_mod.decide is original


def test_self_time_subtracts_children():
    recorded = [["census.census", 0.0, 10.0, None, 0],
                ["graphs.enumerate_graphs", 1.0, 4.0, 0, 0],
                ["decision.decide", 5.0, 9.0, 0, 0],
                ["orientations.find_semi_transitive", 5.5, 8.5, 2, 0]]
    by_name, self_by_layer = spans.layer_times(recorded)
    assert by_name["decision.decide"] == 4.0
    assert self_by_layer == {"census": 3.0, "graphs": 3.0, "decision": 1.0,
                             "orientations": 3.0}


# ---------------------------------------------------------------------------
# the command line

def test_every_metric_printed_with_its_unit():
    spec = _benchmark_json()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = _cli("--workload", "paper", "--seed", "0", "--seconds", "0.1",
                    "--trace", str(trace))
        assert done.returncode == 0, done.stderr
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        printed = {line.split()[0]: line.split()[-1]
                   for line in lines[:-1] if line.startswith("  ")}
        for name, unit in want.items():
            assert printed.get(name) == unit, name


def test_fails_without_a_checkout(tmp_path):
    done = _cli("--workload", "count", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert "correct" not in done.stdout


@pytest.mark.parametrize("table", [run.END_TO_END, run.PER_LAYER])
def test_units_match_benchmark_json(table):
    spec = _benchmark_json()
    key = "end_to_end" if table is run.END_TO_END else "per_layer"
    assert {m["name"]: m["unit"] for m in spec[key]} == table
