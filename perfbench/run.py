"""wordrep benchmark: one workload, one seed, one run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decide --seed 0 --seconds 14 --trace 0

The inputs are drawn from the seed and carry expected answers computed by an
independent route (oracle.py).  A fresh worker process imports wordrep from
./src and makes a fixed number of passes over the inputs, as many as fill
--seconds at the seed commit; every answer of every pass is then re-checked
here, outside the timed region.  While the untraced passes run, speed.py
probes the machine's speed, and each query's time is scaled to the
reference speed and taken as the median over its samples.  Set-up time is
measured in separate fresh processes.  With --trace 1 each untraced pass is followed by a traced one and
the per-layer metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
# set-up probes before input generation, before the timed passes and after them
SETUP_PROBES = (4, 4, 4)
RUN_LIMIT_S = 160  # whole run, so the benchmark stays within its 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metrics and their units; counts repeat exactly for one seed
PER_LAYER = {
    "cli.import_s": "s",
    "graphs.enumerate_s": "s",
    "graphs.classes": "count",
    "graphs.us_per_class": "us",
    "graphs.orbit_images": "count",
    "graphs.self_s": "s",
    "census.self_s": "s",
    "decision.decide_s": "s",
    "decision.calls": "count",
    "decision.verify_certificate_s": "s",
    "decision.self_s": "s",
    "verify.checks_s": "s",
    "verify.self_s": "s",
    "orientations.search_s": "s",
    "orientations.nodes": "count",
    "orientations.us_per_node": "us",
    "orientations.nodes_k4free": "count",
    "orientations.nodes_with_k4": "count",
    "orientations.propagations": "count",
    "orientations.leaf_checks": "count",
    "orientations.leaf_conflicts": "count",
    "orientations.leaf_yield": "ratio",
    "orientations.self_s": "s",
    "wordsearch.find_s": "s",
    "wordsearch.refute_s": "s",
    "wordsearch.nodes_find": "count",
    "wordsearch.nodes_refute": "count",
    "wordsearch.us_per_node": "us",
    "wordsearch.self_s": "s",
    "words.represents_s": "s",
    "words.self_s": "s",
    "trace.overhead_share": "ratio",
}
DETERMINISTIC = {name for name, unit in PER_LAYER.items() if unit == "count"} | {
    "orientations.leaf_yield"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def parse_args(argv):
    import inputs

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# processes

def _worker(*args: str, stdin: str | None = None,
            timeout: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        done = subprocess.run(cmd, input=stdin, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} timed out after {timeout:.0f} s") from exc
    if done.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {done.returncode}:\n{done.stderr}")
    return done


def setup_probes(workload: str, count: int) -> list[dict]:
    """Fresh processes, each timed from just before its spawn until wordrep
    is imported and its first-use tables are built."""
    return [json.loads(_worker("probe", workload, repr(time.time()), timeout=60).stdout)
            for _ in range(count)]


# ---------------------------------------------------------------------------
# answer checks (outside the timed region)

def paper_rows():
    import inputs

    return [[n, a, b, math.log2(b) / math.comb(n, 2), nonrep]
            for n, a, b, nonrep in zip(itertools.count(2), inputs.PAPER_A,
                                       inputs.PAPER_B, inputs.PAPER_NONREP)]


def answer_ok(workload: str, i: int, query, answer) -> bool:
    """Does one encoded answer pass its independent re-check?"""
    import inputs
    import oracle
    from wordrep import graph_from_edge_list

    if isinstance(answer, dict):  # the query raised
        return False
    if workload == "paper":
        if i == 1:
            return bool(answer) and all(passed is True for _, passed in answer)
        want = paper_rows()
        return len(answer) == len(want) and all(
            got[:3] == exp[:3] and got[4] == exp[4]
            and isinstance(got[3], float) and abs(got[3] - exp[3]) <= 1e-12
            for got, exp in zip(answer, want))
    g = graph_from_edge_list(query.n, query.edges)
    if workload == "decide":
        verdict, arcs = answer
        if verdict != query.expected:
            return False
        if verdict == inputs.NON_REPRESENTABLE:
            return arcs is None
        return arcs is not None and oracle.witness_ok(g, arcs)
    if workload == "count":
        return type(answer) is int and answer == query.expected
    if workload == "words":
        letters, k_tried = answer
        if query.expected is None:
            return letters is None and k_tried == query.k_max
        return (letters is not None and k_tried == query.expected
                and oracle.word_ok(g, letters, query.expected))
    raise ValueError(workload)


def check_passes(workload: str, queries, passes) -> tuple[int, int]:
    """(attempted, failed) over every answer of every pass."""
    verdicts: dict[tuple[int, str], bool] = {}
    attempted = failed = 0
    for p in passes:
        for i, answer in enumerate(p["answers"]):
            if p["times"][i] is None:  # not run in this pass
                continue
            key = (i, json.dumps(answer))
            if key not in verdicts:
                query = queries[i] if queries else None
                verdicts[key] = answer_ok(workload, i, query, answer)
            attempted += 1
            failed += not verdicts[key]
    return attempted, failed


# ---------------------------------------------------------------------------
# metrics

def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def query_times(passes) -> list[float]:
    """Each query's least disturbed time over the passes that ran it, in
    seconds.  A query does the same work every time; the shared machine can
    only add time to it."""
    return [min(t for t in ts if t is not None) for ts in zip(*(p["times"] for p in passes))]


def scaled_query_times(passes) -> list[float]:
    """Each query's median time over the passes that ran it, in seconds at
    the reference speed of the machine (see speed.py)."""
    samples = defaultdict(list)
    for p in passes:
        for i, (t, scale) in enumerate(zip(p["times"], p["scales"])):
            if t is not None:
                samples[i].append(t * scale)
    return [statistics.median(samples[i]) for i in range(len(samples))]


def end_to_end(probes, result) -> tuple[dict, list[float]]:
    untraced = [p for p in result["passes"] if not p["traced"]]
    latency_ms = [1e3 * t for t in scaled_query_times(untraced)]
    values = {
        "setup_s": min(pr["ready_s"] for pr in probes),
        "wall_s": sum(latency_ms) / 1e3,
        "latency_ms_p50": statistics.median(latency_ms),
        "latency_ms_p90": p90(latency_ms),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return values, latency_ms


def per_layer(probes, result) -> tuple[dict, list[str]]:
    layers = result["layers"]
    passes = result["passes"]
    values = {}
    for name in layers[0]:
        series = [lp[name] for lp in layers]
        values[name] = series[0] if name in DETERMINISTIC else statistics.median(series)
    unsteady = [name for name in DETERMINISTIC
                if len({lp[name] for lp in layers}) > 1]
    # full passes only, so both sides take their least times over as many samples
    untraced = sum(query_times([p for p in passes if p["full"] and not p["traced"]]))
    traced = sum(query_times([p for p in passes if p["traced"]]))
    values["cli.import_s"] = min(pr["import_s"] for pr in probes)
    values["trace.overhead_share"] = traced / untraced - 1
    return values, sorted(unsteady)


# ---------------------------------------------------------------------------
# report

def manifest(workload: str, seed: int, queries) -> dict:
    return {"workload": workload, "seed": seed, "queries": [
        {"i": i, "n": q.n, "m": len(q.edges), "k4_free": q.k4_free,
         "stratum": q.stratum, "expected": q.expected, "k_max": q.k_max,
         "samples": q.samples, "edges": [list(e) for e in q.edges]}
        for i, q in enumerate(queries)]}


def mix_lines(queries) -> list[str]:
    groups: dict[tuple, list] = defaultdict(list)
    for q in queries:
        groups[(q.n, len(q.edges), q.k4_free, q.k_max, q.samples, q.stratum)].append(
            q.expected)
    lines = [f"  {'queries':>7}  {'n':>2}  {'m':>2}  {'K4-free':<7}  {'k_max':>5}  "
             f"{'timed/pass':>10}  expected"]
    for (n, m, k4f, k_max, samples, _), expected in sorted(
            groups.items(), key=lambda kv: (kv[0][1], kv[0][2], str(kv[0][5]))):
        if len(set(map(str, expected))) == 1:
            shown = str(expected[0])
        else:
            shown = f"{min(expected)}..{max(expected)} (sum {sum(expected)})"
        if k_max is not None and expected[0] is not None:
            shown = f"k={shown}"
        lines.append(f"  {len(expected):>7}  {n:>2}  {m:>2}  {str(k4f):<7}  "
                     f"{'-' if k_max is None else k_max:>5}  {samples:>10}  {shown}")
    return lines


def _terminate(signum, frame):
    # an exception, so that subprocess.run kills and reaps the worker
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wordrep", "__init__.py")):
        print("perfbench: run from the root of a wordrep checkout "
              "(no src/wordrep here)", file=sys.stderr)
        return 2
    sys.path.insert(1, os.path.join(root, "src"))
    args = parse_args(argv)
    started = time.perf_counter()
    try:
        return _run(args, started)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


def _run(args, started: float) -> int:
    import inputs

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    # set-up is sampled at three moments spread over the run, the first before
    # the run has done any work of its own: the machine has slow phases of
    # many seconds, and a probe can only be slowed, so the least is taken
    probes = setup_probes(args.workload, SETUP_PROBES[0])
    started_inputs = time.perf_counter()
    queries = inputs.generate(args.workload, args.seed)
    manifest_path = os.path.join(OUT_DIR, f"manifest-{tag}.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest(args.workload, args.seed, queries), fh, indent=1)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if queries:
        print(f"inputs: {len(queries)} queries, generated in "
              f"{time.perf_counter() - started_inputs:.2f} s; manifest {manifest_path}")
        print("\n".join(mix_lines(queries)))
    else:
        print("inputs: fixed, 2 queries: entropy_table(7, long_ok=True) and "
              "run_all_checks(); the seed is not used")

    job = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
           "queries": [q.to_json() for q in queries],
           "trace_path": os.path.join(OUT_DIR, f"trace-{tag}.jsonl") if args.trace else None}
    probes += setup_probes(args.workload, SETUP_PROBES[1])
    timeout = max(10.0, RUN_LIMIT_S - (time.perf_counter() - started))
    started_worker = time.perf_counter()
    result = json.loads(_worker("run", stdin=json.dumps(job), timeout=timeout).stdout)
    worker_s = time.perf_counter() - started_worker
    probes += setup_probes(args.workload, SETUP_PROBES[2])
    attempted, failed = check_passes(args.workload, queries, result["passes"])

    e2e, latency_ms = end_to_end(probes, result)
    beyond = sum(1 for x in latency_ms if x > e2e["latency_ms_p90"])
    untraced_passes = [p for p in result["passes"] if not p["traced"]]
    kinds = [(p["traced"], p["full"]) for p in result["passes"]]
    print(f"passes: {kinds.count((False, True))} untraced"
          + (f", {kinds.count((True, True))} traced" if args.trace else "")
          + (f", {kinds.count((False, False))} short ones of queries timed more than once"
             if (False, False) in kinds else "")
          + f" in {worker_s:.1f} s; latency over {len(latency_ms)} queries, "
          f"{beyond} beyond p90")
    print(f"answers: {attempted} checked, {failed} failed "
          f"(failed_share {failed / attempted:g})")
    for name, unit in END_TO_END.items():
        print(f"  {name:<16} {e2e[name]:.6g} {unit}")
    least_ms = [1e3 * t for t in query_times(untraced_passes)]
    scale = statistics.median(s for p in untraced_passes for s in p["scales"] if s)
    print(f"unscaled, least times: wall_s {sum(least_ms) / 1e3:.6g} s, "
          f"p50 {statistics.median(least_ms):.6g} ms, p90 {p90(least_ms):.6g} ms; "
          f"median speed scale {scale:.4g}")
    if args.trace:
        values, unsteady = per_layer(probes, result)
        print(f"trace: spans in {job['trace_path']}")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<32} {values[name]:.6g} {unit}")
        if unsteady:
            print(f"trace: counters differ between passes: {', '.join(unsteady)}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
