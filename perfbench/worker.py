"""One benchmark process: imports wordrep from ./src and either reports how
long that took (`probe`) or makes a set number of passes over a workload's
queries (`run`, job as JSON on stdin, result as JSON on stdout).

Run from the root of a checkout:

    python3 perfbench/worker.py probe WORKLOAD SPAWN_TIME
    python3 perfbench/worker.py run < job.json
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time

PAPER_N_MAX = 7

# Seconds one untraced pass takes at the seed commit (a 2-core x86-64 VM,
# Python 3.11), the short passes of queries timed more than once included.
# A run makes round(seconds / PASS_S) passes, so the number of samples
# behind a query's time depends on --seconds alone and not on the speed of
# the code under test.
PASS_S = {"paper": 1.7, "decide": 1.7, "count": 1.2, "words": 3.3}


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_S[workload]))


def import_wordrep() -> float:
    """Import the checkout's wordrep; returns the seconds it took."""
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    start = time.perf_counter()
    import wordrep  # noqa: F401
    return time.perf_counter() - start


def warm(workload: str) -> None:
    """First-use tables: canonical forms at n <= 7 build their permutation
    tables on first call, and the census needs every one of them."""
    if workload == "paper":
        from wordrep import canonical_form, graph_from_edge_list
        for n in range(2, PAPER_N_MAX + 1):
            canonical_form(graph_from_edge_list(n, []))


def probe(workload: str, spawn_time: float) -> dict:
    import_s = import_wordrep()
    warm(workload)
    return {"import_s": import_s, "ready_s": time.time() - spawn_time}


# ---------------------------------------------------------------------------
# queries: each workload turns one input into a call and encodes its answer

def _encode(workload: str, out):
    if workload == "decide":
        arcs = None if out.witness is None else [
            list(out.witness.arc(i)) for i in range(len(out.witness.dirs))]
        return [out.verdict, arcs]
    if workload == "count":
        return out
    if workload == "words":
        return [None if out.word is None else list(out.word.letters), out.k_tried]
    raise ValueError(workload)


def _encode_paper(i: int, out):
    if i == 0:
        return [[r.n, r.a_n, r.b_n, r.entropy, len(r.nonrep_classes)] for r in out]
    return [[c.name, c.passed] for c in out]


def one_pass(workload: str, queries: list[dict], api: dict, order: list[int],
             tracer=None, meter=None):
    """Runs the queries named in `order` once each, in that order; returns
    the seconds, the answer and the speed scale of each query by query
    index, None for the queries not run.  The scales come from `meter`, a
    speed.Speedometer, whose probes are taken out of the seconds; without
    one they are None."""
    from wordrep import graph_from_edge_list

    if workload == "paper":
        calls = {0: lambda: api["entropy_table"](PAPER_N_MAX, long_ok=True),
                 1: api["run_all_checks"]}
    else:
        fn = {"decide": lambda g, q: api["decide"](g),
              "count": lambda g, q: api["count_semi_transitive"](g),
              "words": lambda g, q: api["find_word"](g, k_max=q["k_max"])}[workload]
        # fresh graphs each pass, so no pass reuses another's cached adjacency
        graphs = {i: graph_from_edge_list(queries[i]["n"], queries[i]["edges"])
                  for i in order}
        calls = {i: lambda g=g, q=queries[i]: fn(g, q) for i, g in graphs.items()}
    n_calls = 2 if workload == "paper" else len(queries)
    times: list[float | None] = [None] * n_calls
    answers: list = [None] * n_calls
    windows: dict[int, tuple[float, float]] = {}
    if meter is not None:
        meter.start()
    try:
        for i in order:
            if tracer is not None:
                tracer.query = i
            probed = meter.spent if meter is not None else 0.0
            start = time.perf_counter()
            try:
                out, error = calls[i](), None
            except Exception as exc:  # a failed query is counted, not fatal
                out, error = None, {"error": f"{type(exc).__name__}: {exc}"}
            end = time.perf_counter()
            windows[i] = start, end
            times[i] = end - start - (meter.spent - probed if meter is not None else 0.0)
            if error is not None:
                answers[i] = error
            else:
                answers[i] = (_encode_paper(i, out) if workload == "paper"
                              else _encode(workload, out))
    finally:
        if meter is not None:
            meter.stop()
    scales: list[float | None] = [None] * n_calls
    if meter is not None:
        for i, (start, end) in windows.items():
            scales[i] = meter.scale(start, end)
    return times, answers, scales


def run(job: dict) -> dict:
    workload, queries = job["workload"], job["queries"]
    import_s = import_wordrep()
    warm(workload)
    import spans
    import speed

    plain = spans.plain_entry_points()
    tracer = spans.Tracer() if job["trace"] else None
    traced_api = tracer.entry_points() if tracer else None
    passes, layers, trace_spans = [], [], []
    meter = speed.Speedometer()
    samples = [1, 1] if workload == "paper" else [q["samples"] for q in queries]
    for p in range(pass_count(workload, job["seconds"])):
        # a new order each pass, so a slow spell of the machine that recurs
        # with the pass length does not hit the same queries every time
        order = list(range(len(samples)))
        random.Random(p).shuffle(order)
        times, answers, scales = one_pass(workload, queries, plain, order, meter=meter)
        passes.append({"traced": False, "full": True, "times": times, "answers": answers,
                       "scales": scales})
        if tracer is not None:
            tracer.install()
            try:
                times, answers, _ = one_pass(workload, queries, traced_api, order, tracer)
            finally:
                tracer.uninstall()
            passes.append({"traced": True, "full": True, "times": times,
                           "answers": answers})
            pass_spans, counts = tracer.take()
            layers.append(spans.pass_metrics(pass_spans, counts))
            trace_spans.append(pass_spans)
        # queries timed more than once per pass get short passes of their own
        for extra in range(1, max(samples)):
            order = [i for i in order if samples[i] > extra]
            random.Random(f"{p}:{extra}").shuffle(order)
            times, answers, scales = one_pass(workload, queries, plain, order, meter=meter)
            passes.append({"traced": False, "full": False, "times": times,
                           "answers": answers, "scales": scales})
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if job.get("trace_path"):
        with open(job["trace_path"], "w", encoding="utf-8") as fh:
            for p, pass_spans in enumerate(trace_spans):
                for name, start, end, parent, query in pass_spans:
                    fh.write(json.dumps({"pass": p, "name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "query": query}) + "\n")
    return {"import_s": import_s, "peak_rss_mb": rss_mb, "passes": passes,
            "layers": layers}


def main(argv: list[str]) -> int:
    if argv[:1] == ["probe"] and len(argv) == 3:
        print(json.dumps(probe(argv[1], float(argv[2]))))
        return 0
    if argv == ["run"]:
        print(json.dumps(run(json.load(sys.stdin))))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
