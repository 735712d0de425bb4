"""Acceptance gate: eleven end-to-end checks, one pass/fail line each.

Every test prints its own [PASS]/[FAIL] line on the real stdout (visible
under pytest -v) before asserting, so a red run still shows the full
scoreboard.  Each check pairs the fast implementation with an independent
slower route where one exists.
"""

import itertools
import json
import math
import random
import time

import pytest

from wordrep import (
    NON_REPRESENTABLE,
    REPRESENTABLE,
    are_isomorphic,
    canonical_form,
    census,
    count_semi_transitive,
    decide,
    delete_vertex,
    entropy_table,
    enumerate_graphs,
    find_proper_coloring,
    find_semi_transitive,
    find_word,
    format_orientation,
    format_word,
    graph_of_word,
    is_k4_free,
    is_semi_transitive,
    lemma1_propagate,
    orient_by_coloring,
    orientation_from_arcs,
    parse_word,
    represents,
    uniformity,
    verify_certificate,
)
from wordrep.bundled import bundled_graph, bundled_word
from wordrep.orientations import Orientation, count_semi_transitive_naive

from helpers import (
    all_graphs,
    enumerate_total_orientations,
    random_3partite,
    ref_alternates,
    run_cli,
)


def report(capsys, num, name, ok, detail=""):
    tail = f"  {detail}" if detail else ""
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:>2}: {name}{tail}")
    assert ok, f"criterion {num} ({name}) failed{tail}"


def test_criterion_01_a_refutation(capsys):
    start = time.perf_counter()
    a = bundled_graph("A")
    verdict = decide(a).verdict
    surviving = sum(1 for o in enumerate_total_orientations(a)
                    if is_semi_transitive(o))
    total = 2 ** len(a.edges)
    elapsed = time.perf_counter() - start
    # the paper's headline: 7 vertices, 12 edges and maximum degree 4
    shape = (a.n, len(a.edges), a.degree_sequence())
    ok = (verdict == NON_REPRESENTABLE and total == 4096 and surviving == 0
          and shape == (7, 12, (3, 3, 3, 4, 4, 3, 4)) and elapsed < 1.0)
    report(capsys, 1, "A-refutation", ok,
           f"max degree {a.max_degree()}, all {total} orientations fail, {elapsed:.3f}s")


def test_criterion_02_bundled_words(capsys):
    m = bundled_graph("M")
    w = parse_word("1213423")
    failures = []
    if not represents(w, m):
        failures.append("M word rejected")
    nonalt = {(x, y) for x, y in itertools.combinations(sorted(w.alphabet), 2)
              if not ref_alternates(w.letters, x, y)}
    if nonalt != {(1, 3), (1, 4)}:
        failures.append(f"non-alternating pairs {sorted(nonalt)}")
    k4 = bundled_graph("K4")
    for text in ("1234", "3142", "123412", "12341234", "432143214321"):
        if not represents(parse_word(text), k4):
            failures.append(f"K4 word {text} rejected")
    pet = parse_word("1387296(10)7493541283(10)7685(10)194562")
    if uniformity(pet) != 3:
        failures.append(f"petersen uniformity {uniformity(pet)}")
    # canonical forms stop at n = 8, so the 10-vertex comparison goes
    # through the explicit isomorphism search instead
    if not are_isomorphic(graph_of_word(pet), bundled_graph("petersen")):
        failures.append("petersen word graph not isomorphic")
    if pet != bundled_word("petersen"):
        failures.append("bundled petersen word differs")
    report(capsys, 2, "bundled-words", not failures, "; ".join(failures))


def test_criterion_03_orientation_counts(capsys):
    got = {}
    for name, want in (("K4", 24), ("C4", 6), ("A", 0)):
        g = bundled_graph(name)
        got[name] = (count_semi_transitive(g), count_semi_transitive_naive(g), want)
    ok = all(fast == naive == want for fast, naive, want in got.values())
    report(capsys, 3, "orientation-counts", ok,
           ", ".join(f"{k}={v[0]}" for k, v in got.items()))


def test_criterion_04_propagation_replay(capsys):
    a = bundled_graph("A")
    seed = orientation_from_arcs(a, [(1, 2), (6, 1)])
    result = lemma1_propagate(a, seed)
    forced = set()
    if isinstance(result, Orientation):
        forced = set(result.arcs()) - {(1, 2), (6, 1)}
    replay_ok = forced == {(5, 2), (6, 5)}

    mismatches = 0
    checked = 0
    for n in range(1, 6):
        for cls in enumerate_graphs(n):
            if not is_k4_free(cls.graph):
                continue
            checked += 1
            if count_semi_transitive(cls.graph) != count_semi_transitive_naive(cls.graph):
                mismatches += 1
    ok = replay_ok and mismatches == 0
    report(capsys, 4, "propagation-replay", ok,
           f"forced {sorted(forced)}, {checked} K4-free classes exact")


def test_criterion_05_coloring_orientation(capsys):
    rng = random.Random(20260823)
    failures = 0
    for _ in range(1000):
        g = random_3partite(rng, rng.randrange(4, 11))
        coloring = find_proper_coloring(g, 3)
        if coloring is None or not is_semi_transitive(orient_by_coloring(g, coloring)):
            failures += 1
    pet = bundled_graph("petersen")
    coloring = find_proper_coloring(pet, 3)
    if coloring is None or not is_semi_transitive(orient_by_coloring(pet, coloring)):
        failures += 1
    report(capsys, 5, "coloring-orientation", failures == 0,
           f"1001 instances, {failures} failures")


def test_criterion_06_max_degree_three(capsys):
    bad = 0
    hits = 0
    for n in range(1, 8):
        for cls in enumerate_graphs(n):
            g = cls.graph
            if g.max_degree() > 3 or not g.is_connected():
                continue
            hits += 1
            if decide(g).verdict != REPRESENTABLE:
                bad += 1
    ok = bad == 0 and hits > 100
    report(capsys, 6, "max-degree-3-representable", ok,
           f"{hits} connected classes, {bad} failures")


def test_criterion_07_decide_vs_word_search(capsys):
    start = time.perf_counter()
    mismatches = 0
    max_k = 0
    classes = 0
    for n in range(1, 6):
        for cls in enumerate_graphs(n):
            classes += 1
            verdict = decide(cls.graph).verdict
            res = find_word(cls.graph, k_max=3)
            if (res.word is not None) != (verdict == REPRESENTABLE):
                mismatches += 1
            if res.word is not None:
                max_k = max(max_k, res.k_tried)
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 300
    report(capsys, 7, "decide-vs-word-search", ok,
           f"{classes} classes, max k needed {max_k}, {elapsed:.1f}s")


def test_criterion_08_census(capsys):
    failures = []
    for n, want in ((4, 64), (5, 1024)):
        oracle = sum(1 for g in all_graphs(n)
                     if decide(g).verdict == REPRESENTABLE)
        row = census(n)
        if not (oracle == row.b_n == want):
            failures.append(f"b_{n} oracle {oracle} vs census {row.b_n}")
    start = time.perf_counter()
    row6 = census(6)
    elapsed = time.perf_counter() - start
    if elapsed >= 60:
        failures.append(f"n=6 took {elapsed:.1f}s")
    if (row6.a_n, row6.b_n, row6.nonrep_classes) != (155, 32696, ("6:1eeb",)):
        failures.append(f"n=6 row {row6}")
    row7 = census(7)
    a_key = canonical_form(bundled_graph("A")).key
    if a_key not in row7.nonrep_classes:
        failures.append(f"{a_key} missing from n=7 non-representable classes")
    report(capsys, 8, "census-counts", not failures,
           "; ".join(failures) or f"b_5 swept, n=6 in {elapsed:.1f}s, n=7 has {a_key}")


def test_criterion_09_hereditary_closure(capsys):
    bad = 0
    checked = 0
    for n in range(2, 7):
        for cls in enumerate_graphs(n):
            if decide(cls.graph).verdict != REPRESENTABLE:
                continue
            for v in range(1, n + 1):
                checked += 1
                if decide(delete_vertex(cls.graph, v)).verdict != REPRESENTABLE:
                    bad += 1
    report(capsys, 9, "hereditary-closure", bad == 0,
           f"{checked} vertex deletions, {bad} failures")


def test_criterion_10_entropy_table(capsys):
    rows = entropy_table(6)
    failures = []
    for row in rows:
        if row.entropy is None or not math.isfinite(row.entropy):
            failures.append(f"n={row.n} entropy {row.entropy}")
        if not row.a_n <= row.b_n <= 2 ** math.comb(row.n, 2):
            failures.append(f"n={row.n} bounds")
        labelled = sum(cls.labelled_size for cls in enumerate_graphs(row.n)
                       if decide(cls.graph).verdict == REPRESENTABLE)
        if labelled != row.b_n:
            failures.append(f"n={row.n} orbit-stabilizer sum {labelled} vs {row.b_n}")
    ok = not failures and [r.n for r in rows] == [2, 3, 4, 5, 6]
    report(capsys, 10, "entropy-table", ok,
           "; ".join(failures) or f"entropy_6={rows[-1].entropy:.6f}")


def test_criterion_11_determinism(capsys):
    failures = []
    m = bundled_graph("M")
    texts = {run_cli(capsys, "decide", "M") for _ in range(3)}
    if len(texts) != 1:
        failures.append("decide text varies")
    jsons = set()
    for _ in range(3):
        payload = json.loads(run_cli(capsys, "decide", "M", "--json")[1])
        payload["stats"]["wall_time_s"] = 0.0
        jsons.add(str(payload))
    if len(jsons) != 1:
        failures.append("decide json varies")
    c5 = bundled_graph("C5")
    if len({format_orientation(find_semi_transitive(c5)) for _ in range(3)}) != 1:
        failures.append("find_semi_transitive varies")
    words = {format_word(find_word(m).word) for _ in range(3)}
    if len(words) != 1:
        failures.append("find_word varies")
    if census(5) != census(5):
        failures.append("census differs across runs")
    report(capsys, 11, "determinism", not failures, "; ".join(failures))
