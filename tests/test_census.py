"""Census tests: exact a_n / b_n values, entropy, the n <= 7 cap.

Constants for n <= 5 follow from every such graph being representable
(b_n = 2^C(n,2)); the n = 6 and n = 7 rows were frozen after independent
full labelled sweeps agreed with the orbit-stabilizer totals.
"""

import itertools
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from wordrep import NON_REPRESENTABLE, REPRESENTABLE, census, decide, entropy_table
from wordrep.bundled import bundled_graph
from wordrep.errors import OutOfRangeError, TooLargeError
from wordrep.graphs import (
    _class_codes,
    _graph_from_mask,
    _order_semi_transitive,
    _three_colourable,
    canonical_form,
    delete_vertex,
    enumerate_graphs,
    find_proper_coloring,
    graph_from_edge_list,
)
from wordrep.orientations import is_semi_transitive, orient_by_coloring

from helpers import all_graphs, ref_colorable, run_cli


def test_small_rows_exact():
    expect = {1: (1, 1), 2: (2, 2), 3: (4, 8), 4: (11, 64), 5: (34, 1024)}
    for n, (a_n, b_n) in expect.items():
        row = census(n)
        assert row.n == n
        assert row.a_n == a_n
        assert row.b_n == b_n
        assert row.nonrep_classes == ()


def test_entropy_values():
    assert census(1).entropy is None
    # b_n = 2^C(n,2) up to n = 5, so the entropy is exactly 1
    for n in range(2, 6):
        assert census(n).entropy == 1.0


def test_labelled_oracle_n4():
    # decide every one of the 2^6 labelled graphs on 4 vertices
    pairs = list(itertools.combinations(range(1, 5), 2))
    total = 0
    for bits in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
        if decide(graph_from_edge_list(4, edges)).verdict == REPRESENTABLE:
            total += 1
    assert total == census(4).b_n == 64


def test_row_n6():
    row = census(6)
    assert row.a_n == 155
    assert row.b_n == 32696
    assert row.nonrep_classes == ("6:1eeb",)
    assert row.entropy == pytest.approx(math.log2(32696) / 15)
    assert row.entropy < 1.0


@pytest.mark.slow
def test_labelled_oracle_n6():
    # the long way round: decide all 2^15 labelled graphs on 6 vertices
    pairs = list(itertools.combinations(range(1, 7), 2))
    total = 0
    for bits in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
        if decide(graph_from_edge_list(6, edges)).verdict == REPRESENTABLE:
            total += 1
    assert total == 32696


def test_census_capped_at_n7(monkeypatch):
    # the cap is enumerate_graphs's; it must fire before any class is decided
    def no_decisions(g):
        raise AssertionError("decided a class past the cap")

    monkeypatch.setattr(sys.modules["wordrep.census"], "decide", no_decisions)
    with pytest.raises(TooLargeError):
        census(8)
    with pytest.raises(TooLargeError):
        entropy_table(8)


def test_vertex_order_certifies_most_classes():
    # classes with a semi-transitive vertex order that keeps 1..4 first
    assert [sum(_order_semi_transitive(n, [cls.form.code for cls in enumerate_graphs(n)]))
            for n in range(1, 8)] == [1, 2, 4, 11, 32, 147, 967]


def test_certificate_split():
    # per n = 1..7, the classes the census accepts as 3-colourable, then,
    # of the rest, those its vertex orders that keep 1..4 first accept
    by_coloring, by_order = [], []
    for n in range(1, 8):
        classes = list(enumerate_graphs(n))
        codes = [cls.form.code for cls in classes]
        accepted = _three_colourable(n, codes)
        colored = [cls.graph for cls, ok in zip(classes, accepted) if ok]
        by_coloring.append(len(colored))
        by_order.append(sum(ordered and not ok for ok, ordered
                            in zip(accepted, _order_semi_transitive(n, codes))))
        # the colouring certificate, re-checked by path enumeration
        for g in colored:
            assert is_semi_transitive(orient_by_coloring(g, find_proper_coloring(g, 3)))
    assert by_coloring == [1, 2, 4, 10, 29, 119, 667]
    assert by_order == [0, 0, 0, 1, 5, 34, 319]


def test_census_order_tests_only_what_the_colouring_leaves(monkeypatch):
    # the vertex orders run once per 64-class chunk, on exactly the codes
    # the colouring rejects, which no 3-colouring covers
    received = []

    def spied(n, codes):
        received.append((n, list(codes)))
        return _order_semi_transitive(n, codes)

    monkeypatch.setattr(sys.modules["wordrep.census"], "_order_semi_transitive", spied)
    census(7)
    for n in range(1, 8):
        calls = [codes for m, codes in received if m == n]
        classes = [cls.form.code for cls in enumerate_graphs(n)]
        assert len(calls) == -(-len(classes) // 64)
        assert sum(calls, []) == [code for code in classes
                                  if find_proper_coloring(_graph_from_mask(n, code), 3) is None]
    assert [sum(len(codes) for m, codes in received if m == n) for n in range(1, 8)] == \
        [0, 0, 0, 1, 5, 37, 377]
    received.clear()
    entropy_table(7)
    assert sum(len(codes) for _, codes in received) == 420


def test_sweep_and_census_stay_small_in_memory():
    # traced allocations, with every cached table built by a first call:
    # the class sweep's seen array covers only the masks below its limit
    # (2^17 bytes at n = 7, not 2^21), so neither peak nears a megabyte
    def peak(call):
        call()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: _class_codes(7)) < 512 * 1024
    assert peak(lambda: entropy_table(7)) < 512 * 1024


def test_three_colourable_labelled_totals():
    # c_n, the labelled 3-colourable graphs, by orbit-stabilizer over the
    # classes the census's colouring test accepts, and for n <= 5 by
    # generate-and-test over every labelled graph
    c_n = []
    for n in range(1, 8):
        classes = list(enumerate_graphs(n))
        accepted = _three_colourable(n, [cls.form.code for cls in classes])
        c_n.append(sum(cls.labelled_size for cls, ok in zip(classes, accepted) if ok))
    assert c_n == [1, 2, 8, 63, 958, 27554, 1457047]
    assert [sum(ref_colorable(g, 3) for g in all_graphs(n)) for n in range(1, 6)] == c_n[:5]
    # 3-colourable graphs are representable
    assert all(c <= row.b_n for c, row in zip(c_n, [census(1)] + entropy_table(7)))


def test_census_decides_only_what_the_vertex_order_leaves(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g.n)
        return decide(g)

    monkeypatch.setattr(sys.modules["wordrep.census"], "decide", counted)
    assert census(7).a_n == 1018
    # census(7) runs the rows below it too: 3 searches for n <= 6, and at
    # n = 7 what the colouring, the orders that keep 1..4 first and
    # heredity leave: the 10 minimal refuted classes and 32 representable
    assert calls.count(7) == 1044 - 667 - 319 - 16 == 42
    assert len(calls) == 3 + 42
    calls.clear()
    entropy_table(7)
    assert len(calls) == 45


def test_census_builds_graphs_only_where_it_certifies_or_searches(monkeypatch):
    # only the 45 searched classes build a Graph: the other 1,206 for
    # n = 2..7 are settled from their codes
    built = []

    def counted(n, code):
        built.append(n)
        return _graph_from_mask(n, code)

    monkeypatch.setattr(sys.modules["wordrep.graphs"], "_graph_from_mask", counted)
    entropy_table(7)
    assert len(built) == 45


def test_heredity_refutes_the_non_minimal_classes(monkeypatch):
    # the refuted classes that reach decide, against those refuted by
    # heredity: a class is minimal when every one-vertex deletion is
    # representable, and only the minimal ones are searched; beside them
    # decide settles the representable classes that no certificate
    # settles, 2 at n = 6 and 32 at n = 7
    searched, representable = [], []

    def recorded(g):
        result = decide(g)
        (representable if result.verdict == REPRESENTABLE else searched).append(canonical_form(g))
        return result

    monkeypatch.setattr(sys.modules["wordrep.census"], "decide", recorded)
    rows = entropy_table(7)
    monkeypatch.undo()
    assert rows[4].nonrep_classes == ("6:1eeb",)
    refuted = set(rows[5].nonrep_classes)
    by_heredity = refuted - {form.key for form in searched}
    assert len(refuted) == 26 and len(by_heredity) == 16
    graphs = {key: _graph_from_mask(7, int(key[2:], 16)) for key in refuted}
    minimal = {key for key, g in graphs.items()
               if all(decide(delete_vertex(g, v)).verdict == REPRESENTABLE
                      for v in g.vertices())}
    assert refuted - by_heredity == minimal and len(minimal) == 10
    assert [form.key for form in searched] == ["6:1eeb", *sorted(minimal)]
    assert [form.n for form in representable] == [6] * 2 + [7] * 32
    for key in by_heredity:
        g = graphs[key]
        assert decide(g).verdict == NON_REPRESENTABLE
        assert any(canonical_form(delete_vertex(g, v)).key == "6:1eeb" for v in g.vertices())
    # W5 is minimal: every graph on 5 vertices is representable
    w5 = _graph_from_mask(6, 0x1eeb)
    assert all(decide(delete_vertex(w5, v)).verdict == REPRESENTABLE for v in w5.vertices())


def test_refuted_classes_of_max_degree_4():
    # the two that verify-paper's a-max-degree row names: A and 7:03ef71
    refuted = [_graph_from_mask(7, int(key[2:], 16)) for key in census(7).nonrep_classes]
    assert sorted(canonical_form(g).key for g in refuted if g.max_degree() == 4) == \
        [canonical_form(bundled_graph("A")).key, "7:03ef71"] == ["7:03af74", "7:03ef71"]
    assert min(g.max_degree() for g in refuted) == 4


def test_row_n7():
    row = census(7)
    assert row.a_n == 1018
    assert row.b_n == 2054480
    assert len(row.nonrep_classes) == 26
    assert "7:03af74" in row.nonrep_classes  # the 7-vertex 12-edge witness
    assert "7:001eeb" in row.nonrep_classes  # 5-wheel plus an isolated vertex
    assert row.entropy == pytest.approx(math.log2(2054480) / 21)
    assert row.entropy == pytest.approx(0.998588, abs=1e-6)


def test_entropy_table_rows():
    rows = entropy_table(5)
    assert [r.n for r in rows] == [2, 3, 4, 5]
    assert rows == [census(n) for n in range(2, 6)]


def test_entropy_table_needs_a_row():
    # rows start at n = 2, so a smaller n_max would give an empty table
    for n_max in (1, 0, -3):
        with pytest.raises(OutOfRangeError):
            entropy_table(n_max)
    assert [r.n for r in entropy_table(2)] == [2]


def test_sizes_are_integers():
    # n and n_max are read with operator.index: a float or a string is out
    # of range, not a TypeError, and a numpy integer comes back as int
    for call, size, what in ((census, 5.0, "vertex count"), (entropy_table, 7.0, "n_max"),
                             (entropy_table, "7", "n_max"), (census, None, "vertex count")):
        with pytest.raises(OutOfRangeError, match=rf"^{what} must be an integer, got "):
            call(size)
    row = census(np.int64(4))
    assert row == census(4) and type(row.n) is int
    assert [type(r.n) for r in entropy_table(np.int8(3))] == [int, int]


def test_entropy_never_increases():
    rows = [census(n) for n in range(2, 7)]
    for prev, cur in zip(rows, rows[1:]):
        assert cur.entropy <= prev.entropy


def test_rows_are_possible_numbers():
    # b_n counts labelled graphs, so it can never exceed 2^C(n,2)
    for n in range(1, 8):
        row = census(n)
        pairs = math.comb(n, 2)
        assert 1 <= row.b_n <= 2 ** pairs
        assert row.a_n + len(row.nonrep_classes) == \
            sum(1 for _ in enumerate_graphs(n))
        if row.entropy is not None:
            assert 0 < row.entropy <= 1


def test_to_json_shape(capsys):
    payload = json.loads(run_cli(capsys, "census", "4", "--json")[1])
    assert set(payload) == {"n", "a_n", "b_n", "entropy", "nonrep_classes"}
    assert payload["nonrep_classes"] == []
    assert isinstance(payload["entropy"], float)
    assert json.loads(run_cli(capsys, "census", "1", "--json")[1])["entropy"] is None


def test_format_table(capsys):
    text = run_cli(capsys, "census", "4", "--table")[1]
    lines = text.splitlines()
    assert lines[0].split() == ["n", "a_n", "b_n", "entropy", "nonrep"]
    assert len(lines) == 4
    assert "1.000000" in lines[1]
    solo = run_cli(capsys, "census", "1")[1]
    assert solo.splitlines()[1].split() == ["1", "1", "1", "-", "0"]
