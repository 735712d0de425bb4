"""Census tests: exact a_n / b_n values, entropy, the n <= 7 cap.

Constants for n <= 5 follow from every such graph being representable
(b_n = 2^C(n,2)); the n = 6 and n = 7 rows were frozen after independent
full labelled sweeps agreed with the orbit-stabilizer totals.
"""

import itertools
import json
import math
import sys

import pytest

from wordrep import REPRESENTABLE, census, decide, entropy_table
from wordrep.errors import OutOfRangeError, TooLargeError
from wordrep.graphs import (
    _color_classes,
    enumerate_graphs,
    find_proper_coloring,
    graph_from_edge_list,
)
from wordrep.orientations import _forward_semi_transitive, is_semi_transitive, orient_by_coloring

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
    # classes whose vertex order 1..n (every edge FORWARD) is semi-transitive
    assert [sum(_forward_semi_transitive(cls.graph) for cls in enumerate_graphs(n))
            for n in range(1, 8)] == [1, 2, 4, 11, 32, 130, 686]


def test_certificate_split():
    # per n = 1..7, the classes the census accepts as 3-colourable, then,
    # of the rest, those its vertex order 1..n accepts
    by_coloring, by_order = [], []
    for n in range(1, 8):
        graphs = [cls.graph for cls in enumerate_graphs(n)]
        colored = [g for g in graphs if _color_classes(g, 3) is not None]
        by_coloring.append(len(colored))
        by_order.append(sum(_forward_semi_transitive(g) for g in graphs
                            if _color_classes(g, 3) is None))
        # the colouring certificate, re-checked by path enumeration
        for g in colored:
            assert is_semi_transitive(orient_by_coloring(g, find_proper_coloring(g, 3)))
    assert by_coloring == [1, 2, 4, 10, 29, 119, 667]
    assert by_order == [0, 0, 0, 1, 5, 31, 212]


def test_three_colourable_labelled_totals():
    # c_n, the labelled 3-colourable graphs, by orbit-stabilizer over the
    # classes the colouring accepts, and for n <= 5 by generate-and-test
    # over every labelled graph
    c_n = [sum(cls.labelled_size for cls in enumerate_graphs(n)
               if _color_classes(cls.graph, 3) is not None) for n in range(1, 8)]
    assert c_n == [1, 2, 8, 63, 958, 27554, 1457047]
    assert [sum(ref_colorable(g, 3) for g in all_graphs(n)) for n in range(1, 6)] == c_n[:5]


def test_census_decides_only_what_the_vertex_order_leaves(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g.n)
        return decide(g)

    monkeypatch.setattr(sys.modules["wordrep.census"], "decide", counted)
    assert census(7).a_n == 1018
    assert len(calls) == 1044 - 667 - 212 == 165
    calls.clear()
    entropy_table(7)
    assert len(calls) == 171


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
