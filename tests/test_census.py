"""Census tests: exact a_n / b_n values, entropy, the n <= 8 cap.

Constants for n <= 5 follow from every such graph being representable
(b_n = 2^C(n,2)); the n = 6 and n = 7 rows were frozen after independent
full labelled sweeps agreed with the orbit-stabilizer totals.  The n = 8
row is locked as the census first computed it, and its refutations are
re-checked by the walk and by decide.
"""

import hashlib
import itertools
import json
import math
import random
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from wordrep import NON_REPRESENTABLE, REPRESENTABLE, census, decide, entropy_table
from wordrep.bundled import bundled_graph
from wordrep.decision import verify_certificate
from wordrep.errors import OutOfRangeError, TooLargeError
from wordrep.graphs import (
    CANONICAL_MAX_N,
    _class_codes,
    _color_classes,
    _deletion_codes,
    _graph_from_mask,
    _orbit_codes,
    _order_semi_transitive,
    _perm_tables,
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


def test_census_capped_at_n8(monkeypatch):
    # the cap is enumerate_graphs's, the orbit tables' n <= 8; it must
    # fire before any table is built, any class is swept or decided
    def refused(*args):
        raise AssertionError("worked past the cap")

    monkeypatch.setattr(sys.modules["wordrep.census"], "decide", refused)
    monkeypatch.setattr(sys.modules["wordrep.graphs"], "_class_codes", refused)
    monkeypatch.setattr(sys.modules["wordrep.graphs"], "_perm_tables", refused)
    for call in (census, entropy_table, lambda n: list(enumerate_graphs(n))):
        with pytest.raises(TooLargeError, match=r"^class enumeration supports n <= 8, got 9$"):
            call(9)


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
    assert math.log2(c_n[-1]) / 21 == pytest.approx(0.974982, abs=1e-6)
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


@pytest.mark.slow
def test_refuted_classes_of_max_degree_4(pass_8):
    # the two that verify-paper's a-max-degree row names: A and 7:03ef71
    refuted = [_graph_from_mask(7, int(key[2:], 16)) for key in census(7).nonrep_classes]
    assert sorted(canonical_form(g).key for g in refuted if g.max_degree() == 4) == \
        [canonical_form(bundled_graph("A")).key, "7:03ef71"] == ["7:03af74", "7:03ef71"]
    assert min(g.max_degree() for g in refuted) == 4
    # at n = 8, read from the row's codes with no search: 11 of the 2,590
    # classes of max degree <= 4 are refuted, and none is minimal, as each
    # holds one of those two as the graph less one vertex
    row_7, row_8 = pass_8.rows[6:]
    low = [code for code in pass_8.codes if _graph_from_mask(8, code).max_degree() <= 4]
    refuted = [code for code in low if f"8:{code:07x}" in row_8.nonrep_classes]
    assert (len(low), len(refuted)) == (2590, 11)
    assert sum(_graph_from_mask(8, code).is_connected() for code in refuted) == 9
    for code in refuted:
        deletions = {f"7:{int(_orbit_codes(7, d).min()):06x}" for d in _deletion_codes(8, code)}
        assert deletions & {"7:03af74", "7:03ef71"}
        assert deletions & set(row_7.nonrep_classes)


def test_row_n7():
    row = census(7)
    assert row.a_n == 1018
    assert row.b_n == 2054480
    assert len(row.nonrep_classes) == 26
    assert "7:03af74" in row.nonrep_classes  # the 7-vertex 12-edge witness
    assert "7:001eeb" in row.nonrep_classes  # 5-wheel plus an isolated vertex
    assert row.entropy == pytest.approx(math.log2(2054480) / 21)
    assert row.entropy == pytest.approx(0.998588, abs=1e-6)


@pytest.fixture(scope="module")
def pass_8():
    """One pass of _rows(8), shared by the n = 8 tests, with what it did
    recorded: the size of each sweep's seen array, n = 1..8, and at n = 8
    the class codes with their labelled sizes, whether the colouring
    settles each, how many the orders settle, the chunks the orders
    test, and each class decide searches with its decision."""
    census_module, graphs_module = sys.modules["wordrep.census"], sys.modules["wordrep.graphs"]
    run = SimpleNamespace(seen_sizes=[], codes=[], labelled_sizes=[], coloured=[], ordered=0,
                          order_chunks=[], searched=[])

    def sized(size):
        run.seen_sizes.append(size)
        return bytearray(size)

    def classes(n):
        for cls in enumerate_graphs(n):
            if n == 8:
                run.labelled_sizes.append(cls.labelled_size)
            yield cls

    def colouring(n, codes):
        settled = _three_colourable(n, codes)
        if n == 8:
            run.codes += codes
            run.coloured += settled
        return settled

    def ordering(n, codes):
        settled = _order_semi_transitive(n, codes)
        if n == 8:
            run.order_chunks.append(len(codes))
            run.ordered += sum(settled)
        return settled

    def deciding(g):
        d = decide(g)
        if g.n == 8:
            run.searched.append((g, d))
        return d

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphs_module, "bytearray", sized, raising=False)
        patch.setattr(census_module, "enumerate_graphs", classes)
        patch.setattr(census_module, "_three_colourable", colouring)
        patch.setattr(census_module, "_order_semi_transitive", ordering)
        patch.setattr(census_module, "decide", deciding)
        run.rows = census_module._rows(8)
    return run


@pytest.mark.slow
def test_row_n8(pass_8):
    row = pass_8.rows[-1]
    assert (row.n, row.a_n, row.b_n) == (8, 11390, 244863664)
    assert row.entropy == pytest.approx(math.log2(244863664) / 28)
    assert row.entropy == pytest.approx(0.995264, abs=1e-6)
    assert len(row.nonrep_classes) == 956
    assert hashlib.sha256("\n".join(row.nonrep_classes).encode()).hexdigest() == \
        "25caa5e03b7251d09f741a622b600970670771e76d74e251eaf881cc6829f8b6"
    assert "8:003af74" in row.nonrep_classes   # A plus an isolated vertex
    assert row.a_n + len(row.nonrep_classes) == len(pass_8.codes) == 12346
    assert 0 < row.entropy < pass_8.rows[-2].entropy
    # the rows below are the n <= 7 pass's
    assert pass_8.rows[1:7] == entropy_table(7)


@pytest.mark.slow
def test_census_8_stage_split(pass_8):
    # at n = 8 the colouring settles 6,024 classes, the orders that keep
    # 1..4 first 4,808 of the rest, heredity 909, and decide searches
    # 605, 47 of them refuted, each minimal: every one-vertex deletion is
    # a representable class of the row below
    assert (sum(pass_8.coloured), pass_8.ordered, len(pass_8.searched)) == (6024, 4808, 605)
    assert len(pass_8.order_chunks) == -(-12346 // 64) and max(pass_8.order_chunks) <= 64
    assert sum(pass_8.order_chunks) == 12346 - 6024
    refuted = [g for g, d in pass_8.searched if d.verdict == NON_REPRESENTABLE]
    assert len(refuted) == 47
    keys = {canonical_form(g).key for g in refuted}
    by_heredity = set(pass_8.rows[-1].nonrep_classes) - keys
    assert len(by_heredity) == 909 == 12346 - 6024 - 4808 - 605
    row_7 = set(pass_8.rows[6].nonrep_classes)
    for g in refuted:
        assert not row_7 & {canonical_form(delete_vertex(g, v)).key for v in g.vertices()}


@pytest.mark.slow
def test_three_colourable_at_8(pass_8):
    # the colouring from class codes alone agrees with _color_classes on
    # all 12,346 classes the pass swept, and c_8 is by orbit-stabilizer
    # over the 6,024 it certifies
    assert len(pass_8.labelled_sizes) == len(pass_8.coloured) == 12346
    assert pass_8.coloured == [_color_classes(_graph_from_mask(8, code), 3) is not None
                               for code in pass_8.codes]
    c_8 = sum(size for size, ok in zip(pass_8.labelled_sizes, pass_8.coloured) if ok)
    assert c_8 == 137_144_754 <= pass_8.rows[-1].b_n
    assert math.log2(c_8) / 28 == pytest.approx(0.965397, abs=1e-6)


@pytest.mark.slow
def test_census_8_refutations_recheck(pass_8):
    # the 47 minimal refutations by the walk, which runs no search, and a
    # seeded sample of the 909 heredity refutations by decide
    refuted = [(g, d) for g, d in pass_8.searched if d.verdict == NON_REPRESENTABLE]
    assert len(refuted) == 47
    assert all(verify_certificate(g, d) for g, d in refuted)
    searched = {canonical_form(g).key for g, _ in refuted}
    by_heredity = sorted(set(pass_8.rows[-1].nonrep_classes) - searched)
    for key in random.Random(8).sample(by_heredity, 40):
        assert decide(_graph_from_mask(8, int(key[2:], 16))).verdict == NON_REPRESENTABLE


@pytest.mark.slow
def test_sweep_invariants(pass_8):
    # _class_codes' seen array holds the masks below limit as rows of
    # width = 2^(s // 2), so limit must be a multiple of width and at most
    # width^2, and its codes of s slots are int32, for every n the
    # enumeration takes; pass_8 swept each n = 1..8 once
    assert len(pass_8.seen_sizes) == CANONICAL_MAX_N == 8
    for n, limit in enumerate(pass_8.seen_sizes, 1):
        s = math.comb(n, 2)
        width = 1 << s // 2
        assert limit % width == 0 and limit <= width * width
        assert _perm_tables(n).dtype == np.int32
        assert (1 << s) - 1 <= np.iinfo(np.int32).max
    assert pass_8.seen_sizes[-1] == 1 << 24


@pytest.mark.slow
def test_sweep_stays_small_in_memory_at_n8(pass_8):
    # traced allocations of the n = 8 sweep, its tables built by pass_8:
    # the 16 MiB seen array and about 1.3 MB more (18,160,245 bytes in all
    # on Python 3.11)
    tracemalloc.start()
    try:
        _class_codes(8)
        assert tracemalloc.get_traced_memory()[1] < 18 * 1024 * 1024
    finally:
        tracemalloc.stop()


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
