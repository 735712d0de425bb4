"""End-to-end command-line tests, driven through main(argv) in-process.

Exit code contract: 0 positive, 1 negative answer, 2 usage/parse error.
"""

import functools
import importlib.metadata
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

import wordrep
from wordrep.bundled import GRAPH_NAMES, bundled_graph
from wordrep.cli import main
from wordrep.graphs import graph_from_edge_list, parse_edge_list, write_edge_list
from wordrep.orientations import count_semi_transitive_naive

GOLDEN = pathlib.Path(__file__).parent / "golden"
DATA = pathlib.Path(wordrep.__file__).parent / "data"  # the bundled files
SRC = pathlib.Path(wordrep.__file__).parents[1]
PYPROJECT = pathlib.Path(__file__).parents[1] / "pyproject.toml"


@pytest.fixture
def graph_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.edges"
        write_edge_list(bundled_graph(name), path)
        return str(path)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decide_representable(capsys, graph_file):
    code, out, err = run(capsys, "decide", graph_file("M"))
    assert code == 0
    assert out.startswith("Representable\n")
    assert "4 4\n" in out  # witness orientation header
    assert err == ""


def test_decide_nonrepresentable(capsys, graph_file):
    code, out, _ = run(capsys, "decide", graph_file("A"))
    assert (code, out) == (1, "NonRepresentable\n")
    code, out, _ = run(capsys, "decide", graph_file("A"), "--json")
    assert code == 1
    payload = json.loads(out)
    assert (payload["verdict"], payload["witness"]) == ("NonRepresentable", None)
    assert payload["stats"]["nodes"] == 17


def test_decide_golden_json(capsys, graph_file):
    code, out, _ = run(capsys, "decide", graph_file("M"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["stats"]["wall_time_s"] < 1.0
    payload["stats"]["wall_time_s"] = 0.0
    assert payload == json.loads(GOLDEN.joinpath("decide_M.json").read_text())


# output bytes and exit code of each command, recorded from an earlier build;
# a bundled graph's name stands for its edge-list file.  A ".err" file holds
# the run's stderr and its stdout must be empty; any other file holds the
# stdout and its stderr must be empty.
GOLDEN_RUNS = [
    ("census_7_table.json", 0, ["census", "7", "--table", "--json"]),
    ("census_7_table.txt", 0, ["census", "7", "--table"]),
    ("census_6_table.json", 0, ["census", "6", "--table", "--json"]),
    ("census_6_table.txt", 0, ["census", "6", "--table"]),
    ("census_5.txt", 0, ["census", "5"]),
    ("census_5.json", 0, ["census", "5", "--json"]),
    ("census_1.txt", 0, ["census", "1"]),
    ("census_1.json", 0, ["census", "1", "--json"]),
    ("verify_paper.txt", 0, ["verify-paper"]),
    ("verify_paper.json", 0, ["verify-paper", "--json"]),
    ("find_word_A.json", 1, ["find-word", "A", "--json"]),
    ("find_word_A.txt", 1, ["find-word", "A"]),
    ("find_word_M.json", 0, ["find-word", "M", "--json"]),
    ("find_word_M.txt", 0, ["find-word", "M"]),
    ("count_orientations_K4.json", 0, ["count-orientations", "K4", "--json"]),
    ("count_orientations_K4.txt", 0, ["count-orientations", "K4"]),
    ("count_orientations_C4.json", 0, ["count-orientations", "C4", "--json"]),
    ("count_orientations_A.json", 0, ["count-orientations", "A", "--json"]),
    ("decide_A.json", 1, ["decide", "A", "--json"]),
    ("decide_A.txt", 1, ["decide", "A"]),
    ("decide_M.txt", 0, ["decide", "M"]),
    ("check_word_true.txt", 0, ["check-word", "M", "--word", "1213423"]),
    ("check_word_true.json", 0, ["check-word", "M", "--word", "1213423", "--json"]),
    ("check_word_false.txt", 1, ["check-word", "M", "--word", "1234"]),
    ("check_word_false.json", 1, ["check-word", "M", "--word", "1234", "--json"]),
    ("graph_of_word.txt", 0, ["graph-of-word", "--word", "1213423"]),
    ("graph_of_word.json", 0, ["graph-of-word", "--word", "1213423", "--json"]),
    ("word_parse_error.err", 2, ["graph-of-word", "--word", "1x2"]),
]


@pytest.mark.parametrize("golden, code, argv", GOLDEN_RUNS, ids=[g for g, _, _ in GOLDEN_RUNS])
def test_golden_outputs(capsys, graph_file, golden, code, argv):
    argv = [graph_file(a) if a in GRAPH_NAMES else a for a in argv]
    got, out, err = run(capsys, *argv)
    # wall time is the one field that is not deterministic
    out = re.sub(r'"wall_time_s": [^,\n}]+', '"wall_time_s": 0.0', out)
    shown, silent = (err, out) if golden.endswith(".err") else (out, err)
    assert (got, silent) == (code, "")
    assert shown.encode("utf-8") == GOLDEN.joinpath(golden).read_bytes()


def test_check_word(capsys, graph_file):
    path = graph_file("M")
    code, out, _ = run(capsys, "check-word", path, "--word", "1213423")
    assert (code, out) == (0, "represents: true\n")
    code, out, _ = run(capsys, "check-word", path, "--word", "1234")
    assert (code, out) == (1, "represents: false\n")


def test_check_word_parse_error(capsys, graph_file):
    code, out, err = run(capsys, "check-word", graph_file("M"), "--word", "10")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_check_word_json(capsys, graph_file):
    code, out, _ = run(capsys, "check-word", graph_file("K4"),
                       "--word", "12341234", "--json")
    assert code == 0
    assert json.loads(out) == {"represents": True}


def test_graph_of_word_round_trip(capsys):
    code, out, _ = run(capsys, "graph-of-word", "--word", "1213423")
    assert code == 0
    assert parse_edge_list(out) == bundled_graph("M")


def test_graph_of_word_json(capsys):
    code, out, _ = run(capsys, "graph-of-word", "--word", "11", "--json")
    assert code == 0
    assert json.loads(out) == {"n": 1, "edges": []}


def test_word_alphabet_cap(capsys, tmp_path):
    # one command-line argument holds a word over some 22,000 letters, whose
    # graph has about 2.4 * 10^8 edges; past 1,000 letters both commands
    # that build a word's graph fail with one error line and exit 2
    word = " ".join(map(str, range(1, 1002)))
    path = tmp_path / "empty.edges"
    path.write_text("1001 0\n")
    for argv in (("graph-of-word", "--word", word), ("check-word", str(path), "--word", word)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: graph of a word supports alphabets of at most 1000 letters, got 1001\n"


def test_count_orientations(capsys, graph_file):
    code, out, _ = run(capsys, "count-orientations", graph_file("K4"))
    assert (code, out) == (0, "24\n")
    code, out, _ = run(capsys, "count-orientations", graph_file("A"), "--json")
    assert code == 0
    assert json.loads(out) == {"count": 0}


# chains of small blocks past 24 edges in all: cut vertices join each block
# to the next, so every block has at most 4 edges
CHAINS = [
    pytest.param(40, [(v, v + 1) for v in range(1, 40)], 2 ** 39, id="path-40"),
    pytest.param(27, [e for i in range(1, 27, 2) for e in ((i, i + 1), (i + 1, i + 2), (i, i + 2))],
                 6 ** 13, id="triangles-13"),
    pytest.param(37, [e for i in range(1, 37, 3)
                      for e in ((i, i + 1), (i + 1, i + 2), (i + 2, i + 3), (i, i + 3))],
                 6 ** 12, id="four-cycles-12"),
]


@pytest.mark.parametrize("n, edges, count", CHAINS)
def test_count_orientations_caps_the_largest_block(capsys, tmp_path, n, edges, count):
    # the 24-edge cap of exact counting bounds each block, as each is
    # counted on its own; the naive route agrees
    g = graph_from_edge_list(n, edges)
    assert len(g.edges) > 24 and g.n == n
    path = tmp_path / "chain.edges"
    write_edge_list(g, path)
    code, out, _ = run(capsys, "count-orientations", str(path), "--json")
    assert (code, json.loads(out)) == (0, {"count": count})
    assert count_semi_transitive_naive(g) == count


def test_find_word(capsys, graph_file):
    code, out, _ = run(capsys, "find-word", graph_file("M"))
    assert code == 0
    assert out == "1 2 1 3 4 2 3 4\n"

    code, out, _ = run(capsys, "find-word", graph_file("A"), "--k-max", "2")
    assert (code, out) == (1, "None\n")

    code, out, _ = run(capsys, "find-word", graph_file("K4"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["word"] == [1, 2, 3, 4]
    assert payload["k_tried"] == 1
    assert payload["nodes"] >= 1

    code, out, err = run(capsys, "find-word", graph_file("K4"), "--k-max", "0")
    assert (code, out) == (2, "")
    assert err == "error: k_max must be >= 1, got 0\n"


def test_census_text_and_json(capsys):
    code, out, _ = run(capsys, "census", "4", "--table")
    assert code == 0
    assert out.splitlines()[0].split()[0] == "n"
    assert len(out.splitlines()) == 4

    code, out, _ = run(capsys, "census", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["a_n"] == 11 and payload["b_n"] == 64


def test_census_cap_and_n7_row(capsys):
    for argv in (("9",), ("9", "--table")):
        code, out, err = run(capsys, "census", *argv)
        assert (code, out) == (2, "")
        assert err == "error: class enumeration supports n <= 8, got 9\n"

    code, out, _ = run(capsys, "census", "7")
    assert code == 0
    assert out.splitlines()[1].split() == [
        "7", "1018", "2054480", "0.998588", "26"]


@pytest.mark.slow
def test_census_8_row_and_table(capsys, monkeypatch):
    # the first run computes rows 1..8 in one pass, and the other two
    # print that pass again; rows 2..7 are census_7_table's
    census_module = sys.modules["wordrep.census"]
    monkeypatch.setattr(census_module, "_rows", functools.cache(census_module._rows))
    code, out, err = run(capsys, "census", "8", "--table")
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == GOLDEN.joinpath("census_8_table.txt").read_bytes()
    assert out.splitlines()[:7] == GOLDEN.joinpath("census_7_table.txt").read_text().splitlines()

    code, out, err = run(capsys, "census", "8", "--table", "--json")
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == GOLDEN.joinpath("census_8_table.json").read_bytes()
    rows = json.loads(out)["rows"]
    assert rows[:6] == json.loads(GOLDEN.joinpath("census_7_table.json").read_text())["rows"]

    code, out, _ = run(capsys, "census", "8")
    assert code == 0
    assert out.splitlines()[1].split() == ["8", "11390", "244863664", "0.995264", "956"]


def test_census_table_needs_a_row(capsys):
    # the table's rows start at n = 2; a smaller n is an error, not an
    # empty table
    for argv in (("0", "--table"), ("-3", "--table"), ("1", "--table"),
                 ("1", "--table", "--json")):
        code, out, err = run(capsys, "census", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1


def test_verify_paper(capsys):
    code, first, _ = run(capsys, "verify-paper")
    assert code == 0
    assert "FAIL" not in first
    code, second, _ = run(capsys, "verify-paper")
    assert second == first  # byte-for-byte deterministic

    code, out, _ = run(capsys, "verify-paper", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert all(c["pass"] for c in payload["checks"])


def test_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "decide", str(tmp_path / "nope.edges"))
    assert code == 2
    assert err.startswith("error:")


def test_bad_edge_file(capsys, tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("2 1\n1 5\n")
    code, _, err = run(capsys, "decide", str(path))
    assert code == 2
    assert "error:" in err


def test_edge_file_not_utf8(capsys, tmp_path):
    path = tmp_path / "bad.edges"
    path.write_bytes(b"\xff\xfe2 1\n1 2\n")
    code, out, err = run(capsys, "decide", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "UTF-8" in err


def test_orientation_search_vertex_cap(capsys, tmp_path):
    # untrusted edge lists past the search's vertex cap fail with one error
    # line and exit 2, not a RecursionError, a MemoryError or minutes of
    # closure building
    k45 = [(u, v) for u in range(1, 46) for v in range(u + 1, 46)]
    path_1000 = [(v, v + 1) for v in range(1, 1000)]
    path = tmp_path / "big.edges"
    for n, edges in ((1000, path_1000), (45, k45), (99999999999, []), (20000, [])):
        path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        for command in ("decide", "count-orientations"):
            code, out, err = run(capsys, command, str(path))
            assert (code, out) == (2, "")
            assert err.startswith("error:") and err.count("\n") == 1


def test_non_ascii_digits_are_parse_errors(tmp_path):
    # str.isdigit accepts "\u00b3" (superscript three) and "\u0663"
    # (Arabic-Indic three); int() rejects the first and reads the second as
    # 3.  One fresh interpreter runs every case, so a crash would print a
    # traceback on its stderr.
    argvs = []
    for digit in ("\u00b3", "\u0663"):
        path = tmp_path / f"{ord(digit)}.edges"
        path.write_text(f"3 1\n2 {digit}\n", encoding="utf-8")
        argvs += [["decide", str(path)], ["graph-of-word", "--word", f"1 2 {digit}"],
                  ["graph-of-word", "--word", digit]]
    script = ("import sys\nfrom wordrep.cli import main\n"
              f"print([main(argv) for argv in {argvs!r}])\n")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        encoding="utf-8",
        env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONIOENCODING": "utf-8"})
    assert proc.stdout == f"{[2] * len(argvs)}\n"
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("error:") == len(argvs)


# int() refuses more than 4,300 digits (sys.get_int_max_str_digits) with a
# ValueError, which once escaped main as a traceback and exit code 1
HUGE = "1" + "0" * 5000


@pytest.mark.parametrize("argv", [
    ["decide", "huge.edges"],
    ["check-word", "huge.edges", "--word", f"1 {HUGE}"],
    ["check-word", "huge.edges", "--word", f"1({HUGE})"],
    ["graph-of-word", "--word", f"1 {HUGE}"],
    ["graph-of-word", "--word", f"1({HUGE})"],
], ids=["decide", "check-word-spaced", "check-word-compact",
        "graph-of-word-spaced", "graph-of-word-compact"])
def test_overlong_integers_are_parse_errors(capsys, tmp_path, argv):
    path = tmp_path / "huge.edges"
    path.write_text(f"{HUGE} 0\n" if argv[0] == "decide" else "2 1\n1 2\n")
    argv = [str(path) if a == "huge.edges" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: integer of 5001 digits is too long")
    assert err.count("\n") == 1


def test_unknown_arguments():
    with pytest.raises(SystemExit) as exc:
        main(["decide", "--bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_removed_paths_are_usage_errors(capsys, graph_file):
    # decide prints the witness orientation, and decide --json the counters
    path = graph_file("C5")
    for argv in (["find-orientation", path], ["decide", path, "--stats"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def _modules_after(*argvs, calls=(), flags=(), watch=("numpy", "dataclasses", "inspect")):
    """Run each argv through main(), then evaluate each library call, in
    one fresh interpreter started with flags; return the exit codes
    followed by the calls' values, and the modules of watch it imported."""
    script = (
        "import json, sys\n"
        "import wordrep\n"
        "from wordrep.bundled import bundled_graph\n"
        "from wordrep.cli import main\n"
        "from wordrep.orientations import count_semi_transitive_naive\n"
        f"codes = [main(argv) for argv in {list(argvs)!r}]\n"
        f"codes += [eval(call) for call in {list(calls)!r}]\n"
        f"print(json.dumps([codes, [m for m in {list(watch)!r} if m in sys.modules]]))\n")
    proc = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.stderr == ""
    return json.loads(proc.stdout.splitlines()[-1])


def test_search_and_word_commands_never_import_numpy():
    # numpy costs about 0.15 s of start-up, and only class enumeration and
    # canonical forms use it: the refutation re-check walks the acyclic
    # orientations in pure Python.  The records are plain classes, so
    # nothing loads dataclasses or the inspect module it pulls in
    codes, loaded = _modules_after(
        ["decide", str(DATA / "A.edges")],
        ["count-orientations", str(DATA / "K4.edges")],
        ["find-word", str(DATA / "M.edges")],
        ["check-word", str(DATA / "M.edges"), "--word", "1213423"],
        ["graph-of-word", "--word", "1213423"],
        ["verify-paper"],
        calls=["wordrep.verify_certificate(bundled_graph('A'), wordrep.decide(bundled_graph('A')))",
               "count_semi_transitive_naive(bundled_graph('K4'))"])
    assert codes == [1, 0, 0, 0, 0, 0, True, 24]
    assert loaded == []
    # the control: census enumerates classes, so it does load numpy
    codes, loaded = _modules_after(["census", "3"])
    assert codes == [0] and "numpy" in loaded


def test_only_bundled_readers_import_importlib_resources():
    # without site (-S), whose .pth files may load them first, decide
    # starts without importlib.resources and without typing, as the
    # annotations are never evaluated; verify-paper reads the bundled
    # files, and importlib.resources loads typing
    watch = ("importlib.resources", "typing")
    assert _modules_after(["decide", str(DATA / "A.edges")], flags=["-S"], watch=watch) \
        == [[1], []]
    assert _modules_after(["verify-paper"], flags=["-S"], watch=watch) \
        == [[0], ["importlib.resources", "typing"]]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "wordrep.cli", "decide", str(DATA / "K4.edges")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("Representable\n")


def test_console_script():
    exe = shutil.which("wordrep")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run([exe, "count-orientations", str(DATA / "K4.edges")],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "24\n"


def test_console_script_entry_resolves(capsys):
    # the [project.scripts] entry, resolved as an installer's script
    # resolves it, with no install: the module path and the function
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert project["scripts"] == {"wordrep": "wordrep.cli:main"}
    entry = importlib.metadata.EntryPoint("wordrep", project["scripts"]["wordrep"],
                                          "console_scripts")
    assert entry.load()(["count-orientations", str(DATA / "K4.edges")]) == 0
    assert capsys.readouterr() == ("24\n", "")


def test_closed_stdout_is_an_error_not_a_traceback():
    # a write to a pipe whose reader is gone raises BrokenPipeError, an
    # OSError: it must end as one error line and exit 2, never as a
    # traceback and exit 1 (which means "negative answer")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        for argv in (["decide", str(DATA / "M.edges")], ["census", "6", "--table"],
                     ["verify-paper", "--json"]):
            proc = subprocess.run(
                [sys.executable, "-m", "wordrep.cli", *argv], stdout=write_end,
                stderr=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": str(SRC)})
            assert proc.returncode == 2, argv
            assert proc.stderr == "error: [Errno 32] Broken pipe\n"
            assert "Traceback" not in proc.stderr
    finally:
        os.close(write_end)
