"""Command-line front end.

Exit codes: 0 for a positive or informational answer, 1 for a negative
answer to a yes/no query (non-representable, word not found, word does
not represent, a failed check run), 2 for usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .census import census, entropy_table, format_table
from .decision import (
    NON_REPRESENTABLE,
    decide,
    decision_to_json,
    decision_to_text,
)
from .errors import WordrepError
from .graphs import format_edge_list, read_edge_list
from .orientations import count_semi_transitive
from .verify import checks_to_json, format_report, run_all_checks
from .words import format_word, graph_of_word, parse_word, represents
from .wordsearch import DEFAULT_K_MAX, find_word


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def cmd_decide(args) -> int:
    g = read_edge_list(args.graph)
    d = decide(g)
    if args.json:
        _emit_json(decision_to_json(d))
    else:
        sys.stdout.write(decision_to_text(d))
    return 1 if d.verdict == NON_REPRESENTABLE else 0


def cmd_check_word(args) -> int:
    g = read_edge_list(args.graph)
    w = parse_word(args.word)
    ok = represents(w, g)
    if args.json:
        _emit_json({"represents": ok})
    else:
        print(f"represents: {'true' if ok else 'false'}")
    return 0 if ok else 1


def cmd_graph_of_word(args) -> int:
    g = graph_of_word(parse_word(args.word))
    if args.json:
        _emit_json({"n": g.n, "edges": [list(e) for e in g.edges]})
    else:
        sys.stdout.write(format_edge_list(g))
    return 0


def cmd_count_orientations(args) -> int:
    g = read_edge_list(args.graph)
    count = count_semi_transitive(g)
    if args.json:
        _emit_json({"count": count})
    else:
        print(count)
    return 0


def cmd_find_word(args) -> int:
    g = read_edge_list(args.graph)
    res = find_word(g, k_max=args.k_max)
    if args.json:
        _emit_json({
            "word": None if res.word is None else list(res.word.letters),
            "k_tried": res.k_tried,
            "nodes": res.nodes,
        })
    elif res.word is None:
        print("None")
    else:
        print(format_word(res.word))
    return 0 if res.word is not None else 1


def cmd_census(args) -> int:
    rows = entropy_table(args.n) if args.table else [census(args.n)]
    if args.json:
        payload = {"rows": [r.to_json() for r in rows]}
        _emit_json(payload if args.table else payload["rows"][0])
    else:
        sys.stdout.write(format_table(rows))
    return 0


def cmd_verify_paper(args) -> int:
    checks = run_all_checks()
    if args.json:
        _emit_json(checks_to_json(checks))
    else:
        sys.stdout.write(format_report(checks))
    return 0 if all(c.passed for c in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordrep",
        description="Decide word-representability of small graphs via "
                    "semi-transitive orientations; find representing words; "
                    "count the class at small n.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true",
                       help="emit JSON instead of text")
        p.set_defaults(func=func)
        return p

    p = add("decide", cmd_decide,
            "decide word-representability; the witness is a semi-transitive orientation")
    p.add_argument("graph", help="edge-list file")

    p = add("check-word", cmd_check_word,
            "check whether a word represents a graph")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--word", required=True,
                   help="word (decimal tokens, or compact digits like 1213423)")

    p = add("graph-of-word", cmd_graph_of_word,
            "print the graph whose edges are the word's alternating pairs")
    p.add_argument("--word", required=True)

    p = add("count-orientations", cmd_count_orientations,
            "count all semi-transitive orientations exactly")
    p.add_argument("graph", help="edge-list file")

    p = add("find-word", cmd_find_word,
            "search for a k-uniform representing word, k = 1..k-max")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--k-max", type=int, default=DEFAULT_K_MAX,
                   help=f"largest multiplicity to try (default {DEFAULT_K_MAX})")

    p = add("census", cmd_census,
            "count representable graphs at a given vertex count")
    p.add_argument("n", type=int)
    p.add_argument("--table", action="store_true",
                   help="print rows for 2..n instead of the single row")

    p = add("verify-paper", cmd_verify_paper,
            "run the bundled reference checks and print a pass/fail table")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (WordrepError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
