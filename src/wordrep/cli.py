"""Command-line front end, the one module that renders results: each
cmd_* returns (JSON payload, text, exit code), and main writes the payload
under --json and the text otherwise.

Exit codes: 0 for a positive or informational answer, 1 for a negative
answer to a yes/no query (non-representable, word not found, word does
not represent, a failed check run), 2 for usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .census import census, entropy_table
from .decision import NON_REPRESENTABLE, decide
from .errors import WordrepError
from .graphs import format_edge_list, read_edge_list
from .orientations import count_semi_transitive, format_orientation
from .verify import run_all_checks
from .words import format_word, graph_of_word, parse_word, represents
from .wordsearch import DEFAULT_K_MAX, find_word


def cmd_decide(args):
    d = decide(read_edge_list(args.graph))
    witness = None if d.witness is None else list(d.witness.arcs())
    payload = {"verdict": d.verdict, "witness": witness, "stats": d.stats._asdict()}
    # the search counters are only in the JSON's stats
    text = d.verdict + "\n" + ("" if d.witness is None else format_orientation(d.witness))
    return payload, text, 1 if d.verdict == NON_REPRESENTABLE else 0


def cmd_check_word(args):
    g = read_edge_list(args.graph)
    ok = represents(parse_word(args.word), g)
    return {"represents": ok}, f"represents: {str(ok).lower()}\n", 0 if ok else 1


def cmd_graph_of_word(args):
    g = graph_of_word(parse_word(args.word))
    return {"n": g.n, "edges": g.edges}, format_edge_list(g), 0


def cmd_count_orientations(args):
    count = count_semi_transitive(read_edge_list(args.graph))
    return {"count": count}, f"{count}\n", 0


def cmd_find_word(args):
    res = find_word(read_edge_list(args.graph), k_max=args.k_max)
    if res.word is None:
        return {"word": None, "k_tried": res.k_tried, "nodes": res.nodes}, "None\n", 1
    payload = {"word": res.word.letters, "k_tried": res.k_tried, "nodes": res.nodes}
    return payload, format_word(res.word) + "\n", 0


def cmd_census(args):
    rows = entropy_table(args.n) if args.table else [census(args.n)]
    lines = [f"{'n':>2}  {'a_n':>6}  {'b_n':>10}  {'entropy':>9}  nonrep"]
    for r in rows:
        ent = "-" if r.entropy is None else f"{r.entropy:.6f}"
        lines.append(
            f"{r.n:>2}  {r.a_n:>6}  {r.b_n:>10}  {ent:>9}  {len(r.nonrep_classes)}")
    payload = [r._asdict() for r in rows]
    return {"rows": payload} if args.table else payload[0], "\n".join(lines) + "\n", 0


def cmd_verify_paper(args):
    checks = run_all_checks()
    width = max(len(c.name) for c in checks)
    lines = [f"{'PASS' if c.passed else 'FAIL'}  {c.name:<{width}}  {c.detail}"
             for c in checks]
    passed = sum(c.passed for c in checks)
    lines.append(f"{len(checks)} checks, {passed} passed, {len(checks) - passed} failed")
    payload = {"checks": [{"name": c.name, "pass": c.passed, "detail": c.detail}
                          for c in checks],
               "all_pass": passed == len(checks)}
    return payload, "\n".join(lines) + "\n", 0 if payload["all_pass"] else 1


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
        payload, text, code = args.func(args)
        # written inside the try: a closed stdout is an OSError, so exit 2
        sys.stdout.write(json.dumps(payload, indent=2) + "\n" if args.json else text)
    except (WordrepError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
