"""Command-line interface.

Subcommands:

  count      one value: pk or pf count for a pattern list at a given size
  sequence   a whole row n = 1..n_max (bfile / csv / json)
  classes    generalized-parking class counts by family and m
  bijection  run a tree bijection forward (blocks -> tree) or backward
  verify     formula-vs-oracle sweeps; exit code 2 on any mismatch

Output is deterministic byte-for-byte for identical invocations; timing is
only emitted under --timing.  Exit codes: 0 ok, 1 usage or parse error,
2 verification mismatch, 3 refused by a work budget (BudgetExceeded) or
by Python's recursion limit (RecursionError; no route is known to reach it).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Iterator

from . import bijections, generalized, trees
from .counting import CountResult, pf_count, pf_route, pk_count, pk_route, row_of
from .parking import format_blocks, parse_blocks
from .permutations import BudgetExceeded, parse_pattern_set

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_BUDGET = 3

# family -> value(n, m), read from the one registry in generalized
CLASS_FAMILIES = {name: value for name, (_, value, _) in generalized.CLASS_FAMILIES.items()}

# notion -> (the count at one n, the route whose row gives a sequence)
NOTIONS = {"pk": (pk_count, pk_route), "pf": (pf_count, pf_route)}


def _record(n: int, result: CountResult, t0: float) -> dict:
    elapsed_ms = round((time.perf_counter() - t0) * 1000, 3)
    return {"n": n, "value": result.value, "method": result.method, "elapsed_ms": elapsed_ms}


def _row_records(rows: Iterator[tuple[int, CountResult]]) -> list[dict]:
    """One record per n; elapsed_ms is the time the row took to yield that n."""
    records = []
    t0 = time.perf_counter()
    for n, result in rows:
        records.append(_record(n, result, t0))
        t0 = time.perf_counter()
    return records


def _emit_records(records: list[dict], fmt: str, timing: bool, out) -> None:
    if fmt == "bfile":
        for r in records:
            out.write(f"{r['n']} {r['value']}\n")
        return
    if fmt == "csv":
        cols = ["n", "value", "method"] + (["elapsed_ms"] if timing else [])
        out.write(",".join(cols) + "\n")
        for r in records:
            out.write(",".join(str(r[c]) for c in cols) + "\n")
        return
    if fmt == "json":
        import json

        if not timing:
            records = [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in records]
        out.write(json.dumps(records, indent=None, separators=(",", ":")) + "\n")
        return
    raise ValueError(f"unknown format {fmt!r}")


def cmd_count(args, out) -> int:
    t0 = time.perf_counter()
    count, _ = NOTIONS[args.notion]
    result = count(parse_pattern_set(args.patterns), args.n)
    if args.format == "plain":
        out.write(f"{result.value}\n")
    else:
        _emit_records([_record(args.n, result, t0)], args.format, args.timing, out)
    return EXIT_OK


def cmd_sequence(args, out) -> int:
    _, route = NOTIONS[args.notion]
    rows = row_of(route(parse_pattern_set(args.patterns)), args.n_max)
    _emit_records(_row_records(rows), args.format, args.timing, out)
    return EXIT_OK


def cmd_classes(args, out) -> int:
    rows = row_of(generalized.CLASS_FAMILIES[args.family], args.n_max, args.m)
    _emit_records(_row_records(rows), args.format, args.timing, out)
    return EXIT_OK


def cmd_bijection(args, out) -> int:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input) as f:
            text = f.read()
    text = text.strip()
    if args.direction == "forward":
        blocks = parse_blocks(text)
        tree = bijections.forward(blocks, args.family)
        out.write(trees.serialize_tree(tree) + "\n")
    else:
        tree = trees.parse_tree(text)
        blocks = bijections.backward(tree, args.family)
        out.write(format_blocks(blocks) + "\n")
    return EXIT_OK


def cmd_verify(args, out) -> int:
    from . import oracle

    for suite, reached in oracle.checked_range(args.n_max, args.suite).items():
        if reached < args.n_max:
            print(f"note: suite {suite} checked n <= {reached}, not {args.n_max}", file=sys.stderr)
    reports = oracle.verify_all(args.n_max, args.suite)
    bad = 0
    for report in reports:
        if not report.agree or args.verbose:
            out.write(report.line() + "\n")
        if not report.agree:
            bad += 1
    out.write(f"{len(reports)} checks, {bad} mismatches\n")
    return EXIT_OK if bad == 0 else EXIT_MISMATCH


def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parkav",
        description="Exact counts and bijections for pattern-restricted parking functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="one exact count")
    p.add_argument("--notion", choices=list(NOTIONS), required=True)
    p.add_argument("--patterns", required=True, help='comma-separated, e.g. "123,132"')
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["plain", "bfile", "csv", "json"], default="plain")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("sequence", help="values for n = 1..n_max")
    p.add_argument("--notion", choices=list(NOTIONS), required=True)
    p.add_argument("--patterns", required=True)
    p.add_argument("--n-max", type=positive_int, required=True)
    p.add_argument("--format", choices=["bfile", "csv", "json"], default="bfile")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(fn=cmd_sequence)

    p = sub.add_parser("classes", help="generalized parking-function class counts")
    p.add_argument("--family", choices=sorted(CLASS_FAMILIES), required=True)
    p.add_argument("--m", type=positive_int, required=True)
    p.add_argument("--n-max", type=positive_int, required=True)
    p.add_argument("--format", choices=["bfile", "csv", "json"], default="bfile")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(fn=cmd_classes)

    p = sub.add_parser("bijection", help="blocks <-> tree")
    p.add_argument("--family", choices=list(bijections.FAMILIES), required=True)
    p.add_argument("--direction", choices=["forward", "backward"], required=True)
    p.add_argument("--input", default="-", help="path, or - for stdin")
    p.set_defaults(fn=cmd_bijection)

    p = sub.add_parser("verify", help="formula-vs-oracle sweeps")
    p.add_argument(
        "--suite",
        default="all",
        help="all, or comma-joined subset of formulas,bijections,classes",
    )
    p.add_argument("--n-max", type=positive_int, default=6)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args, sys.stdout)
    except (BudgetExceeded, RecursionError) as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
