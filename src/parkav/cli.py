"""Command-line interface.

Subcommands:

  count      one value: pk or pf count for a pattern list at a given size
  sequence   a whole row n = 1..n_max (bfile / csv / json)
  classes    generalized-parking class counts by family and m
  bijection  run a tree bijection forward (blocks -> tree) or backward
  verify     formula-vs-oracle sweeps; exit code 2 on any mismatch

Output is deterministic byte-for-byte for identical invocations; timing is
only emitted under --timing, which only csv and json accept.  Exit codes:
0 ok, 1 usage or parse error, 2 verification mismatch, 3 refused by a work
budget (BudgetExceeded) or by Python's recursion limit (RecursionError; no
route is known to reach it), 141 the reader of stdout went away
(BrokenPipeError; nothing more is printed).

Each subcommand's options are declared once, in ``COMMANDS``.  ``main``
first hands argv to ``read_plain``, which reads a plain argv (the
subcommand, then exact ``--option value`` pairs and switches, each at most
once) into the namespace argparse would build, without importing argparse.
Anything else (``-h``, an abbreviation, ``--n=5``, a repeat, a value that
starts with "-", every error) goes to ``build_parser()``, the argparse
parser built from the same table, so help and messages stay argparse's.
A command imports the modules it runs when it runs, and
``CLASS_FAMILIES`` resolves on first access.
"""

from __future__ import annotations

import sys
import time
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterator

from ._record import Record
from .permutations import BudgetExceeded, parse_pattern_set

if TYPE_CHECKING:
    from .counting import CountResult

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_BUDGET = 3
EXIT_PIPE = 141  # what a shell reports for a writer killed by SIGPIPE


def _notions() -> dict:
    """notion -> (the count at one n, the route whose row gives a sequence)"""
    from .counting import pf_count, pf_route, pk_count, pk_route

    return {"pk": (pk_count, pk_route), "pf": (pf_count, pf_route)}


def _class_families() -> dict:
    """family -> value(n, m) in name order, read from the one registry in generalized"""
    from .generalized import CLASS_FAMILIES

    return {name: CLASS_FAMILIES[name][1] for name in sorted(CLASS_FAMILIES)}


def _tree_families() -> dict:
    from .bijections import FAMILIES

    return FAMILIES


def __getattr__(name: str):
    # the registry loads with the commands that read it, not with cli
    if name == "CLASS_FAMILIES":
        return _class_families()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    count, _ = _notions()[args.notion]
    t0 = time.perf_counter()
    result = count(parse_pattern_set(args.patterns), args.n)
    if args.format == "plain":
        out.write(f"{result.value}\n")
    else:
        _emit_records([_record(args.n, result, t0)], args.format, args.timing, out)
    return EXIT_OK


def cmd_sequence(args, out) -> int:
    from .counting import row_of

    _, route = _notions()[args.notion]
    rows = row_of(route(parse_pattern_set(args.patterns)), args.n_max)
    _emit_records(_row_records(rows), args.format, args.timing, out)
    return EXIT_OK


def cmd_classes(args, out) -> int:
    from .counting import row_of
    from .generalized import CLASS_FAMILIES

    rows = row_of(CLASS_FAMILIES[args.family], args.n_max, args.m)
    _emit_records(_row_records(rows), args.format, args.timing, out)
    return EXIT_OK


def cmd_bijection(args, out) -> int:
    from . import bijections, trees
    from .parking import format_blocks, parse_blocks

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


# -- arguments ----------------------------------------------------------------

def ascii_int(text: str) -> int:
    """An optional "-" and then ASCII digits, read as an int; anything else
    (a Unicode digit, "_", "+", a blank) is a ValueError."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid int value: {text!r}")
    return int(text)


ascii_int.__name__ = "int"  # argparse names the type in its message, as it did for type=int


def positive_int(text: str) -> int:
    n = ascii_int(text)
    if n < 1:
        from argparse import ArgumentTypeError

        raise ArgumentTypeError(f"must be at least 1, got {n}")
    return n


REQUIRED = object()  # the default of an option that must be given


class Option(Record):
    """One option of a subcommand.  reader turns the text into the value
    (None keeps the text; bool makes a switch that takes no value); choices
    is a list, or a registry function whose keys are the choices, called
    only when the option is read."""

    __slots__ = ("reader", "default", "choices", "help")

    def __init__(self, reader, default, choices=None, help=None) -> None:
        super().__init__(reader, default, choices, help)


FORMATS = ["bfile", "csv", "json"]
TIMED_FORMATS = ["csv", "json"]  # the formats whose records carry elapsed_ms

# subcommand -> (help, handler, {option: Option}); build_parser and the
# direct reader both read this one table
COMMANDS = {
    "count": ("one exact count", cmd_count, {
        "--notion": Option(None, REQUIRED, _notions),
        "--patterns": Option(None, REQUIRED, help='comma-separated, e.g. "123,132"'),
        "--n": Option(ascii_int, REQUIRED),
        "--format": Option(None, "plain", ["plain", *FORMATS]),
        "--timing": Option(bool, False),
    }),
    "sequence": ("values for n = 1..n_max", cmd_sequence, {
        "--notion": Option(None, REQUIRED, _notions),
        "--patterns": Option(None, REQUIRED),
        "--n-max": Option(positive_int, REQUIRED),
        "--format": Option(None, "bfile", FORMATS),
        "--timing": Option(bool, False),
    }),
    "classes": ("generalized parking-function class counts", cmd_classes, {
        "--family": Option(None, REQUIRED, _class_families),
        "--m": Option(positive_int, REQUIRED),
        "--n-max": Option(positive_int, REQUIRED),
        "--format": Option(None, "bfile", FORMATS),
        "--timing": Option(bool, False),
    }),
    "bijection": ("blocks <-> tree", cmd_bijection, {
        "--family": Option(None, REQUIRED, _tree_families),
        "--direction": Option(None, REQUIRED, ["forward", "backward"]),
        "--input": Option(None, "-", help="path, or - for stdin"),
    }),
    "verify": ("formula-vs-oracle sweeps", cmd_verify, {
        "--suite": Option(None, "all", help="all, or comma-joined subset of formulas,bijections,classes"),
        "--n-max": Option(positive_int, 6),
        "--verbose": Option(bool, False),
    }),
}


def _choices(option: Option) -> list | None:
    choices = option.choices
    return list(choices()) if callable(choices) else choices


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="parkav",
        description="Exact counts and bijections for pattern-restricted parking functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, fn, options) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag, option in options.items():
            if option.reader is bool:
                p.add_argument(flag, action="store_true")
                continue
            given = {"required": True} if option.default is REQUIRED else {"default": option.default}
            p.add_argument(flag, type=option.reader, choices=_choices(option), help=option.help, **given)
        p.set_defaults(fn=fn)
    return parser


def read_plain(argv: list[str]):
    """The namespace argparse would build from argv, when argv is plain: the
    subcommand, then exact ``--option value`` pairs and switches in any
    order, each at most once, every value read and checked as argparse
    would and none starting with "-" (a lone "-" is a value).  None for
    anything else, which argparse then reads, with its help and messages."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, fn, options = COMMANDS[argv[0]]
    values = {}
    i = 1
    while i < len(argv):
        flag = argv[i]
        option = options.get(flag)
        if option is None or _dest(flag) in values:
            return None
        if option.reader is bool:
            values[_dest(flag)] = True
            i += 1
            continue
        if i + 1 == len(argv) or (argv[i + 1].startswith("-") and argv[i + 1] != "-"):
            return None
        try:
            value = option.reader(argv[i + 1]) if option.reader else argv[i + 1]
        except Exception:  # ValueError, or argparse's ArgumentTypeError: argparse words the message
            return None
        if option.choices is not None and value not in _choices(option):
            return None
        values[_dest(flag)] = value
        i += 2
    for flag, option in options.items():
        if _dest(flag) not in values:
            if option.default is REQUIRED:
                return None
            values[_dest(flag)] = option.default
    return SimpleNamespace(command=argv[0], fn=fn, **values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = read_plain(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as e:
            return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    if getattr(args, "timing", False) and args.format not in TIMED_FORMATS:
        print(f"error: --timing needs --format csv or json; {args.format} carries no elapsed_ms", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args, sys.stdout)
    except (BudgetExceeded, RecursionError) as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except BrokenPipeError:
        return EXIT_PIPE
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
