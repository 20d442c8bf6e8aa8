"""Traced bootstrap: one ``parkav`` CLI call with spans around each layer.

Usage: python -X importtime perfbench/trace_child.py OP_ID CLI_ARGS...

Wraps the entry points listed in ``LAYERS`` (every module attribute bound to
one of them, so names imported with ``from ... import`` are caught too), then
calls ``parkav.cli.main(CLI_ARGS)``.  Each call of a wrapped function, and
each resume of a wrapped generator, is a span: name, start, end and parent,
kept in memory; the op id is the same for every span of this process.  Self
time (a span minus the time its child spans cover) is summed per layer as
spans close; at exit the sums and call counts are printed as one
``perfbench-trace`` JSON line on stderr.  stdout carries the CLI's own output untouched.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

from parkav import (
    bijections,
    cli,
    counting,
    generalized,
    oracle,
    parking,
    paths,
    permutations,
    trees,
)

TRACE_PREFIX = "perfbench-trace "

# layer name -> the functions whose calls it times
LAYERS = {
    "cli.main": [(cli, "main")],
    "counting.triangle": [
        (counting, "pk312_table"),
        (counting, "pk321_table"),
        (counting, "first_run_triangle"),
    ],
    "counting.closed_form": [(counting, "pk_count"), (counting, "pf_count")],
    "counting.weighted_sum": [(counting, "generic_weighted_pk")],
    "permutations.s3_profile": [(permutations, "_s3_profile")],
    "permutations.containment": [
        (permutations, "s3_containment_mask"),
        (permutations, "avoids_all"),
    ],
    "permutations.ell_weight": [(permutations, "ell_weight")],
    "permutations.avoidance_class": [(permutations, "avoidance_class")],
    "parking.simulate": [(parking, "simulate")],
    "parking.blocks": [(parking, "to_blocks")],
    "oracle.profiles": [(oracle, "_profiles")],
    "oracle.brute_general": [(oracle, "_brute_general")],
    "generalized.metasylvester_mpark": [(generalized, "metasylvester_mpark")],
    "generalized.formula": [
        (generalized, "hyposylvester_multipark"),
        (generalized, "metasylvester_multipark"),
        (generalized, "hypoplactic_mpark"),
        (generalized, "hyposylvester_mpark"),
    ],
    "generalized.evaluation_oracle": [
        (generalized, "mpark_class_count_by_evaluations"),
        (generalized, "multipark_class_count_by_evaluations"),
    ],
    "bijections.forward": [(bijections, "forward")],
    "bijections.backward": [(bijections, "backward")],
    "bijections.enumerate_family": [(bijections, "enumerate_pf_family")],
    "trees.codec": [(trees, "parse_tree"), (trees, "serialize_tree")],
}

# generators: each resume is a span of the layer, each item is counted
GENERATORS = {
    "parking.enumerate": (parking, "enumerate_parking_functions"),
    "paths.enumerate": (paths, "enumerate_paths"),
}

# generators whose items are counted but not timed (the consumer's time)
COUNTED = {"permutations.perms_scanned": (permutations, "all_permutations")}


class Tracer:
    """Spans in parallel arrays, with self time summed per layer as they close.

    ``stack`` holds [span index, layer id, time covered by child spans].
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer = array("B")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[list] = []
        self.self_s: list[float] = []
        self.calls: list[int] = []  # outermost calls; generators: instances made
        self.items: Counter[str] = Counter()

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self.names.index(name)

    def _open(self, lid: int) -> None:
        stack = self.stack
        self.layer.append(lid)
        self.parent.append(stack[-1][0] if stack else -1)
        self.end.append(0.0)
        stack.append([len(self.start), lid, 0.0])
        self.start.append(time.perf_counter())

    def _close(self) -> None:
        end = time.perf_counter()
        idx, lid, children = self.stack.pop()
        self.end[idx] = end
        duration = end - self.start[idx]
        self.self_s[lid] += duration - children
        if self.stack:
            self.stack[-1][2] += duration

    def wrap(self, name: str, fn):
        lid = self._id(name)
        stack, calls, open_, close = self.stack, self.calls, self._open, self._close

        def traced(*args, **kwargs):
            # recursion, or one triangle building another: a single span
            if stack and stack[-1][1] == lid:
                return fn(*args, **kwargs)
            calls[lid] += 1
            open_(lid)
            try:
                return fn(*args, **kwargs)
            finally:
                close()

        return traced

    def wrap_generator(self, name: str, fn):
        lid = self._id(name)
        calls, items, open_, close = self.calls, self.items, self._open, self._close

        def traced(*args, **kwargs):
            calls[lid] += 1
            it = fn(*args, **kwargs)
            while True:
                open_(lid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    close()
                items[name] += 1
                yield item

        return traced

    def wrap_counted(self, name: str, fn):
        items = self.items

        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                items[name] += 1
                yield item

        return counted

    def summary(self, op: str) -> dict:
        return {
            "op": op,
            "spans": len(self.start),
            "self_s": dict(zip(self.names, self.self_s)),
            "calls": dict(zip(self.names, self.calls)),
            "items": dict(self.items),
        }


def rebind(original, replacement) -> None:
    """Point every parkav module attribute bound to ``original`` at
    ``replacement``, including values inside module-level dicts of tuples
    (such as counting._DISPATCH)."""
    for name, module in list(sys.modules.items()):
        if not (name == "parkav" or name.startswith("parkav.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, dict):
                for k, v in value.items():
                    if isinstance(v, tuple) and any(x is original for x in v):
                        value[k] = tuple(replacement if x is original else x for x in v)


def install(tracer: Tracer) -> None:
    for name, targets in LAYERS.items():
        for module, attr in targets:
            fn = getattr(module, attr)
            rebind(fn, tracer.wrap(name, fn))
    for name, (module, attr) in GENERATORS.items():
        fn = getattr(module, attr)
        rebind(fn, tracer.wrap_generator(name, fn))
    for name, (module, attr) in COUNTED.items():
        fn = getattr(module, attr)
        rebind(fn, tracer.wrap_counted(name, fn))


def main(argv: list[str]) -> int:
    op, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        sys.stderr.write(TRACE_PREFIX + json.dumps(tracer.summary(op)) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
