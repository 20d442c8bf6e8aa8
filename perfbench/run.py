#!/usr/bin/env python3
"""End-to-end benchmark of the parkav CLI.

    python3 perfbench/run.py --workload interactive|rows|exhaustive \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the CLI is imported from its ``src``.  One
client in a closed loop: every operation is a fresh ``python -m parkav``
process, started only after the previous one has exited, so each process
starts with cold ``lru_cache``s as a user's would.

A run warms the bytecode cache, then runs passes of the workload (see
workloads.py) until the next pass would end after ``--seconds``; there is
always at least one pass.  Before each pass a few fresh interpreters time
``import parkav.cli`` plus ``build_parser()`` from inside (set-up).  Every
output is checked against pins.json or, for bijections, by a backward/forward
roundtrip; a nonzero exit, a timeout or a wrong output is a failed operation.

The host's speed drifts by tens of percent within seconds, and each vCPU
drifts on its own.  So the run pins itself and its children to one CPU, every
timed process is bracketed by a calibration (a fresh isolated interpreter
doing fixed work, which no change to parkav can touch), and the process's
time is scaled to a host on which the calibration takes REFERENCE_S (see
Calibrated).  The report prints the raw times too.

--trace 0 reports the end-to-end metrics; --trace 1 runs the same operations
through trace_child.py and reports per-layer self times and counts per pass.
The last line of stdout is one JSON object; the lines before it are a
readable report with sample counts and quartiles.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Op, make_pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_CHILD = HERE / "trace_child.py"
TRACE_PREFIX = "perfbench-trace "

SETUP_WARMUPS = 2  # the first start of a checkout compiles bytecode
SETUP_STARTS_PER_PASS = 3  # spread over the run, so its median spans the run
SETUP_SNIPPET = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import parkav.cli\n"
    "parkav.cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)
# the calibration kernel: start-up plus integer recurrences, like a short CLI
# call; run with -I -S, so neither the environment nor site-packages reach it
CALIBRATION_SNIPPET = (
    "t = 0\n"
    "for k in range(150):\n"
    "    a, b = 0, 1\n"
    "    for _ in range(200):\n"
    "        a, b = b, a + b * (k % 3 + 1)\n"
    "    t += a % 1000003\n"
)
CALIBRATION_REPEATS = 3  # per calibration; the median of the repeats is kept
REFERENCE_S = 0.025  # reported times are scaled to a kernel that takes this long
HARD_LIMIT_S = 170.0  # a run must end within 180 s, even when the program hangs

MODULES = (
    "cli",
    "counting",
    "permutations",
    "parking",
    "paths",
    "generalized",
    "oracle",
    "bijections",
    "trees",
    "series",
)
IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|\s+parkav\.(\w+)$")

# per-layer metric -> (summary section, layer name); "calls" counts outermost
# calls (generators: instances made), "items" counts generator items
LAYER_METRICS = {
    "cli.self_s": ("self_s", "cli.main"),
    "counting.triangle_s": ("self_s", "counting.triangle"),
    "counting.triangle_builds": ("calls", "counting.triangle"),
    "counting.closed_form_s": ("self_s", "counting.closed_form"),
    "counting.weighted_sum_s": ("self_s", "counting.weighted_sum"),
    "permutations.s3_profile_s": ("self_s", "permutations.s3_profile"),
    "permutations.containment_s": ("self_s", "permutations.containment"),
    "permutations.ell_weight_s": ("self_s", "permutations.ell_weight"),
    "permutations.avoidance_class_s": ("self_s", "permutations.avoidance_class"),
    "permutations.perms_scanned": ("items", "permutations.perms_scanned"),
    "parking.enumerate_s": ("self_s", "parking.enumerate"),
    "parking.functions_enumerated": ("items", "parking.enumerate"),
    "parking.simulate_s": ("self_s", "parking.simulate"),
    "parking.blocks_s": ("self_s", "parking.blocks"),
    "oracle.profiles_s": ("self_s", "oracle.profiles"),
    "oracle.brute_general_s": ("self_s", "oracle.brute_general"),
    "oracle.enumerations": ("calls", "parking.enumerate"),
    "paths.enumerate_s": ("self_s", "paths.enumerate"),
    "paths.paths_enumerated": ("items", "paths.enumerate"),
    "generalized.metasylvester_mpark_s": ("self_s", "generalized.metasylvester_mpark"),
    "generalized.formula_s": ("self_s", "generalized.formula"),
    "generalized.evaluation_oracle_s": ("self_s", "generalized.evaluation_oracle"),
    "bijections.forward_s": ("self_s", "bijections.forward"),
    "bijections.backward_s": ("self_s", "bijections.backward"),
    "bijections.calls": ("calls", ("bijections.forward", "bijections.backward")),
    "bijections.enumerate_family_s": ("self_s", "bijections.enumerate_family"),
    "trees.codec_s": ("self_s", "trees.codec"),
}


def calibrate() -> float:
    """Seconds the calibration kernel takes now (median of a few repeats)."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-I", "-S", "-c", CALIBRATION_SNIPPET],
            stdin=subprocess.DEVNULL,
            capture_output=True,
            timeout=10,
            check=True,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Calibrated:
    """Scales measured times to the reference host speed.

    Each timed process is followed by a calibration; the process's time is
    multiplied by REFERENCE_S over the mean of the calibrations just before
    and just after it.  A slowdown of the host slows the calibration about as
    much as the process and cancels out, while a change in parkav moves only
    the process.
    """

    def __init__(self) -> None:
        self.last = calibrate()
        self.kernel_s: list[float] = [self.last]

    def factor(self) -> float:
        """Call right after a timed process; returns its scale factor."""
        after = calibrate()
        self.kernel_s.append(after)
        factor = REFERENCE_S / ((self.last + after) / 2)
        self.last = after
        return factor


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Sample:
    """One CLI process: what ran, how long it took and whether it was right."""

    label: str
    seconds: float  # scaled to the reference host speed
    ok: bool
    why: str = ""
    trace: dict | None = None
    imports_ms: dict[str, float] = field(default_factory=dict)
    raw_seconds: float = 0.0  # as measured
    factor: float = 1.0  # seconds / raw_seconds


def child_env() -> dict[str, str]:
    """The environment of every CLI process: parkav from this checkout, and
    bytecode cached beside the sources as an installed package has it,
    whatever the caller's settings."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


class Runner:
    def __init__(self, pins: dict, trace: bool, deadline: float):
        self.pins = pins
        self.trace = trace
        self.deadline = deadline
        self.env = child_env()
        self.op_count = 0
        self.clock: Calibrated | None = None  # set once the bytecode is warm

    def call(self, argv: tuple[str, ...], stdin: str = "") -> tuple[Sample, str]:
        """Run one CLI process; returns the sample and its stdout."""
        label = " ".join(argv)
        self.op_count += 1
        if self.trace:
            cmd = [sys.executable, "-X", "importtime", str(TRACE_CHILD), str(self.op_count)]
        else:
            cmd = [sys.executable, "-m", "parkav"]
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            return Sample(label, 0.0, False, "not started: run time limit reached"), ""
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd + list(argv),
                input=stdin,
                capture_output=True,
                text=True,
                env=self.env,
                cwd=ROOT,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return self._timed(Sample(label, 0.0, False, "timed out"), t0), ""
        sample = self._timed(Sample(label, 0.0, proc.returncode == 0), t0)
        if not sample.ok:
            sample.why = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        if self.trace:
            self._read_trace(sample, proc.stderr)
        return sample, proc.stdout

    def _timed(self, sample: Sample, t0: float) -> Sample:
        sample.raw_seconds = time.perf_counter() - t0
        sample.factor = self.clock.factor()
        sample.seconds = sample.raw_seconds * sample.factor
        return sample

    def setup_times(self, starts: int) -> list[float]:
        """Seconds spent on import plus parser construction, per fresh
        interpreter, timed inside it and scaled like every process."""
        out = []
        for _ in range(starts):
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_SNIPPET],
                capture_output=True,
                text=True,
                env=self.env,
                cwd=ROOT,
                timeout=max(1.0, self.deadline - time.perf_counter()),
                check=True,
            )
            raw = float(proc.stdout)
            out.append(raw * self.clock.factor() if self.clock else raw)
        return out

    @staticmethod
    def _read_trace(sample: Sample, stderr: str) -> None:
        for line in stderr.splitlines():
            m = IMPORT_LINE.match(line)
            if m:
                sample.imports_ms[m.group(2)] = int(m.group(1)) / 1000
            elif line.startswith(TRACE_PREFIX):
                sample.trace = json.loads(line[len(TRACE_PREFIX) :])
        if sample.ok and sample.trace is None:
            sample.ok, sample.why = False, "traced process printed no trace"

    def run(self, op: Op) -> list[Sample]:
        if op.check == "roundtrip":
            return self._roundtrip(op)
        sample, out = self.call(op.argv)
        if sample.ok and not self.output_ok(op, out):
            sample.ok, sample.why = False, f"wrong output: {out[:200]!r}"
        return [sample]

    def _roundtrip(self, op: Op) -> list[Sample]:
        _, family, tree = op.argv
        base = ("bijection", "--family", family, "--direction")
        back, blocks = self.call(base + ("backward",), tree + "\n")
        if not back.ok:
            skipped = Sample(" ".join(base + ("forward",)), 0.0, False, "backward failed")
            return [back, skipped]
        fwd, again = self.call(base + ("forward",), blocks)
        if fwd.ok and again.strip() != tree:
            fwd.ok = False
            fwd.why = f"roundtrip of {tree} gave {again.strip()} via {blocks.strip()}"
        return [back, fwd]

    def output_ok(self, op: Op, out: str) -> bool:
        if op.check == "output":
            return digest(out) == self.pins["outputs"].get(op.key)
        if op.check == "value":
            table = self.pins["values"].get(op.key, [])
            n = int(op.argv[-1])
            return 1 <= n <= len(table) and digest(out.strip()) == table[n - 1]
        if op.check == "classes":
            table = self.pins["classes"].get(op.key, [])
            rows = [line.split(" ") for line in out.splitlines()]
            return len(rows) == int(op.argv[-1]) <= len(table) and all(
                row[0] == str(n) and len(row) == 2 and digest(row[1]) == table[n - 1]
                for n, row in enumerate(rows, start=1)
            )
        raise ValueError(f"unknown check {op.check!r}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by its continued
    fraction (modified Lentz)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betainc(b, a, 1.0 - x)
    tiny = 1e-300
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    ) / a
    c, d = 1.0, 1.0 / max(abs(1.0 - (a + b) * x / (a + 1)), tiny)
    f = d
    for m in range(1, 500):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            f *= c * d
        if abs(c * d - 1.0) < 1e-13:
            break
    return front * f


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A mean of all order statistics, weighted by how likely each is to be the
    p-quantile (a Beta(p(n+1), (1-p)(n+1)) distribution over ranks).  Where
    the samples are sparse, as in the tail of a mix of operations, a single
    order statistic jumps between neighbouring operations from run to run;
    the weighted mean moves smoothly and its spread over seeds is about a
    third smaller (0.10 to 0.07 for op_p90_ms on interactive).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2:
        return ordered[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum(v * (hi - lo) for v, lo, hi in zip(ordered, cdf, cdf[1:]))


def describe(name: str, values: list[float], unit: str) -> str:
    q1, q2, q3 = quartiles(values)
    return f"  {name:<16} median {q2:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"


def end_to_end(setup: list[float], walls: list[float], latencies: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (quantile(latencies, 0.5), "ms"),
        "op_p90_ms": (quantile(latencies, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }


def per_layer(walls: list[float], samples: list[Sample]) -> dict:
    """Self times are scaled by their process's factor, like its wall time."""
    passes = len(walls)
    traced = [s for s in samples if s.trace]
    metrics = {}
    for metric, (section, layers) in LAYER_METRICS.items():
        layers = layers if isinstance(layers, tuple) else (layers,)
        timed = section == "self_s"
        total = sum(
            s.trace[section].get(layer, 0) * (s.factor if timed else 1)
            for s in traced
            for layer in layers
        )
        metrics[metric] = (total / passes, "s" if timed else "count")
    for module in MODULES:
        times = [s.imports_ms[module] * s.factor for s in samples if module in s.imports_ms]
        metrics[f"{module}.import_ms"] = (statistics.median(times) if times else 0.0, "ms")
    metrics["trace.wall_s"] = (statistics.median(walls), "s")
    metrics["trace.spans"] = (sum(s.trace["spans"] for s in traced) / passes, "count")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "parkav" / "cli.py").is_file():
        print(f"perfbench: no parkav sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    pins = json.loads((HERE / "pins.json").read_text())
    # calibrations must run on the CPU the timed processes run on; children
    # inherit the affinity
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = time.perf_counter() + HARD_LIMIT_S
    runner = Runner(pins, bool(args.trace), deadline)

    runner.setup_times(SETUP_WARMUPS)
    runner.clock = Calibrated()
    start = time.perf_counter()
    setup: list[float] = []
    samples: list[Sample] = []
    walls: list[float] = []
    while True:
        if not args.trace:
            setup += runner.setup_times(SETUP_STARTS_PER_PASS)
        done = [s for op in make_pass(args.workload, args.seed, len(walls)) for s in runner.run(op)]
        samples += done
        walls.append(sum(s.seconds for s in done))
        elapsed = time.perf_counter() - start
        if elapsed * (len(walls) + 1) / len(walls) > args.seconds or time.perf_counter() > deadline:
            break

    failed = [s for s in samples if not s.ok]
    print(
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} passes={len(walls)} operations={len(samples)} "
        f"failed={len(failed)} error_rate={len(failed) / len(samples):.4g}"
    )
    for s in failed[:10]:
        print(f"  FAILED {s.label}: {s.why}")
    if args.trace:
        metrics = per_layer(walls, samples)
        for name, (value, unit) in metrics.items():
            print(f"  {name:<36} {value:.6g} {unit}")
    else:
        latencies = [s.seconds * 1000 for s in samples if s.seconds > 0]
        metrics = end_to_end(setup, walls, latencies)
        beyond = sum(v > metrics["op_p90_ms"][0] for v in latencies)
        print(describe("setup_s", setup, "s"))
        print(describe("wall_s", walls, "s"))
        print(describe("op_ms", latencies, "ms") + f"  p90 {metrics['op_p90_ms'][0]:.6g}"
              f" ({beyond} beyond)")
        print(describe("op_raw_ms", [s.raw_seconds * 1000 for s in samples if s.seconds > 0], "ms"))
        print(f"  peak_rss_mb      {metrics['peak_rss_mb'][0]:.6g} MB")
    print(describe("kernel_ms", [t * 1000 for t in runner.clock.kernel_s], "ms")
          + f"  (reference {REFERENCE_S * 1000:g} ms)")
    result = {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
