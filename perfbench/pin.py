#!/usr/bin/env python3
"""Rebuild pins.json, the expected outputs the benchmark checks against.

    python3 perfbench/pin.py

Run from the root of a checkout whose CLI output is known to be right.  CLI
output is byte-identical by contract, so a pin changes only when a value does.

- outputs: digest of the stdout of every fixed rows/exhaustive invocation
- values:  digest of every count the interactive workload can ask for, per
           (notion, patterns), for n = 1..PK_N_MAX or PF_N_MAX
- classes: digest of every class count it can ask for, per (family, m), for
           n = 1..CLASSES_N_MAX
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from parkav.cli import CLASS_FAMILIES  # noqa: E402
from parkav.counting import pf_count, pk_count  # noqa: E402
from parkav.permutations import parse_pattern_set  # noqa: E402
from run import digest  # noqa: E402
from workloads import (  # noqa: E402
    CLASSES_M_MAX,
    CLASSES_N_MAX,
    EXHAUSTIVE,
    PF_CLOSED_FORM_SETS,
    PF_N_MAX,
    PK_N_MAX,
    PK_SUBSETS,
    ROWS,
)


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    outputs = {}
    for argv in ROWS + EXHAUSTIVE:
        proc = subprocess.run(
            [sys.executable, "-m", "parkav", *argv],
            capture_output=True, text=True, env=env, cwd=ROOT, check=True,
        )
        outputs[" ".join(argv)] = digest(proc.stdout)
    values = {}
    for notion, sets, n_max, count in (
        ("pk", PK_SUBSETS, PK_N_MAX, pk_count),
        ("pf", PF_CLOSED_FORM_SETS, PF_N_MAX, pf_count),
    ):
        for patterns in sets:
            parsed = parse_pattern_set(patterns)
            values[f"{notion}:{patterns}"] = [
                digest(str(count(parsed, n).value)) for n in range(1, n_max + 1)
            ]
    classes = {
        f"{family}:{m}": [digest(str(fn(n, m))) for n in range(1, CLASSES_N_MAX + 1)]
        for family, fn in sorted(CLASS_FAMILIES.items())
        for m in range(1, CLASSES_M_MAX + 1)
    }
    pins = {"outputs": outputs, "values": values, "classes": classes}
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
