"""Seeded inputs for the benchmark workloads.

A workload is a list of operations; each operation is one ``python -m parkav``
call (a bijection roundtrip is two: ``backward``, then ``forward`` on its
output).  ``make_pass(workload, seed, index)`` builds the operations of one
pass; the same (workload, seed, index) always gives the same list, and the
program under test only ever sees the generated argv and stdin.

Why each workload exists:

- ``interactive``: short single calls, each a fresh process, as a user at a
  terminal makes them.  Start-up and import set the median; the bijection
  recursion on trees of up to 48 edges sets the tail.  ``counting`` is reached
  through single ``count`` calls, so a change that makes one count dearer in
  order to build rows shows here.
- ``rows``: OEIS-style rows.  ``counting``, ``paths`` and ``generalized`` do
  nearly all of the work; ``oracle`` and ``bijections`` do none.
- ``exhaustive``: the oracle and the routes that have no formula.
  ``oracle``, ``parking`` and ``permutations`` do most of the work and the
  triangle recurrences stay idle.

Passes are stratified (one tree of each size in TREE_EDGES per family, one
count on each triangle route and on each pf closed form, whose n walks evenly
over the passes) so that the cost of a run and its tail vary little between
seeds; the seed picks tree shapes, pattern sets, sizes n and the order of
calls.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

S3 = ("123", "132", "213", "231", "312", "321")

# every subset of S_3 with a dedicated pk formula or recurrence: those holding
# both 123 and 321 fall back to the exhaustive weighted sum
PK_SUBSETS = tuple(
    ",".join(c)
    for r in range(1, len(S3) + 1)
    for c in itertools.combinations(S3, r)
    if not {"123", "321"} <= set(c)
)
PK_TRIANGLE_SUBSETS = ("312", "321")
PK_N_MAX = 60
PF_CLOSED_FORM_SETS = ("12", "21", "123,132", "123,213", "312,321")
PF_N_MAX = 200
CLASS_FAMILIES = (
    "hypoplactic-m",
    "hyposylvester-m",
    "hyposylvester-multi",
    "metasylvester-m",
    "metasylvester-multi",
)
CLASSES_M_MAX = 3
CLASSES_N_MAX = 6
BIJECTION_FAMILIES = ("123-132", "123-213")
TREE_EDGES = (8, 18, 28, 38, 48)
GOLDEN = (5**0.5 - 1) / 2

# Each fixed pass lasts a few seconds, so that a run holds several passes and
# its medians shed the bursts of slowness that a shared host has.  A fixed
# pass has an odd number of calls, 5 or 7, each with its own cost: then the
# median and the 90th percentile of its times fall inside one call's samples,
# not on the edge between two calls, where they would jump from run to run.
ROWS = (
    ("sequence", "--notion", "pk", "--patterns", "321", "--n-max", "40"),
    ("sequence", "--notion", "pk", "--patterns", "312", "--n-max", "50"),
    ("sequence", "--notion", "pk", "--patterns", "213", "--n-max", "80"),
    ("sequence", "--notion", "pk", "--patterns", "132", "--n-max", "200"),
    ("sequence", "--notion", "pf", "--patterns", "312,321", "--n-max", "200"),
    ("classes", "--family", "metasylvester-multi", "--m", "3", "--n-max", "40"),
    ("classes", "--family", "metasylvester-m", "--m", "3", "--n-max", "7"),
)

# the oracle pipeline (verify), the weighted sum over S_3 profiles, the generic
# non-S_3 scan, and pf brute force through the profiles and through the
# general route
EXHAUSTIVE = (
    ("verify", "--suite", "all", "--n-max", "6"),
    ("count", "--notion", "pk", "--patterns", "123,321", "--n", "7"),
    ("count", "--notion", "pk", "--patterns", "1234", "--n", "7"),
    ("count", "--notion", "pf", "--patterns", "132", "--n", "6"),
    ("count", "--notion", "pf", "--patterns", "1234", "--n", "6"),
)

WORKLOADS = ("interactive", "rows", "exhaustive")


@dataclass(frozen=True)
class Op:
    """One benchmark operation and how its output is checked.

    check is one of
      "output"    stdout must match the pinned digest of this exact argv
      "value"     stdout is one integer, pinned per (notion, patterns, n)
      "classes"   stdout is an ``n value`` row, pinned per (family, m, n)
      "roundtrip" argv is ("bijection", family, tree): backward then forward
                  must give the tree back
    """

    argv: tuple[str, ...]
    check: str
    key: str = ""


def random_tree(edges: int, rng: random.Random) -> str:
    """A uniformly random ordered tree with ``edges`` edges, as parentheses.

    Cycle lemma: a shuffled word of ``edges`` up-steps and ``edges + 1``
    down-steps has exactly one rotation whose proper prefixes all stay >= 0,
    the one starting right after the first lowest point.  Dropping its final
    down-step leaves a Dyck word: the root's children, root-first.
    """
    steps = [1] * edges + [-1] * (edges + 1)
    rng.shuffle(steps)
    height = lowest = cut = 0
    for i, s in enumerate(steps):
        height += s
        if height < lowest:
            lowest, cut = height, i + 1
    word = steps[cut:] + steps[:cut]
    return "(" + "".join("(" if s > 0 else ")" for s in word[:-1]) + ")"


def root_degree(tree: str) -> int:
    degree = depth = 0
    for c in tree[1:-1]:
        depth += 1 if c == "(" else -1
        degree += depth == 0
    return degree


def in_family(tree: str, family: str) -> bool:
    """123-132 trees have odd root degree, 123-213 trees root degree >= 2."""
    if family == "123-132":
        return root_degree(tree) % 2 == 1
    return root_degree(tree) >= 2


def family_tree(edges: int, family: str, rng: random.Random) -> str:
    while True:
        tree = random_tree(edges, rng)
        if in_family(tree, family):
            return tree


def _count(notion: str, patterns: str, n: int) -> Op:
    argv = ("count", "--notion", notion, "--patterns", patterns, "--n", str(n))
    return Op(argv, "value", f"{notion}:{patterns}")


def _size(n_max: int, seed: int, index: int, key: str) -> int:
    """The n of ``key``'s count in pass ``index``: 1..n_max, spread evenly.

    The cost of a triangle or pf closed-form count grows steeply with n.  So
    over the passes of a run each such count walks a golden-ratio sequence
    from a seeded start: a run sees low, middle and high n of every set in
    about equal shares, whatever the seed, and the tail it sets stays put.
    """
    start = random.Random(f"{seed}:{key}").random()
    return 1 + int((start + index * GOLDEN) % 1.0 * n_max)


def _interactive(rng: random.Random, seed: int, index: int) -> list[Op]:
    plain = [p for p in PK_SUBSETS if p not in PK_TRIANGLE_SUBSETS]
    ops = [_count("pk", p, rng.randint(1, PK_N_MAX)) for p in rng.sample(plain, 12)]
    ops += [_count("pk", p, _size(PK_N_MAX, seed, index, p)) for p in PK_TRIANGLE_SUBSETS]
    ops += [_count("pf", p, _size(PF_N_MAX, seed, index, p)) for p in PF_CLOSED_FORM_SETS]
    for _ in range(2):
        family = rng.choice(CLASS_FAMILIES)
        m = rng.randint(1, CLASSES_M_MAX)
        n_max = rng.randint(1, CLASSES_N_MAX)
        argv = ("classes", "--family", family, "--m", str(m), "--n-max", str(n_max))
        ops.append(Op(argv, "classes", f"{family}:{m}"))
    for family in BIJECTION_FAMILIES:
        for edges in TREE_EDGES:
            tree = family_tree(edges, family, rng)
            ops.append(Op(("bijection", family, tree), "roundtrip"))
    rng.shuffle(ops)
    return ops


def _fixed(invocations: tuple[tuple[str, ...], ...], rng: random.Random) -> list[Op]:
    ops = [Op(argv, "output", " ".join(argv)) for argv in invocations]
    rng.shuffle(ops)
    return ops


def make_pass(workload: str, seed: int, index: int) -> list[Op]:
    """The operations of pass ``index`` of ``workload`` under ``seed``."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "interactive":
        return _interactive(rng, seed, index)
    if workload == "rows":
        return _fixed(ROWS, rng)
    if workload == "exhaustive":
        return _fixed(EXHAUSTIVE, rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
