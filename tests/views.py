"""Views over parkav's values that only the tests read: constructors of
trees and paths from text or parts, the outcome and block permutations of a
parking function, the ascent word and the two path surgeries the path-weight
recurrences rest on, the increasing-function encoding of paths, the m-parking
membership test, and the {123, 132} and {123, 213} clusters as records.

No command runs them; the tests compare the package's engines against them
and build fixtures with them.  Each reads the package's own types and
helpers, so a change there shows here.
"""

from __future__ import annotations

import math
from typing import Sequence

from parkav._record import Record
from parkav.bijections import (
    PATTERNS_123_132,
    PATTERNS_123_213,
    _clusters,
    _domain_blocks,
    _graft_table,
    _peel_132,
    _peel_213,
)
from parkav.parking import Blocks, ParkingFunction, block_permutation_of_blocks, simulate, to_blocks
from parkav.paths import DOWN, UP, LatticePath, exact_div
from parkav.permutations import PatternSet, Permutation
from parkav.trees import OrderedTree, enumerate_trees

# -- trees ---------------------------------------------------------------------


def tree(*children: OrderedTree) -> OrderedTree:
    return OrderedTree._trusted("(" + "".join(c.word for c in children) + ")")


def path_tree(edges: int) -> OrderedTree:
    return OrderedTree._trusted("(" * (edges + 1) + ")" * (edges + 1))


def count_trees(edges: int, constraint: str = "all") -> int:
    return sum(1 for _ in enumerate_trees(edges, constraint))


# -- parking functions ---------------------------------------------------------


def parking_permutation(f: ParkingFunction) -> Permutation:
    """The outcome permutation (spot -> car) of f."""
    outcome = simulate(f.prefs)
    assert outcome is not None  # constructor validated condition A
    return outcome.rho


def block_permutation(f: ParkingFunction) -> Permutation:
    """Concatenate the blocks (each sorted increasing) into a permutation."""
    return block_permutation_of_blocks(to_blocks(f))


# -- lattice paths -------------------------------------------------------------


def path(text: str, m: int = 1) -> LatticePath:
    """Parse "UDUUDUDD"; validates the prefix condition."""
    text = text.strip()
    for i, c in enumerate(text):
        if c not in (UP, DOWN):
            raise ValueError(f"bad step at column {i + 1}: {c!r}")
    return LatticePath(text, m)


class AscentWord(Record):
    """Lengths of the maximal up-runs of a path, in order."""

    __slots__ = ("runs",)

    def __init__(self, runs: Sequence[int]) -> None:
        if any(r < 1 for r in runs):
            raise ValueError("runs must be positive")
        super().__init__(tuple(runs))

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self):
        return iter(self.runs)


def ascent_word(c: LatticePath) -> AscentWord:
    """The up-run lengths of c, in order."""
    return AscentWord(tuple(len(run) for run in "".join(c.steps).split(DOWN) if run))


def canonical_decomposition(c: LatticePath) -> tuple[int, list[LatticePath]]:
    """Split C = U_1..U_k D_1 C_1 ... D_k C_k (m = 1 only).

    k is the first run length; D_i is the first down-step from height k-i+1
    to k-i; the C_i are the (possibly empty) paths in between.
    """
    if c.m != 1:
        raise ValueError("canonical decomposition is defined for m=1 paths")
    if c.n < 1:
        raise ValueError("path must be nonempty")
    k = ascent_word(c).runs[0]
    parts: list[LatticePath] = []
    pos = k  # skip the initial k up-steps
    for _ in range(k):
        assert c.steps[pos] == DOWN
        pos += 1
        start = pos
        height = 0
        while pos < len(c.steps):
            height += 1 if c.steps[pos] == UP else -1
            if height < 0:
                break
            pos += 1
        parts.append(LatticePath(c.steps[start:pos], 1))
    assert pos == len(c.steps)
    return k, parts


def compose_canonical(k: int, parts: Sequence[LatticePath]) -> LatticePath:
    """Inverse of canonical_decomposition."""
    if len(parts) != k or k < 1:
        raise ValueError("need exactly k component paths")
    steps = [UP] * k
    for part in parts:
        steps.append(DOWN)
        steps.extend(part.steps)
    return LatticePath(steps, 1)


def delete_first_peak(c: LatticePath) -> tuple[int, LatticePath]:
    """Remove the first peak: drop the last i' up-steps of the first run and
    the i' down-steps after them, where i' is the first down-run length.

    Requires at least two up-runs; the result's first run has length
    w_1 + w_2 - i'.
    """
    if c.m != 1:
        raise ValueError("first-peak deletion is defined for m=1 paths")
    w = ascent_word(c).runs
    if len(w) < 2:
        raise ValueError("path has a single up-run; nothing to delete")
    k = w[0]
    i_prime = 0
    pos = k
    while pos < len(c.steps) and c.steps[pos] == DOWN:
        i_prime += 1
        pos += 1
    remaining = c.steps[: k - i_prime] + c.steps[pos:]
    return i_prime, LatticePath(remaining, 1)


def insert_first_peak(c: LatticePath, i_prime: int, k: int) -> LatticePath:
    """Inverse of delete_first_peak: rebuild the path whose first run is k and
    whose first down-run is i_prime, shrinking c's first run accordingly."""
    if c.m != 1:
        raise ValueError("first-peak insertion is defined for m=1 paths")
    j = ascent_word(c).runs[0] if c.n else 0
    second = j - k + i_prime
    if not (1 <= i_prime <= k) or second < 1:
        raise ValueError(f"incompatible insertion: first run {j}, i'={i_prime}, k={k}")
    steps = (UP,) * k + (DOWN,) * i_prime + (UP,) * second + c.steps[j:]
    return LatticePath(steps, 1)


def path_to_increasing_prefs(c: LatticePath) -> tuple[int, ...]:
    """Increasing function encoded by a path: value j is preferred once per
    up-step before the j-th down-step.

    For m = 1 this is an ordinary increasing parking function; in general the
    values satisfy f(i) <= 1 + m(i-1).  The packed evaluation of the result
    is the ascent word of the path.
    """
    prefs: list[int] = []
    downs_seen = 0
    for s in c.steps:
        if s == UP:
            prefs.append(downs_seen + 1)
        else:
            downs_seen += 1
    return tuple(prefs)


def increasing_pf_to_path(prefs: Sequence[int], m: int = 1) -> LatticePath:
    """Inverse of path_to_increasing_prefs for nondecreasing preference lists."""
    if list(prefs) != sorted(prefs):
        raise ValueError("preferences must be nondecreasing")
    n = len(prefs)
    steps: list[str] = []
    pos = 0
    for j in range(1, m * n + 1):
        while pos < n and prefs[pos] == j:
            steps.append(UP)
            pos += 1
        steps.append(DOWN)
    if pos != n:
        raise ValueError(f"preferences exceed the value range 1..{m * n}")
    return LatticePath(steps, m)


def m_narayana(n: int, k: int, m: int = 1) -> int:
    """Number of order-n, height-m paths with exactly k peaks:
    C(mn, k-1) * C(n, k) / n."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return exact_div(math.comb(m * n, k - 1) * math.comb(n, k), n)


# -- generalized parking functions ---------------------------------------------


def is_m_parking(values: Sequence[int], m: int, n: int) -> bool:
    """True iff sorted values satisfy f(i) <= 1 + m(i-1)."""
    if len(values) != n:
        return False
    bound = 1 + m * (n - 1) if n else 0
    if any(not 1 <= v <= bound for v in values):
        return False
    return all(v <= 1 + m * i for i, v in enumerate(sorted(values)))


# -- clusters of the tree bijections -------------------------------------------


class Cluster(Record):
    """The elements lo..hi, with the 0-based positions of their main blocks
    (in order) and of their matched empty block, when there is one."""

    # kind: extend | branch | jump, or closed | open; parameter: closed only
    __slots__ = ("kind", "lo", "hi", "parameter", "main_positions", "empty_position")

    @property
    def length(self) -> int:
        return self.hi - self.lo + 1


def _records(f: ParkingFunction | Blocks, patterns: PatternSet, peel) -> list[Cluster]:
    """The clusters of f, checked to lie in the domain, as Cluster records."""
    blocks = _domain_blocks(f, patterns)
    clusters, starts, _ = _clusters(blocks, peel)
    mains = tuple(q for q, b in enumerate(blocks) if b)
    return [Cluster(*c[:4], mains[s:e], c[4]) for c, s, e in zip(clusters, starts, starts[1:])]


def clusters_123_132(f: ParkingFunction | Blocks) -> list[Cluster]:
    """Partition the blocks into extend/branch/jump clusters (positions are
    0-based indices into the original block sequence)."""
    return _records(f, PATTERNS_123_132, _peel_132)


def clusters_123_213(f: ParkingFunction | Blocks) -> list[Cluster]:
    """Partition the blocks into closed/open clusters."""
    return _records(f, PATTERNS_123_213, _peel_213)


def phi_123_132_labeled(f: ParkingFunction | Blocks) -> dict[int | None, list[int]]:
    """Forward map with creation labels 0..n on the non-root vertices: each
    label's child labels, left to right (None: the root)."""
    table = _graft_table(_domain_blocks(f, PATTERNS_123_132))
    labels = [*range(len(table) - 1), None]
    return {label: kids[::-1] for label, kids in zip(labels, table)}
