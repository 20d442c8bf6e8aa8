"""Nonnegative lattice paths with up-steps of height m and unit down-steps.

A path of order n consists of n up-steps of height m and m*n down-steps of
height 1, never dipping below the axis and ending on it; m = 1 gives the
classic ballot/Catalan paths of length 2n.  The ascent word w(C) records the
lengths of the maximal runs of consecutive up-steps; it equals the packed
evaluation of the increasing (m-)parking function the path encodes.

Besides enumeration and the ascent-word view, this module implements the two
surgeries the path-weight recurrences rest on: the canonical decomposition
C = U_1..U_k D_1 C_1 ... D_k C_k, and deleting/reinserting the first peak.
It also holds the one engine for sums of run-local path weights,
``path_weight_table``: every weight the package sums over paths is a product
of one factor per up-run, so one polynomial table of tail sums gives a whole
row of sums (``path_weight_row``) and the pk 312/321 first-run tables.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import add, mul
from typing import Callable, Iterator, Sequence

from ._record import Record
from .parking import ParkingFunction
from .permutations import BudgetExceeded

UP = "U"
DOWN = "D"


class LatticePath(Record):
    """Step sequence over {U, D} with up-height m; validated on construction."""

    __slots__ = ("steps", "m")

    def __init__(self, steps: Sequence[str], m: int = 1) -> None:
        if m < 1:
            raise ValueError("up-step height m must be >= 1")
        height = 0
        for s in steps:
            if s == UP:
                height += m
            elif s == DOWN:
                height -= 1
            else:
                raise ValueError(f"bad step {s!r}")
            if height < 0:
                raise ValueError(f"path dips below axis: {''.join(steps)}")
        if height != 0:
            raise ValueError(f"path does not return to axis: {''.join(steps)}")
        super().__init__(tuple(steps), m)

    @property
    def n(self) -> int:
        """Number of up-steps."""
        return sum(1 for s in self.steps if s == UP)

    def __str__(self) -> str:
        return "".join(self.steps)

    def __repr__(self) -> str:
        return f"LatticePath({''.join(self.steps)!r}, m={self.m})"


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
    """
    >>> ascent_word(path("UDUUDUDD")).runs
    (1, 2, 1)
    """
    return AscentWord(tuple(len(run) for run in "".join(c.steps).split(DOWN) if run))


def peak_count(c: LatticePath) -> int:
    """Number of peaks (UD corners) = number of maximal up-runs."""
    return len(ascent_word(c))


def enumerate_paths(n: int, m: int = 1) -> Iterator[LatticePath]:
    """All order-n paths with up-height m, lexicographic with U < D."""
    total_down = m * n
    steps: list[str] = []

    def rec(ups_left: int, downs_left: int, height: int) -> Iterator[LatticePath]:
        if ups_left == 0 and downs_left == 0:
            yield LatticePath._trusted(tuple(steps), m)  # the recursion kept it valid
            return
        if ups_left:
            steps.append(UP)
            yield from rec(ups_left - 1, downs_left, height + m)
            steps.pop()
        if downs_left and height > 0:
            steps.append(DOWN)
            yield from rec(ups_left, downs_left - 1, height - 1)
            steps.pop()

    yield from rec(n, total_down, 0)


# Cells a path_weight_table may hold: its rows hold m*n_max*(n_max + 1)/2 + n_max.
# On a 2-vCPU host, `classes --family metasylvester-m --n-max 5` fills 6 M cells
# at m = 400,000 in 1.1 s at a peak RSS of 335 MB, and 12.6 M at m = 837,962 in
# 3.1 s at 687 MB.  Past the budget the table refuses before it allocates a row.
TABLE_BUDGET = 10_000_000


def path_weight_table(n_max: int, m: int, run_factor: Callable[[int, int, bool], int]) -> list[list[int]]:
    """down[v][h], for 0 <= v < n_max and 0 <= h <= m(n_max - v): the sum,
    over the path tails with v up-steps that start with a down-step from
    height h, of the product of run_factor(r, v', False) over their up-runs
    (v' counts the up-steps from a run's start to the end).  So
    down[n - k][m*k] sums the later runs of the order-n paths whose first
    run has length k.

    A tail opening with an up-run of length r at height h goes on from
    h + m*r with v - r up-steps, so up[h] is the factors' dot product with
    column h of rows v - 1, ..., 0, each shifted by its m*r, and down[v] is
    the running sum of up.  The diagonal sums S_v[h] = down[v - 1][h + m]
    + S_{v-1}[h + m] (of that column) and W_v[h] = W_{v-1}[h + m] + S_v[h]
    (of r times it) give up = (a - b) S + b W where runs r < v weigh
    a + b(r - 1); the last run (r = v) may differ, by one term times
    down[0][h + m*v] = 1.  Every factor is read: such affine rows cost
    O(m n_max^2) products in all, the others ("213", "321") O(m n_max^3).
    A table of more than TABLE_BUDGET cells raises BudgetExceeded at once.

    >>> path_weight_table(3, 1, lambda r, v, first: 1)
    [[0, 1, 1, 1], [0, 1, 2], [0, 2]]
    """
    if n_max < 0 or m < 1:
        raise ValueError(f"need n >= 0 and m >= 1, got n={n_max}, m={m}")
    if m * n_max * (n_max + 1) // 2 + n_max > TABLE_BUDGET:
        raise BudgetExceeded(f"path-weight table for n={n_max}, m={m}: past {TABLE_BUDGET} cells")
    down = [[0] + [1] * (m * n_max)]  # v = 0: straight down to the axis
    s = w = [0] * (m * n_max)  # S_0 and W_0
    for v in range(1, n_max):
        factors = [run_factor(r, v, False) for r in range(1, v + 1)]
        s = list(map(add, down[v - 1][m:], s[m:]))
        w = list(map(add, w[m:], s))
        a, b = factors[0], (factors[1] - factors[0] if v > 1 else 0)
        if all(f == a + b * r for r, f in enumerate(factors[:-1])):
            c, last = a - b, factors[-1] - a - b * (v - 1)  # last: the r = v excess
            up = (c * x + b * y + last for x, y in zip(s, w))
        else:
            columns = zip(*[down[v - r][m * r : m * (n_max - v + r)] for r in range(1, v + 1)])
            up = (sum(map(mul, factors, column)) for column in columns)
        down.append([0, *accumulate(up)])
    return down


def path_weight_row(n_max: int, m: int, run_factor: Callable[[int, int, bool], int]) -> list[int]:
    """[S_0, ..., S_{n_max}]: S_n sums, over all order-n, up-height-m paths,
    the product of run_factor(r, v, first) over the maximal up-runs: r is a
    run's length, v the up-steps from its start to the path's end (it is
    last iff r == v) and first whether it opens the path.  Read from the
    end, a tail depends on n only through v, so one path_weight_table gives
    every S_n: the first runs k, weighted, times the tails down[n - k][m*k].

    >>> path_weight_row(4, 1, lambda r, v, first: 1)
    [1, 1, 2, 5, 14]
    >>> path_weight_row(4, 1, lambda r, v, first: r)[4]  # pk(123), n = 4
    37
    """
    down = path_weight_table(n_max, m, run_factor)
    return [1] + [
        sum(run_factor(r, n, True) * down[n - r][m * r] for r in range(1, n + 1))
        for n in range(1, n_max + 1)
    ]


def exact_div(numerator: int, denominator: int) -> int:
    """numerator / denominator, refusing a remainder."""
    q, r = divmod(numerator, denominator)
    if r:
        raise ArithmeticError(f"{numerator} not divisible by {denominator}")
    return q


def path_count(n: int, m: int = 1) -> int:
    """Exact count C((m+1)n, n) / (mn + 1) of order-n, height-m paths."""
    return exact_div(math.comb((m + 1) * n, n), m * n + 1)


def catalan_number(n: int) -> int:
    return path_count(n, 1)


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


def path_to_increasing_pf(c: LatticePath) -> ParkingFunction:
    """path_to_increasing_prefs wrapped as a validated parking function (m=1)."""
    if c.m != 1:
        raise ValueError("m >= 2 paths encode m-parking functions; use path_to_increasing_prefs")
    return ParkingFunction(path_to_increasing_prefs(c))


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
