"""Nonnegative lattice paths with up-steps of height m and unit down-steps.

A path of order n consists of n up-steps of height m and m*n down-steps of
height 1, never dipping below the axis and ending on it; m = 1 gives the
classic ballot/Catalan paths of length 2n.  The ascent word w(C) records the
lengths of the maximal runs of consecutive up-steps; it equals the packed
evaluation of the increasing (m-)parking function the path encodes.

Besides enumeration and the exact path counts, this module holds the one
engine for sums of run-local path weights, ``path_weight_table``: every
weight the package sums over paths is a product of one factor per up-run,
so one polynomial table of tail sums gives a whole row of sums
(``path_weight_row``) and the pk 312/321 first-run tables.  The table reads
no path; the surgeries its recurrences rest on (the canonical decomposition
and the first-peak deletion) live with the tests that check it.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import add, mul
from typing import Callable, Iterator, Sequence

from ._record import Record
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
