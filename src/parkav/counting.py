"""Exact counts of pattern-restricted parking functions.

Two families are counted, by which permutation carries the pattern
condition:

- ``pk``: parking functions whose outcome permutation (spot -> car) avoids
  every pattern in a set P of size-3 patterns.  A weighted sum over the
  avoidance class (ell_weight) always works; for every subset of S_3 not
  containing both 123 and 321 a closed form, linear recurrence or triangular
  recurrence is dispatched instead.
- ``pf``: parking functions whose block permutation avoids P.  Closed forms
  exist for {12}, {21}, {123,132}, {123,213} and {312,321}; everything else
  falls back to brute enumeration.

Radical-laden closed forms (golden-ratio or 1+sqrt(2) powers) are computed
through the integer linear recurrences they solve, so everything stays in
exact integer arithmetic.  Values that involve a leading 1/n carry an exact
divisibility assertion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable

from .paths import catalan_number, path_weight_sum
from .permutations import PatternSet, pattern_set, weighted_avoiders_s3


@dataclass(frozen=True)
class CountResult:
    """An exact count plus the provenance of the computation."""

    value: int
    method: str  # formula | recurrence | weighted_sum | brute_force

    def __int__(self) -> int:
        return self.value


def _exact_div(numerator: int, denominator: int) -> int:
    q, r = divmod(numerator, denominator)
    if r:
        raise ArithmeticError(f"{numerator} not divisible by {denominator}")
    return q


def generic_weighted_pk(n: int, patterns: PatternSet) -> CountResult:
    """Sum of ell_weight over the avoidance class; works for any pattern set."""
    if all(q.n == 3 for q in patterns):
        return CountResult(weighted_avoiders_s3(n, patterns), "weighted_sum")
    from .permutations import all_permutations, avoids_all, ell_weight

    total = sum(ell_weight(p) for p in all_permutations(n) if avoids_all(p, patterns))
    return CountResult(total, "weighted_sum")


# -- single-pattern tables ---------------------------------------------------

def pk123(n: int) -> int:
    """(1/(n+1)) * sum_k C(n+1,k) C(n+k-1, 2k-1)."""
    if n == 0:
        return 1
    total = sum(math.comb(n + 1, k) * math.comb(n + k - 1, 2 * k - 1) for k in range(1, n + 1))
    return _exact_div(total, n + 1)


def pk213(n: int) -> int:
    """(1/(n+1)) [x^n] (sum_k k! x^k)^(n+1), via integer convolution."""
    if n == 0:
        return 1
    factorials = [math.factorial(k) for k in range(n + 1)]
    acc = [0] * (n + 1)
    acc[0] = 1
    for _ in range(n + 1):
        nxt = [0] * (n + 1)
        for i, a in enumerate(acc):
            if a:
                for j in range(n + 1 - i):
                    nxt[i + j] += a * factorials[j]
        acc = nxt
    return _exact_div(acc[n], n + 1)


@lru_cache(maxsize=None)
def pk132_sequence(n_max: int) -> tuple[int, ...]:
    """p_0 = 1, p_n = sum_{k=1}^{n} k p_{k-1} p_{n-k}; counts both the 132
    and the 231 avoidance flavours."""
    p = [1]
    for n in range(1, n_max + 1):
        p.append(sum(k * p[k - 1] * p[n - k] for k in range(1, n + 1)))
    return tuple(p)


def pk132(n: int) -> int:
    return pk132_sequence(n)[n]


def pk312_table(n: int) -> dict[tuple[int, int], int]:
    """Triangular table with t[n,n] = 1 and
    t[n,k] = (n-k+1) * sum_{i=n-k}^{n-1} sum_{j=k+1-n+i}^{i} t[i,j]."""
    return first_run_triangle(n, 1)


def pk312(n: int) -> int:
    if n == 0:
        return 1
    t = pk312_table(n)
    return sum(t[n, k] for k in range(1, n + 1))


def pk321_table(n: int) -> dict[tuple[int, int], int]:
    """Triangular table with t[n,n] = 1 and
    t[n,k] = (n-k+1) * sum_i sum_j (n-i+j-k-1)! t[i,j]."""
    t: dict[tuple[int, int], int] = {}
    for nn in range(1, n + 1):
        t[nn, nn] = 1
        for k in range(nn - 1, 0, -1):
            acc = 0
            for i in range(nn - k, nn):
                for j in range(k + 1 - nn + i, i + 1):
                    acc += math.factorial(nn - i + j - k - 1) * t[i, j]
            t[nn, k] = (nn - k + 1) * acc
    return t


def pk321(n: int) -> int:
    if n == 0:
        return 1
    t = pk321_table(n)
    return sum(math.factorial(k - 1) * t[n, k] for k in range(1, n + 1))


def first_run_triangle(n: int, m: int) -> dict[tuple[int, int], int]:
    """Shared triangle: t[n,k] = (1 + m(n-k)) * sum over the sliding window.
    m = 1 specializes to the 312 table."""
    t: dict[tuple[int, int], int] = {}
    for nn in range(1, n + 1):
        t[nn, nn] = 1
        for k in range(nn - 1, 0, -1):
            acc = 0
            for i in range(nn - k, nn):
                for j in range(k + 1 - nn + i, i + 1):
                    acc += t[i, j]
            t[nn, k] = (1 + m * (nn - k)) * acc
    return t


# -- sums over lattice paths -------------------------------------------------

# weight(n, r, u): factor of an up-run of length r after u up-steps in an
# order-n path; the path weight is the product over its runs.
PATH_WEIGHTS: dict[str, Callable[[int, int, int], int]] = {
    "123": lambda n, r, u: r,
    "213": lambda n, r, u: math.factorial(r),
    "312": lambda n, r, u: 1 + n - u if u else 1,
    "321": lambda n, r, u: PATH_WEIGHTS["312"](n, r, u) * math.factorial(r - 1),
    "pf-312-321": lambda n, r, u: 1 if u + r == n else r + 1,
}


def pk_sum_over_paths(n: int, weight: str) -> CountResult:
    """Sum the named weight of the ascent word over all order-n paths.

    Independent route to the single-pattern counts (and to the {312,321}
    block-permutation count via "pf-312-321").
    """
    if weight not in PATH_WEIGHTS:
        raise ValueError(f"unknown weight {weight!r}; choose from {sorted(PATH_WEIGHTS)}")
    return CountResult(path_weight_sum(n, 1, partial(PATH_WEIGHTS[weight], n)), "weighted_sum")


# -- dispatch over subsets of S_3 --------------------------------------------

def _sum_factorials(n: int) -> int:
    return sum(math.factorial(k) for k in range(1, n + 1))


def _linear_recurrence(n: int, p1: int, p2: int, step: Callable[[int, int], int]) -> int:
    if n == 1:
        return p1
    if n == 2:
        return p2
    a, b = p1, p2
    for _ in range(3, n + 1):
        a, b = b, step(b, a)
    return b


def _pk_conv_factorial(n: int) -> int:
    # p_n = sum_{k=1}^{n} k! p_{n-k}, p_0 = 1
    p = [1]
    for nn in range(1, n + 1):
        p.append(sum(math.factorial(k) * p[nn - k] for k in range(1, nn + 1)))
    return p[n]


def _pk_231_321(n: int) -> int:
    # p_n = (n+1)! - sum_{k=0}^{n-1} p_k (n-k)!, p_0 = 1
    p = [1]
    for nn in range(1, n + 1):
        p.append(math.factorial(nn + 1) - sum(p[k] * math.factorial(nn - k) for k in range(nn)))
    return p[n]


def _pk5_all_but_321(n: int) -> int:
    return 3 if n == 2 else 1


def _pk5_all_but_123(n: int) -> int:
    return 3 if n == 2 else math.factorial(n)


_FOUR_CONST3 = lambda n: 1 if n == 1 else 3
_FOUR_NPLUS1 = lambda n: 1 if n == 1 else n + 1
_FOUR_FACT1 = lambda n: 1 if n == 1 else math.factorial(n) + 1
_FOUR_FACT_RATIO = lambda n: 1 if n == 1 else _exact_div(math.factorial(n + 1), n)
_FOUR_FACT32 = lambda n: 1 if n == 1 else _exact_div(3 * math.factorial(n), 2)


def _dispatch_table() -> dict[tuple[tuple[int, ...], ...], tuple[str, Callable[[int], int]]]:
    t: dict[tuple[tuple[int, ...], ...], tuple[str, Callable[[int], int]]] = {}

    def put(names: list[str], method: str, fn: Callable[[int], int]) -> None:
        for name in names:
            key = pattern_set(*name.split("/")).key()
            t[key] = (method, fn)

    # five patterns
    put(["123/132/213/231/312"], "formula", _pk5_all_but_321)
    put(["132/213/231/312/321"], "formula", _pk5_all_but_123)
    # four patterns
    put(
        ["123/132/213/231", "123/132/213/312", "123/213/231/312"],
        "formula",
        _FOUR_CONST3,
    )
    put(["123/132/231/312"], "formula", _FOUR_NPLUS1)
    put(["132/213/231/312"], "formula", _FOUR_FACT1)
    put(
        ["132/213/231/321", "132/213/312/321", "213/231/312/321"],
        "formula",
        _FOUR_FACT_RATIO,
    )
    put(["132/231/312/321"], "formula", _FOUR_FACT32)
    # three patterns
    put(
        ["123/132/231", "123/132/312", "123/231/312"],
        "formula",
        lambda n: math.comb(n + 1, 2),
    )
    put(["123/213/231", "123/213/312"], "formula", lambda n: 2 * n - 1)
    put(
        ["123/132/213"],
        "formula",
        lambda n: _exact_div(2 ** (n + 1) + (-1) ** n, 3),
    )
    put(["132/213/231", "132/213/312", "213/231/312"], "formula", _sum_factorials)
    put(
        ["132/231/312"],
        "formula",
        lambda n: sum(_exact_div(math.factorial(n), math.factorial(k)) for k in range(1, n + 1)),
    )
    put(
        ["132/231/321", "132/312/321"],
        "formula",
        lambda n: sum(_exact_div(math.factorial(n), k) for k in range(1, n + 1)),
    )
    put(
        ["132/213/321", "213/231/321"],
        "formula",
        lambda n: sum(math.factorial(k) * math.factorial(n - k) for k in range(1, n + 1)),
    )
    put(["213/312/321"], "formula", lambda n: (2 * n - 1) * math.factorial(n - 1))
    put(
        ["231/312/321"],
        "formula",
        lambda n: sum(
            (-1) ** k * _exact_div(math.factorial(n), math.factorial(k)) * (n - k + 1)
            for k in range(0, n + 1)
        ),
    )
    # two patterns
    put(
        ["123/231", "123/312"],
        "formula",
        lambda n: _exact_div(n * (n - 1) * (n + 4), 6) + 1,
    )
    put(
        ["123/132"],
        "recurrence",
        lambda n: _linear_recurrence(n, 1, 3, lambda b, a: 3 * b - a),
    )
    put(
        ["123/213"],
        "recurrence",
        lambda n: _linear_recurrence(n, 1, 3, lambda b, a: 2 * b + a),
    )
    put(
        ["132/231", "132/312", "231/312"],
        "formula",
        lambda n: _exact_div(math.factorial(n + 1), 2),
    )
    put(["132/213", "213/231"], "recurrence", _pk_conv_factorial)
    put(
        ["132/321"],
        "formula",
        lambda n: math.factorial(n)
        + sum(
            _exact_div(
                math.factorial(a) * math.factorial(b) * math.factorial(n),
                math.factorial(a + b),
            )
            for a in range(1, n)
            for b in range(1, n - a + 1)
        ),
    )
    put(
        ["213/321"],
        "formula",
        lambda n: math.factorial(n)
        + sum(k * math.factorial(k) * math.factorial(n - k) for k in range(1, n)),
    )
    put(
        ["213/312"],
        "formula",
        lambda n: sum(math.comb(n - 1, k) * math.factorial(k + 1) for k in range(0, n)),
    )
    put(["231/321"], "recurrence", _pk_231_321)
    put(
        ["312/321"],
        "formula",
        lambda n: sum(
            math.comb(n - 1, k - 1) * _exact_div(math.factorial(n), math.factorial(k))
            for k in range(1, n + 1)
        ),
    )
    # single patterns
    put(["123"], "formula", pk123)
    put(["213"], "formula", pk213)
    put(["132", "231"], "recurrence", pk132)
    put(["312"], "recurrence", pk312)
    put(["321"], "recurrence", pk321)
    return t


_DISPATCH = _dispatch_table()


def pk_count(patterns: PatternSet, n: int) -> CountResult:
    """Count parking functions whose outcome permutation avoids ``patterns``.

    Every nonempty subset of S_3 hits a dedicated formula or recurrence
    except the ones containing both 123 and 321 (whose avoidance class dies
    at size 5); those fall back to the generic weighted sum.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if len(patterns) == 0:
        raise ValueError("pattern set must be nonempty")
    if n == 0:
        return CountResult(1, "formula")
    entry = _DISPATCH.get(patterns.key())
    if entry is None:
        return generic_weighted_pk(n, patterns)
    method, fn = entry
    return CountResult(fn(n), method)


# -- block-permutation counts -------------------------------------------------

def pf_tree_census_123_132(n: int) -> int:
    """Ordered rooted trees with n+1 edges and odd root degree, counted as
    sum over odd d of [x^(n+1-d)] Cat(x)^d (forests of d subtrees)."""
    edges = n + 1
    cat = [catalan_number(k) for k in range(edges + 1)]
    total = 0
    power = [1] + [0] * edges  # Cat(x)^0
    for d in range(1, edges + 1):
        nxt = [0] * (edges + 1)
        for i, a in enumerate(power):
            if a:
                for j in range(edges + 1 - i):
                    nxt[i + j] += a * cat[j]
        power = nxt
        if d % 2 == 1:
            total += power[edges - d]
    return total


def pf312321_closed_form(n: int) -> CountResult:
    """C(3n+1, n)/(2(n+1)) - sum_{k=0}^{n-2} C(3n-2-3k, n-k-1)/(2^(k+2)(n-k));
    the rational pieces always cancel to an exact integer."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = Fraction(math.comb(3 * n + 1, n), 2 * (n + 1))
    for k in range(0, n - 1):
        total -= Fraction(math.comb(3 * n - 2 - 3 * k, n - k - 1), 2 ** (k + 2) * (n - k))
    if total.denominator != 1:
        raise ArithmeticError(f"expected an integer, got {total}")
    return CountResult(int(total), "formula")


PF_BRUTE_CAP = 8


def pf_count(patterns: PatternSet, n: int) -> CountResult:
    """Count parking functions whose block permutation avoids ``patterns``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return CountResult(1, "formula")
    key = patterns.key()
    if key == pattern_set("12").key():
        return CountResult(1, "formula")
    if key == pattern_set("21").key():
        return CountResult(catalan_number(n), "formula")
    if key == pattern_set("123", "132").key():
        return CountResult(pf_tree_census_123_132(n), "formula")
    if key == pattern_set("123", "213").key():
        return CountResult(catalan_number(n + 1) - catalan_number(n), "formula")
    if key == pattern_set("312", "321").key():
        return pf312321_closed_form(n)
    from . import oracle

    if n > PF_BRUTE_CAP:
        raise oracle.OracleCapExceeded(
            f"no closed form for {patterns}; brute force capped at n={PF_BRUTE_CAP}"
        )
    return CountResult(oracle.brute_pf(n, patterns), "brute_force")
