"""Exact counts of pattern-restricted parking functions.

Two families are counted, by which permutation carries the pattern
condition:

- ``pk``: parking functions whose outcome permutation (spot -> car) avoids
  every pattern in a set P.  Every subset of S_3 not containing both 123
  and 321 dispatches a closed form, linear or triangular recurrence.
- ``pf``: parking functions whose block permutation avoids P.  Closed forms
  exist for {12}, {21}, {123,132}, {123,213} and {312,321}.

Every other set is a weighted sum over one walk of the avoidance class,
``permutations.avoider_walk``, which refuses past its work budget.

Radical-laden closed forms (golden-ratio or 1+sqrt(2) powers) are computed
through the integer linear recurrences they solve, so everything stays in
exact integer arithmetic.  Values that involve a leading 1/n carry an exact
divisibility assertion.

Every route (``pk_route``, ``pf_route``) is a (method, value, row) triple:
``pk_count``/``pf_count`` ask its value at one n, and ``row_of`` reads its
row n = 1..n_max, which builds each table, recurrence or walk once.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

from .paths import catalan_number, path_weight_sum
from .permutations import PatternSet, avoider_walk, pattern_set


@dataclass(frozen=True)
class CountResult:
    """An exact count plus the provenance of the computation."""

    value: int
    method: str  # formula | recurrence | weighted_sum (avoider walk or path weights)

    def __int__(self) -> int:
        return self.value


def exact_div(numerator: int, denominator: int) -> int:
    q, r = divmod(numerator, denominator)
    if r:
        raise ArithmeticError(f"{numerator} not divisible by {denominator}")
    return q


def generic_weighted_pk(n: int, patterns: PatternSet) -> CountResult:
    """Sum of ell_weight over the avoidance class; works for any pattern set."""
    return CountResult(avoider_walk(n, patterns).ell[n], "weighted_sum")


# -- rows and routes ---------------------------------------------------------

# (n, value) for n = 1..n_max, computed in one pass
Row = Iterator[tuple[int, int]]

# (method, value(n, *args), row(n_max, *args)); a row of None is the per-n
# value mapped over n, which is how closed forms make their rows
Route = tuple[str, Callable[..., int], Callable[..., Row] | None]


def last_value(row: Row) -> int:
    """The value of a row's last entry: its n_max term (1 for an empty row)."""
    value = 1
    for _, value in row:
        pass
    return value


def row_of(route: Route, n_max: int, *args: int) -> Iterator[tuple[int, CountResult]]:
    """(n, CountResult) for n = 1..n_max along one route."""
    method, value, row = route
    values = row(n_max, *args) if row else ((n, value(n, *args)) for n in range(1, n_max + 1))
    for n, v in values:
        yield n, CountResult(v, method)


def _walk_route(weight: str, patterns: PatternSet) -> Route:
    """The weighted sum over the avoider walk ("ell" for pk, "blocks" for
    pf); one walk to n_max gives the whole row."""

    def row(n_max: int) -> Row:
        return enumerate(getattr(avoider_walk(n_max, patterns), weight)[1:], 1)

    return "weighted_sum", lambda n: last_value(row(n)), row


# -- single-pattern tables ---------------------------------------------------

def pk123(n: int) -> int:
    """(1/(n+1)) * sum_k C(n+1,k) C(n+k-1, 2k-1)."""
    if n == 0:
        return 1
    total = sum(math.comb(n + 1, k) * math.comb(n + k - 1, 2 * k - 1) for k in range(1, n + 1))
    return exact_div(total, n + 1)


def pk213_row(n_max: int) -> Row:
    """p_n = (1/(n+1)) [x^n] F^(n+1) with F = sum_k k! x^k: one running power
    of F, truncated at x^n_max, and one convolution per n."""
    factorials = [math.factorial(k) for k in range(n_max + 1)]
    power = factorials
    for n in range(1, n_max + 1):
        nxt = [0] * (n_max + 1)
        for i, a in enumerate(power):
            for j in range(n_max + 1 - i):
                nxt[i + j] += a * factorials[j]
        power = nxt
        yield n, exact_div(power[n], n + 1)


def pk213(n: int) -> int:
    return last_value(pk213_row(n))


def pk132_row(n_max: int) -> Row:
    """p_0 = 1, p_n = sum_{k=1}^{n} k p_{k-1} p_{n-k}; counts both the 132
    and the 231 avoidance flavours."""
    p = [1]
    for n in range(1, n_max + 1):
        p.append(sum(k * p[k - 1] * p[n - k] for k in range(1, n + 1)))
        yield n, p[n]


def pk132(n: int) -> int:
    return last_value(pk132_row(n))


def triangle(
    n: int, row_factor: Callable[[int, int], int], diag_kernel: Callable[[int], int]
) -> dict[tuple[int, int], int]:
    """Triangular table with t[r,r] = 1 and, for 1 <= k < r <= n,
    t[r,k] = f(r,k) * sum_{i=r-k}^{r-1} sum_{j=k+1-r+i}^{i} K(r-i+j-k-1) t[i,j].

    With D = r-k-1, the cell (i, j) lies on diagonal d = i-j in 0..D and
    its kernel is K(D-d).  So with P_d[i] the running sum of t down diagonal
    d, the double sum is sum_{d=0}^{D} K(D-d) (P_d[r-1] - P_d[D]): O(n^3)
    for the whole table.
    """
    kernel = [diag_kernel(x) for x in range(n + 1)]
    t: dict[tuple[int, int], int] = {}
    prefix: list[int] = []  # prefix[d] = P_d[r-1] while row r is built
    base = [0]  # base[D] = sum_{d<=D} K(D-d) P_d[D], fixed once row D is done
    for r in range(1, n + 1):
        t[r, r] = 1
        for k in range(r - 1, 0, -1):
            D = r - k - 1
            acc = sum(map(operator.mul, kernel[D::-1], prefix[: D + 1]))
            t[r, k] = row_factor(r, k) * (acc - base[D])
        prefix.append(0)
        for d in range(r):
            prefix[d] += t[r, r - d]
        base.append(sum(map(operator.mul, kernel[r:0:-1], prefix)))
    return t


def first_run_triangle(n: int, m: int) -> dict[tuple[int, int], int]:
    """The triangle with f(n,k) = 1 + m(n-k) and a constant kernel: a plain
    sum over the sliding window.  m = 1 specializes to the 312 table."""
    return triangle(n, lambda r, k: 1 + m * (r - k), lambda d: 1)


def first_run_row(n_max: int, m: int) -> Row:
    """Row sums of one first_run_triangle(n_max, m)."""
    t = first_run_triangle(n_max, m)
    for n in range(1, n_max + 1):
        yield n, sum(t[n, k] for k in range(1, n + 1))


def pk312_table(n: int) -> dict[tuple[int, int], int]:
    """The 312 triangle: f(n,k) = n-k+1 and a constant kernel."""
    return first_run_triangle(n, 1)


def pk312(n: int) -> int:
    return last_value(first_run_row(n, 1))


def pk321_table(n: int) -> dict[tuple[int, int], int]:
    """The 321 triangle: f(n,k) = n-k+1 and the kernel K(x) = x!."""
    return triangle(n, lambda r, k: r - k + 1, math.factorial)


def pk321_row(n_max: int) -> Row:
    t = pk321_table(n_max)
    for n in range(1, n_max + 1):
        yield n, sum(math.factorial(k - 1) * t[n, k] for k in range(1, n + 1))


def pk321(n: int) -> int:
    return last_value(pk321_row(n))


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

def _linear_row(step: Callable[[int, int], int]) -> Callable[[int], Row]:
    """p_1 = 1, p_2 = 3 and p_n = step(p_{n-1}, p_{n-2})."""

    def row(n_max: int) -> Row:
        a, b = 1, 3
        for n in range(1, n_max + 1):
            yield n, a
            a, b = b, step(b, a)

    return row


def _pk_conv_factorial_row(n_max: int) -> Row:
    # p_n = sum_{k=1}^{n} k! p_{n-k}, p_0 = 1
    p = [1]
    for n in range(1, n_max + 1):
        p.append(sum(math.factorial(k) * p[n - k] for k in range(1, n + 1)))
        yield n, p[n]


def _pk_231_321_row(n_max: int) -> Row:
    # p_n = (n+1)! - sum_{k=0}^{n-1} p_k (n-k)!, p_0 = 1
    p = [1]
    for n in range(1, n_max + 1):
        p.append(math.factorial(n + 1) - sum(p[k] * math.factorial(n - k) for k in range(n)))
        yield n, p[n]


def _dispatch_table() -> dict[tuple[tuple[int, ...], ...], Route]:
    t: dict[tuple[tuple[int, ...], ...], Route] = {}

    def put(
        names: list[str],
        method: str,
        fn: Callable[[int], int] | None = None,
        row: Callable[[int], Row] | None = None,
    ) -> None:
        """fn is the value at one n; a recurrence without one reads its row."""
        for name in names:
            key = pattern_set(*name.split("/")).key()
            t[key] = (method, fn or (lambda n: last_value(row(n))), row)

    # five patterns
    put(["123/132/213/231/312"], "formula", lambda n: 3 if n == 2 else 1)
    put(["132/213/231/312/321"], "formula", lambda n: 3 if n == 2 else math.factorial(n))
    # four patterns
    put(
        ["123/132/213/231", "123/132/213/312", "123/213/231/312"],
        "formula",
        lambda n: 1 if n == 1 else 3,
    )
    put(["123/132/231/312"], "formula", lambda n: 1 if n == 1 else n + 1)
    put(["132/213/231/312"], "formula", lambda n: 1 if n == 1 else math.factorial(n) + 1)
    put(
        ["132/213/231/321", "132/213/312/321", "213/231/312/321"],
        "formula",
        lambda n: 1 if n == 1 else exact_div(math.factorial(n + 1), n),
    )
    put(
        ["132/231/312/321"],
        "formula",
        lambda n: 1 if n == 1 else exact_div(3 * math.factorial(n), 2),
    )
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
        lambda n: exact_div(2 ** (n + 1) + (-1) ** n, 3),
    )
    put(
        ["132/213/231", "132/213/312", "213/231/312"],
        "formula",
        lambda n: sum(math.factorial(k) for k in range(1, n + 1)),
    )
    put(
        ["132/231/312"],
        "formula",
        lambda n: sum(exact_div(math.factorial(n), math.factorial(k)) for k in range(1, n + 1)),
    )
    put(
        ["132/231/321", "132/312/321"],
        "formula",
        lambda n: sum(exact_div(math.factorial(n), k) for k in range(1, n + 1)),
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
            (-1) ** k * exact_div(math.factorial(n), math.factorial(k)) * (n - k + 1)
            for k in range(0, n + 1)
        ),
    )
    # two patterns
    put(
        ["123/231", "123/312"],
        "formula",
        lambda n: exact_div(n * (n - 1) * (n + 4), 6) + 1,
    )
    put(["123/132"], "recurrence", row=_linear_row(lambda b, a: 3 * b - a))
    put(["123/213"], "recurrence", row=_linear_row(lambda b, a: 2 * b + a))
    put(
        ["132/231", "132/312", "231/312"],
        "formula",
        lambda n: exact_div(math.factorial(n + 1), 2),
    )
    put(["132/213", "213/231"], "recurrence", row=_pk_conv_factorial_row)
    put(
        ["132/321"],
        "formula",
        lambda n: math.factorial(n)
        + sum(
            exact_div(
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
    put(["231/321"], "recurrence", row=_pk_231_321_row)
    put(
        ["312/321"],
        "formula",
        lambda n: sum(
            math.comb(n - 1, k - 1) * exact_div(math.factorial(n), math.factorial(k))
            for k in range(1, n + 1)
        ),
    )
    # single patterns
    put(["123"], "formula", pk123)
    put(["213"], "formula", pk213, pk213_row)
    put(["132", "231"], "recurrence", pk132, pk132_row)
    put(["312"], "recurrence", pk312, partial(first_run_row, m=1))
    put(["321"], "recurrence", pk321, pk321_row)
    return t


_DISPATCH = _dispatch_table()


def pk_route(patterns: PatternSet) -> Route:
    """The route that counts ``patterns``-avoiding outcome permutations.

    Every nonempty subset of S_3 hits a dedicated formula or recurrence
    except the ones containing both 123 and 321 (whose avoidance class dies
    at size 5); those, and every other set, take the weighted sum.
    """
    if len(patterns) == 0:
        raise ValueError("pattern set must be nonempty")
    return _DISPATCH.get(patterns.key()) or _walk_route("ell", patterns)


def _count_at(route: Route, n: int) -> CountResult:
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return CountResult(1, "formula")
    method, value, _ = route
    return CountResult(value(n), method)


def pk_count(patterns: PatternSet, n: int) -> CountResult:
    """Count parking functions whose outcome permutation avoids ``patterns``."""
    return _count_at(pk_route(patterns), n)


# -- block-permutation counts -------------------------------------------------

def pf_tree_census_123_132(n: int) -> int:
    """Ordered rooted trees with N = n+1 edges and odd root degree: a root
    of degree d carries d planted subtrees with N edges in all (root edges
    included), and there are d/N C(2N-d-1, N-1) of those (ballot numbers)."""
    edges = n + 1
    total = sum(d * math.comb(2 * edges - d - 1, edges - 1) for d in range(1, edges + 1, 2))
    return exact_div(total, edges)


def pf312321_row(n_max: int) -> Row:
    """2^n p_n = a_{n+1} 2^(n-1) - sum_{m=2}^{n} a_m 2^(m-2), where
    a_m = C(3m-2, m-1)/m; each lead term is the next n's last summand."""
    tail = 0  # sum_{m=2}^{n} a_m 2^(m-2)
    for n in range(1, n_max + 1):
        lead = exact_div(math.comb(3 * n + 1, n), n + 1) << (n - 1)
        yield n, exact_div(lead - tail, 1 << n)
        tail += lead


def pf312321_closed_form(n: int) -> CountResult:
    """C(3n+1, n)/(2(n+1)) - sum_{k=0}^{n-2} C(3n-2-3k, n-k-1)/(2^(k+2)(n-k)),
    in integers: multiplied through by 2^n, see pf312321_row."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return CountResult(last_value(pf312321_row(n)), "formula")


# the block-permutation pattern sets with a closed form, and their routes
PF_ROUTES: dict[PatternSet, Route] = {
    pattern_set("12"): ("formula", lambda n: 1, None),
    pattern_set("21"): ("formula", catalan_number, None),
    pattern_set("123", "132"): ("formula", pf_tree_census_123_132, None),
    pattern_set("123", "213"): (
        "formula", lambda n: catalan_number(n + 1) - catalan_number(n), None
    ),
    pattern_set("312", "321"): ("formula", lambda n: pf312321_closed_form(n).value, pf312321_row),
}


def pf_route(patterns: PatternSet) -> Route:
    """The closed form for ``patterns``, or the block weight summed over the
    avoider walk."""
    return PF_ROUTES.get(patterns) or _walk_route("blocks", patterns)


def pf_count(patterns: PatternSet, n: int) -> CountResult:
    """Count parking functions whose block permutation avoids ``patterns``."""
    return _count_at(pf_route(patterns), n)
