"""Exact counts of pattern-restricted parking functions.

Two families are counted, by which permutation carries the pattern
condition:

- ``pk``: parking functions whose outcome permutation (spot -> car) avoids
  every pattern in a set P.  Every subset of S_3 not containing both 123
  and 321 dispatches a closed form or a recurrence.  The 312 and 321 rows
  are sums of path weights, read from ``paths.path_weight_row`` through
  ``path_row``, the adapter every path-weight row shares; their first-run
  triangles (``pk312_table``, ``pk321_table``) are cells of the same table.
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
from functools import cache, partial
from itertools import accumulate, islice
from typing import Callable, Iterator

from ._record import Record
from .paths import catalan_number, exact_div, path_weight_row, path_weight_table
from .permutations import PatternSet, avoider_walk, pattern_set


class CountResult(Record):
    """An exact count plus the provenance of the computation."""

    # method: formula | recurrence | weighted_sum (avoider walk or path weights)
    __slots__ = ("value", "method")

    def __int__(self) -> int:
        return self.value


def generic_weighted_pk(n: int, patterns: PatternSet) -> CountResult:
    """Sum of ell_weight over the avoidance class; works for any pattern set."""
    return CountResult(avoider_walk(n, patterns).at("ell", n), "weighted_sum")


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
        walk = avoider_walk(n_max, patterns)
        return ((n, walk.at(weight, n)) for n in range(1, n_max + 1))

    return "weighted_sum", lambda n: avoider_walk(n, patterns).at(weight, n), row


def _factorials(n: int) -> list[int]:
    """[0!, 1!, ..., n!] by one running product."""
    return list(accumulate(range(1, n + 1), operator.mul, initial=1))


def _with_factorials(fn: Callable[[int, list[int]], int]) -> Callable[[int], int]:
    """The value fn(n, f) with f = _factorials(n + 1), built once per call."""
    return lambda n: fn(n, _factorials(n + 1))


# -- single-pattern tables ---------------------------------------------------

def pk123(n: int) -> int:
    """(1/(n+1)) * sum_k C(n+1,k) C(n+k-1, 2k-1)."""
    if n == 0:
        return 1
    total = sum(math.comb(n + 1, k) * math.comb(n + k - 1, 2 * k - 1) for k in range(1, n + 1))
    return exact_div(total, n + 1)


def pk213_row(n_max: int) -> Row:
    """p_n = (1/(n+1)) [x^n] F^(n+1) with F = sum_k k! x^k.  By Lagrange
    inversion that is b_n, where A = x F(A) and B = F(A) = A/x.  F solves
    x^2 F' = (1 - x) F - 1, and putting A = xB into it gives

        B^2 - B = 2 x^2 B^2 B' + x B^3 - x B' (B - 1),  B(0) = 1.

    [x^m] of the left side is b_m + sum_{0<i<m} b_i b_{m-i}, and the right
    side reads only b_0..b_{m-1}.  So running coefficient lists of B, B^2,
    B^3 and B' give each b_m in O(m) products: O(n^2) for the row, with no
    division.
    """
    b, sq, cube, db = [1], [1], [1], []  # B, B^2, B^3 and B' (db[j] = (j+1) b_{j+1})
    for m in range(1, n_max + 1):
        inner = sum(map(operator.mul, islice(b, 1, None), reversed(b)))
        bm = (
            2 * sum(map(operator.mul, sq, reversed(db)))
            + cube[m - 1]
            - sum(map(operator.mul, db, reversed(b)))
            - inner
        )
        b.append(bm)
        sq.append(2 * bm + inner)
        cube.append(sum(map(operator.mul, b, reversed(sq))))
        db.append(m * bm)
        yield m, bm


def pk213(n: int) -> int:
    return last_value(pk213_row(n))


def pk132_row(n_max: int) -> Row:
    """p_0 = 1, p_n = sum_{j<n} (j+1) p_j p_{n-1-j}, for both the 132 and
    the 231 flavours.  Terms j and n-1-j pair to (n+1) p_j p_{n-1-j}: with
    h = n // 2 and s = sum_{j<h} p_j p_{n-1-j}, p_n is (n+1) s for even n
    and ((n+1)/2)(2s + p_h^2) for odd n, in half the products.

    >>> [p for _, p in pk132_row(5)]
    [1, 3, 14, 85, 621]
    """
    p = [1]
    for n in range(1, n_max + 1):
        h = n // 2
        s = sum(map(operator.mul, p[:h], reversed(p[n - h :])))
        p.append((n + 1) * s if n % 2 == 0 else (n + 1) // 2 * (2 * s + p[h] * p[h]))
        yield n, p[n]


def pk132(n: int) -> int:
    return last_value(pk132_row(n))


# -- sums over lattice paths -------------------------------------------------

# weight(r, v, first): factor of an up-run of length r, v up-steps from its
# start to the path's end (last iff r == v), first iff it opens the path.  The
# "312" weight at s is the metasylvester class factor of s times an ascent word.
PATH_WEIGHTS: dict[str, Callable[..., int]] = {
    "123": lambda r, v, first: r,
    "213": lambda r, v, first: math.factorial(r),
    "312": lambda r, v, first, s=1: 1 if first else 1 + s * v,
    "321": lambda r, v, first: PATH_WEIGHTS["312"](r, v, first) * math.factorial(r - 1),
    "pf-312-321": lambda r, v, first: 1 if r == v else r + 1,
}


def path_row(run_factor: Callable[..., int], n_max: int, m: int = 1) -> Row:
    """The row of path_weight_row(n_max, m, run_factor), n = 1..n_max: how
    every count that sums path weights reads the one table."""
    return enumerate(path_weight_row(n_max, m, run_factor)[1:], start=1)


def pk_sum_over_paths(n: int, weight: str) -> CountResult:
    """Sum the named weight of the ascent word over all order-n paths: the
    single-pattern counts, and the {312,321} block-permutation count via
    "pf-312-321"."""
    if weight not in PATH_WEIGHTS:
        raise ValueError(f"unknown weight {weight!r}; choose from {sorted(PATH_WEIGHTS)}")
    return CountResult(last_value(path_row(PATH_WEIGHTS[weight], n)), "weighted_sum")


def pk312(n: int) -> int:
    return pk_sum_over_paths(n, "312").value


def pk321(n: int) -> int:
    return pk_sum_over_paths(n, "321").value


def _first_run_table(n: int, run_factor: Callable[[int, int, bool], int]) -> dict[tuple[int, int], int]:
    """t[r, k] for 1 <= k <= r <= n: over the order-r unit paths whose first
    run has length k, the sum of the product of the later runs' factors.
    These are the cells down[r - k][k] of one path_weight_table, the cells
    that path_weight_row weighs by each first run's factor."""
    down = path_weight_table(n, 1, run_factor)
    return {(r, k): down[r - k][k] for r in range(1, n + 1) for k in range(1, r + 1)}


def first_run_triangle(n: int, m: int) -> dict[tuple[int, int], int]:
    """The first-run table of the "312" weight at s = m, where each later run
    weighs 1 + m·v: its row sums are the metasylvester m-multiparking counts,
    and m = 1 specializes to the 312 table."""
    return _first_run_table(n, partial(PATH_WEIGHTS["312"], s=m))


def pk312_table(n: int) -> dict[tuple[int, int], int]:
    """The 312 table: first_run_triangle at m = 1."""
    return first_run_triangle(n, 1)


def pk321_table(n: int) -> dict[tuple[int, int], int]:
    """The first-run table of the "321" weight: a later run of length r
    weighs (1 + v)(r - 1)!; the first run's (k - 1)! is left to the row."""
    return _first_run_table(n, PATH_WEIGHTS["321"])


# -- dispatch over subsets of S_3 --------------------------------------------

def _linear_row(step: Callable[[int, int], int]) -> Callable[[int], Row]:
    """p_1 = 1, p_2 = 3 and p_n = step(p_{n-1}, p_{n-2})."""

    def row(n_max: int) -> Row:
        a, b = 1, 3
        for n in range(1, n_max + 1):
            yield n, a
            a, b = b, step(b, a)

    return row


def _factorial_conv_row(n_max: int, complement: bool = False) -> Row:
    """p_0 = 1 and p_n = c_n, or (n+1)! - c_n if complement, where
    c_n = sum_{j<n} p_j (n-j)!: the {132,213} and {231,321} rows."""
    f = _factorials(n_max + 1)
    p = [1]
    for n in range(1, n_max + 1):
        c = sum(map(operator.mul, p, reversed(f[1 : n + 1])))
        p.append(f[n + 1] - c if complement else c)
        yield n, p[n]


@cache
def _dispatch_table() -> dict[tuple[tuple[int, ...], ...], Route]:
    """The pk routes by pattern-set key, built on the first pk_route call."""
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
        _with_factorials(lambda n, f: sum(f[1 : n + 1])),
    )
    put(
        ["132/231/312"],
        "formula",
        _with_factorials(lambda n, f: sum(exact_div(f[n], f[k]) for k in range(1, n + 1))),
    )
    put(
        ["132/231/321", "132/312/321"],
        "formula",
        _with_factorials(lambda n, f: sum(exact_div(f[n], k) for k in range(1, n + 1))),
    )
    put(
        ["132/213/321", "213/231/321"],
        "formula",
        _with_factorials(lambda n, f: sum(f[k] * f[n - k] for k in range(1, n + 1))),
    )
    put(["213/312/321"], "formula", lambda n: (2 * n - 1) * math.factorial(n - 1))
    put(
        ["231/312/321"],
        "formula",
        _with_factorials(
            lambda n, f: sum(
                (-1) ** k * exact_div(f[n], f[k]) * (n - k + 1) for k in range(0, n + 1)
            )
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
    put(["132/213", "213/231"], "recurrence", row=_factorial_conv_row)
    put(
        ["132/321"],
        "formula",
        _with_factorials(
            lambda n, f: f[n]
            + sum(
                exact_div(f[a] * f[b] * f[n], f[a + b])
                for a in range(1, n)
                for b in range(1, n - a + 1)
            )
        ),
    )
    put(
        ["213/321"],
        "formula",
        _with_factorials(lambda n, f: f[n] + sum(k * f[k] * f[n - k] for k in range(1, n))),
    )
    put(
        ["213/312"],
        "formula",
        _with_factorials(lambda n, f: sum(math.comb(n - 1, k) * f[k + 1] for k in range(0, n))),
    )
    put(["231/321"], "recurrence", row=partial(_factorial_conv_row, complement=True))
    put(
        ["312/321"],
        "formula",
        _with_factorials(
            lambda n, f: sum(
                math.comb(n - 1, k - 1) * exact_div(f[n], f[k]) for k in range(1, n + 1)
            )
        ),
    )
    # single patterns
    put(["123"], "formula", pk123)
    put(["213"], "formula", pk213, pk213_row)
    put(["132", "231"], "recurrence", pk132, pk132_row)
    put(["312"], "recurrence", pk312, partial(path_row, PATH_WEIGHTS["312"]))
    put(["321"], "recurrence", pk321, partial(path_row, PATH_WEIGHTS["321"]))
    return t


def pk_route(patterns: PatternSet) -> Route:
    """The route that counts ``patterns``-avoiding outcome permutations.

    Every nonempty subset of S_3 hits a dedicated formula or recurrence
    except the ones containing both 123 and 321 (whose avoidance class dies
    at size 5); those, and every other set, take the weighted sum.
    """
    if len(patterns) == 0:
        raise ValueError("pattern set must be nonempty")
    return _dispatch_table().get(patterns.key()) or _walk_route("ell", patterns)


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
