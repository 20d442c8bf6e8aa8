"""Generalized parking functions and their congruence-class counts.

Two generalizations are handled, both determined by m >= 1:

- an m-multiparking function of size mn is f : [mn] -> [n] whose evaluation
  (value-multiplicity vector) is m times the evaluation of an ordinary
  parking function;
- an m-parking function of size n is f : [n] -> [1+m(n-1)] whose sorted
  values satisfy f(i) <= 1 + m(i-1).

Class counts under the hyposylvester / metasylvester / hypoplactic
congruences depend only on the packed evaluation beta of a function, via the
per-class factors prod(1+beta_i) (i>=2), prod(1+suffix sums) (i>=2) and
2^(|beta|-1) respectively.  Since increasing (m-)parking functions biject
with (m-)Catalan paths and packed evaluations with ascent words, the totals
are sums of path weights.  Each factor is a product over the path's up-runs,
so one polynomial table, ``paths.path_weight_table``, gives every total up
to n_max.  Both metasylvester rows read it through ``counting.path_row``
(the m-parking one has no closed form); the tests read it with each
congruence's run factor to cross-check the other closed forms.

Everything returns exact Python integers; the 1/n-style prefactors carry
divisibility assertions.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from ._record import Record
from .counting import PATH_WEIGHTS, Route, Row, last_value, path_row
from .paths import exact_div, path_count

if TYPE_CHECKING:
    from .series import PowerSeries


class Evaluation(Record):
    """Value multiplicities of f : [n] -> [N] plus the packed (nonzero) view."""

    __slots__ = ("counts",)

    @property
    def packed(self) -> tuple[int, ...]:
        return tuple(c for c in self.counts if c)


def evaluation(values: Sequence[int], codomain: int) -> Evaluation:
    counts = [0] * codomain
    for v in values:
        if not 1 <= v <= codomain:
            raise ValueError(f"value {v} outside 1..{codomain}")
        counts[v - 1] += 1
    return Evaluation(tuple(counts))


def is_m_multiparking(values: Sequence[int], m: int, n: int) -> bool:
    """True iff the evaluation is m times a parking-function evaluation."""
    if len(values) != m * n:
        return False
    ev = evaluation(values, n).counts
    if any(c % m for c in ev):
        return False
    scaled = [c // m for c in ev]
    # an evaluation is a parking evaluation iff its prefix sums dominate 1..n
    prefix = 0
    for i, c in enumerate(scaled, start=1):
        prefix += c
        if prefix < i:
            return False
    return True


def is_m_parking(values: Sequence[int], m: int, n: int) -> bool:
    """True iff sorted values satisfy f(i) <= 1 + m(i-1)."""
    if len(values) != n:
        return False
    bound = 1 + m * (n - 1) if n else 0
    if any(not 1 <= v <= bound for v in values):
        return False
    return all(v <= 1 + m * i for i, v in enumerate(sorted(values)))


class MMultiparking(Record):
    """Validated f : [mn] -> [n] whose evaluation is m times a parking one."""

    __slots__ = ("values", "m", "n")

    def __init__(self, values: Sequence[int], m: int, n: int) -> None:
        if not is_m_multiparking(values, m, n):
            raise ValueError(f"not an {m}-multiparking function of size {m * n}")
        super().__init__(tuple(values), m, n)

    def evaluation(self) -> Evaluation:
        return evaluation(self.values, self.n)


class MParking(Record):
    """Validated f : [n] -> [1+m(n-1)] with sorted values below the ramp."""

    __slots__ = ("values", "m")

    def __init__(self, values: Sequence[int], m: int) -> None:
        if not is_m_parking(values, m, len(values)):
            raise ValueError(f"not an {m}-parking function: {values!r}")
        super().__init__(tuple(values), m)

    def evaluation(self) -> Evaluation:
        return evaluation(self.values, 1 + self.m * (len(self.values) - 1))


# -- class-count weights ------------------------------------------------------

def hyposylvester_factor(beta: Sequence[int]) -> int:
    out = 1
    for b in beta[1:]:
        out *= 1 + b
    return out


def metasylvester_factor(beta: Sequence[int]) -> int:
    out = 1
    tail = sum(beta)
    for b in beta[:-1]:
        tail -= b
        out *= 1 + tail
    return out


def hypoplactic_factor(beta: Sequence[int]) -> int:
    return 2 ** (len(beta) - 1) if beta else 1


# congruence -> (class factor of a packed evaluation, the same factor per
# up-run of s times an ascent word: factor(r, v, first, s), with (r, v,
# first) as in counting.PATH_WEIGHTS)
_CONGRUENCES: dict[str, tuple[Callable[[Sequence[int]], int], Callable[..., int]]] = {
    "hyposylvester": (hyposylvester_factor, lambda r, v, first, s=1: 1 if first else 1 + s * r),
    "metasylvester": (metasylvester_factor, PATH_WEIGHTS["312"]),
    "hypoplactic": (hypoplactic_factor, lambda r, v, first, s=1: 1 if first else 2),
}


# -- m-multiparking class counts ----------------------------------------------

def hyposylvester_multipark(n: int, m: int) -> int:
    """(1/n) sum_k C(n,k) C(3n-k, 2n+1) (m-1)^k."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    total = sum(
        math.comb(n, k) * math.comb(3 * n - k, 2 * n + 1) * (m - 1) ** k
        for k in range(0, n)
    )
    return exact_div(total, n)


def _metasylvester_multi_row(n_max: int, m: int) -> Row:
    """Packed evaluations of m-multiparking functions are m times the ascent
    words of unit paths: the "312" path weight at s = m, whose first-run
    triangle is first_run_triangle(n_max, m)."""
    return path_row(partial(PATH_WEIGHTS["312"], s=m), n_max)


def metasylvester_multipark(n: int, m: int) -> int:
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    return last_value(_metasylvester_multi_row(n, m))


# -- m-parking class counts ----------------------------------------------------

def metasylvester_mpark(n: int, m: int) -> int:
    """The sum of prod_{i>=2}(1 + suffix sums of w(C)) over the order-n,
    up-height-m paths C: the "312" path weight.  No closed form is known."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    return last_value(path_row(PATH_WEIGHTS["312"], n, m))


def hypoplactic_mpark(n: int, m: int) -> int:
    """(1/n) sum_k C(mn, k-1) C(n, k) 2^(k-1)."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    total = sum(
        math.comb(m * n, k - 1) * math.comb(n, k) * 2 ** (k - 1)
        for k in range(1, n + 1)
    )
    return exact_div(total, n)


def hyposylvester_mpark(n: int, m: int) -> int:
    """C((2m+1)n, n) / (2mn + 1), the order-n paths of up-height 2m: it
    matches the per-evaluation product sum (asserted in tests)."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    return path_count(n, 2 * m)


# -- the family registry -------------------------------------------------------

# name -> (method, value(n, m), row(n_max, m)); a row of None maps the value
# over n.  The CLI, verify and the tests read this one table.
CLASS_FAMILIES: dict[str, Route] = {
    "hyposylvester-multi": ("formula", hyposylvester_multipark, None),
    "metasylvester-multi": ("formula", metasylvester_multipark, _metasylvester_multi_row),
    "metasylvester-m": ("weighted_sum", metasylvester_mpark, partial(path_row, PATH_WEIGHTS["312"])),
    "hypoplactic-m": ("formula", hypoplactic_mpark, None),
    "hyposylvester-m": ("formula", hyposylvester_mpark, None),
}


# -- per-evaluation oracle ------------------------------------------------------

def enumerate_increasing_mpark(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """All nondecreasing m-parking functions of size n."""
    out: list[int] = []

    def rec(i: int, last: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(out)
            return
        for v in range(last, 2 + m * i):
            out.append(v)
            yield from rec(i + 1, v)
            out.pop()

    yield from rec(0, 1)


@lru_cache(maxsize=None)
def _evaluation_tally(n: int, m: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """How many nondecreasing m-parking functions of size n have each packed
    evaluation, from one enumeration that every congruence then weighs."""
    codomain = 1 + m * (n - 1)
    return tuple(Counter(evaluation(f, codomain).packed for f in enumerate_increasing_mpark(n, m)).items())


def mpark_class_count_by_evaluations(n: int, m: int, congruence: str) -> int:
    """Independent route for the m-parking tables: enumerate increasing
    m-parking functions directly (sorted tuples, not paths), take packed
    evaluations, and sum the class factor."""
    fn = _CONGRUENCES[congruence][0]
    return sum(fn(beta) * count for beta, count in _evaluation_tally(n, m))


def multipark_class_count_by_evaluations(n: int, m: int, congruence: str) -> int:
    """Per-evaluation oracle on the multiparking side: scale each increasing
    ordinary parking evaluation by m.  The increasing ordinary parking
    functions are the increasing 1-parking functions."""
    fn = _CONGRUENCES[congruence][0]
    return sum(fn(tuple(m * c for c in beta)) * count for beta, count in _evaluation_tally(n, 1))


# -- the metasylvester functional identity ---------------------------------------

def metasylvester_identity_sides(m: int, order: int) -> tuple[PowerSeries, PowerSeries]:
    """Both sides of x/(1-x) = sum_n p_n x^n (1-x)^n / prod_l (1+mlx),
    truncated at ``order`` (terms beyond n = order cannot contribute)."""
    from .series import geometric, one, reciprocal, series, x, zero

    lhs = x(order) * geometric(order)
    rhs = zero(order)
    denom = one(order)
    numer = one(order)
    one_minus_x = series([1, -1], order)
    xs = x(order)
    for n, p_n in _metasylvester_multi_row(order, m):
        numer = numer * one_minus_x * xs
        denom = denom * series([1, m * n], order)
        term = numer * reciprocal(denom)
        rhs = rhs + term.scale(p_n)
    return lhs, rhs
