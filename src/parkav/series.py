"""Truncated formal power series over exact rationals.

Everything here is dense and exact: coefficients are ``fractions.Fraction``,
no float sneaks in anywhere.  Binary operations report the minimum truncation
order of their operands.  Beyond the ring operations the module provides the
two tools the counting formulas lean on: solving P = x * phi(P) by iteration,
and coefficient extraction via Lagrange inversion
[x^n] psi(P) = (1/n) [x^(n-1)] psi'(x) phi(x)^n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from ._record import Record

Rat = Fraction | int


class PowerSeries(Record):
    """Coefficients c_0..c_order of a truncated series, all exact rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...]) -> None:
        if not coeffs:
            raise ValueError("series needs at least the constant coefficient")
        super().__init__(tuple(Fraction(c) for c in coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def truncate(self, order: int) -> "PowerSeries":
        if order >= self.order:
            return self
        return PowerSeries(self.coeffs[: order + 1])

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        k = min(self.order, other.order)
        return PowerSeries(tuple(self.coeffs[i] + other.coeffs[i] for i in range(k + 1)))

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        k = min(self.order, other.order)
        return PowerSeries(tuple(self.coeffs[i] - other.coeffs[i] for i in range(k + 1)))

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        k = min(self.order, other.order)
        out = [Fraction(0)] * (k + 1)
        for i, a in enumerate(self.coeffs[: k + 1]):
            if not a:
                continue
            for j in range(0, k + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return PowerSeries(tuple(out))

    def scale(self, c: Rat) -> "PowerSeries":
        c = Fraction(c)
        return PowerSeries(tuple(a * c for a in self.coeffs))

    def __str__(self) -> str:
        terms = [f"{c}*x^{i}" for i, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) if terms else "0"


def series(coeffs: Iterable[Rat], order: int | None = None) -> PowerSeries:
    """Build a series from coefficients, zero-padded up to ``order``."""
    cs = [Fraction(c) for c in coeffs]
    if order is not None:
        if len(cs) > order + 1:
            cs = cs[: order + 1]
        cs.extend([Fraction(0)] * (order + 1 - len(cs)))
    return PowerSeries(tuple(cs))


def zero(order: int) -> PowerSeries:
    return series([], order)


def one(order: int) -> PowerSeries:
    return series([1], order)


def x(order: int) -> PowerSeries:
    return series([0, 1], order)


def geometric(order: int) -> PowerSeries:
    """1/(1-x) up to the given order."""
    return series([1] * (order + 1))


def derivative(f: PowerSeries) -> PowerSeries:
    if f.order == 0:
        return PowerSeries((Fraction(0),))
    return PowerSeries(tuple(Fraction(k) * f.coeffs[k] for k in range(1, f.order + 1)))


def reciprocal(f: PowerSeries) -> PowerSeries:
    """Multiplicative inverse; requires a nonzero constant term."""
    if f.coeffs[0] == 0:
        raise ValueError("series with zero constant term has no reciprocal")
    inv0 = Fraction(1) / f.coeffs[0]
    out = [inv0]
    for k in range(1, f.order + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += f.coeffs[j] * out[k - j]
        out.append(-inv0 * acc)
    return PowerSeries(tuple(out))


def compose(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """f(g(x)) for g with zero constant term (Horner evaluation)."""
    if g.coeffs[0] != 0:
        raise ValueError("composition needs a series with zero constant term")
    k = min(f.order, g.order)
    top = min(f.order, k)
    acc = series([f.coeffs[top]], k)
    for i in range(top - 1, -1, -1):
        acc = acc * g.truncate(k) + series([f.coeffs[i]], k)
    return acc


def power(f: PowerSeries, e: int) -> PowerSeries:
    out = one(f.order)
    base = f
    while e:
        if e & 1:
            out = out * base
        base = base * base
        e >>= 1
    return out


def solve_fixed_point(phi: PowerSeries, order: int) -> PowerSeries:
    """The unique P with P(0) = 0 and P = x * phi(P), to the given order.

    Each iteration of P <- x * phi(P) fixes one more coefficient, so
    ``order`` rounds suffice.  Coefficients of phi beyond its truncation are
    taken to be exact zeros (phi is read as the polynomial given).
    """
    if phi.coeffs[0] == 0:
        raise ValueError("phi must have a nonzero constant term")
    phi = series(phi.coeffs, order)
    p = zero(order)
    xs = x(order)
    for _ in range(order):
        p = xs * compose(phi, p)
    return p


def lagrange_coefficient(phi: PowerSeries, psi: PowerSeries, n: int) -> Fraction:
    """[x^n] psi(P) where P = x*phi(P), via (1/n) [x^(n-1)] psi'(x) phi(x)^n."""
    if n < 1:
        raise ValueError("coefficient index must be >= 1")
    if phi.coeffs[0] == 0:
        raise ValueError("phi must have a nonzero constant term")
    phi_n = power(series(phi.coeffs, n - 1), n)
    dpsi = series(derivative(psi).coeffs, n - 1)
    prod = dpsi * phi_n
    return prod.coefficient(n - 1) / n


def check_identity(lhs: PowerSeries, rhs: PowerSeries, order: int | None = None) -> bool:
    """Coefficient-wise equality up to min(order, operand orders)."""
    k = min(lhs.order, rhs.order)
    if order is not None:
        k = min(k, order)
    return all(lhs.coeffs[i] == rhs.coeffs[i] for i in range(k + 1))


def exp_of(f: PowerSeries) -> PowerSeries:
    """exp(f) = sum f^k / k! for f with zero constant term.

    Only the truncated power sum is implemented; that is all the exponential
    generating function comparisons here need.
    """
    if f.coeffs[0] != 0:
        raise ValueError("exp needs a series with zero constant term")
    order = f.order
    acc = one(order)
    term = one(order)
    for k in range(1, order + 1):
        term = term * f
        acc = acc + term.scale(Fraction(1, math.factorial(k)))
    return acc
