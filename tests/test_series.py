import math
import random
from fractions import Fraction

import pytest

from parkav import counting
from power_series import (
    check_identity,
    compose,
    derivative,
    geometric,
    lagrange_coefficient,
    metasylvester_identity_sides,
    one,
    power,
    reciprocal,
    series,
    solve_fixed_point,
    x,
    zero,
)


def test_basic_ops():
    geo = reciprocal(series([1, -1], 6))
    assert geo.coeffs == tuple(Fraction(1) for _ in range(7))
    assert derivative(series([0, 0, 1], 4)).coeffs[:2] == (Fraction(0), Fraction(2))
    assert check_identity(series([1, -1], 6) * geo, one(6))
    assert (series([1, 2], 3) + series([1, 1], 3)).coeffs[:2] == (2, 3)
    with pytest.raises(ValueError):
        reciprocal(series([0, 1], 3))


def test_fixed_point_catalan():
    p = solve_fixed_point(geometric(6), 6)
    # shifted pattern: coefficient n is the (n-1)-st ballot-path count
    assert [p.coefficient(k) for k in range(7)] == [0, 1, 1, 2, 5, 14, 42]
    assert p.coefficient(3) == 2


def test_fixed_point_trivialities():
    assert solve_fixed_point(one(5), 5).coeffs == x(5).coeffs
    with pytest.raises(ValueError):
        solve_fixed_point(x(5), 5)


def test_fixed_point_weighted():
    # phi = (1+x)/(1-x)^2; the fixed point starts x + 3x^2 + 14x^3 + ...
    phi = series([1, 1], 8) * power(reciprocal(series([1, -1], 8)), 2)
    p = solve_fixed_point(phi, 8)
    assert p.coefficient(2) == 3
    assert p.coefficient(3) == 14
    # its derived ratio series P/(1-P) carries the m=2 multiparking row
    ratio = p * reciprocal(one(8) - p)
    assert [ratio.coefficient(k) for k in range(1, 6)] == [1, 4, 21, 126, 818]


def test_lagrange_against_tables():
    # phi for the product weight; counts sit one index up (p_n = [x^(n+1)])
    order = 10
    phi123 = one(order) + x(order) * power(reciprocal(series([1, -1], order)), 2)
    for n in range(1, 7):
        assert lagrange_coefficient(phi123, x(order), n + 1) == counting.pk123(n)
    assert lagrange_coefficient(phi123, x(order), 4) == 10
    phi213 = series([math.factorial(k) for k in range(order + 1)])
    for n in range(1, 7):
        assert lagrange_coefficient(phi213, x(order), n + 1) == counting.pk213(n)
    assert lagrange_coefficient(phi213, x(order), 4) == 13
    # psi = x, phi = 1: the fixed point is x itself
    assert lagrange_coefficient(one(6), x(6), 3) == 0
    with pytest.raises(ValueError):
        lagrange_coefficient(phi123, x(order), 0)


def test_lagrange_matches_fixed_point_on_random_inputs():
    rng = random.Random(417)
    for _ in range(25):
        phi_coeffs = [rng.randint(1, 3)] + [rng.randint(-3, 3) for _ in range(4)]
        psi_coeffs = [rng.randint(-3, 3) for _ in range(5)]
        phi = series(phi_coeffs, 12)
        psi = series(psi_coeffs, 12)
        p = solve_fixed_point(phi, 12)
        composed = compose(psi, p)
        for n in range(1, 13):
            assert lagrange_coefficient(phi, psi, n) == composed.coefficient(n)


def test_exact_algebra_properties():
    rng = random.Random(99)
    for _ in range(10):
        a = series([Fraction(rng.randint(1, 5))] + [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(20)])
        b = series([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(21)])
        c = series([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(21)])
        assert check_identity((a * b) * c, a * (b * c))
        assert check_identity(a * reciprocal(a), one(20))


def test_chini_equation_for_product_weight_counts():
    order = 60
    p = series([1] + [value for _, value in counting.pk132_row(order)])
    residual = x(order) * x(order) * p * derivative(p) + x(order) * p * p - p + one(order)
    assert check_identity(residual, zero(order))


def test_metasylvester_identity_m1_with_312_counts():
    lhs, rhs = metasylvester_identity_sides(1, 10)
    assert check_identity(lhs, rhs)
    assert check_identity(one(5), one(5))


def test_truncation_tracking():
    a = series([1, 2, 3])
    b = series([1, 1, 1, 1, 1])
    assert (a * b).order == 2
    assert (a + b).order == 2
    assert a.truncate(1).coeffs == (1, 2)
