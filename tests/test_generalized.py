import itertools
from functools import partial

import pytest

from parkav import counting, oracle
from parkav import generalized as g
from parkav.counting import CountResult, row_of
from parkav.parking import is_parking
from parkav.paths import path_weight_row
from invariants import (
    all_reports_agree,
    consistency_triangle,
    generalized_path_sums,
    metasylvester_identity,
)
from tables import (
    HYPOPLACTIC_MPARK,
    HYPOSYLVESTER_MULTI,
    METASYLVESTER_MPARK,
    METASYLVESTER_MULTI,
)


def test_evaluation_example():
    ev = g.evaluation((4, 4, 6, 4, 2, 2, 1), 7)
    assert ev.counts == (1, 2, 0, 3, 0, 1, 0)
    assert ev.packed == (1, 2, 3, 1)
    with pytest.raises(ValueError):
        g.evaluation((8,), 7)


def test_multiparking_membership():
    assert g.is_m_multiparking((1, 1, 2, 2), 2, 2)
    assert not g.is_m_multiparking((2, 2, 2, 2), 2, 2)
    assert not g.is_m_multiparking((1, 1, 2), 2, 2)  # wrong length


def test_m_parking_collapses_to_ordinary():
    for n in range(1, 6):
        for values in itertools.product(range(1, n + 1), repeat=n):
            assert g.is_m_parking(values, 1, n) == is_parking(values)


def test_m_parking_bound():
    assert g.is_m_parking((1, 3, 5), 2, 3)
    assert not g.is_m_parking((2, 3, 5), 2, 3)  # sorted f(1) must be 1
    assert not g.is_m_parking((1, 3, 6), 2, 3)  # exceeds 1 + m(n-1)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_hyposylvester_multipark_rows(m):
    assert [g.hyposylvester_multipark(n, m) for n in range(1, 9)] == HYPOSYLVESTER_MULTI[m]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_metasylvester_multipark_rows(m):
    assert [g.metasylvester_multipark(n, m) for n in range(1, 9)] == METASYLVESTER_MULTI[m]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_hypoplactic_mpark_rows(m):
    assert [g.hypoplactic_mpark(n, m) for n in range(1, 9)] == HYPOPLACTIC_MPARK[m]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_metasylvester_mpark_rows_small_m(m):
    n_max = 8 if m <= 2 else 7
    assert [g.metasylvester_mpark(n, m) for n in range(1, n_max + 1)] == METASYLVESTER_MPARK[m][:n_max]


@pytest.mark.parametrize("m", [4, 5])
def test_metasylvester_mpark_rows_large_m(m):
    assert [g.metasylvester_mpark(n, m) for n in range(1, 7)] == METASYLVESTER_MPARK[m][:6]


def test_metasylvester_mpark_has_degree_n_minus_1_in_m():
    """Checked, not proved: for n <= 9 the values at m = 1..n+1 have a zero
    n-th finite difference and a nonzero (n-1)-th one."""
    rows = [[g.metasylvester_mpark(n, m) for n in range(1, 10)] for m in range(1, 11)]
    for n in range(1, 10):
        diffs = [row[n - 1] for row in rows[: n + 1]]
        for _ in range(n - 1):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        # two equal (n-1)-th differences: the n-th is 0, the (n-1)-th is not
        assert len(diffs) == 2 and diffs[0] == diffs[1] != 0, n


def test_specific_entries():
    assert g.hyposylvester_multipark(3, 1) == 12
    assert g.hyposylvester_multipark(5, 2) == 818
    assert g.hyposylvester_multipark(2, 5) == 7
    assert g.metasylvester_multipark(4, 2) == 254
    assert g.metasylvester_multipark(3, 3) == 44
    assert g.metasylvester_mpark(3, 2) == 45
    assert g.metasylvester_mpark(2, 3) == 7
    assert g.hypoplactic_mpark(4, 2) == 249
    assert g.hypoplactic_mpark(3, 4) == 113


def test_hyposylvester_mpark_dual_route():
    assert g.hyposylvester_mpark(1, 1) == 1
    assert g.hyposylvester_mpark(2, 1) == 3
    assert g.hyposylvester_mpark(2, 2) == 5
    for m in range(1, 4):
        for n in range(1, 6):
            assert g.hyposylvester_mpark(n, m) == path_weight_row(n, m, g._CONGRUENCES["hyposylvester"][1])[n]
    assert [g.hyposylvester_mpark(n, 1) for n in range(1, 9)] == HYPOSYLVESTER_MULTI[1]


def test_path_sum_cross_checks():
    generalized_path_sums(6, 3)


def test_per_evaluation_oracle():
    # 5 class families x 5 sizes x 2 values of m
    all_reports_agree(oracle.verify_generalized(5), 50)


def test_per_evaluation_oracle_enumerates_each_size_once(monkeypatch):
    """Every family weighs one packed-evaluation tally per (n, m): the
    multiparking side reads the m = 1 tally, so verify_generalized(5)
    enumerates each of the 10 (n, m) once, not once per family."""
    calls = []
    real = g.enumerate_increasing_mpark

    def counted(n, m):
        calls.append((n, m))
        return real(n, m)

    monkeypatch.setattr(g, "enumerate_increasing_mpark", counted)
    g._evaluation_tally.cache_clear()
    try:
        all_reports_agree(oracle.verify_generalized(5), 50)
    finally:
        g._evaluation_tally.cache_clear()  # no tally built through the counter outlives the test
    assert sorted(calls) == [(n, m) for n in range(1, 6) for m in (1, 2)]


def test_multipark_path_route():
    for m in (1, 2, 3):
        for n in range(1, 7):
            by_paths = {
                name: path_weight_row(n, 1, partial(g._CONGRUENCES[name][1], s=m))[n]
                for name in ("hyposylvester", "metasylvester")
            }
            assert by_paths["hyposylvester"] == g.hyposylvester_multipark(n, m)
            # the same path-weight table, read by path_weight_row and by its first-run cells
            first_runs = sum(counting.first_run_triangle(n, m)[n, k] for k in range(1, n + 1))
            assert by_paths["metasylvester"] == g.metasylvester_multipark(n, m) == first_runs


def test_functional_identity():
    metasylvester_identity(8, 3)


def test_consistency_triangle():
    consistency_triangle(8)


def test_metasylvester_mpark_past_old_cap():
    # from n = 16 on there are more than 10^7 Catalan paths to enumerate;
    # at m = 1 the row and the first-run cells of one path-weight table agree
    for n in range(16, 26):
        assert g.metasylvester_mpark(n, 1) == g.metasylvester_multipark(n, 1)


def test_argument_validation():
    for fn in (
        g.hyposylvester_multipark,
        g.metasylvester_multipark,
        g.metasylvester_mpark,
        g.hypoplactic_mpark,
        g.hyposylvester_mpark,
    ):
        with pytest.raises(ValueError):
            fn(0, 1)
        with pytest.raises(ValueError):
            fn(1, 0)


def test_increasing_mpark_enumeration():
    fns = list(g.enumerate_increasing_mpark(2, 2))
    assert fns == [(1, 1), (1, 2), (1, 3)]
    assert all(g.is_m_parking(f, 2, 2) for f in fns)
    # at m = 1, the increasing parking functions: the multiparking side of
    # the evaluation oracle weighs these
    for n in range(1, 7):
        increasing = [f for f in itertools.product(range(1, n + 1), repeat=n) if list(f) == sorted(f)]
        assert list(g.enumerate_increasing_mpark(n, 1)) == [f for f in increasing if is_parking(f)]


def test_wrapper_types():
    f = g.MMultiparking((1, 1, 2, 2), 2, 2)
    assert f.evaluation().packed == (2, 2)
    with pytest.raises(ValueError):
        g.MMultiparking((2, 2, 2, 2), 2, 2)
    p = g.MParking((1, 3, 5), 2)
    assert p.evaluation().counts == (1, 0, 1, 0, 1)
    with pytest.raises(ValueError):
        g.MParking((2, 3, 5), 2)


@pytest.mark.parametrize("family", sorted(g.CLASS_FAMILIES))
def test_class_rows_match_single_values(family):
    route = g.CLASS_FAMILIES[family]
    method, value, _ = route
    for m in (1, 2, 3):
        want = [(n, CountResult(value(n, m), method)) for n in range(1, 41)]
        assert list(row_of(route, 40, m)) == want, m
