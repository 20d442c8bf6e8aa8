import math
from fractions import Fraction

import pytest

from parkav import counting, oracle, permutations
from parkav.counting import (
    CountResult,
    generic_weighted_pk,
    pf312321_closed_form,
    pf_count,
    pk_count,
    pk_sum_over_paths,
)
from parkav.paths import catalan_number
from parkav.permutations import (
    BudgetExceeded,
    all_permutations,
    avoids_all,
    ell_weight,
    parse_pattern_set,
    pattern_set,
)
from invariants import (
    all_s3_subsets,
    pk_dispatch_matches_weighted,
    path_sums_match_tables,
    weighted_matches_oracle,
)
from tables import PF_312_321, PK_123_132_FIRST6, PK_123_213_FIRST6, PK_ROWS


@pytest.mark.parametrize("patterns_text,row", sorted(PK_ROWS.items()))
def test_pk_rows(patterns_text, row):
    patterns = parse_pattern_set(patterns_text)
    assert [pk_count(patterns, n).value for n in range(1, 9)] == row


def test_generic_weighted_examples():
    assert generic_weighted_pk(2, pattern_set("12")).value == 1
    assert generic_weighted_pk(4, pattern_set("21")).value == 24
    assert generic_weighted_pk(5, pattern_set("123", "321")).value == 0
    assert generic_weighted_pk(0, pattern_set("123")).value == 1


def _weighted_by_scan(n, patterns):
    """ell_weight summed over every permutation that avoids the patterns."""
    return sum(ell_weight(p) for p in all_permutations(n) if avoids_all(p, patterns))


@pytest.mark.parametrize("text", ["1", "12", "21", "1234", "2143", "12,321"])
def test_generic_weighted_matches_scan(text):
    patterns = parse_pattern_set(text)
    for n in range(0, 8):
        assert generic_weighted_pk(n, patterns).value == _weighted_by_scan(n, patterns), n


def test_both_monotone_patterns_fall_back():
    patterns = pattern_set("123", "321")
    result = pk_count(patterns, 5)
    assert result.value == 0
    assert result.method == "weighted_sum"
    for n in range(1, 8):
        assert pk_count(patterns, n).value == oracle.brute_pk(n, patterns)


def test_sets_with_both_monotone_patterns_die_at_five():
    """Erdos-Szekeres: a permutation of size >= 5 holds a 123 or a 321, so
    every subset of S_3 holding both counts 0; the pruned walk gets there
    without scanning S_n."""
    both = [p for p in all_s3_subsets() if {"123", "321"} <= set(str(p).split(","))]
    assert len(both) == 16
    for patterns in both:
        for n in range(5, 13):
            assert pk_count(patterns, n) == CountResult(0, "weighted_sum"), (str(patterns), n)


def test_method_provenance():
    assert pk_count(pattern_set("123"), 4).method == "formula"
    assert pk_count(pattern_set("312"), 4).method == "recurrence"
    assert pk_count(pattern_set("123", "132"), 4).method == "recurrence"
    assert pf_count(pattern_set("132"), 3).method == "weighted_sum"
    assert int(CountResult(7, "formula")) == 7


def test_dispatch_matches_weighted_sum():
    pk_dispatch_matches_weighted(8)


def test_weighted_matches_simulation():
    weighted_matches_oracle(7)


def test_triangular_tables():
    assert counting.pk312_table(1)[1, 1] == 1
    assert counting.pk321_table(1)[1, 1] == 1
    assert [counting.pk312(n) for n in range(1, 9)] == PK_ROWS["312"]
    assert [counting.pk321(n) for n in range(1, 9)] == PK_ROWS["321"]


def _double_sum_triangle(n, row_factor, kernel):
    """The defining double sum of counting.triangle, O(n^4): the reference."""
    t = {}
    for r in range(1, n + 1):
        t[r, r] = 1
        for k in range(r - 1, 0, -1):
            acc = 0
            for i in range(r - k, r):
                for j in range(k + 1 - r + i, i + 1):
                    acc += kernel(r - i + j - k - 1) * t[i, j]
            t[r, k] = row_factor(r, k) * acc
    return t


def test_triangles_match_double_sum():
    n = 25
    first_run = lambda m: _double_sum_triangle(n, lambda r, k: 1 + m * (r - k), lambda d: 1)
    assert counting.pk312_table(n) == first_run(1)
    assert counting.pk321_table(n) == _double_sum_triangle(n, lambda r, k: r - k + 1, math.factorial)
    for m in (1, 2, 3):
        assert counting.first_run_triangle(n, m) == first_run(m)


def test_rows_match_single_counts():
    # every subset of S_3 with its own formula or recurrence
    routed = [p for p in all_s3_subsets() if not {"123", "321"} <= {str(q) for q in p}]
    assert len(routed) == 47
    for patterns in routed:
        assert counting.pk_route(patterns)[0] != "weighted_sum", patterns
        want = [(n, pk_count(patterns, n)) for n in range(1, 41)]
        assert list(counting.row_of(counting.pk_route(patterns), 40)) == want, patterns
    assert len(counting.PF_ROUTES) == 5
    for patterns in counting.PF_ROUTES:
        want = [(n, pf_count(patterns, n)) for n in range(1, 41)]
        assert list(counting.row_of(counting.pf_route(patterns), 40)) == want, patterns


def _pf312321_fraction(n):
    """The closed form as printed, in rationals."""
    total = Fraction(math.comb(3 * n + 1, n), 2 * (n + 1))
    for k in range(0, n - 1):
        total -= Fraction(math.comb(3 * n - 2 - 3 * k, n - k - 1), 2 ** (k + 2) * (n - k))
    assert total.denominator == 1
    return int(total)


def test_pf312321_integer_form_matches_fractions():
    assert list(counting.pf312321_row(200)) == [(n, _pf312321_fraction(n)) for n in range(1, 201)]


def _tree_census_by_convolution(n):
    """sum over odd d of [x^(n+1-d)] Cat(x)^d, by repeated convolution."""
    edges = n + 1
    cat = [catalan_number(k) for k in range(edges + 1)]
    total = 0
    power = [1] + [0] * edges
    for d in range(1, edges + 1):
        power = [sum(power[i] * cat[k - i] for i in range(k + 1)) for k in range(edges + 1)]
        if d % 2 == 1:
            total += power[edges - d]
    return total


def test_tree_census_matches_convolution():
    for n in range(0, 41):
        assert counting.pf_tree_census_123_132(n) == _tree_census_by_convolution(n), n


def test_pf_walk_row_refuses_up_front(monkeypatch):
    monkeypatch.setattr(permutations, "WALK_BUDGET", 1000)
    with pytest.raises(BudgetExceeded):
        next(counting.row_of(counting.pf_route(pattern_set("132")), 9))


def test_recurrence_rows_first_terms():
    assert [pk_count(pattern_set("123", "132"), n).value for n in range(1, 7)] == PK_123_132_FIRST6
    assert [pk_count(pattern_set("123", "213"), n).value for n in range(1, 7)] == PK_123_213_FIRST6


def test_path_weight_sums():
    assert pk_sum_over_paths(4, "123").value == 37
    assert pk_sum_over_paths(4, "213").value == 69
    assert pk_sum_over_paths(3, "321").value == 15
    path_sums_match_tables(10)
    with pytest.raises(ValueError):
        pk_sum_over_paths(3, "nope")
    formula_routes = {
        "123": counting.pk123,
        "213": counting.pk213,
        "312": counting.pk312,
        "321": counting.pk321,
        "pf-312-321": lambda n: pf312321_closed_form(n).value,
    }
    for weight, formula in formula_routes.items():
        for n in range(1, 31):
            assert pk_sum_over_paths(n, weight).value == formula(n), (weight, n)


def test_pf_counts():
    assert [pf_count(pattern_set("312", "321"), n).value for n in range(1, 9)] == PF_312_321
    assert pf_count(pattern_set("123", "213"), 3).value == 9
    assert pf_count(pattern_set("21"), 4).value == 14
    assert pf_count(pattern_set("12"), 3).value == 1
    assert pf_count(pattern_set("123", "132"), 2).value == 3
    assert pf_count(pattern_set("123"), 0).value == 1


def test_pf_closed_forms_match_brute():
    for text in ("12", "21", "123,132", "123,213", "312,321"):
        patterns = parse_pattern_set(text)
        for n in range(1, 7):
            assert pf_count(patterns, n).value == oracle.brute_pf(n, patterns), (text, n)


def test_pf_weighted_sum_fallback():
    patterns = pattern_set("132")
    assert pf_count(patterns, 3).value == oracle.brute_pf(3, patterns)
    # past the oracle's cap, where the old brute-force route refused
    assert pf_count(patterns, 9) == CountResult(1127649, "weighted_sum")


def test_pf312321_always_integral():
    for n in range(1, 21):
        pf312321_closed_form(n)  # raises on any non-integer intermediate
    assert pf312321_closed_form(1).value == 1
    assert pf312321_closed_form(5).value == 324
    assert pf312321_closed_form(8).value == 54223


def test_tree_census_against_block_count():
    # trees with n+1 edges and odd root degree count the {123,132} family
    assert [counting.pf_tree_census_123_132(n) for n in range(1, 7)] == [
        oracle.brute_pf(n, pattern_set("123", "132")) for n in range(1, 7)
    ]


def test_catalan_relation_for_21_row():
    for n in range(1, 8):
        assert pf_count(pattern_set("21"), n).value == catalan_number(n)


def test_rejects_empty_pattern_set():
    from parkav.permutations import PatternSet

    with pytest.raises(ValueError):
        pk_count(PatternSet(()), 3)
