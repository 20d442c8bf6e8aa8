import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import partial

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
from parkav.paths import catalan_number, enumerate_paths
from parkav.permutations import (
    BudgetExceeded,
    all_permutations,
    avoider_walk,
    avoids_all,
    ell_weight,
    parse_pattern_set,
    pattern_set,
)
from invariants import (
    all_reports_agree,
    all_s3_subsets,
    double_sum_row,
    double_sum_triangle,
    pk_dispatch_matches_weighted,
    path_sums_match_tables,
    reference_pk132_row,
)
from tables import PF_312_321, PK_123_132_FIRST6, PK_123_213_FIRST6, PK_ROWS
from views import ascent_word


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


def test_size4_counts_at_nine():
    # pinned from the subset-search engine that answered size 4 before the linear end query
    patterns = pattern_set("1234")
    assert pk_count(patterns, 9) == CountResult(3566300, "weighted_sum")
    assert pf_count(patterns, 9) == CountResult(11700789, "weighted_sum")


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


def test_pk_dispatch_table_waits_for_the_first_pk_route():
    # importing counting builds no pk table, so classes and pf calls, which
    # never read it, do not pay for it; the first pk route builds it once
    code = (
        "from parkav import counting, generalized\n"
        "from parkav.permutations import pattern_set\n"
        "generalized.metasylvester_mpark(5, 2)\n"
        "counting.pf_count(pattern_set('312', '321'), 6)\n"
        "assert counting._dispatch_table.cache_info().currsize == 0\n"
        "counting.pk_count(pattern_set('321'), 6)\n"
        "counting.pk_count(pattern_set('123', '132'), 6)\n"
        "info = counting._dispatch_table.cache_info()\n"
        "assert (info.misses, info.currsize) == (1, 1), info\n"
    )
    src = os.path.dirname(os.path.dirname(counting.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr


def test_summed_last_level_matches_the_closed_forms_to_ten():
    # the walk sums its last level without building it: both weights against
    # every closed-form row, and the sums still end where the class dies
    for patterns in all_s3_subsets():
        if patterns.key() in counting._dispatch_table():
            row = [c.value for _, c in counting.row_of(counting.pk_route(patterns), 10)]
            assert avoider_walk(10, patterns).ell[1:] == row, str(patterns)
    for patterns, route in counting.PF_ROUTES.items():
        if len(patterns) == 2:
            row = [c.value for _, c in counting.row_of(route, 10)]
            assert avoider_walk(10, patterns).blocks[1:] == row, str(patterns)
    for n in range(4, 8):
        assert len(avoider_walk(n, pattern_set("123", "321")).ell) == 5, n
    sums = avoider_walk(10**6, pattern_set("1", "12345"))
    assert (sums.ell, sums.blocks) == ([1], [1])


def test_pf_rows_pair_up_for_132_231_and_312_213():
    # checked term by term to n = 10 through the avoider walk, not proved
    # here: pf {132} = pf {231} and pf {312} = pf {213}
    for a, b in (("132", "231"), ("312", "213")):
        row_a, row_b = (avoider_walk(10, pattern_set(p)).blocks[1:] for p in (a, b))
        assert row_a == row_b, (a, b)
        assert row_a == [c.value for _, c in counting.row_of(counting.pf_route(pattern_set(a)), 10)]
    assert row_a[:3] == [1, 3, 14]  # pf {312}: all of n = 1, 2 and 14 of the 16 at n = 3


def test_walk_sums_stop_where_the_class_dies():
    # the walk's sums reach only the sizes that have an avoider; every reader
    # takes a missing size as 0, and a row still has every n
    assert len(avoider_walk(10**7, pattern_set("1")).ell) == 1
    assert pk_count(pattern_set("1"), 10**7) == CountResult(0, "weighted_sum")
    assert pf_count(pattern_set("1"), 10**7) == CountResult(0, "weighted_sum")
    assert generic_weighted_pk(10**7, pattern_set("1")).value == 0
    row = list(counting.row_of(counting.pk_route(pattern_set("123", "321")), 9))
    assert [n for n, _ in row] == list(range(1, 10))
    head = [oracle.brute_pk(n, pattern_set("123", "321")) for n in range(1, 5)]
    assert [r.value for _, r in row] == head + [0] * 5


def test_method_provenance():
    assert pk_count(pattern_set("123"), 4).method == "formula"
    assert pk_count(pattern_set("312"), 4).method == "recurrence"
    assert pk_count(pattern_set("123", "132"), 4).method == "recurrence"
    assert pf_count(pattern_set("132"), 3).method == "weighted_sum"
    assert int(CountResult(7, "formula")) == 7


def test_dispatch_matches_weighted_sum():
    pk_dispatch_matches_weighted(8)


def test_weighted_matches_simulation():
    # 63 subsets x 7 sizes x (formula, weighted sum), each against simulation
    all_reports_agree(oracle.verify_pk(7), 882)


def test_triangular_tables():
    assert counting.pk312_table(1)[1, 1] == 1
    assert counting.pk321_table(1)[1, 1] == 1
    assert [counting.pk312(n) for n in range(1, 9)] == PK_ROWS["312"]
    assert [counting.pk321(n) for n in range(1, 9)] == PK_ROWS["321"]


def test_triangles_match_double_sum():
    n = 25
    first_run = lambda m: double_sum_triangle(n, lambda r, k: 1 + m * (r - k), lambda d: 1)
    assert counting.pk312_table(n) == first_run(1)
    assert counting.pk321_table(n) == double_sum_triangle(n, lambda r, k: r - k + 1, math.factorial)
    for m in (1, 2, 3):
        assert counting.first_run_triangle(n, m) == first_run(m)


def test_triangle_cells_sum_the_later_runs_of_paths():
    # t[r, k]: over the order-r paths whose first run has length k, the sum
    # of the products of the later runs' factors
    n = 8
    tables = {
        f"312-s{m}": (counting.first_run_triangle(n, m), partial(counting.PATH_WEIGHTS["312"], s=m))
        for m in (1, 2, 3)
    }
    tables["321"] = (counting.pk321_table(n), counting.PATH_WEIGHTS["321"])
    for name, (table, factor) in tables.items():
        want = Counter()
        for r in range(1, n + 1):
            for p in enumerate_paths(r):
                first, *later = ascent_word(p).runs
                weight, v = 1, r - first
                for run in later:
                    weight *= factor(run, v, False)
                    v -= run
                want[r, first] += weight
        assert table == dict(want), name


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


def _pk213_by_powers(n_max):
    """p_n = (1/(n+1)) [x^n] F^(n+1) with F = sum_k k! x^k, one truncated
    power of F per n, O(n^3): the reference for counting.pk213_row."""
    factorials = [math.factorial(k) for k in range(n_max + 1)]
    power = factorials
    for n in range(1, n_max + 1):
        nxt = [0] * (n_max + 1)
        for i, a in enumerate(power):
            for j in range(n_max + 1 - i):
                nxt[i + j] += a * factorials[j]
        power = nxt
        yield n, counting.exact_div(power[n], n + 1)


def test_pk132_row_pairs_the_convolution_terms():
    """The paired self-convolution gives the term-by-term row to n = 300."""
    assert [value for _, value in counting.pk132_row(300)] == reference_pk132_row(300)


def test_pk213_row_matches_truncated_powers():
    assert list(counting.pk213_row(120)) == list(_pk213_by_powers(120))
    assert counting.pk213(0) == 1
    assert list(counting.pk213_row(0)) == []


def test_pk213_row_reaches_400():
    # one truncated power of F per n took well over 10 s here
    row = list(counting.row_of(counting.pk_route(pattern_set("213")), 400))
    assert [n for n, _ in row] == list(range(1, 401))
    assert row[-1][1] == CountResult(counting.pk213(400), "formula")


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
        "312": lambda n: double_sum_row(30, "312")[n - 1],
        "321": lambda n: double_sum_row(30, "321")[n - 1],
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
