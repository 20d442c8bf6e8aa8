"""Acceptance gate: every criterion below prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The n = 8 oracle sweep
is optional by design and sits behind the slow marker.
"""

import time

import pytest

from parkav import bijections as bj
from parkav import counting, generalized, oracle
from parkav.counting import pf312321_closed_form, pk_count, pk_sum_over_paths
from parkav.permutations import parse_pattern_set, pattern_set
import power_series as series
from invariants import (
    all_reports_agree,
    all_s3_subsets,
    bijection_roundtrips,
    block_condition_characterizes_acceptance,
    consistency_triangle,
    creation_order_claim,
    ell_weights_match_outcome_counts,
    family_cardinalities,
    full_right_subtree_condition,
    metasylvester_identity,
    narayana_sums,
    parking_checks,
    parking_counts,
    path_bijection_with_increasing,
    path_surgery_roundtrips,
    path_sums_match_tables,
    pk_dispatch_matches_weighted,
)
from tables import (
    HYPOPLACTIC_MPARK,
    HYPOSYLVESTER_MULTI,
    METASYLVESTER_MPARK,
    METASYLVESTER_MULTI,
    PF_312_321,
    PK_ROWS,
)
from views import count_trees


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert ok, criterion


def test_criterion_1_table_reproduction():
    t0 = time.perf_counter()
    bad = []
    for patterns_text, row in PK_ROWS.items():
        patterns = parse_pattern_set(patterns_text)
        got = [pk_count(patterns, n).value for n in range(1, 9)]
        if got != row:
            bad.append(patterns_text)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1: every printed pk row reproduced for n=1..8",
        not bad and elapsed < 10.0,
        f"{len(PK_ROWS)} rows in {elapsed:.2f}s",
    )


def test_criterion_2_oracle_equivalence_n7():
    ok = True
    try:
        all_reports_agree(oracle.verify_pk(7), 882)  # formula and weighted sum, each vs brute
    except AssertionError:
        ok = False
    _report(
        "criterion 2: brute = dispatch = weighted for all 63 subsets, n <= 7",
        ok,
        "63 subsets x 7 sizes",
    )


@pytest.mark.slow
def test_criterion_2_optional_n8():
    bad = []
    for patterns in all_s3_subsets():
        brute = oracle.brute_pk(8, patterns)
        formula = pk_count(patterns, 8).value
        weighted = counting.generic_weighted_pk(8, patterns).value
        if not brute == formula == weighted:
            bad.append(str(patterns))
    _report("criterion 2 (optional): oracle equivalence at n = 8", not bad)


def test_criterion_3_pf_312_321_three_routes():
    closed = [pf312321_closed_form(n).value for n in range(1, 9)]
    path_route = [pk_sum_over_paths(n, "pf-312-321").value for n in range(1, 9)]
    brute = [oracle.brute_pf(n, pattern_set("312", "321")) for n in range(1, 8)]
    ok = closed == PF_312_321 and path_route == PF_312_321 and brute == PF_312_321[:7]
    _report(
        "criterion 3: pf(312,321) row by closed form, path weights and simulation",
        ok,
    )


def test_criterion_4_bijections():
    t0 = time.perf_counter()
    sizes = bijection_roundtrips(9)
    from test_bijections import (
        FIG20_ADJACENCY,
        FIG20_BLOCKS,
        FIG25_ADJACENCY,
        FIG25_BLOCKS,
        _tree_from,
    )

    golden25 = _tree_from(FIG25_ADJACENCY, "R")
    golden20 = _tree_from(FIG20_ADJACENCY, 1)
    ok = (
        bj.phi_123_132(FIG25_BLOCKS) == golden25
        and bj.psi_123_132(golden25) == FIG25_BLOCKS
        and bj.phi_123_213(FIG20_BLOCKS) == golden20
        and bj.psi_123_213(golden20) == FIG20_BLOCKS
        and sizes["123-132", 9] == count_trees(10, "odd_root")
        and sizes["123-213", 9] == count_trees(10, "root_ge2")
    )
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 4: exhaustive roundtrips n <= 9 plus both worked images",
        ok and elapsed < 60.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_5_class_tables():
    bad = []
    for m in range(1, 6):
        if [generalized.hyposylvester_multipark(n, m) for n in range(1, 9)] != HYPOSYLVESTER_MULTI[m]:
            bad.append(("hyposylvester-multi", m))
        if [generalized.metasylvester_multipark(n, m) for n in range(1, 9)] != METASYLVESTER_MULTI[m]:
            bad.append(("metasylvester-multi", m))
        if [generalized.hypoplactic_mpark(n, m) for n in range(1, 9)] != HYPOPLACTIC_MPARK[m]:
            bad.append(("hypoplactic-m", m))
        if [generalized.metasylvester_mpark(n, m) for n in range(1, 9)] != METASYLVESTER_MPARK[m]:
            bad.append(("metasylvester-m", m))
    _report(
        "criterion 5: class tables m=1..5",
        not bad,
        "n<=8 for every family, metasylvester-m by path-weight sum",
    )


def test_criterion_6_series_identities():
    # the product-weight equation, coefficient-wise to order 15
    order = 15
    p = series.series([counting.pk132(n) for n in range(order + 1)])
    xs = series.x(order)
    residual = xs * xs * p * series.derivative(p) + xs * p * p - p + series.one(order)
    chini_ok = series.check_identity(residual, series.zero(order))
    meta_ok = True
    try:
        metasylvester_identity(8, 3)
    except AssertionError:
        meta_ok = False
    import random

    rng = random.Random(2024)
    lagrange_ok = True
    for _ in range(10):
        phi = series.series([rng.randint(1, 3)] + [rng.randint(-3, 3) for _ in range(4)], 12)
        psi = series.series([rng.randint(-3, 3) for _ in range(5)], 12)
        fixed = series.solve_fixed_point(phi, 12)
        composed = series.compose(psi, fixed)
        for n in range(1, 13):
            if series.lagrange_coefficient(phi, psi, n) != composed.coefficient(n):
                lagrange_ok = False
    _report(
        "criterion 6: Chini-form ODE, functional identity (m<=3), Lagrange to order 12",
        chini_ok and meta_ok and lagrange_ok,
    )


def test_criterion_7_consistency_triangle():
    ok = True
    try:
        consistency_triangle(8)
    except AssertionError:
        ok = False
    _report("criterion 7: multipark = m-park = 312 dispatch for m=1, n <= 8", ok)


def test_criterion_8_module_invariant_sweeps():
    checks = [
        ("ell weights vs outcome multiplicities, n<=7", lambda: ell_weights_match_outcome_counts(7)),
        ("parking checks, n<=6", lambda: parking_checks(6)),
        ("parking counts, n<=7", lambda: parking_counts(7)),
        ("block acceptance sweep, n<=5", lambda: block_condition_characterizes_acceptance(5)),
        ("path/parking bijection, n<=7", lambda: path_bijection_with_increasing(7)),
        ("path surgeries, n<=8", lambda: path_surgery_roundtrips(8)),
        ("peak-count formula sums, n<=6 m<=3", lambda: narayana_sums(6, 3)),
        ("dispatch vs weighted, n<=8", lambda: pk_dispatch_matches_weighted(8)),
        ("weighted vs simulation, n<=7", lambda: all_reports_agree(oracle.verify_pk(7), 882)),
        ("path sums vs tables, n<=10", lambda: path_sums_match_tables(10)),
        ("creation-order claim, n<=8", lambda: creation_order_claim(8)),
        ("kept-right-subtree condition, n<=8", lambda: full_right_subtree_condition(8)),
        ("family sizes vs tree counts, n<=10", lambda: family_cardinalities(10)),
        ("per-evaluation class oracle, n<=5 m<=2", lambda: all_reports_agree(oracle.verify_generalized(5), 50)),
    ]
    failures = []
    for name, fn in checks:
        try:
            fn()
        except AssertionError:
            failures.append(name)
    _report(
        "criterion 8: module invariant sweeps at their stated bounds",
        not failures,
        f"{len(checks)} sweeps",
    )
