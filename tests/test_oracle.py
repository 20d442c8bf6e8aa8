from collections import Counter
from math import factorial

import pytest

from parkav import counting, oracle
from parkav.parking import (
    block_permutation,
    enumerate_parking_functions,
    parking_permutation,
)
from parkav.permutations import (
    S3_PATTERNS,
    PatternSet,
    all_permutations,
    avoids_all,
    parse_pattern_set,
    pattern_set,
    perm,
)
from invariants import contains_by_subsets, reference_profile


def test_brute_pk_examples():
    assert oracle.brute_pk(3, pattern_set("123")) == 10
    assert oracle.brute_pk(4, pattern_set("321")) == 102
    assert oracle.brute_pk(2, pattern_set("123", "231")) == 3
    assert oracle.brute_pk(0, pattern_set("123")) == 1


def test_brute_pf_examples():
    assert oracle.brute_pf(4, pattern_set("312", "321")) == 63
    assert oracle.brute_pf(5, pattern_set("123", "213")) == 90
    assert oracle.brute_pf(3, pattern_set("12")) == 1
    assert oracle.brute_pf(4, pattern_set("21")) == 14


def test_empty_pattern_set_counts_everything():
    empty = PatternSet(())
    for n in range(1, 8):
        assert oracle.brute_pk(n, empty) == (n + 1) ** (n - 1)
        assert oracle.brute_total(n) == (n + 1) ** (n - 1)


def test_cap():
    with pytest.raises(ValueError):
        oracle.brute_pk(9, pattern_set("123"))
    with pytest.raises(ValueError):
        oracle.brute_pf(9, pattern_set("123"))


@pytest.mark.parametrize("text", ["132", "12", "21", "1234", "123,321", "12,123"])
@pytest.mark.parametrize("side", ["pk", "pf"])
def test_order_independence(side, text):
    """A direct count, forward and with the enumeration order reversed, must
    agree with the oracle's cached profile and avoiding-key sets."""
    patterns = parse_pattern_set(text)
    perm_of = parking_permutation if side == "pk" else block_permutation
    brute = oracle.brute_pk if side == "pk" else oracle.brute_pf
    for n in range(1, 6):
        functions = list(enumerate_parking_functions(n))
        forward = sum(1 for f in functions if avoids_all(perm_of(f), patterns))
        backward = sum(1 for f in reversed(functions) if avoids_all(perm_of(f), patterns))
        assert forward == backward == brute(n, patterns), n


def _clear_oracle_caches():
    for value in vars(oracle).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


@pytest.fixture
def cold_oracle():
    """Empty every cache of the oracle's before and after the test."""
    _clear_oracle_caches()
    yield
    _clear_oracle_caches()


def test_verify_walks_once_per_size(monkeypatch, cold_oracle):
    """One parking walk per size serves both sides of the formula suite."""
    calls = []
    real = oracle.parking_walk

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(oracle, "parking_walk", counted)
    reports = oracle.verify_all(4, "formulas")
    assert reports and all(r.agree for r in reports)
    assert sorted(calls) == [1, 2, 3, 4]


def test_verify_pk_walks_each_class_once(monkeypatch, cold_oracle):
    """One walk per subset for the weighted column, and one more row walk for
    each of the 16 subsets that hold both 123 and 321 and so have no closed form."""
    calls = []
    real = oracle.avoider_walk

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "avoider_walk", counted)
    monkeypatch.setattr(counting, "avoider_walk", counted)
    reports = oracle.verify_pk(6)
    assert reports and all(r.agree for r in reports)
    assert len(calls) <= 63 + 16


def test_verify_bijections_checks_no_domain_twice(monkeypatch):
    """The suite maps the words the domain enumerator built without running
    the public maps' input check on them again."""
    from parkav import bijections

    calls = []
    real = bijections._domain_blocks
    monkeypatch.setattr(bijections, "_domain_blocks", lambda *args: calls.append(args) or real(*args))
    reports = oracle.verify_bijections(6)
    assert reports and all(r.agree for r in reports)
    assert calls == []


@pytest.mark.parametrize("n", range(7))
def test_profiles_match_the_filtered_product(n):
    profiles = oracle._profiles(n)
    for side in ("pk", "pf"):
        assert profiles[side] == reference_profile(n, side), side


def test_profiles_count_every_parking_function_at_7():
    for side, profile in oracle._profiles(7).items():
        assert sum(profile.values()) == 8**6, side


@pytest.mark.slow
def test_profiles_match_the_filtered_product_at_7():
    """n = 7 is as far as the formula suite reaches; the filtered product
    filters all 7^7 preference lists, which takes seconds."""
    profiles = oracle._profiles(7)
    for side in ("pk", "pf"):
        assert profiles[side] == reference_profile(7, side), side


def test_profiles_check_their_totals(monkeypatch, cold_oracle):
    """A walk that loses the last two cars' batch of one item is caught."""
    real = oracle.parking_walk

    def lossy(n):
        items = real(n)
        next(items)
        return items

    monkeypatch.setattr(oracle, "parking_walk", lossy)
    with pytest.raises(AssertionError, match="profile of size 4"):
        oracle._profiles(4)


def _count_containment_tests(monkeypatch) -> list:
    calls = []
    real = oracle.contains_sequence

    def counted(seq, pattern):
        calls.append(pattern)
        return real(seq, pattern)

    monkeypatch.setattr(oracle, "contains_sequence", counted)
    return calls


def test_formula_suite_tests_each_permutation_once_per_pattern(monkeypatch, cold_oracle):
    """Every pattern the suite asks about has size <= 3, so the containment
    tables answer them all and no permutation is scanned."""
    calls = _count_containment_tests(monkeypatch)
    reports = oracle.verify_all(5, "formulas")
    assert reports and all(r.agree for r in reports)
    assert all(q.n <= 3 for q in set(S3_PATTERNS).union(*counting.PF_ROUTES))
    assert calls == []


def test_larger_patterns_test_each_permutation_once_per_pattern(monkeypatch, cold_oracle):
    """A set with a pattern of size >= 4 scans each permutation once per
    pattern, for both sides together."""
    calls = _count_containment_tests(monkeypatch)
    for n in range(1, 6):
        for texts in ("21", "1234"), ("12", "123", "1234"):
            oracle.brute_pk(n, pattern_set(*texts))
            oracle.brute_pf(n, pattern_set(*texts))
    asked = {perm(t) for t in ("21", "1234", "12", "123")}
    assert set(calls) == asked
    assert len(calls) == sum(factorial(n) for n in range(1, 6)) * len(asked)


@pytest.mark.parametrize("n", range(8))
def test_containment_masks_match_the_subset_search(n):
    """Each size-n permutation's mask has the bit of each pattern of size
    <= 3 exactly when the reference search finds the pattern in it."""
    masks = oracle._containment_masks(n)
    assert sorted(masks) == [p.entries for p in all_permutations(n)]
    for q, bit in oracle._MASK_BIT.items():
        pattern = perm(q)
        for entries, mask in masks.items():
            assert bool(mask & bit) == contains_by_subsets(entries, pattern), (entries, q)


@pytest.mark.parametrize(
    "texts",
    [
        (),  # the empty set counts every parking function
        ("123", "123"),
        ("12", "21", "12"),
        ("12",),
        ("12", "123"),
        ("21", "1234"),
        ("132", "2143"),
        ("12", "123", "1234"),
        ("231", "3412", "321"),
    ],
)
@pytest.mark.parametrize("side", ["pk", "pf"])
def test_filter_matches_direct_count(side, texts):
    patterns = pattern_set(*texts)
    brute = oracle.brute_pk if side == "pk" else oracle.brute_pf
    for n in range(7):
        direct = sum(
            count
            for entries, count in reference_profile(n, side).items()
            if not any(contains_by_subsets(entries, q) for q in patterns)
        )
        assert brute(n, patterns) == direct, n
        if not texts:
            assert direct == (n + 1) ** n // (n + 1)


def test_mixed_size_patterns():
    assert oracle.brute_pf(4, pattern_set("12")) == 1
    assert oracle.brute_pk(4, pattern_set("21")) == 24
    assert oracle.brute_pk(4, pattern_set("12", "123")) == 1


def test_reports():
    report = oracle.OracleReport("pk(123)", 3, None, 10, 10)
    assert report.agree
    assert "ok" in report.line()
    bad = oracle.OracleReport("pk(123)", 3, None, 10, 11)
    assert not bad.agree
    assert "FAIL" in bad.line()


def test_verify_all_small():
    reports = oracle.verify_all(4, "formulas,classes")
    assert reports and all(r.agree for r in reports)
    reports = oracle.verify_all(4, "bijections")
    assert reports and all(r.agree for r in reports)


def test_verify_bijections_compares_the_image_set(monkeypatch):
    """A forward map that draws a tree outside the family's image fails the
    image report, though it draws as many distinct trees as it should."""
    from parkav import bijections, trees

    foreign = trees.parse_tree("(()())")  # even root degree: no {123,132} image
    forward, backward = bijections.forward_unchecked, bijections.backward
    mine = ((1,),), "123-132"
    monkeypatch.setattr(bijections, "forward_unchecked", lambda b, f: foreign if (b, f) == mine else forward(b, f))
    monkeypatch.setattr(bijections, "backward", lambda t, f: mine[0] if t == foreign else backward(t, f))
    reports = {(r.quantity, r.n): r for r in oracle.verify_bijections(1)}
    assert reports["roundtrip 123-132", 1].agree and reports["image 123-213", 1].agree
    assert not reports["image 123-132", 1].agree


def test_profile_multiplicities_match_direct_count():
    n = 4
    direct: Counter = Counter()
    for f in enumerate_parking_functions(n):
        direct[parking_permutation(f).entries] += 1
    assert sum(direct.values()) == (n + 1) ** (n - 1)
    assert oracle.brute_pk(n, PatternSet(())) == sum(direct.values())
