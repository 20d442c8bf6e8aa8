import functools
import itertools
import math
import random
import typing
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkav import permutations
from parkav.permutations import (
    S3_PATTERNS,
    BudgetExceeded,
    PatternSet,
    Permutation,
    all_permutations,
    avoidance_class,
    avoider_walk,
    contains,
    contains_sequence,
    ell_factor,
    ell_weight,
    ends_with_occurrence,
    format_permutation,
    parse_pattern_set,
    parse_permutation,
    pattern_set,
    perm,
    s3_containment_mask,
)
from invariants import all_s3_subsets, contains_by_subsets, ell_weights_match_outcome_counts


def test_contains():
    assert typing.get_type_hints(permutations.contains_sequence)["seq"] == Sequence[int]
    assert contains(perm("7561243"), perm("132"))
    assert not contains(perm("7561234"), perm("132"))
    assert contains(perm("123"), perm("123"))


def test_avoidance_class_small():
    only = avoidance_class(3, pattern_set("123", "132", "213", "231", "312"))
    assert only == [perm("321")]
    assert len(avoidance_class(4, pattern_set("123"))) == 14
    assert avoidance_class(5, pattern_set("123", "321")) == []
    assert avoidance_class(0, pattern_set("123")) == [perm("")]


def test_ell_weight_examples():
    assert ell_weight(perm("54321")) == 1
    assert ell_weight(perm("12345")) == 120
    assert ell_weight(perm("7561234")) == 48
    assert [ell_factor(perm("7561234"), i) for i in range(1, 8)] == [1, 1, 2, 1, 2, 3, 4]


def test_ell_weight_is_outcome_multiplicity():
    ell_weights_match_outcome_counts(7)


def test_containment_transitive_on_random_triples():
    rng = random.Random(91)
    for _ in range(300):
        sizes = sorted(rng.randint(1, 8) for _ in range(3))
        ps = []
        for s in sizes:
            entries = list(range(1, s + 1))
            rng.shuffle(entries)
            ps.append(Permutation(tuple(entries)))
        small, mid, big = ps
        if contains(big, mid) and contains(mid, small):
            assert contains(big, small)


# the subset search the fast paths must agree with
reference = contains_by_subsets


def _masks_by_subsets(n: int) -> dict[tuple[int, ...], int]:
    """The s3_containment_mask of every permutation of size n, read off the
    C(n, 3) index subsets of each: the subset search without early exit,
    one pass serving all six patterns."""
    bit = {}
    for i, q in enumerate(S3_PATTERNS):
        a, b, c = q.entries
        bit[a < b, a < c, b < c] = 1 << i
    out = {}
    for entries in itertools.permutations(range(1, n + 1)):
        mask = 0
        for a, b, c in itertools.combinations(entries, 3):
            mask |= bit[a < b, a < c, b < c]
        out[entries] = mask
    return out


def test_size3_scans_match_subset_search_on_all_of_sn():
    for n in range(6):
        for entries in itertools.permutations(range(1, n + 1)):
            for q in S3_PATTERNS:
                assert contains_sequence(entries, q) == reference(entries, q), (entries, q)
    for n in (6, 7, 8):
        for entries, mask in _masks_by_subsets(n).items():
            assert s3_containment_mask(Permutation(entries)) == mask, entries


def _two_run_merge(length: int, rng: random.Random) -> list[int]:
    """Two increasing runs interleaved at random: a 321-avoider with gaps."""
    values = rng.sample(range(-3 * length, 3 * length), length)
    split = rng.randint(0, length)
    runs = [sorted(values[:split]), sorted(values[split:])]
    out = []
    while runs[0] or runs[1]:
        side = rng.randrange(2) if runs[0] and runs[1] else int(not runs[0])
        out.append(runs[side].pop(0))
    return out


def test_size3_scans_match_subset_search_on_sequences_with_gaps():
    rng = random.Random(2001)
    cases = [rng.sample(range(-100, 300), rng.randint(0, 60)) for _ in range(300)]
    for length in (3, 10, 25, 40, 60):
        merged = _two_run_merge(length, rng)
        # its reverse, complement and reverse-complement avoid 123, 123, 321
        negated = [-v for v in merged]
        cases += [merged, merged[::-1], negated, negated[::-1]]
    for seq in cases:
        for q in S3_PATTERNS:
            want = reference(seq, q)
            assert contains_sequence(seq, q) == contains_sequence(tuple(seq), q) == want, (seq, q)


def test_small_and_size4_patterns_through_the_engine():
    patterns = [Permutation(()), perm("1"), perm("12"), perm("21")]
    patterns += [Permutation(q) for q in itertools.permutations(range(1, 5))]
    rng = random.Random(4)
    cases = [e for n in range(6) for e in itertools.permutations(range(1, n + 1))]
    cases += [rng.sample(range(-20, 40), rng.randint(0, 12)) for _ in range(100)]
    for seq in cases:
        for q in patterns:
            assert contains_sequence(seq, q) == reference(seq, q), (seq, q)


def test_ends_with_occurrence_matches_subset_search():
    # every size-4 pattern, on all of S_n for n <= 6 and on sequences with
    # gaps and negative values (the walk's probe doubles the old entries)
    patterns = list(S3_PATTERNS) + [perm("1"), perm("12"), perm("21")]
    patterns += [Permutation(q) for q in itertools.permutations(range(1, 5))]
    rng = random.Random(10)
    cases = [e for n in range(1, 7) for e in itertools.permutations(range(1, n + 1))]
    cases += [rng.sample(range(-25, 25), rng.randint(1, 10)) for _ in range(200)]
    for seq in cases:
        for q in patterns:
            want = any(
                reference([seq[j] for j in combo] + [seq[-1]], q)
                for combo in itertools.combinations(range(len(seq) - 1), q.n - 1)
            )
            assert permutations.ends_with_occurrence(seq, q) == want, (seq, q)
    assert not any(permutations.ends_with_occurrence((), q) for q in patterns)


def test_avoidance_class_is_the_filtered_sn():
    for n in range(8):
        masks = [(p, s3_containment_mask(p)) for p in all_permutations(n)]
        for patterns in all_s3_subsets():
            bits = sum(1 << S3_PATTERNS.index(q) for q in patterns)
            want = [p for p, mask in masks if not mask & bits]
            assert avoidance_class(n, patterns) == want, (n, str(patterns))


# |Av_n(q)| for n = 0..8 in the three Wilf classes of S_4; each class is the
# union of the symmetry orbits (reverse, complement, inverse) of its patterns
SIZE4_CLASS_SIZES = {
    "A005802": ([1, 1, 2, 6, 23, 103, 513, 2761, 15767], ("1234", "2143", "1243", "1432")),
    "A022558": ([1, 1, 2, 6, 23, 103, 512, 2740, 15485], ("1342", "2413")),
    "A061552": ([1, 1, 2, 6, 23, 103, 513, 2762, 15793], ("1324", "4231")),
}


def _symmetry_orbit(text: str) -> set[tuple[int, ...]]:
    orbit, todo = set(), [perm(text).entries]
    while todo:
        q = todo.pop()
        if q not in orbit:
            orbit.add(q)
            inverse = tuple(q.index(v) + 1 for v in range(1, len(q) + 1))
            todo += [q[::-1], tuple(len(q) + 1 - v for v in q), inverse]
    return orbit


def _wilf_class(oeis: str) -> list[tuple[int, ...]]:
    return sorted(set().union(*map(_symmetry_orbit, SIZE4_CLASS_SIZES[oeis][1])))


def test_size4_wilf_classes_cover_s4_once():
    classes = [_wilf_class(oeis) for oeis in SIZE4_CLASS_SIZES]
    assert sorted(q for c in classes for q in c) == sorted(itertools.permutations(range(1, 5)))


@pytest.mark.parametrize("oeis", sorted(SIZE4_CLASS_SIZES))
def test_size4_class_sizes_match_published_counts(oeis):
    row = SIZE4_CLASS_SIZES[oeis][0]
    for q in _wilf_class(oeis):
        assert [len(avoidance_class(n, pattern_set(q))) for n in range(9)] == row, q


def test_avoidance_class_respects_union():
    for n in range(0, 7):
        sn = list(all_permutations(n))
        import itertools

        from parkav.permutations import S3_PATTERNS

        masks = {
            p.entries: tuple(contains(p, q) for q in S3_PATTERNS) for p in sn
        }
        for r in range(2, 7):
            for combo in itertools.combinations(range(6), r):
                sub = PatternSet(tuple(S3_PATTERNS[i] for i in combo))
                head = PatternSet((S3_PATTERNS[combo[0]],))
                rest = PatternSet(tuple(S3_PATTERNS[i] for i in combo[1:]))
                whole = {p.entries for p in avoidance_class(n, sub)}
                split = {p.entries for p in avoidance_class(n, head)} & {
                    p.entries for p in avoidance_class(n, rest)
                }
                assert whole == split, (n, combo)
                # sanity against the precomputed masks
                direct = {
                    e for e, m in masks.items() if not any(m[i] for i in combo)
                }
                assert whole == direct


def test_pattern_set_is_canonical():
    a = pattern_set("132", "123", "132")
    assert str(a) == "123,132"
    assert parse_pattern_set("132, 123") == a
    with pytest.raises(ValueError):
        parse_pattern_set("")
    with pytest.raises(ValueError):
        pattern_set("")


def test_parsing():
    assert parse_permutation("7561234").entries == (7, 5, 6, 1, 2, 3, 4)
    long = parse_permutation("10,3,1,2,4,5,6,7,8,9")
    assert long.n == 10
    assert format_permutation(long) == "10,3,1,2,4,5,6,7,8,9"
    assert parse_permutation(format_permutation(perm("321"))) == perm("321")
    with pytest.raises(ValueError):
        parse_permutation("122")
    with pytest.raises(ValueError):
        parse_permutation("12a")
    # ASCII digits only: other Unicode digits are refused, not read as numbers
    for text, where in (("\u00b2", "column 1"), ("1\u0663\u0662", "column 2"), ("1,\u00b2", "position 2")):
        with pytest.raises(ValueError, match=where):
            parse_permutation(text)
    with pytest.raises(ValueError):
        Permutation((1, 3))


@given(st.permutations(list(range(1, 7))))
@settings(max_examples=60, deadline=None)
def test_self_containment_and_reverse(entries):
    p = Permutation(tuple(entries))
    assert contains(p, p)
    assert contains(p, Permutation((1,)))


def test_ell_factor_bounds():
    with pytest.raises(ValueError):
        ell_factor(perm("123"), 0)
    with pytest.raises(ValueError):
        ell_factor(perm("123"), 4)


def test_avoider_walk_matches_oracle():
    # both running weights against direct simulation: the ell weight against
    # outcome permutations, the block weight against block permutations
    from parkav import oracle

    extra = [parse_pattern_set(text) for text in ("1234", "2143", "12,321")]
    for patterns in all_s3_subsets() + extra:
        sums = avoider_walk(7, patterns)
        assert sums.ell[0] == sums.blocks[0] == 1
        for n in range(1, 8):
            assert sums.at("ell", n) == oracle.brute_pk(n, patterns), (str(patterns), n)
            assert sums.at("blocks", n) == oracle.brute_pf(n, patterns), (str(patterns), n)


@pytest.mark.parametrize("text", ["132", "1234", "2143"])
def test_block_weight_matches_enumeration(text):
    from parkav.bijections import enumerate_pf_avoiding

    patterns = parse_pattern_set(text)
    sums = avoider_walk(7, patterns)
    assert sums.blocks == [len(enumerate_pf_avoiding(n, patterns)) for n in range(8)]


@pytest.mark.parametrize("q", [perm("1"), perm("12"), perm("21"), *S3_PATTERNS], ids=str)
def test_s3_scan_marks_the_ranks_the_end_query_forbids(q):
    # the one pass per node against the subset search on each child: rank r
    # (entries >= r shift up) is the value r - 1/2 among the old entries
    is_occurrence = functools.lru_cache(maxsize=None)(lambda values: reference(values, q))
    for n in range(8):
        for seq in itertools.permutations(range(1, n + 1)):
            blocked = permutations._s3_blocked(seq, q.entries)
            marked, forbidden = set(), set()
            for r in range(1, n + 2):
                if any(lo < r - 0.5 < hi for lo, hi in blocked):
                    marked.add(r)
                child = [v + (v >= r) for v in seq]
                if any(is_occurrence((*combo, r)) for combo in itertools.combinations(child, q.n - 1)):
                    forbidden.add(r)
            assert marked == forbidden, seq


S4_PATTERNS = [Permutation(q) for q in itertools.permutations(range(1, 5))]


@pytest.mark.parametrize("q", S4_PATTERNS, ids=str)
def test_s4_scan_marks_the_values_the_end_query_forbids(q):
    # the one pass per node against the subset search, at every gap of the
    # values: on S_n the gaps are the ranks r - 1/2 of the walk's children
    rng = random.Random(3004)
    cases = [e for n in range(7) for e in itertools.permutations(range(1, n + 1))]
    cases += [rng.sample(range(-25, 25), rng.randint(0, 10)) for _ in range(200)]
    for seq in cases:
        blocked = permutations._s4_blocked(seq, q.entries)
        values = sorted(seq)
        gaps = [v + 0.5 for v in values] + [values[0] - 0.5 if values else 0]
        marked = {x for x in gaps if any(lo < x < hi for lo, hi in blocked)}
        forbidden = {
            x for x in gaps if any(reference((*combo, x), q) for combo in itertools.combinations(seq, 3))
        }
        assert marked == forbidden, seq


def test_walk_asks_no_end_query_up_to_size_4(monkeypatch):
    class Asked(Exception):
        pass

    def refuse(seq, pattern):
        raise Asked(pattern)

    monkeypatch.setattr(permutations, "ends_with_occurrence", refuse)
    for q in S4_PATTERNS:
        assert avoider_walk(7, pattern_set(q)).at("ell", 7) > 0, q
    with pytest.raises(Asked):  # a size-5 pattern still asks once per candidate
        avoider_walk(7, pattern_set("12345"))


def test_avoider_walk_budget(monkeypatch):
    monkeypatch.setattr(permutations, "WALK_BUDGET", 1000)
    with pytest.raises(BudgetExceeded):
        avoider_walk(9, pattern_set("132"))
    # a dead class stops by itself, far under any budget, and its sums end
    # at the last size with an avoider
    sums = avoider_walk(400, pattern_set("123", "321"))
    assert (len(sums.ell), len(sums.blocks)) == (5, 5)
    assert [sums.at("ell", n) for n in range(5, 401)] == [0] * 396


def test_avoider_walk_prices_only_the_sizes_it_reaches(monkeypatch):
    # {1, 12345} has no avoider past size 0: a walk to 10^6 prices size 0
    # alone, not C(k, 4) for every k below n_max
    calls = []
    comb = math.comb
    monkeypatch.setattr(math, "comb", lambda *args: calls.append(args) or comb(*args))
    sums = avoider_walk(10**6, pattern_set("1", "12345"))
    assert (sums.ell, sums.blocks) == ([1], [1])
    assert (sums.at("ell", 1), sums.at("blocks", 10**6)) == (0, 0)
    assert calls == [(0, 4)]
