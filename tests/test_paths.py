import random

import pytest

from parkav.paths import (
    LatticePath,
    ascent_word,
    canonical_decomposition,
    catalan_number,
    compose_canonical,
    delete_first_peak,
    enumerate_paths,
    increasing_pf_to_path,
    insert_first_peak,
    m_narayana,
    path,
    path_count,
    path_to_increasing_pf,
    path_to_increasing_prefs,
    path_weight_sum,
    peak_count,
)
from invariants import narayana_sums, path_bijection_with_increasing, path_surgery_roundtrips


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_paths(3, 1)) == 5
    assert sum(1 for _ in enumerate_paths(2, 2)) == 3
    assert list(enumerate_paths(0, 1)) == [LatticePath((), 1)]
    assert path_count(3, 1) == catalan_number(3) == 5
    assert path_count(2, 2) == 3


def test_enumeration_order_is_lexicographic_up_first():
    for n, m in ((4, 1), (3, 2)):
        got = list(enumerate_paths(n, m))
        key = lambda p: [0 if s == "U" else 1 for s in p.steps]
        assert got == sorted(got, key=key)


def test_path_weight_sum_matches_enumeration():
    rng = random.Random(2404)
    table: dict[tuple[int, int], int] = {}

    def random_factor(r, u):
        return table.setdefault((r, u), rng.randint(-3, 5))

    for m in range(1, 4):
        for n in range(0, 8):
            words = [ascent_word(c).runs for c in enumerate_paths(n, m)]
            factors = (
                lambda r, u: 1,
                lambda r, u: r,
                lambda r, u: u + 2,
                lambda r, u: 3 if u == 0 else 5,
                lambda r, u: 7 if u + r == n else r + 1,
                random_factor,
            )
            for factor in factors:
                want = 0
                for runs in words:
                    weight, u = 1, 0
                    for r in runs:
                        weight *= factor(r, u)
                        u += r
                    want += weight
                assert path_weight_sum(n, m, factor) == want, (n, m)
    with pytest.raises(ValueError):
        path_weight_sum(-1, 1, lambda r, u: 1)
    with pytest.raises(ValueError):
        path_weight_sum(2, 0, lambda r, u: 1)


def test_validation():
    with pytest.raises(ValueError):
        path("UDD")
    with pytest.raises(ValueError):
        path("DU")
    with pytest.raises(ValueError):
        path("UX")
    assert path("UDUDDD", m=2).n == 2


def test_ascent_word():
    assert ascent_word(path("UDUUDUDD")).runs == (1, 2, 1)
    assert ascent_word(path("UUUUDDDD")).runs == (4,)
    assert ascent_word(path("UDUDUD")).runs == (1, 1, 1)
    assert peak_count(path("UDUUDUDD")) == 3


def test_canonical_decomposition():
    k, parts = canonical_decomposition(path("UUDDUD"))
    assert k == 2
    assert [str(p) for p in parts] == ["", "UD"]
    k, parts = canonical_decomposition(path("UUUDDD"))
    assert (k, [str(p) for p in parts]) == (3, ["", "", ""])
    k, parts = canonical_decomposition(path("UDUD"))
    assert (k, [str(p) for p in parts]) == (1, ["UD"])
    assert compose_canonical(2, [path(""), path("UD")]) == path("UUDDUD")


def test_first_peak():
    assert delete_first_peak(path("UUDUDD")) == (1, path("UUDD"))
    assert delete_first_peak(path("UDUD")) == (1, path("UD"))
    assert insert_first_peak(path("UUDD"), 1, 2) == path("UUDUDD")
    with pytest.raises(ValueError):
        delete_first_peak(path("UUDD"))


def test_increasing_parking_functions():
    assert path_to_increasing_pf(path("UUDUDD")).prefs == (1, 1, 2)
    assert path_to_increasing_pf(path("UUUDDD")).prefs == (1, 1, 1)
    c = path("UDUUDUDD")
    f = path_to_increasing_pf(c)
    counts = [f.prefs.count(v) for v in range(1, 5)]
    assert tuple(x for x in counts if x) == ascent_word(c).runs
    assert increasing_pf_to_path(f.prefs, 1) == c
    # m = 2: values bounded by 1 + m(i-1)
    prefs = path_to_increasing_prefs(path("UDUDDD", m=2))
    assert prefs == (1, 2)
    with pytest.raises(ValueError):
        path_to_increasing_pf(path("UDUDDD", m=2))


def test_path_pf_bijection_sweep():
    path_bijection_with_increasing(7)


def test_surgery_roundtrips():
    path_surgery_roundtrips(8)


def test_narayana():
    assert m_narayana(3, 2, 1) == 3
    assert m_narayana(3, 1, 1) == 1
    assert sum(m_narayana(2, k, 2) for k in (1, 2)) == 3
    narayana_sums(6, 3)
    with pytest.raises(ValueError):
        m_narayana(3, 0, 1)
