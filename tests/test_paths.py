import hashlib
import random
from functools import partial

import pytest

from parkav import counting as c
from parkav import generalized as g
from parkav.parking import ParkingFunction
from parkav.paths import (
    LatticePath,
    catalan_number,
    enumerate_paths,
    path_count,
    path_weight_row,
    path_weight_table,
)
from invariants import (
    double_sum_row,
    narayana_sums,
    path_bijection_with_increasing,
    path_surgery_roundtrips,
    reference_path_weight_table,
)
from views import (
    ascent_word,
    canonical_decomposition,
    compose_canonical,
    delete_first_peak,
    increasing_pf_to_path,
    insert_first_peak,
    m_narayana,
    path,
    path_to_increasing_prefs,
)


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_paths(3, 1)) == 5
    assert sum(1 for _ in enumerate_paths(2, 2)) == 3
    assert list(enumerate_paths(0, 1)) == [LatticePath((), 1)]
    assert path_count(3, 1) == catalan_number(3) == 5
    assert path_count(2, 2) == 3


def test_enumerated_paths_equal_their_validated_copies():
    # enumerate_paths skips LatticePath's prefix check; building each path
    # again through it must accept it and give an equal record
    for n in range(7):
        for m in (1, 2, 3):
            for p in enumerate_paths(n, m):
                assert p == LatticePath(p.steps, p.m) and type(p.steps) is tuple, (n, m, p.steps)


def test_enumeration_order_is_lexicographic_up_first():
    for n, m in ((4, 1), (3, 2)):
        got = list(enumerate_paths(n, m))
        key = lambda p: [0 if s == "U" else 1 for s in p.steps]
        assert got == sorted(got, key=key)


def test_path_weight_sum_matches_enumeration():
    rng = random.Random(2404)
    table: dict[tuple[int, int, bool], int] = {}

    def random_factor(r, v, first):
        return table.setdefault((r, v, first), rng.randint(-3, 5))

    factors = (
        lambda r, v, first: 1,
        lambda r, v, first: r,
        lambda r, v, first: v + 2,
        lambda r, v, first: 3 if first else 5,
        lambda r, v, first: 7 if r == v else r + 1,
        random_factor,
    )
    n_max = 7
    for m in range(1, 4):
        for factor in factors:
            want = []
            for n in range(0, n_max + 1):
                total = 0
                for p in enumerate_paths(n, m):
                    weight, v = 1, n
                    for r in ascent_word(p).runs:
                        weight *= factor(r, v, v == n)
                        v -= r
                    total += weight
                want.append(total)
            assert path_weight_row(n_max, m, factor) == want, m
    assert path_weight_row(0, 2, random_factor) == [1]
    with pytest.raises(ValueError):
        path_weight_row(-1, 1, lambda r, v, first: 1)
    with pytest.raises(ValueError):
        path_weight_row(2, 0, lambda r, v, first: 1)


def _values(row):
    return [value for _, value in row]


def _congruence_cases():
    """Each congruence's run factor against its formula or row, on unit
    paths with s times their ascent words and on height-m paths, to n = 25.
    The metasylvester multi rows are the paper's double sum."""
    for s in (1, 2, 3):
        multi = {
            "hyposylvester": lambda n, s=s: [g.hyposylvester_multipark(k, s) for k in range(1, n + 1)],
            "metasylvester": lambda n, s=s: list(double_sum_row(n, "312", s)),
            # 2^(runs - 1) does not see s
            "hypoplactic": lambda n: [g.hypoplactic_mpark(k, 1) for k in range(1, n + 1)],
        }
        for name, want in multi.items():
            factor = partial(g._CONGRUENCES[name][1], s=s)
            yield pytest.param(25, 1, factor, want, id=f"multi-{name}-s{s}")
    for m in (1, 2, 3):
        mpark = {
            "hyposylvester": lambda n, m=m: [g.hyposylvester_mpark(k, m) for k in range(1, n + 1)],
            "hypoplactic": lambda n, m=m: [g.hypoplactic_mpark(k, m) for k in range(1, n + 1)],
        }
        for name, want in mpark.items():
            yield pytest.param(25, m, g._CONGRUENCES[name][1], want, id=f"m-{name}-m{m}")


# sha256 of "S_1,...,S_30" for the metasylvester m-parking counts at m = 1, 2, 3,
# as the order-by-order forward path-weight DP computed them
METASYLVESTER_MPARK_DIGESTS = {
    1: "3b535b430e4d66a15cb250a7ac58715e2dca9a9b33bca43c2e426b2c30db102e",
    2: "717bebba23162caa8fac4ae11ff545ad475014d033cf19f41bfe0a1806f1e6c4",
    3: "4d14d7b0d10a7baa7ff742c42c0c1bd4ec5cf79e57f0ab00b266c89be75f1a4f",
}

# every route here but the digests shares no code with the path-weight table:
# closed forms, recurrences and, for pk-312 and pk-321, the paper's double sum
ROW_CASES = [
    pytest.param(
        30, 1, c.PATH_WEIGHTS["123"], lambda n: [c.pk123(k) for k in range(1, n + 1)], id="pk-123"
    ),
    pytest.param(30, 1, c.PATH_WEIGHTS["213"], lambda n: _values(c.pk213_row(n)), id="pk-213"),
    pytest.param(30, 1, c.PATH_WEIGHTS["312"], lambda n: list(double_sum_row(n, "312")), id="pk-312"),
    pytest.param(30, 1, c.PATH_WEIGHTS["321"], lambda n: list(double_sum_row(n, "321")), id="pk-321"),
    pytest.param(
        30, 1, c.PATH_WEIGHTS["pf-312-321"], lambda n: _values(c.pf312321_row(n)), id="pf-312-321"
    ),
    *_congruence_cases(),
    *(
        pytest.param(30, m, g._CONGRUENCES["metasylvester"][1], digest, id=f"m-metasylvester-m{m}")
        for m, digest in METASYLVESTER_MPARK_DIGESTS.items()
    ),
]


@pytest.mark.parametrize("n_max, m, factor, want", ROW_CASES)
def test_path_weight_row_matches_every_route(n_max, m, factor, want):
    got = path_weight_row(n_max, m, factor)
    assert got[0] == 1
    if isinstance(want, str):
        assert hashlib.sha256(",".join(map(str, got[1:])).encode()).hexdigest() == want
        assert _values(g.CLASS_FAMILIES["metasylvester-m"][2](n_max, m)) == got[1:]
    else:
        assert got[1:] == want(n_max)


def _table_factors():
    """Every PATH_WEIGHTS factor ("pf-312-321" is affine but for its last
    run) and every congruence factor at s = 1, 2, 3 (metasylvester is "312"
    at s), plus factors the affine detection must read in full: affine at
    r = 1, 2 but not at 3, off only on the run before the last, and a
    falling step with a last-run excess."""
    for name, factor in c.PATH_WEIGHTS.items():
        yield pytest.param(factor, id=name)
    for name, (_, factor) in g._CONGRUENCES.items():
        for s in (1, 2, 3):
            yield pytest.param(partial(factor, s=s), id=f"{name}-s{s}")
    yield pytest.param(lambda r, v, first: 2 * r + (r == 3), id="affine-to-r2")
    yield pytest.param(lambda r, v, first: r + (r == v - 1), id="off-before-last")
    yield pytest.param(lambda r, v, first: 9 - 2 * r + 5 * (r == v), id="falling-last-excess")


@pytest.mark.parametrize("factor", _table_factors())
def test_path_weight_table_matches_the_column_fill(factor):
    """Every cell, at N <= 40 and m <= 3, equals the dot-product fill."""
    for m in (1, 2, 3):
        for n_max in (0, 1, 2, 3, 40):
            assert path_weight_table(n_max, m, factor) == reference_path_weight_table(n_max, m, factor), (n_max, m)


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
    assert len(ascent_word(path("UDUUDUDD"))) == 3  # one run per peak


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
    assert path_to_increasing_prefs(path("UUDUDD")) == (1, 1, 2)
    assert path_to_increasing_prefs(path("UUUDDD")) == (1, 1, 1)
    c = path("UDUUDUDD")
    f = ParkingFunction(path_to_increasing_prefs(c))
    counts = [f.prefs.count(v) for v in range(1, 5)]
    assert tuple(x for x in counts if x) == ascent_word(c).runs
    assert increasing_pf_to_path(f.prefs, 1) == c
    # m = 2: values bounded by 1 + m(i-1)
    prefs = path_to_increasing_prefs(path("UDUDDD", m=2))
    assert prefs == (1, 2)


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
