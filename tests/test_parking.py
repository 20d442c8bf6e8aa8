import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkav.parking import (
    ParkingFunction,
    block_permutation,
    enumerate_parking_functions,
    format_blocks,
    format_prefs,
    from_blocks,
    is_parking,
    parking_function,
    parking_permutation,
    parking_walk,
    parse_blocks,
    parse_prefs,
    simulate,
    to_blocks,
)
from parkav.permutations import perm
from invariants import (
    block_condition_characterizes_acceptance,
    parking_checks,
    parking_counts,
    reference_leaves,
)

EXAMPLE = (4, 4, 6, 4, 2, 2, 1)


def test_simulate_example():
    out = simulate(EXAMPLE)
    assert out is not None
    assert out.rho == perm("7561234")
    assert out.spots == (4, 5, 6, 7, 2, 3, 1)


def test_simulate_cascade_and_failure():
    out = simulate((1, 1, 1, 1))
    assert out is not None and out.rho == perm("1234")
    assert simulate((2, 3, 3)) is None


def test_is_parking():
    assert is_parking(EXAMPLE)
    assert is_parking((2, 2, 1))
    assert not is_parking((2, 3, 3))
    with pytest.raises(ValueError):
        is_parking((0, 1))


def test_blocks_roundtrip_examples():
    f = parking_function(EXAMPLE)
    blocks = to_blocks(f)
    assert blocks == ((7,), (5, 6), (), (1, 2, 4), (), (3,), ())
    assert from_blocks(blocks) == f
    assert from_blocks(((1,), (2,), (3,))) == parking_function((1, 2, 3))
    assert from_blocks(((4,), (3,), (2,), (1,))) == parking_function((4, 3, 2, 1))


def test_from_blocks_rejects_bad_input():
    with pytest.raises(ValueError):
        from_blocks(((1,), (1,), (2,)))  # overlap / non-cover
    with pytest.raises(ValueError):
        from_blocks(((), (1, 2)))  # prefix condition fails


def test_block_permutation():
    assert block_permutation(parking_function(EXAMPLE)) == perm("7561243")
    assert block_permutation(parking_function((1, 2, 3))) == perm("123")
    assert block_permutation(from_blocks(((2, 3), (1,), ()))) == perm("231")


def test_parking_permutation():
    assert parking_permutation(parking_function(EXAMPLE)) == perm("7561234")
    assert parking_permutation(parking_function((1, 2, 3, 4, 5))) == perm("12345")
    assert parking_permutation(parking_function((1, 1, 2))) == perm("123")


def test_constructor_validates():
    with pytest.raises(ValueError):
        ParkingFunction((2, 3, 3))


def test_enumeration_small():
    assert [f.prefs for f in enumerate_parking_functions(1)] == [(1,)]
    assert [f.prefs for f in enumerate_parking_functions(2)] == [(1, 1), (1, 2), (2, 1)]
    assert sum(1 for _ in enumerate_parking_functions(3)) == 16
    assert [f.prefs for f in enumerate_parking_functions(0)] == [()]


@pytest.mark.parametrize("n", range(7))
def test_walk_matches_filtered_product(n):
    """The walk's items, each expanded over the preferences (v, w) of cars
    n - 1 and n, are the parking functions that filtering every preference
    list finds, in the same order, with the same outcome and block
    permutations, and the enumeration lists them in that order; n = 0 and
    n = 1 each give their one function from a single item."""
    leaves = []
    for head, rho, swapped, order, cuts, a in parking_walk(n):
        b = len(cuts)
        for v in range(1, b + 1):
            for w in range(1, (b if v <= a else a) + 1):
                entries = list(order)
                for car, c in zip(range(len(order) + 1, n + 1), (cuts[v - 1], cuts[w - 1] + (v <= w))):
                    entries.insert(c, car)
                leaves.append(((head + (v, w))[:n], rho if v <= a else swapped, tuple(entries)))
    reference = list(reference_leaves(n))
    assert leaves == reference
    assert [f.prefs for f in enumerate_parking_functions(n)] == [prefs for prefs, _, _ in reference]
    assert len(reference) == (n + 1) ** n // (n + 1)  # (n+1)^(n-1), exact at n = 0


@pytest.mark.parametrize("n", range(3, 8))
def test_walk_yields_one_item_per_placement_of_all_cars_but_two(n):
    """Konheim and Weiss: m cars park on n spots in (n - m + 1)(n + 1)^(m - 1)
    ways, so with m = n - 2 the walk yields 3(n + 1)^(n - 3) items, each
    standing for functions that differ in both of the last two cars."""
    assert sum(1 for _ in parking_walk(n)) == 3 * (n + 1) ** (n - 3)


def test_enumeration_counts():
    parking_counts(7)


def test_parking_iff_simulation_and_roundtrips():
    parking_checks(6)


def test_block_condition_characterization():
    block_condition_characterizes_acceptance(5)


@given(st.integers(1, 7).flatmap(lambda n: st.tuples(*[st.integers(1, n)] * n)))
@settings(max_examples=150, deadline=None)
def test_simulation_agrees_with_prefix_check(prefs):
    assert is_parking(prefs) == (simulate(prefs) is not None)


def test_text_formats():
    assert parse_prefs("4,4,6,4,2,2,1") == EXAMPLE
    assert format_prefs(EXAMPLE) == "4,4,6,4,2,2,1"
    text = "({7},{5,6},{},{1,2,4},{},{3},{})"
    assert parse_blocks(text) == ((7,), (5, 6), (), (1, 2, 4), (), (3,), ())
    assert format_blocks(parse_blocks(text)) == text
    assert parse_blocks("()") == ()
    assert parse_prefs("") == ()
    with pytest.raises(ValueError):
        parse_blocks("{1}")
    with pytest.raises(ValueError):
        parse_prefs("1,x")
    for text in ("1,\u00b2", "1,\u0661", "1,1_0"):  # ASCII digits only
        with pytest.raises(ValueError, match="bad preference at position 2"):
            parse_prefs(text)
    # block entries are ASCII digits, and every parse error names its column
    assert parse_blocks(" ( {2, 1},{ },{3} ) ") == ((1, 2), (), (3,))
    for text, column in (("({1)", 2), ("({1,},{2})", 5), ("({1_0})", 4), ("({+1})", 3), ("({-1})", 3),
                         ("({\u00b2})", 3), ("({1}{2})", 5), ("(({1})", 2), ("({1},)", 5), ("({1},{2}, )", 9)):
        with pytest.raises(ValueError, match=f"at column {column}"):
            parse_blocks(text)
    # blanks may stand between any two tokens, also around the commas between blocks
    assert parse_blocks("( {1} , {3, 2} , {} )") == parse_blocks("(\t{1}, { 2,3 },{})") == ((1,), (2, 3), ())
