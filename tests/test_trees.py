import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkav.trees import LEAF, OrderedTree, enumerate_trees, parse_tree, serialize_tree
from views import count_trees, path_tree, tree


def test_serialization_roundtrip():
    t = tree(tree(LEAF, LEAF), LEAF)
    s = serialize_tree(t)
    assert s == "((()())())"
    assert parse_tree(s) == t
    assert serialize_tree(LEAF) == "()"
    assert serialize_tree(path_tree(2)) == "((()))"


def test_parse_errors():
    for bad in ["", "(", "(()", "())", "()()", "(]"]:
        with pytest.raises(ValueError):
            parse_tree(bad)


def test_counts_are_ballot_numbers():
    assert [count_trees(e) for e in range(1, 9)] == [1, 2, 5, 14, 42, 132, 429, 1430]


def test_odd_root_counts():
    # 3 edges: the fork-below-root, the three-leaf star, the bare path
    assert count_trees(3, "odd_root") == 3
    assert [count_trees(e, "odd_root") for e in range(1, 7)] == [1, 1, 3, 8, 24, 75]


def test_root_degree_two_counts():
    assert count_trees(4, "root_ge2") == 9
    assert count_trees(1, "root_ge2") == 1  # single-edge convention
    assert [count_trees(e, "root_ge2") for e in range(2, 7)] == [1, 3, 9, 28, 90]


def test_enumeration_is_deterministic_and_distinct():
    for e in range(1, 7):
        ts = list(enumerate_trees(e))
        assert ts == list(enumerate_trees(e))
        assert len(set(ts)) == len(ts)
        assert all(parse_tree(word).edge_count == e for word in ts)
    assert count_trees(2) == 2  # the path and the two-leaf fork
    with pytest.raises(ValueError):
        list(enumerate_trees(0))
    with pytest.raises(ValueError):
        list(enumerate_trees(2, "nope"))


def _to_tree(nested) -> OrderedTree:
    return tree(*(_to_tree(c) for c in nested))


@given(st.recursive(st.just([]), lambda kids: st.lists(kids, max_size=3), max_leaves=25))
@settings(max_examples=120, deadline=None)
def test_serialization_roundtrip_random(nested):
    t = _to_tree(nested)
    assert parse_tree(serialize_tree(t)) == t


def test_deep_path_codec():
    # a tree is its word: the codec and the edge count read it at any depth
    text = "(" * 2001 + ")" * 2001
    t = parse_tree(text)
    assert serialize_tree(t) == text
    assert t.edge_count == 2000
    assert t.is_path()


def test_a_tree_is_its_word():
    t = parse_tree("((())()())")
    assert t.word == str(t) == serialize_tree(t) == "((())()())"
    assert repr(t) == "OrderedTree('((())()())')" and eval(repr(t)) == t
    assert t.children == (path_tree(1), LEAF, LEAF) and t.root_degree == 3
    assert tree(*t.children) == t
    for bad in ["(()", "())(", "(x)"]:
        with pytest.raises(ValueError):
            OrderedTree(bad)


def test_structure_helpers():
    t = tree(tree(LEAF), LEAF, LEAF)
    assert t.root_degree == 3
    assert t.edge_count == 4
    assert not t.is_path()
    assert path_tree(5).is_path()
    assert LEAF.is_path()
