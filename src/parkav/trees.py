"""Ordered rooted trees: the codomain of the parking-function bijections.

Child order is significant.  A tree is its balanced-parentheses word, read
root-first, children left to right, e.g. the root with a path of two edges
below it is "((()))" and a root with three leaf children is "(()()())".
``OrderedTree`` holds that word and nothing else: equality, hashing,
printing, copying and pickling read it, so none of them depends on the
tree's depth, and the word doubles as the tree's canonical key.  The
bijections parse it into arrays of their own; ``children`` and
``root_degree`` are derived views.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from ._record import Record


class OrderedTree(Record):
    __slots__ = ("word",)

    def __init__(self, word: str = "()") -> None:
        _check_word(word)
        super().__init__(word)

    @property
    def edge_count(self) -> int:
        return len(self.word) // 2 - 1

    @property
    def children(self) -> tuple[OrderedTree, ...]:
        """The subtrees below the root, left to right."""
        out, depth, start = [], 0, 1
        for pos in range(1, len(self.word) - 1):
            depth += 1 if self.word[pos] == "(" else -1
            if not depth:
                out.append(OrderedTree._trusted(self.word[start : pos + 1]))
                start = pos + 1
        return tuple(out)

    @property
    def root_degree(self) -> int:
        return len(self.children)

    def is_path(self) -> bool:
        """True for a bare path hanging from the root (including a lone root):
        a tree with one leaf, and every leaf is a "()" in the word."""
        return self.word.count("()") == 1

    def __str__(self) -> str:
        return self.word

    def __repr__(self) -> str:
        return f"OrderedTree({self.word!r})"


def _check_word(text: str) -> None:
    """Raise ValueError unless ``text`` is one balanced-parentheses word."""
    depth = 0
    for pos, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")" and depth:
            depth -= 1
            if not depth:
                if pos + 1 != len(text):
                    raise ValueError(f"trailing input at column {pos + 2}")
                return
        else:
            raise ValueError(f"expected {')' if depth else '('!r} at column {pos + 1}")
    raise ValueError(f"expected {')' if depth else '('!r} at column {len(text) + 1}")


LEAF = OrderedTree()


def tree(*children: OrderedTree) -> OrderedTree:
    return OrderedTree._trusted("(" + "".join(c.word for c in children) + ")")


def path_tree(edges: int) -> OrderedTree:
    return OrderedTree._trusted("(" * (edges + 1) + ")" * (edges + 1))


def serialize_tree(t: OrderedTree) -> str:
    """
    >>> serialize_tree(tree(tree(LEAF, LEAF), LEAF))
    '((()())())'
    """
    return t.word


def parse_tree(text: str) -> OrderedTree:
    """Parse a balanced-parentheses word, checked in one pass.

    >>> parse_tree(" (()()) ").edge_count
    2
    """
    return OrderedTree(text.strip())


def enumerate_trees(edges: int, constraint: str = "all") -> Iterator[str]:
    """The words of all ordered rooted trees with the given edge count,
    deterministically.

    constraint: "all", "odd_root" (odd root degree) or "root_ge2" (root degree
    at least 2; for 1 edge the single tree is included, matching the
    convention the bijections use for size 0).

    >>> list(enumerate_trees(2))
    ['(()())', '((()))']
    """
    if edges < 1:
        raise ValueError("edges must be >= 1")
    keep = {
        "all": lambda degree: True,
        "odd_root": lambda degree: degree % 2 == 1,
        "root_ge2": lambda degree: degree >= 2 or edges == 1,
    }.get(constraint)
    if keep is None:
        raise ValueError(f"unknown constraint {constraint!r}")
    return (word for word, degree in _all_trees(edges) if keep(degree))


@lru_cache(maxsize=None)
def _all_trees(edges: int) -> tuple[tuple[str, int], ...]:
    """Each tree's word and root degree."""
    if edges == 0:
        return (("()", 0),)
    # split off the first child (first_edges edges plus its connecting edge)
    return tuple(
        ("(" + first + rest[1:], degree + 1)
        for first_edges in range(edges)
        for first, _ in _all_trees(first_edges)
        for rest, degree in _all_trees(edges - 1 - first_edges)
    )


def count_trees(edges: int, constraint: str = "all") -> int:
    return sum(1 for _ in enumerate_trees(edges, constraint))
