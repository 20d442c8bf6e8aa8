"""Ordered rooted trees: the codomain of the parking-function bijections.

Child order is significant.  Serialization is the balanced-parentheses word
of the tree read root-first, children left to right, e.g. the root with a
path of two edges below it is "((()))" and a root with three leaf children
is "(()()())".  Parsing and printing round-trip exactly, so serialized words
double as canonical dictionary keys.  The codec and the edge count walk
the tree with an explicit stack, so their depth is not bounded by Python's
recursion limit, and so do copying and pickling, which go through the
serial form.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from ._record import Record


class OrderedTree(Record):
    __slots__ = ("children",)
    _key = str  # equality and hash read the serial form, at any depth

    def __init__(self, children: tuple[OrderedTree, ...] = ()) -> None:
        object.__setattr__(self, "children", children)

    @property
    def edge_count(self) -> int:
        count, stack = 0, [self]
        while stack:
            children = stack.pop().children
            count += len(children)
            stack.extend(children)
        return count

    @property
    def root_degree(self) -> int:
        return len(self.children)

    def is_path(self) -> bool:
        """True for a bare path hanging from the root (including a lone root)."""
        t = self
        while t.children:
            if len(t.children) > 1:
                return False
            t = t.children[0]
        return True

    def __str__(self) -> str:
        return serialize_tree(self)

    def __repr__(self) -> str:
        return f"OrderedTree({serialize_tree(self)!r})"

    def __reduce__(self):
        # copy and pickle go through the serial form, at any depth
        return parse_tree, (serialize_tree(self),)


LEAF = OrderedTree()


def tree(*children: OrderedTree) -> OrderedTree:
    return OrderedTree(tuple(children))


def path_tree(edges: int) -> OrderedTree:
    t = LEAF
    for _ in range(edges):
        t = OrderedTree((t,))
    return t


def serialize_tree(t: OrderedTree) -> str:
    """
    >>> serialize_tree(tree(tree(LEAF, LEAF), LEAF))
    '((()())())'
    """
    out: list[str] = []
    stack: list[OrderedTree | None] = [t]  # None closes the vertex opened before it
    while stack:
        node = stack.pop()
        if node is None:
            out.append(")")
        else:
            out.append("(")
            stack.append(None)
            stack.extend(reversed(node.children))
    return "".join(out)


def parse_tree(text: str) -> OrderedTree:
    """Parse a balanced-parentheses word back into a tree."""
    text = text.strip()
    stack: list[list[OrderedTree]] = []  # the children read so far of each open vertex
    for pos, ch in enumerate(text):
        if ch == "(":
            stack.append([])
        elif ch == ")" and stack:
            node = OrderedTree(tuple(stack.pop()))
            if not stack:
                if pos + 1 != len(text):
                    raise ValueError(f"trailing input at column {pos + 2}")
                return node
            stack[-1].append(node)
        else:
            raise ValueError(f"expected {')' if stack else '('!r} at column {pos + 1}")
    raise ValueError(f"expected {')' if stack else '('!r} at column {len(text) + 1}")


def enumerate_trees(edges: int, constraint: str = "all") -> Iterator[OrderedTree]:
    """All ordered rooted trees with the given edge count, deterministically.

    constraint: "all", "odd_root" (odd root degree) or "root_ge2" (root degree
    at least 2; for 1 edge the single tree is included, matching the
    convention the bijections use for size 0).
    """
    if edges < 1:
        raise ValueError("edges must be >= 1")
    for t in _all_trees(edges):
        if constraint == "all":
            yield t
        elif constraint == "odd_root":
            if t.root_degree % 2 == 1:
                yield t
        elif constraint == "root_ge2":
            if t.root_degree >= 2 or edges == 1:
                yield t
        else:
            raise ValueError(f"unknown constraint {constraint!r}")


@lru_cache(maxsize=None)
def _all_trees(edges: int) -> tuple[OrderedTree, ...]:
    if edges == 0:
        return (LEAF,)
    out: list[OrderedTree] = []
    # split off the first child (first_edges edges plus its connecting edge)
    for first_edges in range(edges):
        for first in _all_trees(first_edges):
            for rest_tree in _all_trees(edges - 1 - first_edges):
                out.append(OrderedTree((first,) + rest_tree.children))
    return tuple(out)


def count_trees(edges: int, constraint: str = "all") -> int:
    return sum(1 for _ in enumerate_trees(edges, constraint))
