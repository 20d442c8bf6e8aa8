"""Parking functions: preference lists, the drive-forward simulation, block
notation, and the two associated permutations.

A preference list f : [n] -> [n] sends car i to spot f(i); a car finding its
spot taken rolls forward to the next free spot and exits if there is none.
f is a parking function when every car parks, equivalently when every prefix
count is large enough: #{j : f(j) <= i} >= i for each i.

Two permutations are attached to a parking function:

- the outcome permutation rho: rho(s) is the car that ends up in spot s;
- the block permutation pi: writing B_i = f^{-1}(i) ("block notation"), pi is
  the concatenation of B_1, ..., B_n with each block written increasing.

Text formats: preferences "4,4,6,4,2,2,1"; blocks "({7},{5,6},{},{1,2,4},{},{3},{})".
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Iterator, Sequence

from ._record import Record
from .permutations import Permutation

Blocks = tuple[tuple[int, ...], ...]
WalkItem = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...], int]


def is_parking(prefs: Sequence[int]) -> bool:
    """Prefix-count check: at least i preferences <= i for every i."""
    n = len(prefs)
    if any(not 1 <= v <= n for v in prefs):
        raise ValueError(f"preferences must lie in 1..{n}: {prefs!r}")
    counts = [0] * (n + 1)
    for v in prefs:
        counts[v] += 1
    seen = 0
    for i in range(1, n + 1):
        seen += counts[i]
        if seen < i:
            return False
    return True


class ParkingOutcome(Record):
    """Result of a successful simulation.

    ``spots[i-1]`` is the spot taken by car i; ``rho`` maps each spot to the
    car occupying it.
    """

    __slots__ = ("spots", "rho")


def simulate(prefs: Sequence[int]) -> ParkingOutcome | None:
    """Run the cars; None when some car exits (not a parking function).

    >>> str(simulate((4, 4, 6, 4, 2, 2, 1)).rho)
    '7561234'
    >>> simulate((2, 3, 3)) is None
    True
    """
    n = len(prefs)
    if any(not 1 <= v <= n for v in prefs):
        raise ValueError(f"preferences must lie in 1..{n}: {prefs!r}")
    occupied = [0] * (n + 1)  # occupied[s] = car in spot s, 0 = free
    spots = []
    for car, want in enumerate(prefs, start=1):
        s = want
        while s <= n and occupied[s]:
            s += 1
        if s > n:
            return None
        occupied[s] = car
        spots.append(s)
    return ParkingOutcome(tuple(spots), Permutation(occupied[1:]))


class ParkingFunction(Record):
    """A validated parking function in preference form."""

    __slots__ = ("prefs",)

    def __init__(self, prefs: Sequence[int]) -> None:
        if not is_parking(prefs):
            raise ValueError(f"not a parking function: {prefs!r}")
        super().__init__(tuple(prefs))

    @property
    def n(self) -> int:
        return len(self.prefs)

    def __str__(self) -> str:
        return format_prefs(self.prefs)

    def __repr__(self) -> str:
        return f"ParkingFunction({format_prefs(self.prefs)!r})"


def parking_function(prefs: Iterable[int] | str) -> ParkingFunction:
    if isinstance(prefs, str):
        return ParkingFunction(parse_prefs(prefs))
    return ParkingFunction(tuple(prefs))


def to_blocks(f: ParkingFunction) -> Blocks:
    """Block notation: block i holds the cars preferring spot i, sorted."""
    n = f.n
    blocks: list[list[int]] = [[] for _ in range(n)]
    for car, want in enumerate(f.prefs, start=1):
        blocks[want - 1].append(car)
    return tuple(tuple(sorted(b)) for b in blocks)


def satisfies_block_condition(blocks: Blocks) -> bool:
    """Prefix union check: the first i blocks hold at least i elements."""
    seen = 0
    for i, b in enumerate(blocks, start=1):
        seen += len(b)
        if seen < i:
            return False
    return True


def from_blocks(blocks: Blocks) -> ParkingFunction:
    """Inverse of to_blocks; rejects overlaps, non-covers and bad prefixes."""
    n = len(blocks)
    flat = [v for b in blocks for v in b]
    if sorted(flat) != list(range(1, n + 1)):
        raise ValueError(f"blocks must partition 1..{n}: {blocks!r}")
    if not satisfies_block_condition(blocks):
        raise ValueError(f"prefix condition fails: {blocks!r}")
    prefs = [0] * n
    for i, b in enumerate(blocks, start=1):
        for car in b:
            prefs[car - 1] = i
    return ParkingFunction(prefs)


def block_permutation_of_blocks(blocks: Blocks) -> Permutation:
    return Permutation(tuple(v for b in blocks for v in b))


def parking_walk(n: int) -> Iterator[WalkItem]:
    """Every parking function of size n, lexicographic on preferences, one
    item per placement of cars 1..n-2: (head, rho, swapped, order, cuts, a).

    Depth first on an explicit stack: each car parks as its preference is
    chosen, and a branch dies when the car finds no free spot at or past its
    preference, which is the parking condition.  Once cars 1..n-2 have
    parked, two spots a < b are free, and the parking rule settles the last
    two cars without walking them: car n-1 parks at a from every preference
    v <= a and at b from v = a+1..b, then car n in the spot still free from
    every w up to it.  So the item stands for the functions head + (v, w):
    a*b with the outcome entries rho (car n-1 in spot a, car n in b) and
    (b-a)*a with ``swapped`` (the two exchanged).  ``order`` is cars 1..n-2
    sorted stably by preference, the concatenation of their increasing
    blocks, and cuts[v - 1] counts those that prefer a spot <= v, for
    v = 1..b; the block permutation for (v, w) inserts car n-1 into order
    at cuts[v - 1], then car n at cuts[w - 1] + (v <= w).  Sizes 0 and 1
    yield one item, with a = b = 1 and the identity as both outcomes: its
    pair (1, 1), cut to the n cars there are, is the one function.

    ``order`` is kept as the walk goes, never sorted: a car leaves it when
    its preference advances, and a parked car goes in after every placed car
    that prefers a spot no later than its own.  Every placed car is a
    smaller car, so that keeps the sort stable.
    """
    if n < 2:
        identity = tuple(range(1, n + 1))
        yield (), identity, identity, (), (0,), 1
        return
    occupied = [0] * (n + 2)  # occupied[s] = car in spot s, 0 = free; n + 1 stays free
    prefs, spots = [0] * (n - 1), [0] * (n - 1)  # by car; 0 = nothing chosen yet
    wanting = [n - 2] + [0] * n  # wanting[v] = cars preferring spot v; wanting[0]: cars not placed
    order: list[int] = []  # the placed cars, sorted stably by preference
    car = 1  # the car whose preference advances; n - 1 once cars 1..n-2 parked
    while car:
        if car == n - 1:
            a = occupied.index(0, 1)
            b = occupied.index(0, a + 1)
            occupied[a], occupied[b] = car, n
            rho = tuple(occupied[1:-1])
            occupied[a], occupied[b] = n, car
            swapped = tuple(occupied[1:-1])
            occupied[a] = occupied[b] = 0
            yield tuple(prefs[1:]), rho, swapped, tuple(order), tuple(accumulate(wanting[1 : b + 1])), a
            car -= 1
            continue
        v, s = prefs[car] + 1, spots[car]
        occupied[s] = 0  # take back the car's previous spot (spot 0 if none)
        wanting[v - 1] -= 1
        if v > 1:  # the car was placed, at preference v - 1
            order.remove(car)
        s = max(s, v)
        while occupied[s]:
            s += 1
        if s > n:  # no free spot at or past v, so none past any larger v
            wanting[0] += 1
            prefs[car] = spots[car] = 0
            car -= 1
            continue
        order.insert(sum(wanting[1 : v + 1]), car)
        wanting[v] += 1
        occupied[s], prefs[car], spots[car] = car, v, s
        car += 1


def enumerate_parking_functions(n: int) -> Iterator[ParkingFunction]:
    """All parking functions of size n, lexicographic on preferences: each
    walk item expanded over the preferences (v, w) of its last two cars.
    The walk only yields parking functions, so none is validated again."""
    trusted = ParkingFunction._trusted
    for head, _, _, _, cuts, a in parking_walk(n):
        for v in range(1, len(cuts) + 1):
            for w in range(1, (len(cuts) if v <= a else a) + 1):
                yield trusted((head + (v, w))[:n])


# -- text formats -----------------------------------------------------------

def parse_prefs(text: str) -> tuple[int, ...]:
    """Parse "4,4,6,4,2,2,1"; empty string is the size-0 function."""
    text = text.strip()
    if not text:
        return ()
    values = []
    for i, part in enumerate(text.split(",")):
        part = part.strip()
        if not (part.isascii() and part.isdigit()):
            raise ValueError(f"bad preference at position {i + 1}: {part!r}")
        values.append(int(part))
    return tuple(values)


def format_prefs(prefs: Sequence[int]) -> str:
    return ",".join(str(v) for v in prefs)


def parse_blocks(text: str) -> Blocks:
    """Parse "({7},{5,6},{},{1,2,4},{},{3},{})"; "{}" is the empty block.
    Blanks may stand between any two tokens, entries are ASCII digits, and a
    trailing comma is refused; an error names its column in the stripped text."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError("block notation must be wrapped in parentheses")

    def skip_blanks(i: int) -> int:
        while text[i].isspace():  # stops at the closing ")" at the latest
            i += 1
        return i

    i, end = skip_blanks(1), len(text) - 1  # the blocks lie in text[i:end]
    blocks: list[tuple[int, ...]] = []
    while i < end:
        if text[i] != "{":
            raise ValueError(f"expected '{{' at column {i + 1}")
        j = text.find("}", i, end)
        if j < 0:
            raise ValueError(f"expected '}}' to close the block at column {i + 1}")
        block, at = [], i + 1  # where each entry's text starts
        for part in text[at:j].split(",") if text[at:j].strip() else ():
            entry = part.strip()
            if not (entry.isascii() and entry.isdigit()):
                at += len(part) - len(part.lstrip())  # the entry's first character, or the "," or "}" after it
                at += next((k for k, c in enumerate(entry) if c not in "0123456789"), 0)
                raise ValueError(f"expected a digit at column {at + 1}: {text[at]!r}")
            block.append(int(entry))
            at += len(part) + 1
        blocks.append(tuple(sorted(block)))
        i = skip_blanks(j + 1)
        if i < end:
            if text[i] != ",":
                raise ValueError(f"expected ',' at column {i + 1}")
            comma, i = i, skip_blanks(i + 1)
            if i == end:
                raise ValueError(f"trailing ',' at column {comma + 1}")
    return tuple(blocks)


def format_blocks(blocks: Blocks) -> str:
    parts = ["{" + ",".join(str(v) for v in b) + "}" for b in blocks]
    return "(" + ",".join(parts) + ")"
