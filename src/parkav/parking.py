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

    def __init__(self, spots: tuple[int, ...], rho: Permutation) -> None:
        object.__setattr__(self, "spots", spots)
        object.__setattr__(self, "rho", rho)


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
    return ParkingOutcome(tuple(spots), Permutation(tuple(occupied[1:])))


class ParkingFunction(Record):
    """A validated parking function in preference form."""

    __slots__ = ("prefs",)

    def __init__(self, prefs: tuple[int, ...]) -> None:
        if not is_parking(prefs):
            raise ValueError(f"not a parking function: {prefs!r}")
        object.__setattr__(self, "prefs", prefs)

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


def parking_permutation(f: ParkingFunction) -> Permutation:
    """The outcome permutation (spot -> car) of f."""
    outcome = simulate(f.prefs)
    assert outcome is not None  # constructor validated condition A
    return outcome.rho


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
    return ParkingFunction(tuple(prefs))


def block_permutation(f: ParkingFunction) -> Permutation:
    """Concatenate the blocks (each sorted increasing) into a permutation.

    >>> str(block_permutation(parking_function("4,4,6,4,2,2,1")))
    '7561243'
    """
    return Permutation(tuple(v for b in to_blocks(f) for v in b))


def block_permutation_of_blocks(blocks: Blocks) -> Permutation:
    return Permutation(tuple(v for b in blocks for v in b))


def parking_walk(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every parking function of size n >= 1, lexicographic on preferences,
    one item per placement of cars 1..n-1: (head, rho, order, cuts).

    Depth first on an explicit stack: each car parks as its preference is
    chosen, and a branch dies when the car finds no free spot at or past its
    preference, which is the parking condition.  Once cars 1..n-1 have
    parked, exactly one spot f is free, and car n parks there from every
    preference v <= f, so the item stands for the f parking functions
    head + (v,), v = 1..f.  All of them have the outcome entries rho (car n
    in spot f).  ``order`` is cars 1..n-1 sorted stably by preference, the
    concatenation of their increasing blocks; the block permutation for v is
    order[:c] + (n,) + order[c:] with c = cuts[v - 1], the number of those
    cars that prefer a spot <= v.  Size 0 has no last car, and no item.
    """
    if n == 0:
        return
    occupied = [0] * (n + 2)  # occupied[s] = car in spot s, 0 = free; n + 1 stays free
    prefs, spots = [0] * n, [0] * n  # by car; 0 = nothing chosen yet
    wanting = [n - 1] + [0] * n  # wanting[v] = cars preferring spot v; wanting[0]: cars not placed
    cars = range(1, n)
    car = 1  # the car whose preference advances; n once cars 1..n-1 parked
    while car:
        if car == n:
            f = occupied.index(0, 1)
            occupied[f] = n
            rho = tuple(occupied[1:-1])
            occupied[f] = 0
            order = tuple(sorted(cars, key=prefs.__getitem__))
            yield tuple(prefs[1:]), rho, order, tuple(accumulate(wanting[1 : f + 1]))
            car -= 1
            continue
        v, s = prefs[car] + 1, spots[car]
        occupied[s] = 0  # take back the car's previous spot (spot 0 if none)
        wanting[v - 1] -= 1
        s = max(s, v)
        while occupied[s]:
            s += 1
        if s > n:  # no free spot at or past v, so none past any larger v
            wanting[0] += 1
            prefs[car] = spots[car] = 0
            car -= 1
            continue
        wanting[v] += 1
        occupied[s], prefs[car], spots[car] = car, v, s
        car += 1


def enumerate_parking_functions(n: int) -> Iterator[ParkingFunction]:
    """All parking functions of size n, lexicographic on preferences.  The
    walk only yields parking functions, so none is validated again."""
    trusted = ParkingFunction._trusted
    if n == 0:
        yield trusted(())
    for head, _, _, cuts in parking_walk(n):
        for v in range(1, len(cuts) + 1):
            yield trusted(head + (v,))


# -- text formats -----------------------------------------------------------

def parse_prefs(text: str) -> tuple[int, ...]:
    """Parse "4,4,6,4,2,2,1"; empty string is the size-0 function."""
    text = text.strip()
    if not text:
        return ()
    values = []
    for i, part in enumerate(text.split(",")):
        part = part.strip()
        if not part.isdigit():
            raise ValueError(f"bad preference at position {i + 1}: {part!r}")
        values.append(int(part))
    return tuple(values)


def format_prefs(prefs: Sequence[int]) -> str:
    return ",".join(str(v) for v in prefs)


def parse_blocks(text: str) -> Blocks:
    """Parse "({7},{5,6},{},{1,2,4},{},{3},{})"; "{}" is the empty block."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError("block notation must be wrapped in parentheses")
    body = text[1:-1].strip()
    if not body:
        return ()
    blocks: list[tuple[int, ...]] = []
    i = 0
    while i < len(body):
        if body[i] != "{":
            raise ValueError(f"expected '{{' at column {i + 2}")
        j = body.index("}", i)
        inner = body[i + 1 : j].strip()
        if inner:
            blocks.append(tuple(sorted(int(part) for part in inner.split(","))))
        else:
            blocks.append(())
        i = j + 1
        if i < len(body):
            if body[i] != ",":
                raise ValueError(f"expected ',' at column {i + 2}")
            i += 1
    return tuple(blocks)


def format_blocks(blocks: Blocks) -> str:
    parts = ["{" + ",".join(str(v) for v in b) + "}" for b in blocks]
    return "(" + ",".join(parts) + ")"
