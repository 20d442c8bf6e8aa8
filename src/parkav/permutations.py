"""Permutations in one-line notation, pattern containment and avoidance classes.

A permutation of size n is a bijection on {1, ..., n}, stored as the tuple
(p(1), ..., p(n)).  Size 0 is the empty permutation.  On top of the plain
carrier type this module provides the structural constructors used to
describe avoidance classes (direct and skew sums, increasing/decreasing
listings of a set) and the window statistic ``ell_weight``: the product over
positions i of the length of the longest window ending at i whose values are
all <= p(i).  That product counts the parking functions whose outcome
permutation equals p; ``avoider_walk`` sums it, and the matching count for
block permutations, over an avoidance class.

Text format: digits for n <= 9 ("7561234"), comma-separated otherwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True)
class Permutation:
    """One-line notation permutation of {1..n}; n = 0 is the empty permutation."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if sorted(self.entries) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection on [{n}]: {self.entries!r}")

    @property
    def n(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> int:
        """Value at 1-based position i."""
        if not 1 <= i <= len(self.entries):
            raise IndexError(f"position {i} out of range 1..{len(self.entries)}")
        return self.entries[i - 1]

    def __str__(self) -> str:
        return format_permutation(self)

    def __repr__(self) -> str:
        return f"Permutation({format_permutation(self)!r})"


def perm(entries: Iterable[int] | str) -> Permutation:
    """Convenience constructor: perm("132"), perm([1,3,2]) or perm("10,3,...")."""
    if isinstance(entries, str):
        return parse_permutation(entries)
    return Permutation(tuple(entries))


def parse_permutation(text: str) -> Permutation:
    """Parse digit form ("7561234") or comma-separated form ("10,3,1,2,...")."""
    text = text.strip()
    if text == "":
        return Permutation(())
    if "," in text:
        parts = text.split(",")
        values = []
        for i, part in enumerate(parts):
            part = part.strip()
            if not part.isdigit():
                raise ValueError(f"bad permutation entry at position {i + 1}: {part!r}")
            values.append(int(part))
        return Permutation(tuple(values))
    if not text.isdigit():
        bad = next(i for i, c in enumerate(text) if not c.isdigit())
        raise ValueError(f"bad character in permutation at column {bad + 1}: {text[bad]!r}")
    return Permutation(tuple(int(c) for c in text))


def format_permutation(p: Permutation) -> str:
    if p.n == 0:
        return ""
    if p.n <= 9:
        return "".join(str(v) for v in p.entries)
    return ",".join(str(v) for v in p.entries)


def identity(n: int) -> Permutation:
    """The increasing permutation 1 2 ... n.

    >>> str(identity(3))
    '123'
    """
    return Permutation(tuple(range(1, n + 1)))


def reverse_identity(n: int) -> Permutation:
    """The decreasing permutation n n-1 ... 1.

    >>> str(reverse_identity(4))
    '4321'
    """
    return Permutation(tuple(range(n, 0, -1)))


def direct_sum(a: Permutation, b: Permutation) -> Permutation:
    """a followed by b shifted above a; every entry of a is below every entry of b."""
    n = a.n
    return Permutation(a.entries + tuple(v + n for v in b.entries))


def skew_sum(a: Permutation, b: Permutation) -> Permutation:
    """a shifted above b, followed by b; every entry of a is above every entry of b."""
    m = b.n
    return Permutation(tuple(v + m for v in a.entries) + b.entries)


def list_on_set(values: Iterable[int], order: str = "increasing") -> tuple[int, ...]:
    """The elements of a set listed increasing or decreasing.

    Concatenating such listings (covering {1..n} overall) spells out a
    permutation in one-line notation, which is how avoidance classes are
    described structurally.
    """
    if order == "increasing":
        return tuple(sorted(values))
    if order == "decreasing":
        return tuple(sorted(values, reverse=True))
    raise ValueError(f"order must be 'increasing' or 'decreasing', got {order!r}")


def concat(*pieces: Iterable[int]) -> Permutation:
    """Build a permutation by concatenating listings that partition {1..n}."""
    return Permutation(tuple(itertools.chain.from_iterable(pieces)))


def _rank_order(values: Sequence[int]) -> tuple[int, ...]:
    return tuple(sorted(range(len(values)), key=lambda j: values[j]))


def _contains_by_subsets(seq: Sequence[int], pattern: Permutation) -> bool:
    """Order-isomorphic subsequence search over all C(n, m) index subsets.

    The fallback for patterns of size >= 4, and the reference the fast
    paths of contains_sequence are tested against.
    """
    m = pattern.n
    if m == 0:
        return True
    if m > len(seq):
        return False
    order = _rank_order(pattern.entries)
    for positions in itertools.combinations(range(len(seq)), m):
        if _rank_order([seq[i] for i in positions]) == order:
            return True
    return False


def _has_123(seq: Sequence[int]) -> bool:
    """One left-to-right pass, O(n): ``low`` is the smallest entry so far and
    ``mid`` the smallest entry so far with a smaller one before it, so an
    entry above ``mid`` completes a 123."""
    low = mid = None
    for v in seq:
        if mid is not None and v > mid:
            return True
        if low is None or v < low:
            low = v
        elif v > low:
            mid = v
    return False


def _has_132(seq: Sequence[int]) -> bool:
    """Right-to-left stack scan, O(n).  The stack holds candidates for the
    3 (decreasing from the bottom); ``two`` is the largest entry popped by a
    larger one to its left, so a 32 pair exists with 2 = ``two``, and any
    later-scanned entry below it completes a 132."""
    stack: list[int] = []
    two = None
    for v in reversed(seq):
        if two is not None and v < two:
            return True
        while stack and stack[-1] < v:
            two = stack.pop()
        stack.append(v)
    return False


def _negated(seq: Sequence[int]) -> list[int]:
    return [-v for v in seq]


# each size-3 pattern as a symmetry of 123 or 132: reverse and/or complement
# (negation keeps the value order reversed on sequences with gaps)
_S3_SCANS = {
    (1, 2, 3): _has_123,
    (3, 2, 1): lambda s: _has_123(s[::-1]),
    (1, 3, 2): _has_132,
    (2, 3, 1): lambda s: _has_132(s[::-1]),
    (3, 1, 2): lambda s: _has_132(_negated(s)),
    (2, 1, 3): lambda s: _has_132(_negated(s[::-1])),
}


def contains_sequence(seq: Sequence[int], pattern: Permutation) -> bool:
    """Order-isomorphic subsequence search on any distinct-value sequence.

    Patterns of size <= 2 take one pass over adjacent pairs and size 3 a
    linear scan; larger patterns fall back to the subset search.
    """
    q = pattern.entries
    m = len(q)
    if m <= 1:
        return m <= len(seq)
    if m == 2:
        rising = q == (1, 2)
        return any((a < b) == rising for a, b in zip(seq, seq[1:]))
    if m == 3:
        return _S3_SCANS[q](seq)
    return _contains_by_subsets(seq, pattern)


def ends_with_occurrence(seq: Sequence[int], pattern: Permutation) -> bool:
    """True iff some occurrence of pattern in seq uses seq's last entry.

    Size 2 asks for one earlier entry on the pattern's side of the last
    entry x.  Size 3 is one O(n) pass: the two earlier entries must lie on
    the sides of x that the pattern's last letter fixes, in the pattern's
    order, so keep the extreme candidate for the first of them (its minimum
    if the pattern rises there, its maximum otherwise).  Other sizes try the
    C(n-1, m-1) subsets of the earlier entries.
    """
    q = pattern.entries
    m = len(q)
    if m == 0 or m > len(seq):
        return False
    x = seq[-1]
    if m == 2:
        below = q[0] < q[1]
        return any((v < x) == below for v in seq[:-1])
    if m == 3:
        a, b, c = q
        first_below, second_below, rising = a < c, b < c, a < b
        best = None
        for v in seq[:-1]:
            if best is not None and (v < x) == second_below and (best < v) == rising:
                return True
            if (v < x) == first_below and (best is None or (v < best) == rising):
                best = v
        return False
    order = _rank_order(q)
    # order-isomorphic iff read in the pattern's rank order, the values rise
    return any(
        sorted(values := combo + (x,)) == [values[j] for j in order]
        for combo in itertools.combinations(seq[:-1], m - 1)
    )


def contains(p: Permutation, pattern: Permutation) -> bool:
    """True iff p has a subsequence order-isomorphic to pattern."""
    return contains_sequence(p.entries, pattern)


def avoids(p: Permutation, pattern: Permutation) -> bool:
    return not contains(p, pattern)


def avoids_all(p: Permutation, patterns: Iterable[Permutation]) -> bool:
    return all(not contains(p, q) for q in patterns)


@dataclass(frozen=True)
class PatternSet:
    """Canonical (sorted, deduplicated) set of nonempty patterns.

    Ordering is lexicographic on one-line notation, then by size, which gives
    deterministic dispatch keys for the counting formulas.
    """

    patterns: tuple[Permutation, ...]

    def __post_init__(self) -> None:
        if any(q.n == 0 for q in self.patterns):
            raise ValueError("patterns must have size >= 1")
        canon = sorted(set(self.patterns), key=lambda q: (q.entries, q.n))
        object.__setattr__(self, "patterns", tuple(canon))

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.patterns)

    def __len__(self) -> int:
        return len(self.patterns)

    def __str__(self) -> str:
        return ",".join(format_permutation(q) for q in self.patterns)

    def key(self) -> tuple[tuple[int, ...], ...]:
        return tuple(q.entries for q in self.patterns)


def pattern_set(*patterns: str | Iterable[int] | Permutation) -> PatternSet:
    out = []
    for q in patterns:
        out.append(q if isinstance(q, Permutation) else perm(q))
    return PatternSet(tuple(out))


def parse_pattern_set(text: str) -> PatternSet:
    """Parse a comma-separated pattern list such as "123,132"."""
    parts = [part for part in text.split(",") if part.strip()]
    if not parts:
        raise ValueError("empty pattern list")
    return PatternSet(tuple(parse_permutation(part) for part in parts))


def all_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic order."""
    for entries in itertools.permutations(range(1, n + 1)):
        yield Permutation(entries)


class BudgetExceeded(ValueError):
    """Work past a documented budget; the CLI exits 3 before printing."""


# Entries the avoider walk may scan: about 8-15 s of CPython on a 2-vCPU
# host.  Counted in entries, not nodes: Av_n(12) has one node per level but
# O(n^2) work per level.
WALK_BUDGET = 50_000_000


@dataclass(frozen=True)
class AvoiderSums:
    """One avoider walk to n_max, indexed by n = 0..n_max."""

    ell: list[int]  # sum of ell_weight over Av_n(P): the pk count
    blocks: list[int]  # parking functions whose block permutation is in Av_n(P)
    leaves: list[tuple[int, ...]]  # Av_{n_max}(P), when kept


def avoider_walk(n_max: int, patterns: PatternSet, keep_leaves: bool = False) -> AvoiderSums:
    """Depth-first over the avoiders of size <= n_max, with two running weights.

    A size-k avoider grows by a last entry of each rank r in 1..k+1 (entries
    >= r shift up), kept iff no occurrence ends at it, so every node is an
    avoider and the work is sum_k |Av_k(P)| * poly(k).  The new entry's
    ell_factor is one plus the entries just before it that lie below it.  A
    block permutation p is cut into increasing blocks, each in a later slot
    but no later than the entries before it; the walk keeps their count by
    the last block's slot: a descent opens a block, an ascent may also
    extend the last one.  A candidate of size k scans k entries plus, per
    pattern of size m, k - 1 (m <= 3) or C(k-1, m-1) * m; past WALK_BUDGET
    in all the walk raises BudgetExceeded.
    """
    ell, blocks, leaves = [0] * (n_max + 1), [0] * (n_max + 1), []
    sizes = [q.n for q in patterns]
    cost = [k + 1 + sum(k if m <= 3 else math.comb(k, m - 1) * m for m in sizes) for k in range(n_max)]
    spent = 0
    stack = [((), 1, [1])]  # (entries, ell product, block weights by last block slot + 1)
    while stack:
        seq, w_ell, w_slots = stack.pop()
        k = len(seq)
        ell[k] += w_ell
        blocks[k] += sum(w_slots)
        if k == n_max:
            if keep_leaves:
                leaves.append(seq)
            continue
        spent += (k + 1) * cost[k]
        if spent > WALK_BUDGET:
            raise BudgetExceeded(f"avoider walk for {patterns} to n={n_max}: past {WALK_BUDGET} entries")
        opened = [0, *itertools.accumulate(w_slots)]  # a new block after the last one
        extended = opened[1:] + opened[-1:]  # or the last block extended
        probe = [2 * v for v in seq] + [0]
        for r in range(1, k + 2):
            probe[-1] = 2 * r - 1  # order-isomorphic to the child
            if any(ends_with_occurrence(probe, q) for q in patterns):
                continue
            below = next((i for i, v in enumerate(reversed(seq)) if v >= r), k)
            child = tuple(v + (v >= r) for v in seq) + (r,)
            stack.append((child, w_ell * (below + 1), extended if k and seq[-1] < r else opened))
    return AvoiderSums(ell, blocks, leaves)


def avoidance_class(n: int, patterns: PatternSet) -> list[Permutation]:
    """All permutations of size n avoiding every pattern, in lexicographic
    order: the leaves of avoider_walk.  Size 0 gives the empty permutation."""
    return [Permutation(e) for e in sorted(avoider_walk(n, patterns, keep_leaves=True).leaves)]


def ell_factor(p: Permutation, i: int) -> int:
    """Length of the longest window ending at position i with all values <= p(i)."""
    if not 1 <= i <= p.n:
        raise ValueError(f"position {i} out of range 1..{p.n}")
    v = p.entries[i - 1]
    length = 0
    for j in range(i - 1, -1, -1):
        if p.entries[j] <= v:
            length += 1
        else:
            break
    return length


def ell_weight(p: Permutation) -> int:
    """Product of ell_factor over all positions; the number of parking
    functions whose outcome permutation is p.

    >>> ell_weight(perm("7561234"))
    48
    >>> ell_weight(identity(5)), ell_weight(reverse_identity(5))
    (120, 1)
    """
    total = 1
    for i in range(1, p.n + 1):
        total *= ell_factor(p, i)
    return total


S3_PATTERNS: tuple[Permutation, ...] = tuple(
    Permutation(entries) for entries in itertools.permutations((1, 2, 3))
)


def s3_containment_mask(p: Permutation) -> int:
    """Bitmask over the six size-3 patterns (canonical order) contained in p."""
    mask = 0
    for bit, q in enumerate(S3_PATTERNS):
        if contains(p, q):
            mask |= 1 << bit
    return mask


# kept for perfbench/trace_child.py, which looks it up by name at start-up
@lru_cache(maxsize=None)
def _s3_profile(n: int) -> tuple[tuple[int, int], ...]:
    """(containment mask, ell weight) for every permutation of size n."""
    return tuple((s3_containment_mask(p), ell_weight(p)) for p in all_permutations(n))

