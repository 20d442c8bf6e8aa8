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

Containment has two questions.  ``contains_sequence`` asks it of a whole
sequence: linear scans up to size 3, then the end query at each prefix.
``ends_with_occurrence`` asks whether an occurrence uses the last entry:
for sizes <= 3 it reads the one rank scan (``_s3_blocked``) that the
avoider walk runs once per node for all of a node's children; size 4 is
one more linear pass and larger sizes try subsets.

Text format: digits for n <= 9 ("7561234"), comma-separated otherwise.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from ._record import Record


class Permutation(Record):
    """One-line notation permutation of {1..n}; n = 0 is the empty permutation."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[int]) -> None:
        n = len(entries)
        if sorted(entries) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection on [{n}]: {entries!r}")
        super().__init__(tuple(entries))

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
    """Parse digit form ("7561234") or comma-separated form ("10,3,1,2,...");
    entries are ASCII digits."""
    text = text.strip()
    if text == "":
        return Permutation(())
    if "," in text:
        parts = text.split(",")
        values = []
        for i, part in enumerate(parts):
            part = part.strip()
            if not (part.isascii() and part.isdigit()):
                raise ValueError(f"bad permutation entry at position {i + 1}: {part!r}")
            values.append(int(part))
        return Permutation(values)
    if not (text.isascii() and text.isdigit()):
        bad = next(i for i, c in enumerate(text) if c not in "0123456789")
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
    return Permutation(range(1, n + 1))


def reverse_identity(n: int) -> Permutation:
    """The decreasing permutation n n-1 ... 1.

    >>> str(reverse_identity(4))
    '4321'
    """
    return Permutation(range(n, 0, -1))


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

    Sizes 0-1 are a length test, size 2 one pass over adjacent pairs and
    size 3 a linear scan.  Larger sizes ask the end query at each prefix:
    O(n^2) for size 4, and for size m >= 5 the sum of C(end - 1, m - 1)
    over the prefixes, which is C(n, m).
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
    return any(ends_with_occurrence(seq[:end], pattern) for end in range(m, len(seq) + 1))


@lru_cache(maxsize=None)
def _size4_plan(q: tuple[int, ...]) -> tuple[bool, int | None, object]:
    """(side, lone, test) for a size-4 pattern q.  Without a lone letter:
    whether all three earlier letters lie below x, None, and the size-3 scan
    for their standardization.  Otherwise: whether the lone letter lies below
    x, its position, and whether the other two letters rise."""
    *head, last = q
    below = [h < last for h in head]  # the side of x each earlier letter takes
    if below[0] == below[1] == below[2]:
        return below[0], None, _S3_SCANS[tuple(sorted(head).index(h) + 1 for h in head)]
    lone = next(j for j in range(3) if below.count(below[j]) == 1)
    u, w = (h for j, h in enumerate(head) if j != lone)
    return below[lone], lone, u < w


def _ends_with_size4(earlier: Sequence[int], x: int, q: tuple[int, ...]) -> bool:
    """Size-4 end query in one O(n) pass over the entries before x.

    Every entry below x is below every entry above x, as in the pattern, so
    only the order within each side matters.  Three letters on one side:
    a size-3 scan of that side.  One letter alone on its side: the other two
    need one rise or fall among the other side's entries, after the first
    lone-side entry if the lone letter comes first (before the last, by
    reversal, if it comes last); in the middle, a running extreme of the
    other side, read at each lone-side entry, meets a later other-side entry.
    """
    side, lone, test = _size4_plan(q)
    if lone is None:
        return test([v for v in earlier if (v < x) == side])
    rising = test
    if lone == 2:
        earlier, rising, lone = earlier[::-1], not rising, 0
    if lone == 0:
        start = next((i for i, v in enumerate(earlier) if (v < x) == side), len(earlier))
        others = [v for v in earlier[start + 1:] if (v < x) != side]
        return any((a < b) == rising for a, b in zip(others, others[1:]))
    extreme = best = None  # the other side's min (rising) or max so far; its value at the last lone entry
    for v in earlier:
        if (v < x) == side:
            best = extreme
            continue
        if best is not None and (best < v) == rising:
            return True
        if extreme is None or (v < extreme) == rising:
            extreme = v
    return False


def ends_with_occurrence(seq: Sequence[int], pattern: Permutation) -> bool:
    """True iff some occurrence of pattern in seq uses seq's last entry x.

    Sizes <= 3 ask whether x lies in an interval of the rank scan over the
    earlier entries (``_s3_blocked``), size 4 is one O(n) pass
    (``_ends_with_size4``) and larger sizes try the C(n-1, m-1) subsets of
    the earlier entries.
    """
    q = pattern.entries
    m = len(q)
    if m == 0 or m > len(seq):
        return False
    x = seq[-1]
    if m <= 3:
        return any(lo < x < hi for lo, hi in _s3_blocked(seq[:-1], q))
    if m == 4:
        return _ends_with_size4(seq[:-1], x, q)
    order = sorted(range(m), key=q.__getitem__)
    # order-isomorphic iff read in the pattern's rank order, the values rise
    return any(
        sorted(values := combo + (x,)) == [values[j] for j in order]
        for combo in itertools.combinations(seq[:-1], m - 1)
    )


def _s3_blocked(seq: Sequence[int], q: tuple[int, ...]) -> list[tuple[float, float]]:
    """The values x of a new last entry that end an occurrence of q, a
    pattern of size <= 3, as open intervals lo < x < hi (an open end is
    -inf or inf): one O(n) pass, valid on any distinct-valued sequence.

    The last letter of q puts each earlier letter below x or above it.  All
    on one side, the earlier letters allow one interval of x: every x for
    none (1), x past the extreme entry for one (12: above the minimum, 21:
    below the maximum), and for two (123, 213, 321, 231) x past the larger
    entry (below) or short of the smaller one (above) of some pair in q's
    order, so past the least such larger or greatest such smaller entry.
    One pass with a running extreme finds both, over seq or its reverse so
    that the pair's bound is the entry scanned second.  Opposite sides (132,
    312): each entry and the running minimum (132) or maximum (312) before
    it allow the x between them.
    """
    low = len(q) == 1 or q[0] < q[-1]
    ext = bound = None  # the running extreme; the threshold pair's bound
    out = []
    if len(q) == 3 and low != (q[1] < q[2]):
        for v in seq:
            if ext is not None and (ext < v) == low:
                out.append((ext, v) if low else (v, ext))
            else:
                ext = v
        return out
    for v in seq if len(q) < 3 or (q[0] < q[1]) == low else reversed(seq):
        if ext is not None and (ext < v) == low:
            if bound is None or (v < bound) == low:
                bound = v
        else:
            ext = v
    if len(q) < 3:  # x past nothing (1) or past the extreme (12, 21)
        bound = ext if len(q) == 2 else -math.inf
    if bound is not None:
        out.append((bound, math.inf) if low else (-math.inf, bound))
    return out


def contains(p: Permutation, pattern: Permutation) -> bool:
    """True iff p has a subsequence order-isomorphic to pattern."""
    return contains_sequence(p.entries, pattern)


def avoids(p: Permutation, pattern: Permutation) -> bool:
    return not contains(p, pattern)


def avoids_all(p: Permutation, patterns: Iterable[Permutation]) -> bool:
    return all(not contains(p, q) for q in patterns)


class PatternSet(Record):
    """Canonical (sorted, deduplicated) set of nonempty patterns.

    Ordering is lexicographic on one-line notation, then by size, which gives
    deterministic dispatch keys for the counting formulas.
    """

    __slots__ = ("patterns",)

    def __init__(self, patterns: tuple[Permutation, ...]) -> None:
        if any(q.n == 0 for q in patterns):
            raise ValueError("patterns must have size >= 1")
        canon = sorted(set(patterns), key=lambda q: (q.entries, q.n))
        super().__init__(tuple(canon))

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


# Entries the avoider walk may scan: 2-15 s of CPython on a 2-vCPU host
# (pf {132} refuses n = 13 after 2.3 s, pk {1234} n = 11 after 12 s, pk
# {12345} n = 9 after 15 s).  Counted in entries, not nodes: Av_n(12) has one
# node per level but O(n^2) work per level.  A pattern of size <= 4 is priced
# at one linear end query per candidate, a larger one at its subsets of the
# earlier entries.  Sizes <= 3 keep that per-candidate price, though one scan
# per node serves all their candidates, so which calls answer and which
# refuse does not depend on how fast the scan is.
WALK_BUDGET = 50_000_000


class AvoiderSums(Record):
    """One avoider walk to n_max, indexed by n up to the largest size it
    reached; no size past that has an avoider."""

    # ell: sum of ell_weight over Av_n(P), the pk count; blocks: parking functions
    # whose block permutation is in Av_n(P); leaves: Av_{n_max}(P), when kept
    __slots__ = ("ell", "blocks", "leaves")

    def at(self, weight: str, n: int) -> int:
        """The ``weight`` sum ("ell" or "blocks") at size n; 0 past the walk's depth."""
        sums = getattr(self, weight)
        return sums[n] if n < len(sums) else 0


def avoider_walk(n_max: int, patterns: PatternSet, keep_leaves: bool = False) -> AvoiderSums:
    """Depth-first over the avoiders of size <= n_max, with two running weights.

    A size-k avoider grows by a last entry of each rank r in 1..k+1 (entries
    >= r shift up), kept iff no occurrence ends at it, so every node is an
    avoider and the work is sum_k |Av_k(P)| * poly(k).  At a node of size k,
    one O(k) pass per pattern of size <= 3 marks the ranks of all k+1
    children that it forbids (``_s3_blocked``); a larger pattern asks one
    end query per candidate: O(k) for size 4, C(k, m-1) subsets for size
    m >= 5.
    One more pass finds every child's ``below``, the entries just before the
    new one that lie under it; its ell_factor is ``below`` + 1.  A block
    permutation p is cut into increasing blocks, each in a later slot but no
    later than the entries before it; the walk keeps their count by the last
    block's slot: a descent opens a block, an ascent may also extend the
    last one.  The children of size n_max are only summed, not built, unless
    keep_leaves asks for them.

    The budget prices a node of size k at k+1 candidates, each k+1 entries
    plus, per pattern of size m, k (m <= 4) or C(k, m-1) * m; past
    WALK_BUDGET in all the walk raises BudgetExceeded.  The sums grow only
    as deep as the walk reaches.
    """
    ell, blocks, leaves = [], [], []
    sizes = [q.n for q in patterns]
    scanned = [q.entries for q in patterns if q.n <= 3]
    queried = [q for q in patterns if q.n > 3]  # one end query per candidate
    cost = []  # cost[k]: the scan of one child of a size-k node, set when the walk first reaches k
    spent = 0
    stack = [((), 1, [1])]  # (entries, ell product, block weights by last block slot + 1)
    while stack:
        seq, w_ell, w_slots = stack.pop()
        k = len(seq)
        if k == len(ell):
            ell.append(0)
            blocks.append(0)
        ell[k] += w_ell
        blocks[k] += sum(w_slots)
        if k == n_max:
            if keep_leaves:
                leaves.append(seq)
            continue
        if k == len(cost):
            cost.append(k + 1 + sum(k if m <= 4 else math.comb(k, m - 1) * m for m in sizes))
        spent += (k + 1) * cost[k]
        if spent > WALK_BUDGET:
            raise BudgetExceeded(f"avoider walk for {patterns} to n={n_max}: past {WALK_BUDGET} entries")
        blocked = [0] * (k + 3)  # difference array over the ranks 1..k+1
        for q in scanned:
            # rank r is the value r - 1/2: ranks lo + 1..hi, open ends cut to 1..k+1
            for lo, hi in _s3_blocked(seq, q):
                blocked[lo + 1 if lo > 0 else 1] += 1
                blocked[hi + 1 if hi <= k else k + 2] -= 1
        below = [k] * (k + 2)  # below[r]: the entries at seq's end under rank r
        top = 0  # the largest of the last t entries
        for t, v in enumerate(reversed(seq)):
            if v > top:
                below[top + 1:v + 1] = [t] * (v - top)
                top = v
        opened = [0, *itertools.accumulate(w_slots)]  # a new block after the last one
        extended = opened[1:] + opened[-1:]  # or the last block extended
        probe = [2 * v for v in seq] + [0] if queried else None
        summed = k + 1 == n_max and not keep_leaves
        factors = n_opened = n_extended = 0  # the summed children's ell factors and block kinds
        depth = 0
        for r in range(1, k + 2):
            depth += blocked[r]
            if depth:
                continue
            if queried:
                probe[-1] = 2 * r - 1  # order-isomorphic to the child
                if any(ends_with_occurrence(probe, q) for q in queried):
                    continue
            grows = k and seq[-1] < r
            if summed:
                factors += below[r] + 1
                n_extended += grows
                n_opened += not grows
            else:
                child = tuple(v + (v >= r) for v in seq) + (r,)
                stack.append((child, w_ell * (below[r] + 1), extended if grows else opened))
        if factors:
            if k + 1 == len(ell):
                ell.append(0)
                blocks.append(0)
            ell[k + 1] += w_ell * factors
            total = sum(opened)
            blocks[k + 1] += n_opened * total + n_extended * (total + opened[-1])
    return AvoiderSums(ell, blocks, leaves)


def avoidance_class(n: int, patterns: PatternSet) -> list[Permutation]:
    """All permutations of size n avoiding every pattern, in lexicographic
    order: the leaves of avoider_walk.  Size 0 gives the empty permutation."""
    return [Permutation._trusted(e) for e in sorted(avoider_walk(n, patterns, keep_leaves=True).leaves)]


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

