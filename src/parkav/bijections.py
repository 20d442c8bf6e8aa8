"""Bijections between pattern-restricted parking functions and ordered trees.

Parking functions whose block permutation avoids {123, 132} correspond to
ordered rooted trees with n+1 edges and odd root degree; those avoiding
{123, 213} correspond to trees with n+1 edges and root degree at least two.
Both bijections run cluster by cluster: the block sequence is partitioned
into recursive groups (clusters), and each cluster contributes one local
tree operation.

In both families every block has size 0, 1 or 2, and reading size-2 blocks
as opening brackets and empty blocks as closing brackets gives a correctly
matched word; the partner of a size-2 block under this matching is "its"
empty block.  A cluster takes a run of non-empty blocks, its main blocks,
and at most one empty block: the partner of one of its own main blocks.
The clusters' main blocks, in order, are exactly the word's non-empty
blocks, and every empty block belongs to the cluster owning its partner.
So each cluster reads its main blocks off the list of non-empty positions
by index, and one bracket match of the whole word serves every cluster.

Family {123, 132} (clusters: extend / branch / jump)
    Operations attach a labelled path or a labelled two-branch graft at a
    vertex determined by where the jump cluster's empty block sits: just
    before the i-th main block of a later cluster covering lo..hi, which
    points at the vertex labelled hi - 1 - i (the root when no main block
    follows).  The labels 0..n record creation order.  The inverse peels
    the grafts off one by one, each located by a left-most-branch descent
    that resumes where the last peel left it, and labels each vertex as its
    graft comes off.

Family {123, 213} (clusters: closed / open)
    A closed cluster grows the tree upward (new root above the old one plus
    a fresh left branch); an open cluster re-roots the tree at a vertex of
    the right-most spine, pushing everything outside a full right subtree
    below a brand new left edge.  The re-rooting preserves the planar cyclic
    order around every vertex, which is exactly what the inverse unwinds.

A word is described by its clusters' main blocks, in order, and the gap of
each cluster's empty block: how many main blocks precede it.  The forward
maps read the gaps off the word; a gap's host is the cluster owning the main
block after it (jump) or before it (open).  Each inverse builds the
description, last cluster first, and lays out its word once: every empty
block is (), so bracket matching constrains only how many a gap holds, and
one match of the finished word checks that each sits in its own gap.

Trees are read and written as their parentheses words.  Each map works on
child lists, one per vertex, right to left, so that a new left-most branch
appends and the first branch pops: the forward maps grow them (the
{123, 132} family's lists are keyed by label) and write the word once, and
the inverses parse the word into them once and peel in place.  The labelled
{123, 132} image, phi_123_132_labeled, is that flat table, read left to
right, so it compares, prints, copies and pickles at any depth.

All four maps are loops over the clusters, with no recursion, down to n = 0:
its only parking function, the empty one, maps to the one-edge tree (labelled
0 in the {123, 132} family) and back.  The test suite checks the maps against
the small cases (n <= 3), kept there as fixtures.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import product
from typing import Callable, NamedTuple

from ._record import Record
from .parking import Blocks, ParkingFunction, block_permutation_of_blocks, from_blocks, to_blocks
from .permutations import PatternSet, avoids_all, pattern_set
from .trees import OrderedTree


class BijectionDefect(AssertionError):
    """An internal structural guarantee failed; indicates a genuine bug."""


# ---------------------------------------------------------------------------
# child lists: the working form of a tree inside each map


def _kid_lists(word: str) -> list[list[int]]:
    """Each vertex's children, right to left, read off a tree's word in one
    pass from its end.  Vertex 0 is the root, and every vertex is numbered
    after its parent."""
    kids: list[list[int]] = [[]]
    unclosed = [kids[0]]  # the child lists of the vertices whose ")" is read and whose "(" is not
    for ch in word[-2:0:-1]:  # inside the root's own pair
        if ch == ")":
            unclosed[-1].append(len(kids))
            kids.append([])
            unclosed.append(kids[-1])
        else:
            unclosed.pop()
    return kids


def _word(kids, root) -> str:
    """The word of the tree below ``root``, where kids[v] lists the children
    of v right to left (-1 names no vertex)."""
    out, stack = [], [root]  # -1 on the stack closes the vertex opened before it
    while stack:
        v = stack.pop()
        if v == -1:
            out.append(")")
        else:
            out.append("(")
            stack.append(-1)
            stack += kids[v]
    return "".join(out)


def _new_path(kids: list[list[int]], edges: int) -> int:
    """Add a bare path of ``edges`` (>= 1) new vertices; returns its top."""
    top = len(kids)
    kids.extend([v + 1] for v in range(top, top + edges - 1))
    kids.append([])
    return top


def _graft(table: dict, target: int | None, k: int, n: int, extend: bool) -> None:
    """Graft onto the vertex labelled ``target`` (None = root), in place:
    extend hangs the path k+1..n below the target, a leaf; otherwise the
    single vertex n and the path k+1..n-1 become its two left-most branches.
    The table maps each label to its child labels, right to left, so a
    graft's new branches append."""
    kids = table.get(target)
    if kids is None:
        raise BijectionDefect(f"no vertex labelled {target}")
    if extend and kids:
        raise BijectionDefect("extend target must be a leaf")
    end = n if extend else n - 1
    kids.append(k + 1)
    table.update((lab, [lab + 1]) for lab in range(k + 1, end))
    table[end] = []
    if not extend:
        kids.append(n)
        table[n] = []


# ---------------------------------------------------------------------------
# bracket matching and shared block helpers


def bracket_match(blocks: Blocks) -> dict[int, int]:
    """Pair each size-2 block with its empty block (stack matching).

    Raises for blocks of size >= 3 or for an unmatched word; the two
    families this module handles never produce either.
    """
    stack: list[int] = []
    match: dict[int, int] = {}
    for i, b in enumerate(blocks):
        if len(b) >= 3:
            raise ValueError(f"block {i + 1} has size {len(b)}; expected 0, 1 or 2")
        if len(b) == 2:
            stack.append(i)
        elif len(b) == 0:
            if not stack:
                raise ValueError(f"empty block {i + 1} has no matching size-2 block")
            match[stack.pop()] = i
    if stack:
        raise ValueError("size-2 block without a matching empty block")
    return match


def match_empty_blocks(f: ParkingFunction | Blocks) -> dict[int, int]:
    """Public pairing (0-based positions): size-2 block -> its empty block."""
    blocks = to_blocks(f) if isinstance(f, ParkingFunction) else f
    return bracket_match(blocks)


def _domain_blocks(f: ParkingFunction | Blocks, patterns: PatternSet) -> Blocks:
    """The blocks of f, once f is checked to lie in the family's domain: a
    parking function whose block permutation avoids ``patterns``.

    This is the one input check of each public map; the loops below only
    ever feed the unchecked helpers blocks they built themselves.
    """
    if isinstance(f, ParkingFunction):
        blocks = to_blocks(f)
    else:
        from_blocks(f)  # raises ValueError unless f is a parking function
        blocks = f
    pi = block_permutation_of_blocks(blocks)
    if not avoids_all(pi, patterns):
        raise ValueError(f"block permutation {pi} contains a forbidden pattern")
    return blocks


class Cluster(Record):
    """The elements lo..hi, with the 0-based positions of their main blocks
    (in order) and of their matched empty block, when there is one."""

    __slots__ = ("kind", "lo", "hi", "parameter", "main_positions", "empty_position")

    def __init__(
        self,
        kind: str,  # extend | branch | jump, or closed | open
        lo: int,
        hi: int,
        parameter: int | None,  # closed only
        main_positions: tuple[int, ...],
        empty_position: int | None,
    ) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "parameter", parameter)
        object.__setattr__(self, "main_positions", main_positions)
        object.__setattr__(self, "empty_position", empty_position)

    @property
    def length(self) -> int:
        return self.hi - self.lo + 1


def _clusters(blocks: Blocks, peel) -> tuple[list[tuple], list[int], list[int | None]]:
    """The clusters of the blocks, peeled off the front one at a time, each
    a plain tuple of Cluster's fields in their order; where each cluster's
    main blocks start in the run of all main blocks, in word order (their
    total last); and the gap of each cluster's empty block: how many main
    blocks precede it (None: the cluster has none).

    The main blocks are exactly the non-empty blocks (see the module
    docstring), so each peel reads its own off the list of their positions,
    from its start; all peels share one bracket match of the whole word.
    """
    match = bracket_match(blocks)
    mains = [q for q, b in enumerate(blocks) if b]
    clusters, starts, gaps = [], [0], []
    n = sum(map(len, blocks))  # the blocks left hold 1..n
    while n:
        cluster = peel(blocks, match, mains, starts[-1], n)
        _, lo, _, _, main, empty = cluster
        clusters.append(cluster)
        starts.append(starts[-1] + len(main))
        gaps.append(None if empty is None else bisect_left(mains, empty))
        n = lo - 1
    return clusters, starts, gaps


def _owner(starts: list[int], j: int) -> int:
    """The index of the cluster that main block j (in word order) belongs to."""
    return bisect_right(starts, j) - 1


def _lay_out(mains: list[Blocks], gaps: list[int | None]) -> Blocks:
    """The word whose clusters have these main blocks, in word order, and
    these gaps for their empty blocks: the inverse of _clusters' gaps, in
    one pass."""
    empties = [0] * (sum(map(len, mains)) + 1)  # per gap: the empty blocks in it
    for g in gaps:
        if g is not None:
            empties[g] += 1
    word: list[tuple[int, ...]] = []
    at, gap_of = [], []  # per main block: its word position, its cluster's gap
    for cluster, gap in zip(mains, gaps):
        for block in cluster:
            word += ((),) * empties[len(at)]
            at.append(len(word))
            gap_of.append(gap)
            word.append(block)
    word += ((),) * empties[len(at)]
    match = bracket_match(word)
    if any(len(word[p]) == 2 and bisect_left(at, match[p]) != g for p, g in zip(at, gap_of)):
        raise BijectionDefect("an empty block lies outside its cluster's gap")
    return tuple(word)


# ---------------------------------------------------------------------------
# clusters, family {123, 132}


PATTERNS_123_132 = pattern_set("123", "132")
PATTERNS_123_213 = pattern_set("123", "213")


def clusters_123_132(f: ParkingFunction | Blocks) -> list[Cluster]:
    """Partition the blocks into extend/branch/jump clusters (positions are
    0-based indices into the original block sequence)."""
    return [Cluster(*c) for c in _clusters(_domain_blocks(f, PATTERNS_123_132), _peel_132)[0]]


def _peel_132(blocks: Blocks, match: dict[int, int], mains: list[int], i: int, n: int) -> tuple:
    j = i + 1  # past the cluster's last main block, in mains
    if blocks[mains[i]] == (n,):  # extend: {n}, {n-1}, ...
        while j < len(mains) and blocks[mains[j]] == (n + i - j,):
            j += 1
        return "extend", n + i - j + 1, n, None, tuple(mains[i:j]), None
    if blocks[mains[i]][0] != n - 1:
        raise ValueError("block permutation starts with neither n nor n-1")
    # branch: {n-1}, ..., {k+1}, {n}; jump: {n-1}, ..., {k+2}, {k+1, n}
    while n not in blocks[mains[j - 1]]:
        j += 1
    main = tuple(mains[i:j])
    if any(len(blocks[p]) != 1 for p in main[:-1]):
        raise BijectionDefect("branch or jump cluster blocks must be singletons first")
    last = blocks[main[-1]]
    if last == (n,):
        return "branch", n - len(main) + 1, n, None, main, None
    if last != (n - len(main), n):
        raise BijectionDefect(f"size-2 block {last} is not {(n - len(main), n)}")
    return "jump", n - len(main), n, None, main, match[main[-1]]


# ---------------------------------------------------------------------------
# clusters, family {123, 213}


def clusters_123_213(f: ParkingFunction | Blocks) -> list[Cluster]:
    """Partition the blocks into closed/open clusters."""
    return [Cluster(*c) for c in _clusters(_domain_blocks(f, PATTERNS_123_213), _peel_213)[0]]


def _peel_213(blocks: Blocks, match: dict[int, int], mains: list[int], i: int, n: int) -> tuple:
    first = blocks[mains[i]]
    k = first[0] - 1  # the cluster covers k+1..n
    if len(first) == 1:
        # closed, all singletons: {k+1}, {n}, ..., {k+2}
        cluster = "closed", k + 1, n, n - k - 1, tuple(mains[i : i + n - k]), None
    else:
        # {k+1, n}, {n-1}, ..., {k+2}, and the empty block matched to the
        # first: before the next cluster's first main block (closed), or after it
        main = tuple(mains[i : i + n - k - 1])
        empty = match[main[0]]
        if i + len(main) == len(mains) or empty < mains[i + len(main)]:
            parameter = len(main) - bisect_left(main, empty)  # main blocks after the empty one
            cluster = "closed", k + 1, n, parameter, main, empty
        else:
            cluster = "open", k + 1, n, None, main, empty
    # after the first block, singletons from n (or n - 1 after {k+1, n}) down to k+2
    singletons = [blocks[q] for q in cluster[4][1:]]
    if (len(first) == 2 and first[1] != n) or singletons != list(zip(range(n + 1 - len(first), k + 1, -1))):
        raise BijectionDefect(f"{cluster[0]} cluster blocks out of shape")
    return cluster


# ---------------------------------------------------------------------------
# family {123, 132}: forward map


def phi_123_132(f: ParkingFunction | Blocks) -> OrderedTree:
    """Tree with n+1 edges and odd root degree for f avoiding {123, 132}."""
    return forward(f, "123-132")


def _phi_132(blocks: Blocks) -> OrderedTree:
    return OrderedTree._trusted(_word(_graft_table(blocks), None))


def phi_123_132_labeled(f: ParkingFunction | Blocks) -> dict[int | None, list[int]]:
    """Forward map with creation labels 0..n on the non-root vertices: each
    label's child labels, left to right (None: the root)."""
    table = _graft_table(_domain_blocks(f, PATTERNS_123_132))
    return {label: kids[::-1] for label, kids in table.items()}


def _graft_table(blocks: Blocks) -> dict[int | None, list[int]]:
    """Graft the clusters, the last one first, onto the one-edge tree labelled
    0; returns the image's child labels of each label (None: the root)."""
    clusters, starts, gaps = _clusters(blocks, _peel_132)
    table = {None: [0], 0: []}
    for i in range(len(clusters) - 1, -1, -1):
        kind, lo, hi, _, _, _ = clusters[i]
        target = lo - 1
        if kind == "jump":
            target, g = None, gaps[i]  # the root, unless a main block follows the empty one
            if g < starts[-1]:
                h = _owner(starts, g)
                target = clusters[h][2] - 1 - (g - starts[h])  # below the host's hi
        _graft(table, target, lo - 1, hi, kind == "extend")
    return table


# ---------------------------------------------------------------------------
# family {123, 132}: inverse map


def psi_123_132(t: OrderedTree) -> Blocks:
    """Inverse of phi_123_132 on trees with odd root degree.

    Each step peels off the last graft, down to a bare path (an extend
    cluster on label 0).  The graft sits at the branching vertex whose two
    left-most branches are bare paths, found by descending from the root
    into the second branch while it is not a bare path, else into the
    first.  A peel changes only the subtrees on that descent, so the next
    descent resumes from the lowest vertex whose subtree is still no bare
    path: every vertex is entered at most once and leaves as a bare path.
    Each peeled vertex takes the label its graft gave it.  The clusters are
    then built back up, last graft first, and the word is laid out once.
    """
    kids = _kid_lists(t.word)
    if len(kids[0]) % 2 == 0:
        raise ValueError("tree must have odd root degree")
    n = len(kids) - 2
    bare = [False] * len(kids)  # per vertex: is its subtree a bare path?
    for v in range(len(kids) - 1, -1, -1):
        below = kids[v]
        bare[v] = not below or (len(below) == 1 and bare[below[0]])
    label: list[int | None] = [None] * len(kids)  # the root keeps None
    grafts = []  # (the target vertex of a branch or jump, None for an extend; n; k)
    stack = [] if bare[0] else [0]  # the descent: vertices whose subtrees are no bare paths
    while stack:
        v = stack[-1]
        below = kids[v]
        if len(below) == 1:
            stack.append(below[0])
            continue
        first, second = below[-1], below[-2]
        if not bare[second] or not bare[first]:
            stack.append(second if not bare[second] else first)
            continue
        if kids[first]:  # extend: the path k+1..n hangs below the target `first`
            target, peeled = None, _path_below(kids, first)
            kids[first] = []
        else:  # branch or jump at v: the leaf n, then the path k+1..n-1
            target, peeled = v, [second] + _path_below(kids, second)
            label[first] = n
            del below[-2:]
        k = n - len(peeled) - (target is not None)
        for lab, x in enumerate(peeled, k + 1):
            label[x] = lab
        grafts.append((target, n, k))
        n = k
        while stack:  # leave every subtree the peel made a bare path
            below = kids[stack[-1]]
            if len(below) > 1 or (below and not bare[below[0]]):
                break
            bare[stack.pop()] = True
    x = 0
    for lab in range(n + 1):  # the bare path left: 0 below the root, then 1..n
        x = kids[x][0]
        label[x] = lab
    if n:
        grafts.append((None, n, 0))
    # per cluster, last first: its main blocks, and the main blocks after its
    # empty one (None: it has none); and per label v, the main blocks from
    # the one that points at v to the end (None: no main block points at v)
    mains, after, slot = [], [], []
    built = 0  # the main blocks so far
    for v, n, k in reversed(grafts):
        empty = None
        if v is None:  # extend
            main = tuple((e,) for e in range(n, k, -1))
        elif label[v] == k:  # branch
            main = tuple((e,) for e in range(n - 1, k, -1)) + ((n,),)
        else:  # jump: the empty block goes before the main block pointing at the target
            empty = 0 if label[v] is None else slot[label[v]]
            if empty is None:
                raise BijectionDefect("jump graft cannot point below its host cluster")
            main = tuple((e,) for e in range(n - 1, k + 1, -1)) + ((k + 1, n),)
            slot.append(None)  # label k: a jump's main blocks point at k+1..n-1
        slot.extend(range(built + 1, built + len(main) + 1))  # the last block at the lowest label
        mains.append(main)
        after.append(empty)
        built += len(main)
    return _lay_out(mains[::-1], [None if a is None else built - a for a in reversed(after)])


def _path_below(kids: list[list[int]], x: int) -> list[int]:
    """The vertices below x, top down, where x's subtree is a bare path."""
    out = []
    while kids[x]:
        x = kids[x][0]
        out.append(x)
    return out


# ---------------------------------------------------------------------------
# family {123, 213}: forward map


def phi_123_213(f: ParkingFunction | Blocks) -> OrderedTree:
    """Tree with n+1 edges and root degree >= 2 for f avoiding {123, 213}
    (for n = 0, the single-edge tree)."""
    return forward(f, "123-213")


def _phi_213(blocks: Blocks) -> OrderedTree:
    """Apply the cluster operations, the last cluster first, to the one-edge
    tree, in place on child lists.

    A closed cluster puts a path of ``parameter`` edges above the root, then
    hangs a fresh path as the new root's left-most branch.  An open cluster
    re-roots at a vertex v of the right-most spine: a new root keeps the
    last branches of v, v's left-most branch becomes the chain from the old
    root down to v's parent, reversed, and a fresh path tops that chain.
    """
    clusters, starts, gaps = _clusters(blocks, _peel_213)
    kids, root = [[1], []], 0  # the one-edge tree
    spine = [1, 0]  # the right-most spine, its bottom leaf first
    grown_from = {}  # per closed cluster: spine length and root degree of the tree it grew
    for i in range(len(clusters) - 1, -1, -1):
        kind, lo, hi, parameter, _, _ = clusters[i]
        if kind == "closed":
            grown_from[i] = len(spine) - 1, len(kids[root])
            for _ in range(parameter):
                kids.append([root])
                root = len(kids) - 1
                spine.append(root)
            kids[root].append(_new_path(kids, hi - lo + 1 - parameter))
            continue
        # open: the host owns the last main block before the empty one
        h = _owner(starts, gaps[i] - 1)
        host_kind, _, _, host_parameter, _, _ = clusters[h]
        if h == i:
            raise BijectionDefect("open cluster's empty block precedes every later block")
        if host_kind != "closed":
            raise BijectionDefect("the matched empty block must sit inside a closed cluster")
        ell = starts[h + 1] - gaps[i]  # the host's main blocks after the empty one
        if ell > host_parameter:
            raise BijectionDefect("empty block sits deeper than the host's parameter allows")
        spine_length, degree = grown_from[h]
        depth = spine_length + ell  # v's height above the spine's bottom leaf
        if depth >= len(spine):
            raise BijectionDefect("spine shorter than the requested depth")
        v = spine[depth]
        branches = 1 if ell else degree  # the branches the new root keeps
        if len(kids[v]) < branches:
            raise BijectionDefect("kept subtree wants more branches than the vertex has")
        kept, kids[v] = kids[v][:branches], kids[v][branches:]
        top = _new_path(kids, hi - lo)
        for s in reversed(spine[depth + 1 :]):  # from the old root down to v's parent
            kids[s] = kids[s][1:] + [top]
            top = s
        kids[v].append(top)
        kids.append(kept + [v])
        root = len(kids) - 1
        del spine[depth:]
        spine.append(root)
    return OrderedTree._trusted(_word(kids, root))


# ---------------------------------------------------------------------------
# family {123, 213}: inverse map


def psi_123_213(t: OrderedTree) -> Blocks:
    """Inverse of phi_123_213 on trees with root degree >= 2 (or one edge).

    Each step unwinds the operation of the first cluster, down to the
    one-edge tree.  The clusters are then built back up, last first, each
    open cluster finding its host among the closed clusters built so far,
    and the word is laid out once.
    """
    kids = _kid_lists(t.word)
    n = len(kids) - 2
    if n and len(kids[0]) < 2:
        raise ValueError("tree must have root degree >= 2, or be the one-edge tree")
    size = [1] * len(kids)  # per vertex: the vertices of its subtree
    for v in range(len(kids) - 1, 0, -1):  # every child is numbered after its parent
        for c in kids[v]:
            size[v] += size[c]
    root = 0
    steps = []  # per cluster, first first: k, n, its parameter (None: open), its host
    while n:
        root, k, parameter, host = _unwind_213(kids, size, root, n)
        steps.append((k, n, parameter, host))
        n = k
    # per cluster, last first: its main blocks, and the main blocks after its
    # empty one (None: it has none); and per closed cluster k+1..n, by k: its
    # parameter and the main blocks after its own
    mains, after, closed = [], [], {}
    built = 0  # the main blocks so far
    for k, n, parameter, host in reversed(steps):
        empty = None
        if parameter == n - k - 1:  # closed, all singletons
            main = ((k + 1,),) + tuple((v,) for v in range(n, k + 1, -1))
        else:
            main = ((k + 1, n),) + tuple((v,) for v in range(n - 1, k + 1, -1))
            if parameter is not None:  # closed: `parameter` main blocks follow the empty one
                empty = built + parameter
            else:  # open: `ell` main blocks of the host cluster b+1.. follow it
                ell, b = host
                if b not in closed:
                    raise BijectionDefect("the receiving cluster must be closed")
                host_parameter, host_after = closed[b]
                if host_parameter < ell:
                    raise BijectionDefect("receiving cluster's parameter is too small")
                empty = host_after + ell
        if parameter is not None:
            closed[k] = parameter, built
        mains.append(main)
        after.append(empty)
        built += len(main)
    return _lay_out(mains[::-1], [None if a is None else built - a for a in reversed(after)])


def _unwind_213(
    kids: list[list[int]], size: list[int], root: int, n: int
) -> tuple[int, int, int | None, tuple[int, int] | None]:
    """Undo, in place, the first cluster's operation on the tree below
    ``root`` (n + 1 edges; size counts the subtree of every vertex but the
    root).  Returns the root of the tree the operation was applied to, the
    cluster's k (it covers k+1..n), its parameter when closed, and when open
    its host: (ell, b), the empty block sitting ell main blocks deep into
    the closed cluster b+1.. ."""
    chain = [root]  # the left-most path, down to a leaf
    while kids[chain[-1]]:
        chain.append(kids[chain[-1]][-1])
    # the lowest vertex on it, below the root, with two or more branches
    z_idx = next((i for i in range(len(chain) - 2, 0, -1) if len(kids[chain[i]]) >= 2), None)
    if z_idx is None:  # closed: the left-most path is the fresh branch
        k = n - (len(chain) - 1)
        kids[root].pop()
        if len(kids[root]) > 1:
            return root, k, 0, None
        parameter, node = _chain_end(kids, kids[root][0])
        if not kids[node]:
            # single cluster: the right branch is the raised path over a lone
            # edge, and nothing is left to unwind
            return root, 0, k, None
        return node, k - parameter, parameter, None
    d = len(chain) - 1 - z_idx  # edges from z down to the left-most leaf
    k = n - 1 - d
    # read off which closed cluster receives the empty block, and how deep:
    # its image, raised by ell, is everything right of the first branch
    first = chain[1]
    ell = 0
    if len(kids[root]) == 2:
        ell, node = _chain_end(kids, kids[root][0])
    b = n - ell - size[first]
    if ell and not kids[node]:  # the right branch is a bare path
        ell, b = ell - 1, 0
    # unwind the re-rooting: each chain vertex down to z drops its first
    # branch and takes the one above it (the root's other branches) as its last
    moved = kids[root][:-1]
    moved_size = n + 1 - size[first]
    for j in range(1, z_idx + 1):
        v = chain[j]
        kids[v] = moved + kids[v][:-1]
        size[v] += moved_size - size[chain[j + 1]]
        moved, moved_size = [v], size[v]
    return chain[z_idx], k, None, (ell, b)


def _chain_end(kids: list[list[int]], node: int) -> tuple[int, int]:
    """The edges from node's parent down through single children, and the
    first vertex on the way without exactly one child."""
    ell = 1
    while len(kids[node]) == 1:
        node = kids[node][0]
        ell += 1
    return ell, node


# ---------------------------------------------------------------------------
# shared entry points and the independent domain enumerator


class Family(NamedTuple):
    """One bijection: the patterns its domain avoids, both maps, its image."""

    patterns: PatternSet
    unchecked: Callable[[Blocks], OrderedTree]  # the forward map on blocks known to lie in the domain
    backward: Callable[[OrderedTree], Blocks]
    constraint: str  # the image, as a trees.enumerate_trees constraint on n+1 edges


FAMILIES: dict[str, Family] = {
    "123-132": Family(PATTERNS_123_132, _phi_132, psi_123_132, "odd_root"),
    "123-213": Family(PATTERNS_123_213, _phi_213, psi_123_213, "root_ge2"),
}


def _family(name: str) -> Family:
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; choose from {tuple(FAMILIES)}")
    return FAMILIES[name]


def forward(f: ParkingFunction | Blocks, family: str) -> OrderedTree:
    """The family's tree for f, once f is checked to lie in its domain.

    >>> forward(((2, 3), (1,), ()), "123-132")
    OrderedTree('(()()(()))')
    """
    fam = _family(family)
    return fam.unchecked(_domain_blocks(f, fam.patterns))


def forward_unchecked(blocks: Blocks, family: str) -> OrderedTree:
    """forward on blocks already known to lie in the family's domain, such
    as enumerate_pf_family's: the input check is skipped."""
    return _family(family).unchecked(blocks)


def backward(t: OrderedTree, family: str) -> Blocks:
    """The blocks whose tree under the family's map is t.

    >>> backward(OrderedTree("(()()())"), "123-213")
    ((2,), (1,))
    """
    return _family(family).backward(t)


def family_patterns(family: str) -> PatternSet:
    return _family(family).patterns


def enumerate_pf_avoiding(n: int, patterns: PatternSet) -> list[Blocks]:
    """Every size-n parking function (in block form) whose block permutation
    avoids ``patterns``.

    Enumerates avoiding permutations, splits each into increasing runs
    (candidate blocks) and places the runs at positions satisfying the prefix
    condition.  Independent of the cluster machinery, so it doubles as the
    domain oracle for the bijections.
    """
    from .permutations import avoidance_class

    if n == 0:
        return [()]
    out: list[Blocks] = []
    for p in avoidance_class(n, patterns):
        entries = p.entries
        # between entries i-1 and i: a descent always starts a new run, an ascent may
        choices = [(True,) if entries[i - 1] > entries[i] else (False, True) for i in range(1, n)]
        for cuts in product(*choices):
            starts = [0] + [i for i, cut in enumerate(cuts, 1) if cut]
            runs = [entries[a:b] for a, b in zip(starts, starts[1:] + [n])]
            out += _placements(runs, starts, n)
    out.sort()
    return out


def _placements(runs: list[tuple[int, ...]], starts: list[int], n: int) -> list[Blocks]:
    """The blocks for every choice of positions p_0 < ... < p_(r-1) for the
    runs, the slots in between left empty.  The prefix condition pins p_j to
    at most starts[j], the elements already placed (so the first run to slot
    0), and each run leaves a slot for every run after it.  The positions
    turn as an odometer, the last one fastest, from p_j = j."""
    r = len(runs)
    top = [min(s, n - r + j) for j, s in enumerate(starts)]  # the largest p_j
    pos = list(range(r))
    out = []
    while True:
        blocks: list[tuple[int, ...]] = [()] * n
        for p, run in zip(pos, runs):
            blocks[p] = run
        out.append(tuple(blocks))
        j = r - 1
        while pos[j] == top[j]:
            j -= 1
            if j < 0:
                return out
        # top[i + 1] > top[i], so each later p_i = p_j + (i - j) stays within its top
        pos[j:] = range(pos[j] + 1, pos[j] + 1 + r - j)


def enumerate_pf_family(n: int, family: str) -> list[Blocks]:
    return enumerate_pf_avoiding(n, family_patterns(family))

