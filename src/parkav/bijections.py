"""Bijections between pattern-restricted parking functions and ordered trees.

Parking functions whose block permutation avoids {123, 132} correspond to
ordered rooted trees with n+1 edges and odd root degree; those avoiding
{123, 213} correspond to trees with n+1 edges and root degree at least two.
Both bijections run cluster by cluster: the block sequence is partitioned
into recursive groups (clusters), and each cluster contributes one local
tree operation.

In both families every block has size 0, 1 or 2, and reading size-2 blocks
as opening brackets and empty blocks as closing ones gives a matched word;
a size-2 block's partner under this matching is "its" empty block.  A
cluster takes a run of non-empty blocks, its main blocks, and at most one
empty block, the partner of one of its own.  The clusters' main blocks, in
order, are exactly the word's non-empty blocks, so one scan of the word
serves every cluster: it matches the brackets, lists the non-empty
positions and counts the non-empty blocks before each empty one, which is
that empty block's gap (below).

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
maps read the gaps off the word, one loop per family peeling its clusters;
a gap's host is the cluster owning the main block after it (jump) or before
it (open).  Each inverse builds the description, last cluster first, and
lays out its word in one pass that also matches its brackets: every empty
block is (), and as each is placed it pops the gap its partner's cluster
wants, so the pass checks that each sits in its own gap.

Trees are read and written as their parentheses words.  Each map works on
child lists, one per vertex, right to left, so that a new left-most branch
appends and the first branch pops: the forward maps grow them (keyed by
label in the {123, 132} family) and write the word once, and the inverses
parse the word into them once and peel in place.  The {123, 132} forward
map's flat table, ``_graft_table``, keeps each vertex's creation label, so
the labelled image the tests read off it compares, prints, copies and
pickles at any depth.  All four maps are loops
with no recursion, down to n = 0: the empty parking function maps to the
one-edge tree (labelled 0 in the {123, 132} family) and back.  The test
suite checks the maps against the small cases (n <= 3), kept as fixtures.
"""

from __future__ import annotations

from bisect import bisect_right

from ._record import Record
from .parking import Blocks, ParkingFunction, block_permutation_of_blocks, from_blocks, to_blocks
from .permutations import PatternSet, avoider_walk, avoids_all, pattern_set
from .trees import OrderedTree


class BijectionDefect(AssertionError):
    """An internal structural guarantee failed; indicates a genuine bug."""


# ---------------------------------------------------------------------------
# child lists: the working form of a tree inside each map


def _kid_lists(word: str) -> list[list[int]]:
    """Each vertex's children, right to left, read off a tree's word in one
    pass from its end, where a vertex is open from its ")" to its "(".
    Vertex 0 is the root, and every vertex is numbered after its parent."""
    kids: list[list[int]] = [[]]
    top, unclosed = kids[0], []  # the child lists of the innermost open vertex and of those around it
    for ch in word[-2:0:-1]:  # inside the root's own pair
        if ch == "(":
            top = unclosed.pop()
        else:
            top.append(len(kids))
            unclosed.append(top)
            top = []
            kids.append(top)
    return kids


def _word(kids, root) -> str:
    """The word of the tree below ``root``, where kids[v] lists the children
    of v right to left."""
    out, stack = [], [root]  # None on the stack closes the vertex opened before it
    while stack:
        v = stack.pop()
        if v is None:
            out.append(")")
        elif kids[v]:
            out.append("(")
            stack.append(None)
            stack += kids[v]
        else:
            out.append("()")
    return "".join(out)


_SINGLETONS: list[tuple[int]] = []  # (v,) at index v, shared by every inverse


def _singletons(n: int) -> list[tuple[int]]:
    """_SINGLETONS, rebound to a longer list first unless it reaches index n;
    each caller keeps the list it read, which no one changes."""
    global _SINGLETONS
    ones = _SINGLETONS
    if len(ones) <= n:
        ones = _SINGLETONS = list(zip(range(2 * n + 2)))
    return ones


def _new_path(kids: list[list[int]], edges: int) -> int:
    """Add a bare path of ``edges`` (>= 1) new vertices; returns its top."""
    top = len(kids)
    for v in range(top + 1, top + edges):
        kids.append([v])
    kids.append([])
    return top


# ---------------------------------------------------------------------------
# bracket matching and shared block helpers


def bracket_match(blocks: Blocks) -> tuple[list[int | None], tuple[int, ...], list[int | None]]:
    """One scan of the block word, size-2 blocks read as opening brackets and
    empty blocks as closing ones (stack matching).  Returns, per position,
    the empty block that a size-2 block there is matched to; the positions
    of the non-empty blocks; and, per position, how many non-empty blocks
    precede an empty block there.  Both per-position lists hold None at
    every other block.

    Raises for blocks of size >= 3 or for an unmatched word; the two
    families this module handles never produce either.
    """
    partner: list[int | None] = [None] * len(blocks)
    before = partner[:]
    mains, stack = [], []
    for i, b in enumerate(blocks):
        if len(b) == 1:
            mains.append(i)
        elif b:
            if len(b) > 2:
                raise ValueError(f"block {i + 1} has size {len(b)}; expected 0, 1 or 2")
            mains.append(i)
            stack.append(i)
        elif stack:
            partner[stack.pop()] = i
            before[i] = len(mains)
        else:
            raise ValueError(f"empty block {i + 1} has no matching size-2 block")
    if stack:
        raise ValueError("size-2 block without a matching empty block")
    return partner, tuple(mains), before


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


def _clusters(blocks: Blocks, peel) -> tuple[list[tuple], list[int], list[int | None]]:
    """The clusters, peeled off the front in one loop, each a plain tuple:
    kind (extend, branch or jump; closed or open), lo and hi (it covers
    lo..hi), parameter (closed only) and the 0-based position of its empty
    block; where each cluster's main blocks start in the run of all main
    blocks, the non-empty ones, in word order (their total last); and the
    gap of each cluster's empty block (None: it has none).  One scan of the
    whole word serves every cluster and gap."""
    match, mains, before = bracket_match(blocks)
    return peel(blocks, match, mains, before)


def _lay_out(rev: list[tuple[int, ...]], pairs: list[int | None], holes: list[int]) -> Blocks:
    """The word whose main blocks, last first, are ``rev``, with an empty
    block before each count in ``holes`` of main blocks after it: the
    inverse of _clusters.  ``pairs`` holds, for every size-2 block in rev in
    turn, its index there and how many main blocks its cluster wants after
    the block's partner (None: no empty block); both lists are used up.  One
    pass lays the word out and matches its brackets, each empty block
    popping what its partner wants.  An unmatched word raises the ValueError
    bracket_match raises for it, and only a matched one with an empty block
    outside its partner's gap a BijectionDefect."""
    flat = rev[::-1]
    holes.sort(reverse=True)  # in word order
    word, wanted, misplaced = [], [], False  # wanted: per open size-2 block, what it wants
    laid = 0  # the main blocks in the word so far
    for a in holes:
        g = len(flat) - a
        word += flat[laid:g]
        laid = g
        while pairs and len(flat) - pairs[-2] <= g:  # a size-2 block before the empty one opens
            wanted.append(pairs.pop())
            pairs.pop()
        if not wanted:
            raise ValueError(f"empty block {len(word) + 1} has no matching size-2 block")
        misplaced |= wanted.pop() != a
        word.append(())
    if wanted or pairs:
        raise ValueError("size-2 block without a matching empty block")
    if misplaced:
        raise BijectionDefect("an empty block lies outside its cluster's gap")
    word += flat[laid:]
    return tuple(word)


# ---------------------------------------------------------------------------
# clusters of each family, peeled in one loop


PATTERNS_123_132 = pattern_set("123", "132")
PATTERNS_123_213 = pattern_set("123", "213")


def _peel_132(blocks: Blocks, match: list[int | None], mains: tuple[int, ...], before: list[int | None]) -> tuple:
    clusters, starts, gaps = [], [0], []
    i, n = 0, len(blocks)  # the blocks from mains[i] on hold 1..n, and a parking function has n blocks
    while n:
        last = blocks[mains[i]]
        j = i + 1  # past the cluster's last main block, in mains
        if last == (n,):  # extend: {n}, {n-1}, ...
            while j < len(mains) and blocks[mains[j]] == (n + i - j,):
                j += 1
            kind, lo, empty = "extend", n + i - j + 1, None
        else:
            if last[0] != n - 1:
                raise ValueError("block permutation starts with neither n nor n-1")
            # branch: {n-1}, ..., {k+1}, {n}; jump: {n-1}, ..., {k+2}, {k+1, n}
            while n not in last:
                if len(last) != 1:
                    raise BijectionDefect("branch or jump cluster blocks must be singletons first")
                last = blocks[mains[j]]
                j += 1
            if last == (n,):
                kind, lo, empty = "branch", n - j + i + 1, None
            elif last == (n - j + i, n):
                kind, lo, empty = "jump", n - j + i, match[mains[j - 1]]
            else:
                raise BijectionDefect(f"size-2 block {last} is not {(n - j + i, n)}")
        clusters.append((kind, lo, n, None, empty))
        starts.append(j)
        gaps.append(None if empty is None else before[empty])
        i, n = j, lo - 1
    return clusters, starts, gaps


def _peel_213(blocks: Blocks, match: list[int | None], mains: tuple[int, ...], before: list[int | None]) -> tuple:
    clusters, starts, gaps = [], [0], []
    i, n = 0, len(blocks)  # as in _peel_132
    while n:
        first = blocks[mains[i]]
        k = first[0] - 1  # the cluster covers k+1..n
        top = n + 1 - len(first)  # the singletons after the first block run top, ..., k+2
        j = i + top - k  # past the cluster's last main block, in mains
        if len(first) == 1:  # closed, all singletons: {k+1}, {n}, ..., {k+2}
            kind, parameter, empty, g = "closed", n - k - 1, None, None
        else:
            # {k+1, n}, {n-1}, ..., {k+2}, and the empty block matched to the first:
            # before the next cluster's first main block (closed), or after it
            empty = match[mains[i]]
            g = before[empty]
            kind, parameter = ("closed", j - g) if g <= j else ("open", None)  # main blocks after the empty one
        if (len(first) == 2 and first[1] != n) or j > len(mains):
            raise BijectionDefect(f"{kind} cluster blocks out of shape")
        for q in mains[i + 1 : j]:
            if blocks[q] != (top,):
                raise BijectionDefect(f"{kind} cluster blocks out of shape")
            top -= 1
        clusters.append((kind, k + 1, n, parameter, empty))
        starts.append(j)
        gaps.append(g)
        i, n = j, k
    return clusters, starts, gaps


# ---------------------------------------------------------------------------
# family {123, 132}: forward and inverse maps


def phi_123_132(f: ParkingFunction | Blocks) -> OrderedTree:
    """Tree with n+1 edges and odd root degree for f avoiding {123, 132}."""
    return forward(f, "123-132")


def _phi_132(blocks: Blocks) -> OrderedTree:
    return OrderedTree._trusted(_word(_graft_table(blocks), -1))


def _graft_table(blocks: Blocks) -> list[list[int]]:
    """Graft the clusters, the last one first, onto the one-edge tree labelled
    0; returns the image's child labels of each label 0..n, right to left,
    and the root's last.  Extend hangs the path lo..hi below its target, a
    leaf; branch and jump make the vertex hi and the path lo..hi-1 the
    target's two left-most branches, so a graft's new branches append."""
    clusters, starts, gaps = _clusters(blocks, _peel_132)
    table: list = [[]] + [None] * (clusters[0][2] if clusters else 0) + [[0]]  # None: no vertex yet
    for i in range(len(clusters) - 1, -1, -1):
        kind, lo, hi, _, _ = clusters[i]
        target = lo - 1
        if kind == "jump":
            target, g = -1, gaps[i]  # the root, unless a main block follows the empty one
            if g < starts[-1]:
                h = bisect_right(starts, g) - 1  # the cluster owning main block g
                target = clusters[h][2] - 1 - (g - starts[h])  # below the host's hi
        kids = table[target]
        if kids is None:
            raise BijectionDefect(f"no vertex labelled {target}")
        if kind == "extend" and kids:
            raise BijectionDefect("extend target must be a leaf")
        end = hi if kind == "extend" else hi - 1
        kids.append(lo)
        for v in range(lo, end):
            table[v] = [v + 1]
        table[end] = []
        if end < hi:
            kids.append(hi)
            table[hi] = []
    return table


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
    # A vertex's first child in its list is numbered right after it, and no peel
    # takes it before its others: a bare path from x is numbered x, x+1, ...
    bare = [False] * len(kids)  # per vertex: is its subtree a bare path?
    for v in range(len(kids) - 1, -1, -1):
        bare[v] = not kids[v] or (len(kids[v]) == 1 and bare[v + 1])
    label: list[int | None] = [None] * len(kids)  # the root keeps None
    grafts = []  # (the target vertex of a branch or jump, None for an extend; n; k)
    stack = [] if bare[0] else [0]  # the descent: vertices whose subtrees are no bare paths
    while stack:
        v = stack[-1]
        below = kids[v]
        if len(below) == 1:
            stack.append(v + 1)
            continue
        first, second = below[-1], below[-2]
        if not bare[second] or not bare[first]:
            stack.append(second if not bare[second] else first)
            continue
        if kids[first]:  # extend: the path k+1..n hangs below the target `first`
            target, top = None, first + 1
            kids[first] = []
        else:  # branch or jump at v: the leaf n, then the path k+1..n-1
            target, top = v, second
            label[first] = n
            del below[-2:]
        leaf = top
        while kids[leaf]:
            leaf += 1
        k = n - (leaf - top + 1) - (target is not None)
        for x in range(top, leaf + 1):
            label[x] = x + k + 1 - top
        grafts.append((target, n, k))
        n = k
        while stack:  # leave every subtree the peel made a bare path
            v = stack[-1]
            if len(kids[v]) > 1 or (kids[v] and not bare[v + 1]):
                break
            bare[stack.pop()] = True
    for x in range(1, n + 2):  # the bare path left: 0 below the root, then 1..n
        label[x] = x - 1
    if n:
        grafts.append((None, n, 0))
    # the main blocks, last first; per size-2 block, its index there and the main
    # blocks after its empty one; per empty block, the same; and per label v, the
    # main blocks from the one that points at v to the end (None: none points at v)
    ones = _singletons(len(kids))
    rev, pairs, holes, slot = [], [], [], []
    for v, n, k in reversed(grafts):
        built = len(rev)
        if v is None:  # extend: {n}, ..., {k+1}
            rev += ones[k + 1 : n + 1]
        elif label[v] == k:  # branch: {n-1}, ..., {k+1}, {n}
            rev.append(ones[n])
            rev += ones[k + 1 : n]
        else:  # jump: {n-1}, ..., {k+2}, {k+1, n}, the empty block before the main block pointing at the target
            empty = 0 if label[v] is None else slot[label[v]]
            if empty is None:
                raise BijectionDefect("jump graft cannot point below its host cluster")
            holes.append(empty)
            pairs += built, empty
            rev.append((k + 1, n))
            rev += ones[k + 2 : n]
            slot.append(None)  # label k: a jump's main blocks point at k+1..n-1
        slot.extend(range(built + 1, len(rev) + 1))  # the last block at the lowest label
    return _lay_out(rev, pairs, holes)


# ---------------------------------------------------------------------------
# family {123, 213}: forward and inverse maps


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
        kind, lo, hi, parameter, _ = clusters[i]
        if kind == "closed":
            grown_from[i] = len(spine) - 1, len(kids[root])
            for _ in range(parameter):
                kids.append([root])
                root = len(kids) - 1
                spine.append(root)
            kids[root].append(_new_path(kids, hi - lo + 1 - parameter))
            continue
        # open: the host owns the last main block before the empty one
        h = bisect_right(starts, gaps[i] - 1) - 1
        host_kind, _, _, host_parameter, _ = clusters[h]
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


def psi_123_213(t: OrderedTree) -> Blocks:
    """Inverse of phi_123_213 on trees with root degree >= 2 (or one edge).

    Each step undoes, in place, the first cluster's operation, down to the
    one-edge tree, reading off its k (it covers k+1..n), its parameter when
    closed, and when open its host (ell, b): the empty block sits ell main
    blocks deep into the closed cluster b+1.. .  The clusters are then
    built back up, last first, each open cluster finding its host among the
    closed ones built so far, and the word is laid out once.
    """
    kids = _kid_lists(t.word)
    n = len(kids) - 2
    if n and len(kids[0]) < 2:
        raise ValueError("tree must have root degree >= 2, or be the one-edge tree")
    size = [1] * len(kids)  # per vertex: the vertices of its subtree, numbered from it on
    for v in range(len(kids) - 1, 0, -1):  # every child is numbered after its parent
        if kids[v]:  # up to the end of the subtree of its left-most child, numbered last
            c = kids[v][-1]
            size[v] = c + size[c] - v
    root = 0  # the root of the tree the next cluster's operation made
    steps = []  # per cluster, first first: k (it covers k+1..n), n, its parameter (None: open), its host
    while n:
        chain, x = [root], root  # the left-most path, down to a leaf
        while kids[x]:
            x = kids[x][-1]
            chain.append(x)
        # the lowest vertex on it, below the root, with two or more branches (0: none)
        z_idx = len(chain) - 2
        while z_idx and len(kids[chain[z_idx]]) < 2:
            z_idx -= 1
        if not z_idx:  # closed: the left-most path is the fresh branch
            k, parameter = n - (len(chain) - 1), 0
            kids[root].pop()
            if len(kids[root]) == 1:
                parameter, node = _chain_end(kids, kids[root][0])
                if kids[node]:
                    root, k = node, k - parameter
                else:  # a single cluster: the raised path over a lone edge, and nothing left
                    parameter, k = k, 0
            steps.append((k, n, parameter, None))
            n = k
            continue
        k = n - 1 - (len(chain) - 1 - z_idx)  # open: the fresh path below z has n - 1 - k edges
        # read off which closed cluster receives the empty block, and how deep:
        # its image, raised by ell, is everything right of the first branch
        first = chain[1]
        ell = 0
        if len(kids[root]) == 2:
            ell, node = _chain_end(kids, kids[root][0])
        b = n - ell - size[first]
        if ell and not kids[node]:  # the right branch is a bare path
            ell, b = ell - 1, 0
        steps.append((k, n, None, (ell, b)))
        # unwind the re-rooting: each chain vertex down to z drops its first
        # branch and takes the one above it (the root's other branches) as its last
        moved = kids[root][:-1]
        moved_size = n + 1 - size[first]
        for j in range(1, z_idx + 1):
            v = chain[j]
            kids[v] = moved + kids[v][:-1]
            size[v] += moved_size - size[chain[j + 1]]
            moved, moved_size = [v], size[v]
        root, n = chain[z_idx], k
    # the main blocks, last first, with the size-2 blocks and empty blocks as in
    # psi_123_132; and per closed cluster k+1..n, by k: its parameter and the
    # main blocks after its own
    ones = _singletons(len(kids))
    rev, pairs, holes, closed = [], [], [], {}
    for k, n, parameter, host in reversed(steps):
        built = len(rev)
        if parameter == n - k - 1:  # closed, all singletons: {k+1}, {n}, ..., {k+2}
            rev += ones[k + 2 : n + 1]
            rev.append(ones[k + 1])
        else:  # {k+1, n}, {n-1}, ..., {k+2}
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
            rev += ones[k + 2 : n]
            holes.append(empty)
            pairs += len(rev), empty
            rev.append((k + 1, n))
        if parameter is not None:
            closed[k] = parameter, built
    return _lay_out(rev, pairs, holes)


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


class Family(Record):
    """One bijection: the patterns its domain avoids, both maps, its image."""

    # unchecked: the forward map on blocks known to lie in the domain;
    # constraint: the image, as a trees.enumerate_trees constraint on n+1 edges
    __slots__ = ("patterns", "unchecked", "backward", "constraint")


class _Families(dict):
    def __missing__(self, name: str):
        raise ValueError(f"unknown family {name!r}; choose from {tuple(self)}")


FAMILIES: dict[str, Family] = _Families({
    "123-132": Family(PATTERNS_123_132, _phi_132, psi_123_132, "odd_root"),
    "123-213": Family(PATTERNS_123_213, _phi_213, psi_123_213, "root_ge2"),
})


def forward(f: ParkingFunction | Blocks, family: str) -> OrderedTree:
    """The family's tree for f, once f is checked to lie in its domain.

    >>> forward(((2, 3), (1,), ()), "123-132")
    OrderedTree('(()()(()))')
    """
    fam = FAMILIES[family]
    return fam.unchecked(_domain_blocks(f, fam.patterns))


def forward_unchecked(blocks: Blocks, family: str) -> OrderedTree:
    """forward on blocks already known to lie in the family's domain, such
    as enumerate_pf_family's: the input check is skipped."""
    return FAMILIES[family].unchecked(blocks)


def backward(t: OrderedTree, family: str) -> Blocks:
    """The blocks whose tree under the family's map is t.

    >>> backward(OrderedTree("(()()())"), "123-213")
    ((2,), (1,))
    """
    return FAMILIES[family].backward(t)


def enumerate_pf_avoiding(n: int, patterns: PatternSet) -> list[Blocks]:
    """Every size-n parking function (in block form) whose block permutation
    avoids ``patterns``.

    Cuts each avoiding permutation into blocks, left to right: a block is an
    increasing stretch of entries (a descent always ends one, an ascent may)
    followed by empty blocks while no more blocks than entries are laid; the
    last block takes the empty blocks left.  Independent of the cluster
    machinery, so it doubles as the domain oracle for the bijections.
    """
    if n == 0:
        return [()]
    out: list[Blocks] = []
    for entries in avoider_walk(n, patterns, keep_leaves=True).leaves:  # any order: the words are sorted
        rise = [n] * n  # per entry: the end of the increasing stretch from it
        for i in range(n - 2, -1, -1):
            rise[i] = i + 1 if entries[i] > entries[i + 1] else rise[i + 1]
        stack = [((), 0)]  # (the blocks so far, the entries they hold)
        while stack:
            prefix, i = stack.pop()
            q = len(prefix) + 1  # the blocks once the next one is laid
            for j in range(i + 1, rise[i] + 1):
                word = prefix + (entries[i:j],)
                if j == n:
                    out.append(word + ((),) * (n - q))
                    continue
                stack.append((word, j))
                for _ in range(j - q):
                    word += ((),)
                    stack.append((word, j))
    out.sort()
    return out


def enumerate_pf_family(n: int, family: str) -> list[Blocks]:
    return enumerate_pf_avoiding(n, FAMILIES[family].patterns)
