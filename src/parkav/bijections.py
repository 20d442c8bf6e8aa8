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
empty block.  A cluster takes a prefix of the word left by the clusters
before it, plus at most the empty block matched to a size-2 block of that
prefix.  Removing a matched pair leaves every other pair matched as before,
since the blocks between the two are balanced; so one bracket match of the
whole word serves every cluster of it.

Family {123, 132} (clusters: extend / branch / jump)
    Operations attach a labelled path or a labelled two-branch graft at a
    vertex determined by where the jump cluster's empty block sits: just
    before the i-th main block of a later cluster covering lo..hi, which
    points at the vertex labelled hi - 1 - i (the root when no main block
    follows).  The labels 0..n record creation order and drive the inverse,
    which peels the grafts off one by one, each located by a left-most-branch
    descent, and then grows the labelled image back up in one label table.

Family {123, 213} (clusters: closed / open)
    A closed cluster grows the tree upward (new root above the old one plus
    a fresh left branch); an open cluster re-roots the tree at a vertex of
    the right-most spine, pushing everything outside a full right subtree
    below a brand new left edge.  The re-rooting preserves the planar cyclic
    order around every vertex, which is exactly what the inverse unwinds.

All four maps are loops over the clusters, with no recursion, down to n = 0:
its only parking function, the empty one, maps to the one-edge tree (labelled
0 in the {123, 132} family) and back.  The test suite checks the maps against
the small cases (n <= 3), kept there as fixtures.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Sequence

from ._record import Record
from .parking import Blocks, ParkingFunction, block_permutation_of_blocks, from_blocks, to_blocks
from .permutations import PatternSet, avoids_all, pattern_set
from .trees import LEAF, OrderedTree, path_tree


class BijectionDefect(AssertionError):
    """An internal structural guarantee failed; indicates a genuine bug."""


# ---------------------------------------------------------------------------
# labelled trees (used by the {123,132} family)


class LabeledTree(Record):
    """Ordered tree whose non-root vertices carry the labels 0..n."""

    __slots__ = ("label", "children")

    def __init__(self, label: int | None, children: tuple[LabeledTree, ...] = ()) -> None:
        object.__setattr__(self, "label", label)  # None marks the root
        object.__setattr__(self, "children", children)

    def shape(self) -> OrderedTree:
        """The unlabelled tree."""
        return _build_up(self, lambda node: node.children, lambda _, shapes: OrderedTree(shapes))

    def labels(self) -> list[int]:
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            if node.label is not None:
                out.append(node.label)
            stack.extend(reversed(node.children))
        return out

    def __str__(self) -> str:
        out, stack = [], [self]  # "]" closes the vertex opened before it
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                out.append(node)
                continue
            out.append("[*" if node.label is None else f"[{node.label}")
            stack.append("]")
            stack.extend(reversed(node.children))
        return "".join(out)


def _build_up(root, children_of, make):
    """make(vertex, its children's results) for every vertex below ``root``
    and then for ``root``, bottom-up with an explicit stack; returns the last."""
    # (vertex, children still to visit, results of the children visited) per open vertex
    stack = [(root, iter(children_of(root)), [])]
    while True:
        node, pending, done = stack[-1]
        child = next(pending, None)
        if child is not None:
            stack.append((child, iter(children_of(child)), []))
            continue
        stack.pop()
        built = make(node, tuple(done))
        if not stack:
            return built
        stack[-1][2].append(built)


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


def _insert_empty(blocks: list[tuple[int, ...]], gap_end: int, opener: int) -> None:
    """Insert an empty block that bracket matching pairs with ``opener``.

    The new empty must precede the block at ``gap_end`` (a main block, or the
    end) and may sit anywhere in the run of empty blocks just before it.  It
    pairs with ``opener`` in the one slot of the run where the blocks after
    the opener are balanced: past as many of the run's empty blocks as the
    blocks before the run leave open.
    """
    lo = gap_end
    while lo > opener + 1 and not blocks[lo - 1]:
        lo -= 1
    depth = sum((len(blocks[i]) == 2) - (not blocks[i]) for i in range(opener + 1, lo))
    if not 0 <= depth <= gap_end - lo:
        raise BijectionDefect("no balanced slot for the empty block")
    blocks.insert(lo + depth, ())


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


def _clusters(blocks: Blocks, peel) -> Iterator[Cluster]:
    """The clusters of the blocks, peeled off the front one at a time.

    Each peel reads the blocks no earlier cluster took, from the front and
    only as many as its own cluster needs; all of them share one bracket
    match of the whole word (see the module docstring).
    """
    match = bracket_match(blocks)
    taken: set[int | None] = set()  # the empty blocks taken ahead of the front
    front = 0
    n = sum(map(len, blocks))  # the blocks left hold 1..n
    while n:
        live = (q for q in range(front, len(blocks)) if q not in taken)
        cluster = peel(blocks, match, live, n)
        yield cluster
        taken.add(cluster.empty_position)
        front = cluster.main_positions[-1] + 1
        n = cluster.lo - 1


# ---------------------------------------------------------------------------
# clusters, family {123, 132}


PATTERNS_123_132 = pattern_set("123", "132")
PATTERNS_123_213 = pattern_set("123", "213")


def clusters_123_132(f: ParkingFunction | Blocks) -> list[Cluster]:
    """Partition the blocks into extend/branch/jump clusters (positions are
    0-based indices into the original block sequence)."""
    return list(_clusters(_domain_blocks(f, PATTERNS_123_132), _peel_132))


def _peel_132(
    blocks: Blocks, match: dict[int, int], live: Iterator[int], n: int
) -> Cluster:
    q = next(live)
    main = [q]
    if blocks[q] == (n,):  # extend: {n}, {n-1}, ...
        for q in live:
            if blocks[q] != (n - len(main),):
                break
            main.append(q)
        return Cluster("extend", n - len(main) + 1, n, None, tuple(main), None)
    if blocks[q][0] != n - 1:
        raise ValueError("block permutation starts with neither n nor n-1")
    # branch: {n-1}, ..., {k+1}, {n}; jump: {n-1}, ..., {k+2}, {k+1, n}
    while n not in blocks[q]:
        q = next(live)
        main.append(q)
    if any(len(blocks[p]) != 1 for p in main[:-1]):
        raise BijectionDefect("branch or jump cluster blocks must be singletons first")
    if blocks[q] == (n,):
        return Cluster("branch", n - len(main) + 1, n, None, tuple(main), None)
    if blocks[q] != (n - len(main), n):
        raise BijectionDefect(f"size-2 block {blocks[q]} is not {(n - len(main), n)}")
    return Cluster("jump", n - len(main), n, None, tuple(main), match[q])


# ---------------------------------------------------------------------------
# clusters, family {123, 213}


def clusters_123_213(f: ParkingFunction | Blocks) -> list[Cluster]:
    """Partition the blocks into closed/open clusters."""
    return list(_clusters(_domain_blocks(f, PATTERNS_123_213), _peel_213))


def _peel_213(
    blocks: Blocks, match: dict[int, int], live: Iterator[int], n: int
) -> Cluster:
    head = [next(live)]
    k = blocks[head[0]][0] - 1  # the cluster covers k+1..n
    head += [next(live) for _ in range(n - k - 1)]
    if len(blocks[head[0]]) == 1:
        # closed, all singletons: {k+1}, {n}, ..., {k+2}
        expected = [(k + 1,)] + [(v,) for v in range(n, k + 1, -1)]
        cluster = Cluster("closed", k + 1, n, n - k - 1, tuple(head), None)
    else:
        # {k+1, n}, {n-1}, ..., {k+2}, and the empty block matched to the
        # first: among these n - k blocks (closed), or after them (open)
        expected = [(k + 1, n)] + [(v,) for v in range(n - 1, k + 1, -1)]
        empty = match[head[0]]
        if empty in head:
            main = tuple(q for q in head if q != empty)
            parameter = sum(q > empty for q in main)  # main blocks after the empty one
            cluster = Cluster("closed", k + 1, n, parameter, main, empty)
        else:
            cluster = Cluster("open", k + 1, n, None, tuple(head[:-1]), empty)
    if [blocks[q] for q in cluster.main_positions] != expected:
        raise BijectionDefect(f"{cluster.kind} cluster blocks out of shape")
    return cluster


# ---------------------------------------------------------------------------
# family {123, 132}: forward map


def phi_123_132(f: ParkingFunction | Blocks) -> OrderedTree:
    """Tree with n+1 edges and odd root degree for f avoiding {123, 132}."""
    return phi_123_132_labeled(f).shape()


def phi_123_132_labeled(f: ParkingFunction | Blocks) -> LabeledTree:
    """Forward map with creation labels 0..n on the non-root vertices."""
    return _phi_132_labeled(_domain_blocks(f, PATTERNS_123_132))


def _phi_132_labeled(blocks: Blocks) -> LabeledTree:
    """Graft the clusters, the last one first, onto the one-edge tree labelled 0."""
    clusters = list(_clusters(blocks, _peel_132))
    table = {None: [0], 0: []}
    for start in range(len(clusters) - 1, -1, -1):
        c = clusters[start]
        k = c.lo - 1
        target = _jump_target(blocks, clusters, start) if c.kind == "jump" else k
        _graft(table, target, k, c.hi, c.kind == "extend")
    return _build_up(None, lambda label: reversed(table[label]), LabeledTree)


def _jump_target(blocks: Blocks, clusters: list[Cluster], start: int) -> int | None:
    """Label (or None for the root) receiving the jump graft of clusters[start]:
    the one the first main block after its empty block points at."""
    q = clusters[start].empty_position
    assert q is not None
    host_pos = next((pos for pos in range(q + 1, len(blocks)) if blocks[pos]), None)
    if host_pos is None:
        return None  # empty block trails everything: graft at the root
    for host in clusters[start + 1 :]:
        if host_pos in host.main_positions:
            return host.hi - 1 - host.main_positions.index(host_pos)
    raise BijectionDefect(f"no cluster main portion covers block {host_pos}")


# ---------------------------------------------------------------------------
# family {123, 132}: inverse map


def find_target_path(t: OrderedTree) -> tuple[int, ...]:
    """Child-index path to the branching vertex whose two left-most branches
    are bare paths (the attachment point of the last branch/jump graft)."""
    if t.is_path():
        raise ValueError("a bare path has no branching vertex")
    path: list[int] = []
    node = t
    while True:
        while len(node.children) == 1:
            path.append(0)
            node = node.children[0]
        first, second = node.children[0], node.children[1]
        if second.is_path():
            if first.is_path():
                return tuple(path)
            path.append(0)
            node = first
        else:
            path.append(1)
            node = second


def find_target_vertex(t: OrderedTree) -> OrderedTree:
    """The subtree rooted at the vertex find_target_path points to."""
    return _subtree_at(t, find_target_path(t))


def _subtree_at(t: OrderedTree, path: Sequence[int]) -> OrderedTree:
    node = t
    for i in path:
        node = node.children[i]
    return node


def _replace_at(t: OrderedTree, path: Sequence[int], new: OrderedTree) -> OrderedTree:
    """t with the subtree at the child-index path replaced by ``new``."""
    above = []  # the vertices from the root down to the replaced one's parent
    for i in path:
        above.append(t)
        t = t.children[i]
    for node, i in zip(reversed(above), reversed(path)):
        new = OrderedTree(node.children[:i] + (new,) + node.children[i + 1 :])
    return new


def psi_123_132(t: OrderedTree) -> Blocks:
    """Inverse of phi_123_132 on trees with odd root degree.

    Each step peels off the last graft, down to a bare path; the blocks and
    the labelled forward image are then built back up, last graft first,
    each graft reading its target's label off the image built so far.
    """
    if t.root_degree % 2 == 0:
        raise ValueError("tree must have odd root degree")
    n = t.edge_count - 1
    grafts = []  # (child-index path to the target, n, k, extend?)
    while not t.is_path():
        vpath = find_target_path(t)
        v = _subtree_at(t, vpath)
        extend = v.children[0].edge_count > 0
        if extend:
            k = n - v.children[0].edge_count
            kept = (LEAF,) + v.children[1:]  # the first branch's top vertex stays
        else:
            k = n - 2 - v.children[1].edge_count
            kept = v.children[2:]
        t = _replace_at(t, vpath, OrderedTree(kept))
        grafts.append((vpath, n, k, extend))
        n = k
    blocks = tuple((e,) for e in range(n, 0, -1))
    table = {None: [0], n: [], **{lab: [lab + 1] for lab in range(n)}}  # the path 0..n
    for vpath, n, k, extend in reversed(grafts):
        if extend:
            blocks = tuple((e,) for e in range(n, k, -1)) + blocks
            _graft(table, k, k, n, True)
            continue
        v_label = None
        for i in vpath:
            v_label = table[v_label][-1 - i]
        _graft(table, v_label, k, n, False)
        if v_label == k:
            blocks = tuple((e,) for e in range(n - 1, k, -1)) + ((n,),) + blocks
            continue
        main = [(e,) for e in range(n - 1, k + 1, -1)] + [(k + 1, n)]
        out = main + list(blocks)
        if v_label is None:
            gap_end = len(out)
        else:
            # the empty block goes before the main block of the host (the
            # cluster covering v_label + 1) that points at v_label
            host = next(c for c in _clusters(blocks, _peel_132) if c.lo <= v_label + 1)
            if host.kind == "jump" and v_label + 1 == host.lo:
                raise BijectionDefect("jump graft cannot point below its host cluster")
            gap_end = len(main) + host.main_positions[host.hi - 1 - v_label]
        _insert_empty(out, gap_end, len(main) - 1)
        blocks = tuple(out)
    return blocks


# ---------------------------------------------------------------------------
# family {123, 213}: forward map


def phi_123_213(f: ParkingFunction | Blocks) -> OrderedTree:
    """Tree with n+1 edges and root degree >= 2 for f avoiding {123, 213}
    (for n = 0, the single-edge tree)."""
    blocks = _domain_blocks(f, PATTERNS_123_213)
    clusters = list(_clusters(blocks, _peel_213))
    trees_by_suffix = {len(clusters): path_tree(1)}
    for start in range(len(clusters) - 1, -1, -1):
        trees_by_suffix[start] = _apply_213(clusters, start, trees_by_suffix)
    return trees_by_suffix[0]


def _apply_213(
    clusters: list[Cluster], start: int, trees_by_suffix: dict[int, OrderedTree]
) -> OrderedTree:
    c = clusters[start]
    inner = trees_by_suffix[start + 1]
    if c.kind == "closed":
        assert c.parameter is not None
        return _closed_op(inner, c.parameter, c.length - c.parameter)
    # open cluster: the host is the last later cluster starting before the empty block
    q = c.empty_position
    assert q is not None
    host_index = max(
        (i for i in range(start + 1, len(clusters)) if clusters[i].main_positions[0] < q),
        default=None,
    )
    if host_index is None:
        raise BijectionDefect("open cluster's empty block precedes every later block")
    host = clusters[host_index]
    if host.kind != "closed":
        raise BijectionDefect("the matched empty block must sit inside a closed cluster")
    ell = sum(1 for pos in host.main_positions if pos > q)
    assert host.parameter is not None
    if ell > host.parameter:
        raise BijectionDefect("empty block sits deeper than the host's parameter allows")
    base = trees_by_suffix[host_index + 1]
    depth = _spine_length(base) + ell
    tbar_branches = 1 if ell >= 1 else base.root_degree
    return _open_op(inner, depth, tbar_branches, c.length - 1)


def _spine_length(t: OrderedTree) -> int:
    """Edges from the root to the leaf reached by always taking the last child."""
    d = 0
    while t.children:
        t = t.children[-1]
        d += 1
    return d


def _closed_op(t: OrderedTree, raise_by: int, left_len: int) -> OrderedTree:
    """Put a path of ``raise_by`` edges above the root, then hang a fresh
    path of ``left_len`` edges as the new root's left-most branch."""
    for _ in range(raise_by):
        t = OrderedTree((t,))
    return OrderedTree((path_tree(left_len - 1),) + t.children)


def _open_op(
    t: OrderedTree, depth_from_bottom: int, tbar_branches: int, new_path_len: int
) -> OrderedTree:
    """Re-root at the right-spine vertex sitting ``depth_from_bottom`` edges
    above the spine's bottom leaf; everything outside the kept right subtree
    moves below a new left-most edge, and a fresh path of ``new_path_len``
    edges is prepended at the displaced old root."""
    spine: list[OrderedTree] = [t]
    node = t
    while node.children:
        node = node.children[-1]
        spine.append(node)
    idx = len(spine) - 1 - depth_from_bottom
    if idx < 0:
        raise BijectionDefect("spine shorter than the requested depth")
    v = spine[idx]
    if v.root_degree < tbar_branches:
        raise BijectionDefect("kept subtree wants more branches than the vertex has")
    kept = v.children[len(v.children) - tbar_branches :]
    leftovers = v.children[: len(v.children) - tbar_branches]
    if idx == 0:
        # v is the old root: the new-edge vertex plays its role in the rest
        w = OrderedTree((path_tree(new_path_len - 1),) + leftovers)
        return OrderedTree((w,) + kept)
    # rebuild the chain from the old root down to v's parent, reversed
    rev = OrderedTree((path_tree(new_path_len - 1),) + spine[0].children[:-1])
    for j in range(1, idx):
        rev = OrderedTree((rev,) + spine[j].children[:-1])
    w = OrderedTree((rev,) + leftovers)
    return OrderedTree((w,) + kept)


# ---------------------------------------------------------------------------
# family {123, 213}: inverse map


def psi_123_213(t: OrderedTree) -> Blocks:
    """Inverse of phi_123_213 on trees with root degree >= 2 (or one edge).

    Each step unwinds the operation of the first cluster, down to the
    one-edge tree; the blocks are then built back up, last cluster first.
    """
    n = t.edge_count - 1
    if n and t.root_degree < 2:
        raise ValueError("tree must have root degree >= 2, or be the one-edge tree")
    steps = []
    while n:
        t, n, step = _unwind_213(t, n)
        steps.append(step)
    blocks: Blocks = ()
    for step in reversed(steps):
        blocks = step(blocks)
    return blocks


# one unwinding step: the smaller tree, its n, and the map that turns its
# preimage into the preimage of the larger tree
_Unwound = tuple[OrderedTree, int, Callable[[Blocks], Blocks]]


def _unwind_213(t: OrderedTree, n: int) -> _Unwound:
    """The tree the first cluster's operation turned into t (n + 1 edges),
    its n', and the map from its preimage to the preimage of t."""
    chain: list[OrderedTree] = [t]
    node = t
    while node.children:
        node = node.children[0]
        chain.append(node)
    z_idx = max(
        (i for i in range(1, len(chain)) if len(chain[i].children) >= 2), default=None
    )
    if z_idx is None:
        return _unwind_closed(t, n, len(chain) - 1)
    return _unwind_open(t, n, chain, z_idx)


def _chain_end(node: OrderedTree) -> tuple[int, OrderedTree]:
    """The edges from node's parent down through single children, and the
    first vertex on the way without exactly one child."""
    ell = 1
    while len(node.children) == 1:
        node = node.children[0]
        ell += 1
    return ell, node


def _closed_cluster_blocks(k: int, n: int, parameter: int) -> Blocks:
    """Blocks of a closed cluster covering k+1..n with the given parameter."""
    length = n - k
    if parameter == length - 1:
        return ((k + 1,),) + tuple((v,) for v in range(n, k + 1, -1))
    main = ((k + 1, n),) + tuple((v,) for v in range(n - 1, k + 1, -1))
    e = k + 2 + parameter
    at = 0 if e == n else (n - 1) - e + 1  # index of the main block holding e
    return main[: at + 1] + ((),) + main[at + 1 :]


def _unwind_closed(t: OrderedTree, n: int, left_len: int) -> _Unwound:
    k = n - left_len
    rest = t.children[1:]
    if len(rest) > 1:
        parameter = 0
        t_prime = OrderedTree(rest)
    else:
        parameter, t_prime = _chain_end(rest[0])
        if not t_prime.children:
            # single cluster: the right branch is the raised path over a lone edge
            parameter = k
            t_prime = path_tree(1)
    head = _closed_cluster_blocks(k - parameter, n, parameter)
    return t_prime, k - parameter, lambda inner: head + inner


def _unwind_open(t: OrderedTree, n: int, chain: list[OrderedTree], z_idx: int) -> _Unwound:
    d = len(chain) - 1 - z_idx  # edges from z down to the left-most leaf
    k = n - 1 - d
    z = chain[z_idx]
    if not z.children[0].is_path():
        raise BijectionDefect("expected a bare path below the branching vertex")
    # unwind the re-rooting: rebuild the tree rooted at z
    t_prime = OrderedTree(chain[1].children[1:] + t.children[1:])
    for j in range(2, z_idx):
        t_prime = OrderedTree(chain[j].children[1:] + (t_prime,))
    if z_idx > 1:
        t_prime = OrderedTree(z.children[1:] + (t_prime,))
    # read off which closed cluster receives the empty block, and how deep
    right = t.children[1]
    if t.root_degree > 2:
        ell = 0
        b = OrderedTree(t.children[1:]).edge_count - 1
    elif right.is_path():
        ell = right.edge_count
        b = 0
    else:
        ell, node = _chain_end(right)
        b = node.edge_count - 1
    return t_prime, k, lambda f_prime: _open_blocks(f_prime, n, k, ell, b)


def _open_blocks(f_prime: Blocks, n: int, k: int, ell: int, b: int) -> Blocks:
    """The open cluster k+1..n in front of f_prime, its empty block placed
    ell main blocks deep into the closed cluster covering b + 1."""
    clusters = _clusters(f_prime, _peel_213)
    host = next(c for c in clusters if c.lo <= b + 1)
    if host.kind != "closed":
        raise BijectionDefect("the receiving cluster must be closed")
    assert host.parameter is not None
    if host.parameter < ell:
        raise BijectionDefect("receiving cluster's parameter is too small")
    main: list[tuple[int, ...]] = [(k + 1, n)] + [(v,) for v in range(n - 1, k + 1, -1)]
    out = main + list(f_prime)
    # the empty block goes before the host's ell-th last main block, or
    # (ell = 0) before the next cluster
    following = next(clusters, None)
    if ell:
        gap_end = len(main) + host.main_positions[-ell]
    elif following:
        gap_end = len(main) + following.main_positions[0]
    else:
        gap_end = len(out)
    _insert_empty(out, gap_end, 0)
    return tuple(out)


# ---------------------------------------------------------------------------
# full right subtrees (family {123, 213} structure checks)


def is_full_right_subtree(t: OrderedTree, candidate: OrderedTree) -> bool:
    """True iff ``candidate`` equals a subtree of ``t`` induced by a vertex of
    the right-most spine together with a run of its branches taken from the
    right, nonempty and consecutive."""
    node = t
    while True:
        deg = len(node.children)
        for take in range(1, deg + 1):
            induced = OrderedTree(node.children[deg - take :])
            if induced == candidate:
                return True
        if not node.children:
            return False
        node = node.children[-1]


# ---------------------------------------------------------------------------
# shared entry points and the independent domain enumerator


class Family(NamedTuple):
    """One bijection: the patterns its domain avoids, both maps, its image."""

    patterns: PatternSet
    forward: Callable[[ParkingFunction | Blocks], OrderedTree]
    backward: Callable[[OrderedTree], Blocks]
    constraint: str  # the image, as a trees.enumerate_trees constraint on n+1 edges


FAMILIES: dict[str, Family] = {
    "123-132": Family(PATTERNS_123_132, phi_123_132, psi_123_132, "odd_root"),
    "123-213": Family(PATTERNS_123_213, phi_123_213, psi_123_213, "root_ge2"),
}


def _family(name: str) -> Family:
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; choose from {tuple(FAMILIES)}")
    return FAMILIES[name]


def forward(f: ParkingFunction | Blocks, family: str) -> OrderedTree:
    return _family(family).forward(f)


def backward(t: OrderedTree, family: str) -> Blocks:
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
        ascents = [i for i in range(n - 1) if entries[i] < entries[i + 1]]
        for cut_mask in range(1 << len(ascents)):
            cuts = {ascents[i] for i in range(len(ascents)) if cut_mask >> i & 1}
            runs: list[tuple[int, ...]] = []
            cur = [entries[0]]
            for i in range(n - 1):
                if entries[i] > entries[i + 1] or i in cuts:
                    runs.append(tuple(cur))
                    cur = []
                cur.append(entries[i + 1])
            runs.append(tuple(cur))
            out.extend(_placements(runs, n))
    out.sort()
    return out


def _placements(runs: list[tuple[int, ...]], n: int) -> Iterator[Blocks]:
    # positions p_0 < ... < p_(r-1) for the runs; the slots in between stay
    # empty, so the prefix condition pins p_j to at most the number of
    # elements already placed (and the first run to slot 0)
    r = len(runs)
    sizes = [len(run) for run in runs]
    blocks: list[tuple[int, ...]] = [()] * n
    positions: list[int] = []

    def rec(j: int, seen: int) -> Iterator[Blocks]:
        if j == r:
            yield tuple(blocks)
            return
        start = positions[-1] + 1 if positions else 0
        for pos in range(start, min(seen, n - (r - j)) + 1):
            blocks[pos] = runs[j]
            positions.append(pos)
            yield from rec(j + 1, seen + sizes[j])
            positions.pop()
            blocks[pos] = ()

    yield from rec(0, 0)


def enumerate_pf_family(n: int, family: str) -> list[Blocks]:
    return enumerate_pf_avoiding(n, family_patterns(family))

