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
empty block, and cluster extraction leans on that pairing throughout.

Family {123, 132} (clusters: extend / branch / jump)
    Operations attach a labelled path or a labelled two-branch graft at a
    vertex determined by where the jump cluster's empty block sits.  The
    labels 0..n record creation order and drive the inverse, which locates
    the last graft with a left-most-branch descent and peels it off.

Family {123, 213} (clusters: closed / open)
    A closed cluster grows the tree upward (new root above the old one plus
    a fresh left branch); an open cluster re-roots the tree at a vertex of
    the right-most spine, pushing everything outside a full right subtree
    below a brand new left edge.  The re-rooting preserves the planar cyclic
    order around every vertex, which is exactly what the inverse unwinds.

Both recursions run down to n = 0, whose only parking function is the empty
one: forward it maps to the one-edge tree (labelled 0 in the {123, 132}
family), and backward the one-edge tree maps to it.  The test suite checks
the recursion against the small cases (n <= 3), kept there as fixtures.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Sequence, TypeVar

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
        return OrderedTree(tuple(c.shape() for c in self.children))

    def labels(self) -> list[int]:
        out = [] if self.label is None else [self.label]
        for c in self.children:
            out.extend(c.labels())
        return out

    def __str__(self) -> str:
        inner = "".join(str(c) for c in self.children)
        head = "*" if self.label is None else str(self.label)
        return f"[{head}{inner}]"


def _lpath(labels: Sequence[int]) -> LabeledTree:
    """Chain with the given labels from top to bottom."""
    node: LabeledTree | None = None
    for lab in reversed(labels):
        node = LabeledTree(lab, (node,) if node else ())
    assert node is not None
    return node


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


def _insert_empty(blocks: list[tuple[int, ...]], gap_end: int | None, opener: int) -> int:
    """Insert an empty block so that bracket matching pairs it with ``opener``.

    ``gap_end`` is the index of the first main (nonempty) block the new empty
    must precede, or None for "after everything".  Within the admissible run
    of slots exactly one choice balances the brackets; returns the index used.
    """
    hi = len(blocks) if gap_end is None else gap_end
    lo = hi
    while lo > opener + 1 and len(blocks[lo - 1]) == 0:
        lo -= 1
    for pos in range(hi, lo - 1, -1):
        candidate = blocks[:pos] + [()] + blocks[pos:]
        try:
            if bracket_match(candidate)[opener] == pos:
                blocks.insert(pos, ())
                return pos
        except ValueError:
            continue
    raise BijectionDefect("no balanced slot for the empty block")


def _domain_blocks(f: ParkingFunction | Blocks, patterns: PatternSet) -> Blocks:
    """The blocks of f, once f is checked to lie in the family's domain: a
    parking function whose block permutation avoids ``patterns``.

    This is the one input check of each public map; the recursions below
    only ever feed the unchecked helpers blocks they built themselves.
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


def _clusters(blocks: Blocks, peel) -> list:
    """Peel clusters off the front of the blocks until none are left."""
    work = list(enumerate(blocks))
    out = []
    while work:
        cluster, work = peel(work)
        out.append(cluster)
    return out


# ---------------------------------------------------------------------------
# clusters, family {123, 132}


class Cluster132(Record):
    __slots__ = ("kind", "lo", "hi", "main_positions", "empty_position")

    def __init__(
        self,
        kind: str,  # extend | branch | jump
        lo: int,
        hi: int,  # covers elements lo..hi
        main_positions: tuple[int, ...],
        empty_position: int | None,  # jump only
    ) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "main_positions", main_positions)
        object.__setattr__(self, "empty_position", empty_position)

    @property
    def length(self) -> int:
        return self.hi - self.lo + 1


PATTERNS_123_132 = pattern_set("123", "132")
PATTERNS_123_213 = pattern_set("123", "213")


def clusters_123_132(f: ParkingFunction | Blocks) -> list[Cluster132]:
    """Partition the blocks into extend/branch/jump clusters (positions are
    0-based indices into the original block sequence)."""
    return _clusters(_domain_blocks(f, PATTERNS_123_132), _peel_132)


def _peel_132(
    work: list[tuple[int, Blocks]]
) -> tuple[Cluster132, list[tuple[int, Blocks]]]:
    pi = [v for _, b in work for v in b]
    n = len(pi)  # elements in a suffix are exactly 1..n
    if pi[0] == n:
        run = 1
        while run < n and pi[run] == n - run:
            run += 1
        main = work[:run]
        if any(len(b) != 1 for _, b in main):
            raise BijectionDefect("extend cluster blocks must be singletons")
        cluster = Cluster132(
            "extend", n - run + 1, n, tuple(pos for pos, _ in main), None
        )
        return cluster, work[run:]
    if pi[0] != n - 1:
        raise ValueError("block permutation starts with neither n nor n-1")
    p = pi.index(n) + 1  # 1-based position of n
    k = n - p
    if all(len(b) == 1 for _, b in work[:p]):
        cluster = Cluster132(
            "branch", k + 1, n, tuple(pos for pos, _ in work[:p]), None
        )
        return cluster, work[p:]
    pair_idx = p - 2  # the (p-1)-th block holds {k+1, n}
    if any(len(b) != 1 for _, b in work[:pair_idx]) or len(work[pair_idx][1]) != 2:
        raise BijectionDefect("jump cluster must be singletons then one size-2 block")
    if work[pair_idx][1] != (k + 1, n):
        raise BijectionDefect(f"size-2 block {work[pair_idx][1]} is not {(k + 1, n)}")
    empty_work_idx = bracket_match([b for _, b in work])[pair_idx]
    cluster = Cluster132(
        "jump",
        k + 1,
        n,
        tuple(pos for pos, _ in work[: p - 1]),
        work[empty_work_idx][0],
    )
    rest = work[p - 1 : empty_work_idx] + work[empty_work_idx + 1 :]
    return cluster, rest


# ---------------------------------------------------------------------------
# clusters, family {123, 213}


class Cluster213(Record):
    __slots__ = ("kind", "lo", "hi", "parameter", "main_positions", "empty_position")

    def __init__(
        self,
        kind: str,  # closed | open
        lo: int,
        hi: int,
        parameter: int | None,  # closed only
        main_positions: tuple[int, ...],
        empty_position: int | None,  # the matched empty block, when the cluster has one
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


def clusters_123_213(f: ParkingFunction | Blocks) -> list[Cluster213]:
    """Partition the blocks into closed/open clusters."""
    return _clusters(_domain_blocks(f, PATTERNS_123_213), _peel_213)


def _peel_213(
    work: list[tuple[int, Blocks]]
) -> tuple[Cluster213, list[tuple[int, Blocks]]]:
    pi = [v for _, b in work for v in b]
    n = len(pi)
    k = pi[0] - 1  # first written element is k+1
    length = n - k
    first = work[0][1]
    if len(first) == 1:
        # all-singleton closed cluster {k+1}, {n}, ..., {k+2}
        main = work[:length]
        expected = [k + 1] + list(range(n, k + 1, -1))
        if [b[0] for _, b in main if len(b) == 1] != expected or any(
            len(b) != 1 for _, b in main
        ):
            raise BijectionDefect("closed cluster blocks out of shape")
        cluster = Cluster213(
            "closed", k + 1, n, length - 1, tuple(pos for pos, _ in main), None
        )
        return cluster, work[length:]
    if first != (k + 1, n):
        raise BijectionDefect(f"leading size-2 block {first} is not {(k + 1, n)}")
    empty_idx = bracket_match([b for _, b in work])[0]
    # main portion: the first length-1 nonempty blocks
    main_idx: list[int] = []
    for i, (_, b) in enumerate(work):
        if len(b) >= 1:
            main_idx.append(i)
            if len(main_idx) == length - 1:
                break
    expected = [(k + 1, n)] + [(v,) for v in range(n - 1, k + 1, -1)]
    if [work[i][1] for i in main_idx] != expected:
        raise BijectionDefect("open/closed cluster main portion out of shape")
    after_main = main_idx[-1] + 1
    next_main = next(
        (i for i in range(after_main, len(work)) if len(work[i][1]) >= 1), None
    )
    if next_main is None or empty_idx < next_main:
        # own empty block before the next cluster starts: closed cluster
        parameter = sum(1 for i in main_idx if i > empty_idx)
        taken = sorted(main_idx + [empty_idx])
        if taken != list(range(length)):
            raise BijectionDefect("closed cluster blocks are not contiguous")
        cluster = Cluster213(
            "closed",
            k + 1,
            n,
            parameter,
            tuple(work[i][0] for i in main_idx),
            work[empty_idx][0],
        )
        rest = [wb for i, wb in enumerate(work) if i not in set(taken)]
        return cluster, rest
    cluster = Cluster213(
        "open", k + 1, n, None, tuple(work[i][0] for i in main_idx), work[empty_idx][0]
    )
    rest = [wb for i, wb in enumerate(work) if i not in set(main_idx) and i != empty_idx]
    return cluster, rest


def _cluster_of_element(clusters: Sequence, e: int):
    for c in clusters:
        if c.lo <= e <= c.hi:
            return c
    raise BijectionDefect(f"no cluster covers element {e}")


def _cluster_of_position(clusters: Sequence, pos: int):
    for c in clusters:
        if pos in c.main_positions:
            return c
    raise BijectionDefect(f"no cluster main portion covers block {pos}")


# ---------------------------------------------------------------------------
# family {123, 132}: forward map


def phi_123_132(f: ParkingFunction | Blocks) -> OrderedTree:
    """Tree with n+1 edges and odd root degree for f avoiding {123, 132}."""
    return phi_123_132_labeled(f).shape()


def phi_123_132_labeled(f: ParkingFunction | Blocks) -> LabeledTree:
    """Forward map with creation labels 0..n on the non-root vertices."""
    return _phi_132_labeled(_domain_blocks(f, PATTERNS_123_132))


def _phi_132_labeled(blocks: Blocks) -> LabeledTree:
    return _phi_132_from(blocks, _clusters(blocks, _peel_132), 0)


def _phi_132_from(blocks: Blocks, clusters: list[Cluster132], start: int) -> LabeledTree:
    if start == len(clusters):
        return LabeledTree(None, (LabeledTree(0),))
    c = clusters[start]
    inner = _phi_132_from(blocks, clusters, start + 1)
    k = c.lo - 1
    n_here = c.hi
    if c.kind == "extend":
        return _graft_path(inner, k, list(range(k + 1, n_here + 1)))
    if c.kind == "branch":
        return _graft_two(inner, k, n_here, k)
    # jump: target depends on where the matched empty block sits
    target = _jump_target(blocks, clusters, start)
    return _graft_two(inner, target, n_here, k)


def _jump_target(blocks: Blocks, clusters: list[Cluster132], start: int) -> int | None:
    """Label (or None for the root) receiving the jump graft of clusters[start]."""
    c = clusters[start]
    q = c.empty_position
    assert q is not None
    host_pos = next((pos for pos in range(q + 1, len(blocks)) if blocks[pos]), None)
    if host_pos is None:
        return None  # empty block trails everything: graft at the root
    host = _cluster_of_position(clusters[start + 1 :], host_pos)
    block = blocks[host_pos]
    a, b = host.hi, host.lo - 1
    if host.kind == "extend":
        return block[0] - 1
    if host.kind == "branch":
        if block[0] == a:  # in front of the cluster's final block {a}
            return b
        return block[0]
    # jump host: in front of the block containing some element of lo..hi
    return min(block)


def _graft_path(t: LabeledTree, target: int, labels: list[int]) -> LabeledTree:
    """Hang the labelled path below the (leaf) vertex carrying ``target``."""

    def rec(node: LabeledTree) -> LabeledTree:
        if node.label == target:
            if node.children:
                raise BijectionDefect("extend target must be a leaf")
            return LabeledTree(node.label, (_lpath(labels),))
        return LabeledTree(node.label, tuple(rec(ch) for ch in node.children))

    out = rec(t)
    if out == t:
        raise BijectionDefect(f"no vertex labelled {target}")
    return out


def _graft_two(t: LabeledTree, target: int | None, n: int, k: int) -> LabeledTree:
    """Prepend the two-branch graft (single vertex n, path k+1..n-1) at the
    vertex labelled ``target`` (None = root)."""
    new_branches = (LabeledTree(n), _lpath(list(range(k + 1, n))))

    def rec(node: LabeledTree) -> LabeledTree:
        if node.label == target:
            return LabeledTree(node.label, new_branches + node.children)
        return LabeledTree(node.label, tuple(rec(ch) for ch in node.children))

    out = rec(t)
    if out == t:
        raise BijectionDefect(f"no vertex labelled {target}")
    return out


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


_Tree = TypeVar("_Tree", OrderedTree, LabeledTree)


def _subtree_at(t: _Tree, path: Sequence[int]) -> _Tree:
    node = t
    for i in path:
        node = node.children[i]
    return node


def _replace_at(t: OrderedTree, path: Sequence[int], new: OrderedTree) -> OrderedTree:
    if not path:
        return new
    i = path[0]
    children = list(t.children)
    children[i] = _replace_at(children[i], path[1:], new)
    return OrderedTree(tuple(children))


def psi_123_132(t: OrderedTree) -> Blocks:
    """Inverse of phi_123_132 on trees with odd root degree."""
    n = t.edge_count - 1
    if t.root_degree % 2 == 0:
        raise ValueError("tree must have odd root degree")
    if t.is_path():
        return tuple((v,) for v in range(n, 0, -1))
    vpath = find_target_path(t)
    v = _subtree_at(t, vpath)
    p1, p2 = v.children[0], v.children[1]
    len1, len2 = p1.edge_count + 1, p2.edge_count + 1  # vertex counts
    if len1 > 1:
        # peel an extend cluster: keep only the top vertex of the first branch
        trimmed = OrderedTree((LEAF,) + v.children[1:])
        t1 = _replace_at(t, vpath, trimmed)
        inner = psi_123_132(t1)
        extend = tuple((v_,) for v_ in range(n, n - len1 + 1, -1))
        return extend + inner
    k = n - 1 - len2
    t_prime = _replace_at(t, vpath, OrderedTree(v.children[2:]))
    f_prime = psi_123_132(t_prime)
    labeled = _phi_132_labeled(f_prime)
    v_label = _subtree_at(labeled, vpath).label
    if v_label == k:
        branch = tuple((v_,) for v_ in range(n - 1, k, -1)) + ((n,),)
        return branch + f_prime
    main = tuple((v_,) for v_ in range(n - 1, k + 1, -1)) + ((k + 1, n),)
    out = list(main + f_prime)
    opener = len(main) - 1
    if v_label is None:
        _insert_empty(out, None, opener)
        return tuple(out)
    clusters = _clusters(f_prime, _peel_132)
    host = _cluster_of_element(clusters, v_label + 1)
    offset = len(main)
    fp = f_prime
    if host.kind == "extend":
        gap_end = offset + _position_of_element(fp, v_label + 1)
    elif host.kind == "branch":
        if v_label + 1 == host.lo:
            gap_end = offset + _position_of_element(fp, host.hi)
        else:
            gap_end = offset + _position_of_element(fp, v_label)
    else:  # jump host
        if v_label + 1 == host.lo:
            raise BijectionDefect("jump graft cannot point below its host cluster")
        gap_end = offset + _position_of_element(fp, v_label)
    _insert_empty(out, gap_end, opener)
    return tuple(out)


def _position_of_element(blocks: Blocks, e: int) -> int:
    for pos, b in enumerate(blocks):
        if e in b:
            return pos
    raise BijectionDefect(f"element {e} not found")


# ---------------------------------------------------------------------------
# family {123, 213}: forward map


def phi_123_213(f: ParkingFunction | Blocks) -> OrderedTree:
    """Tree with n+1 edges and root degree >= 2 for f avoiding {123, 213}
    (for n = 0, the single-edge tree)."""
    blocks = _domain_blocks(f, PATTERNS_123_213)
    clusters = _clusters(blocks, _peel_213)
    trees_by_suffix = {len(clusters): path_tree(1)}
    for start in range(len(clusters) - 1, -1, -1):
        trees_by_suffix[start] = _apply_213(blocks, clusters, start, trees_by_suffix)
    return trees_by_suffix[0]


def _apply_213(
    blocks: Blocks,
    clusters: list[Cluster213],
    start: int,
    trees_by_suffix: dict[int, OrderedTree],
) -> OrderedTree:
    c = clusters[start]
    inner = trees_by_suffix[start + 1]
    if c.kind == "closed":
        assert c.parameter is not None
        return _closed_op(inner, c.parameter, c.length - c.parameter)
    # open cluster: locate the host closed cluster holding the empty block
    q = c.empty_position
    assert q is not None
    host_pos = max(
        (
            pos
            for hc in clusters[start + 1 :]
            for pos in hc.main_positions
            if pos < q
        ),
        default=None,
    )
    if host_pos is None:
        raise BijectionDefect("open cluster's empty block precedes every later block")
    host_index = next(
        i
        for i in range(start + 1, len(clusters))
        if host_pos in clusters[i].main_positions
    )
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
    """Inverse of phi_123_213 on trees with root degree >= 2 (or one edge)."""
    n = t.edge_count - 1
    if n == 0:
        return ()
    if t.root_degree < 2:
        raise ValueError("tree must have root degree >= 2, or be the one-edge tree")
    chain: list[OrderedTree] = [t]
    node = t
    while node.children:
        node = node.children[0]
        chain.append(node)
    z_idx = max(
        (i for i in range(1, len(chain)) if len(chain[i].children) >= 2), default=None
    )
    if z_idx is None:
        return _psi_213_closed(t, n, len(chain) - 1)
    return _psi_213_open(t, n, chain, z_idx)


def _closed_cluster_blocks(k: int, n: int, parameter: int) -> list[tuple[int, ...]]:
    """Blocks of a closed cluster covering k+1..n with the given parameter."""
    length = n - k
    if parameter == length - 1:
        return [(k + 1,)] + [(v,) for v in range(n, k + 1, -1)]
    main: list[tuple[int, ...]] = [(k + 1, n)] + [(v,) for v in range(n - 1, k + 1, -1)]
    e = k + 2 + parameter
    at = 0 if e == n else (n - 1) - e + 1  # index of the main block holding e
    return main[: at + 1] + [()] + main[at + 1 :]


def _psi_213_closed(t: OrderedTree, n: int, left_len: int) -> Blocks:
    k = n - left_len
    rest = t.children[1:]
    if len(rest) == 1 and rest[0].is_path():
        # single cluster: the right branch is the raised path over a lone edge
        if 1 + rest[0].edge_count != k + 1:
            raise BijectionDefect("branch lengths do not add up")
        return tuple(_closed_cluster_blocks(0, n, k))
    if len(rest) == 1:
        ell = 1
        node = rest[0]
        while len(node.children) == 1:
            node = node.children[0]
            ell += 1
        t_prime = node
        if t_prime.edge_count != k - ell + 1:
            raise BijectionDefect("inner tree has the wrong size")
        inner = psi_123_213(t_prime)
        return tuple(_closed_cluster_blocks(k - ell, n, ell)) + inner
    t_prime = OrderedTree(rest)
    if t_prime.edge_count != k + 1:
        raise BijectionDefect("inner tree has the wrong size")
    inner = psi_123_213(t_prime)
    return tuple(_closed_cluster_blocks(k, n, 0)) + inner


def _psi_213_open(t: OrderedTree, n: int, chain: list[OrderedTree], z_idx: int) -> Blocks:
    d = len(chain) - 1 - z_idx  # edges from z down to the left-most leaf
    k = n - 1 - d
    z = chain[z_idx]
    removed = z.children[0]
    if not removed.is_path() or removed.edge_count != d - 1:
        raise BijectionDefect("expected a bare path below the branching vertex")
    # unwind the re-rooting: rebuild the tree rooted at z
    w = chain[1]
    rev_v = OrderedTree(tuple(w.children[1:]) + tuple(t.children[1:]))
    cur = rev_v
    for j in range(2, z_idx):
        cur = OrderedTree(tuple(chain[j].children[1:]) + (cur,))
    if z_idx == 1:
        t_prime = rev_v
    else:
        t_prime = OrderedTree(tuple(z.children[1:]) + (cur,))
    if t_prime.edge_count != k + 1:
        raise BijectionDefect("re-rooted tree has the wrong size")
    f_prime = psi_123_213(t_prime)
    # read off which closed cluster receives the empty block, and how deep
    if t.root_degree == 2:
        right = t.children[1]
        if right.is_path():
            ell = right.edge_count
            b = 0
        else:
            ell = 1
            node = right
            while len(node.children) == 1:
                node = node.children[0]
                ell += 1
            b = node.edge_count - 1
    else:
        ell = 0
        b = OrderedTree(t.children[1:]).edge_count - 1
    clusters = _clusters(f_prime, _peel_213)
    host = _cluster_of_element(clusters, b + 1)
    if host.kind != "closed":
        raise BijectionDefect("the receiving cluster must be closed")
    assert host.parameter is not None
    if host.parameter < ell:
        raise BijectionDefect("receiving cluster's parameter is too small")
    main: list[tuple[int, ...]] = [(k + 1, n)] + [(v,) for v in range(n - 1, k + 1, -1)]
    out = main + list(f_prime)
    offset = len(main)
    mains_sorted = sorted(host.main_positions)
    if ell == 0:
        later = [
            pos
            for c in clusters
            for pos in c.main_positions
            if c.lo < host.lo
        ]
        gap_end = offset + min(later) if later else None
    else:
        gap_end = offset + mains_sorted[len(mains_sorted) - ell]
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

