"""Exhaustive invariant sweeps shared by the module tests and the acceptance
suite.  Each sweep returns None on success and raises AssertionError with a
counterexample otherwise; results are cached so double invocation is free.
The reference computations the engines are checked against (the subset
search, the triangles' double sum, the pk 132 convolution term by term, the
path-weight table's column fill and the bijections' bracket match, cluster
peels and layout) live here too.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from typing import Sequence

from parkav import bijections as bj
from parkav import counting, generalized, oracle, trees
from parkav.parking import (
    ParkingFunction,
    enumerate_parking_functions,
    from_blocks,
    is_parking,
    satisfies_block_condition,
    simulate,
    to_blocks,
)
from parkav.paths import enumerate_paths, path_count, path_weight_row
from parkav.permutations import (
    S3_PATTERNS,
    PatternSet,
    Permutation,
    all_permutations,
    ell_weight,
    pattern_set,
)
from power_series import check_identity, metasylvester_identity_sides
from views import (
    ascent_word,
    block_permutation,
    canonical_decomposition,
    clusters_123_213,
    compose_canonical,
    count_trees,
    delete_first_peak,
    increasing_pf_to_path,
    insert_first_peak,
    m_narayana,
    parking_permutation,
    path_to_increasing_prefs,
    phi_123_132_labeled,
    tree,
)


def contains_by_subsets(seq: Sequence[int], pattern: Permutation) -> bool:
    """Order-isomorphic subsequence search over all C(n, m) index subsets:
    the reference the containment engine is tested against."""
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


def _rank_order(values: Sequence[int]) -> tuple[int, ...]:
    return tuple(sorted(range(len(values)), key=lambda j: values[j]))


def double_sum_triangle(n, row_factor, kernel):
    """The paper's double sum for the 312/321 triangles, O(n^4): the reference
    that shares no code with the path-weight table the triangles read."""
    t = {}
    for r in range(1, n + 1):
        t[r, r] = 1
        for k in range(r - 1, 0, -1):
            acc = 0
            for i in range(r - k, r):
                for j in range(k + 1 - r + i, i + 1):
                    acc += kernel(r - i + j - k - 1) * t[i, j]
            t[r, k] = row_factor(r, k) * acc
    return t


@lru_cache(maxsize=None)
def double_sum_row(n: int, table: str, s: int = 1) -> tuple[int, ...]:
    """The row n = 1..n of the pk 312 ("312", s = 1), metasylvester multi
    ("312" at s) or pk 321 ("321") counts, summed from double_sum_triangle:
    t[n, k] for 312, (k - 1)! t[n, k] for 321."""
    if table == "312":
        t = double_sum_triangle(n, lambda r, k: 1 + s * (r - k), lambda d: 1)
        first = lambda k: 1
    else:
        t = double_sum_triangle(n, lambda r, k: r - k + 1, math.factorial)
        first = lambda k: math.factorial(k - 1)
    return tuple(sum(first(k) * t[r, k] for k in range(1, r + 1)) for r in range(1, n + 1))


def reference_pk132_row(n_max: int) -> list[int]:
    """[p_1, ..., p_n_max] by p_n = sum_{k=1}^{n} k p_{k-1} p_{n-k}, term by
    term: the reference for the paired self-convolution of pk132_row."""
    p = [1]
    for n in range(1, n_max + 1):
        p.append(sum(k * p[k - 1] * p[n - k] for k in range(1, n + 1)))
    return p[1:]


def reference_path_weight_table(n_max: int, m: int, run_factor) -> list[list[int]]:
    """path_weight_table by the column fill alone: up[h] is the dot product
    of the row's run factors with column h of the earlier rows, each shifted
    by its m*r, and down[v] its running sum.  O(m n_max^3) products whatever
    the factors: the reference for the diagonal-sum fill of affine rows."""
    down = [[0] + [1] * (m * n_max)]
    for v in range(1, n_max):
        width = m * (n_max - v)
        factors = [run_factor(r, v, False) for r in range(1, v + 1)]
        columns = zip(*[down[v - r][m * r : m * r + width] for r in range(1, v + 1)])
        down.append([0, *itertools.accumulate(sum(map(operator.mul, factors, c)) for c in columns)])
    return down


def all_s3_subsets(nonempty: bool = True) -> list[PatternSet]:
    out = []
    for r in range(0 if not nonempty else 1, 7):
        for combo in itertools.combinations(S3_PATTERNS, r):
            out.append(PatternSet(combo))
    return out


@lru_cache(maxsize=None)
def reference_leaves(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]:
    """Every parking function of size n, found by filtering all n^n preference
    lists with is_parking, lexicographic, as (preferences, outcome entries,
    block-permutation entries): the reference for parking.parking_walk."""
    leaves = []
    for prefs in itertools.product(range(1, n + 1), repeat=n):
        if is_parking(prefs):
            blocks = to_blocks(ParkingFunction(prefs))
            leaves.append((prefs, simulate(prefs).rho.entries, tuple(v for b in blocks for v in b)))
    return tuple(leaves)


@lru_cache(maxsize=None)
def reference_profile(n: int, side: str) -> Counter:
    """Multiplicity of each outcome ("pk") or block ("pf") permutation over
    the filtered-product reference list: the reference for oracle._profiles."""
    return Counter(rho if side == "pk" else pi for _, rho, pi in reference_leaves(n))


@lru_cache(maxsize=None)
def rho_counter(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Multiplicities of outcome permutations over all parking functions."""
    counter: Counter = Counter()
    for f in enumerate_parking_functions(n):
        counter[parking_permutation(f).entries] += 1
    return tuple(sorted(counter.items()))


@lru_cache(maxsize=None)
def ell_weights_match_outcome_counts(n_max: int = 7) -> None:
    """ell_weight(p) equals the number of parking functions parking as p, and
    the weights sum to (n+1)^(n-1)."""
    for n in range(1, n_max + 1):
        counts = dict(rho_counter(n))
        total = 0
        for p in all_permutations(n):
            w = ell_weight(p)
            total += w
            assert w == counts.get(p.entries, 0), (n, p)
        assert total == (n + 1) ** (n - 1), n


@lru_cache(maxsize=None)
def parking_checks(n_max: int = 6) -> None:
    """is_parking iff simulate succeeds; block roundtrip; outcome sanity."""
    for n in range(1, n_max + 1):
        for prefs in itertools.product(range(1, n + 1), repeat=n):
            assert is_parking(prefs) == (simulate(prefs) is not None), prefs
    for n in range(0, n_max + 1):
        for f in enumerate_parking_functions(n):
            blocks = to_blocks(f)
            assert from_blocks(blocks) == f
            parking_permutation(f)  # Permutation constructor validates
            block_permutation(f)


@lru_cache(maxsize=None)
def parking_counts(n_max: int = 7) -> None:
    for n in range(1, n_max + 1):
        assert sum(c for _, c in rho_counter(n)) == (n + 1) ** (n - 1), n


@lru_cache(maxsize=None)
def block_condition_characterizes_acceptance(n_max: int = 5) -> None:
    """from_blocks accepts a disjoint cover exactly when the prefix condition
    holds (sweep over all assignments of elements to labelled blocks)."""
    for n in range(1, n_max + 1):
        for assign in itertools.product(range(n), repeat=n):
            blocks: list[list[int]] = [[] for _ in range(n)]
            for element, b in enumerate(assign, start=1):
                blocks[b].append(element)
            tup = tuple(tuple(b) for b in blocks)
            expected = satisfies_block_condition(tup)
            try:
                from_blocks(tup)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == expected, tup


@lru_cache(maxsize=None)
def path_bijection_with_increasing(n_max: int = 7) -> None:
    """Order-n unit paths biject with increasing parking functions."""
    for n in range(0, n_max + 1):
        seen = set()
        for c in enumerate_paths(n, 1):
            prefs = path_to_increasing_prefs(c)
            assert list(prefs) == sorted(prefs)
            assert is_parking(prefs) if n else prefs == ()
            assert increasing_pf_to_path(prefs, 1) == c
            seen.add(prefs)
        expected = {
            f.prefs
            for f in enumerate_parking_functions(n)
            if list(f.prefs) == sorted(f.prefs)
        }
        assert seen == expected, n


@lru_cache(maxsize=None)
def path_surgery_roundtrips(n_max: int = 8) -> None:
    """Canonical decomposition and first-peak deletion both invert."""
    for n in range(1, n_max + 1):
        for c in enumerate_paths(n, 1):
            k, parts = canonical_decomposition(c)
            assert compose_canonical(k, parts) == c
            w = ascent_word(c)
            assert w.runs[0] == k
            rebuilt = [k]
            for part in parts:
                rebuilt.extend(ascent_word(part).runs)
            assert rebuilt == list(w.runs)
            if len(w) >= 2:
                i_prime, smaller = delete_first_peak(c)
                assert insert_first_peak(smaller, i_prime, k) == c


@lru_cache(maxsize=None)
def narayana_sums(n_max: int = 6, m_max: int = 3) -> None:
    for m in range(1, m_max + 1):
        for n in range(1, n_max + 1):
            peaks = Counter(len(ascent_word(c)) for c in enumerate_paths(n, m))
            for k in range(1, n + 1):
                assert m_narayana(n, k, m) == peaks.get(k, 0), (n, k, m)
            assert sum(peaks.values()) == path_count(n, m)


@lru_cache(maxsize=None)
def pk_dispatch_matches_weighted(n_max: int = 8) -> None:
    """Formula dispatch equals the weighted avoidance-class sum for every
    subset of size-3 patterns not containing both monotone patterns."""
    both = pattern_set("123", "321").key()
    for patterns in all_s3_subsets():
        if set(both) <= set(patterns.key()):
            continue
        for n in range(0, n_max + 1):
            got = counting.pk_count(patterns, n).value
            want = counting.generic_weighted_pk(n, patterns).value
            assert got == want, (str(patterns), n, got, want)


def all_reports_agree(reports: list, count: int) -> None:
    """An oracle sweep's ``count`` reports all agree (a short sweep fails too)."""
    assert len(reports) == count, (len(reports), count)
    assert all(r.agree for r in reports), [r.line() for r in reports if not r.agree]


@lru_cache(maxsize=None)
def path_sums_match_tables(n_max: int = 10) -> None:
    """The 312 and 321 counts per n against the row sums of their first-run
    tables, t[n, k] and (k - 1)! t[n, k].  Both read one path-weight table,
    so this checks the two readings agree; double_sum_triangle is the
    reference for the cells."""
    t312, t321 = counting.pk312_table(n_max), counting.pk321_table(n_max)
    for n in range(1, n_max + 1):
        assert counting.pk312(n) == sum(t312[n, k] for k in range(1, n + 1))
        assert counting.pk321(n) == sum(math.factorial(k - 1) * t321[n, k] for k in range(1, n + 1))


@lru_cache(maxsize=None)
def bijection_roundtrips(n_max: int = 9) -> dict[tuple[str, int], int]:
    """Exhaustive roundtrips for both families, with their image sets compared
    to enumerate_trees (every report of oracle.verify_bijections agrees), and
    the creation labels 0..n of every {123,132} image; returns domain sizes."""
    reports = oracle.verify_bijections(n_max)
    all_reports_agree(reports, 2 * len(bj.FAMILIES) * (n_max + 1))
    for n in range(0, n_max + 1):
        for blocks in bj.enumerate_pf_family(n, "123-132"):
            labels = text_labels(labeled_text(phi_123_132_labeled(blocks)))
            assert sorted(labels) == list(range(n + 1)), blocks
    # "roundtrip <family>" reports carry the domain size as their oracle value
    return {
        (r.quantity.split()[1], r.n): r.oracle_value
        for r in reports
        if r.quantity.startswith("roundtrip ")
    }


# The cluster machinery as it stood before the block-word scan: a bracket
# match into a dict, the non-empty positions listed apart, each gap found by
# bisection, and a layout checked by bisecting every main block's partner.
# The scan, the peels and the layout are checked against these.


def reference_bracket_match(blocks) -> dict[int, int]:
    """Pair each size-2 block with its empty block (stack matching)."""
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


def reference_clusters(blocks, family: str) -> tuple[list[tuple], list[int], list[int | None]]:
    """The clusters, their starts in the run of main blocks and their gaps."""
    peel = {"123-132": reference_peel_132, "123-213": reference_peel_213}[family]
    match = reference_bracket_match(blocks)
    mains = [q for q, b in enumerate(blocks) if b]
    clusters, starts, gaps = [], [0], []
    n = sum(map(len, blocks))
    while n:
        cluster = peel(blocks, match, mains, starts[-1], n)
        _, lo, _, _, main, empty = cluster
        clusters.append(cluster)
        starts.append(starts[-1] + len(main))
        gaps.append(None if empty is None else bisect_left(mains, empty))
        n = lo - 1
    return clusters, starts, gaps


def reference_peel_132(blocks, match: dict[int, int], mains: list[int], i: int, n: int) -> tuple:
    j = i + 1
    if blocks[mains[i]] == (n,):
        while j < len(mains) and blocks[mains[j]] == (n + i - j,):
            j += 1
        return "extend", n + i - j + 1, n, None, tuple(mains[i:j]), None
    if blocks[mains[i]][0] != n - 1:
        raise ValueError("block permutation starts with neither n nor n-1")
    while n not in blocks[mains[j - 1]]:
        j += 1
    main = tuple(mains[i:j])
    if any(len(blocks[p]) != 1 for p in main[:-1]):
        raise bj.BijectionDefect("branch or jump cluster blocks must be singletons first")
    last = blocks[main[-1]]
    if last == (n,):
        return "branch", n - len(main) + 1, n, None, main, None
    if last != (n - len(main), n):
        raise bj.BijectionDefect(f"size-2 block {last} is not {(n - len(main), n)}")
    return "jump", n - len(main), n, None, main, match[main[-1]]


def reference_peel_213(blocks, match: dict[int, int], mains: list[int], i: int, n: int) -> tuple:
    first = blocks[mains[i]]
    k = first[0] - 1
    if len(first) == 1:
        cluster = "closed", k + 1, n, n - k - 1, tuple(mains[i : i + n - k]), None
    else:
        main = tuple(mains[i : i + n - k - 1])
        empty = match[main[0]]
        if i + len(main) == len(mains) or empty < mains[i + len(main)]:
            parameter = len(main) - bisect_left(main, empty)
            cluster = "closed", k + 1, n, parameter, main, empty
        else:
            cluster = "open", k + 1, n, None, main, empty
    singletons = [blocks[q] for q in cluster[4][1:]]
    if (len(first) == 2 and first[1] != n) or singletons != list(zip(range(n + 1 - len(first), k + 1, -1))):
        raise bj.BijectionDefect(f"{cluster[0]} cluster blocks out of shape")
    return cluster


def reference_lay_out(mains, gaps):
    """The word with these clusters' main blocks and gaps, checked by
    bisecting the partner of every size-2 main block."""
    empties = [0] * (sum(map(len, mains)) + 1)
    for g in gaps:
        if g is not None:
            empties[g] += 1
    word: list[tuple[int, ...]] = []
    at, gap_of = [], []
    for cluster, gap in zip(mains, gaps):
        for block in cluster:
            word += ((),) * empties[len(at)]
            at.append(len(word))
            gap_of.append(gap)
            word.append(block)
    word += ((),) * empties[len(at)]
    match = reference_bracket_match(word)
    if any(len(word[p]) == 2 and bisect_left(at, match[p]) != g for p, g in zip(at, gap_of)):
        raise bj.BijectionDefect("an empty block lies outside its cluster's gap")
    return tuple(word)


def random_family_tree(edges: int, family: str, rng) -> trees.OrderedTree:
    """A uniformly random ordered tree with ``edges`` edges in the image of
    ``family``, drawn by rejection from uniform trees.

    A shuffled word of ``edges`` up steps and edges+1 down steps has exactly
    one rotation that stays at height >= 0 until its last step (the cycle
    lemma): the one starting after the first minimum.  Dropping that last
    step leaves a uniform Dyck word, read as a tree with "(" = go down an edge.
    """
    constraint = bj.FAMILIES[family].constraint
    while True:
        steps = [1] * edges + [-1] * (edges + 1)
        rng.shuffle(steps)
        height = low = cut = 0
        for i, step in enumerate(steps):
            height += step
            if height < low:
                low, cut = height, i + 1
        word = (steps[cut:] + steps[:cut])[:-1]
        t = trees.parse_tree("(" + "".join("(" if s > 0 else ")" for s in word) + ")")
        if _in_image(t, constraint):
            return t


def _in_image(t: trees.OrderedTree, constraint: str) -> bool:
    if constraint == "odd_root":
        return t.root_degree % 2 == 1
    return t.root_degree >= 2 or t.edge_count == 1


@lru_cache(maxsize=None)
def family_cardinalities(n_max: int = 10) -> None:
    """Domain sizes match the tree counts and the closed forms up to n=10."""
    for family, constraint, text in (
        ("123-132", "odd_root", "123,132"),
        ("123-213", "root_ge2", "123,213"),
    ):
        patterns = pattern_set(*text.split(","))
        for n in range(0, n_max + 1):
            domain = len(bj.enumerate_pf_family(n, family))
            assert domain == count_trees(n + 1, constraint), (family, n)
            assert domain == counting.pf_count(patterns, n).value, (family, n)


def labeled_text(table: dict, root: int | None = None) -> str:
    """The labelled tree below ``root`` in ``table`` (each label's children,
    left to right; None is the root), written "[*[0[1]][2]]": each vertex as
    "[", its label ("*" for the root), its children's texts, "]".  The
    writer keeps an explicit stack, so it answers at any depth."""
    out, stack = [], [root]  # "]" on the stack closes the vertex opened before it
    while stack:
        v = stack.pop()
        if v == "]":
            out.append(v)
            continue
        out.append("[*" if v is None else f"[{v}")
        stack.append("]")
        stack += reversed(table[v])
    return "".join(out)


def text_labels(text: str) -> list[int]:
    """The labels of a labeled_text, in preorder."""
    return [int(part.rstrip("]")) for part in text.split("[")[1:] if part[0] != "*"]


@lru_cache(maxsize=None)
def creation_order_claim(n_max: int = 8) -> None:
    """At any vertex with >= 3 branches, everything in the two left-most
    branches was created after everything in the rest."""
    for n in range(0, n_max + 1):
        for blocks in bj.enumerate_pf_family(n, "123-132"):
            table = phi_123_132_labeled(blocks)
            for kids in table.values():
                if len(kids) >= 3:
                    branches = [text_labels(labeled_text(table, c)) for c in kids]
                    first_two = min(min(b) for b in branches[:2])
                    rest_max = max(max(b) for b in branches[2:])
                    assert first_two > rest_max, blocks


@lru_cache(maxsize=None)
def full_right_subtree_condition(n_max: int = 8) -> None:
    """After peeling leading clusters down to a closed one with parameter L,
    the inner tree raised by any admissible height is a full right subtree of
    the whole image (when no open cluster's empty block interferes)."""
    for n in range(0, n_max + 1):
        for blocks in bj.enumerate_pf_family(n, "123-213"):
            whole = bj.phi_123_213(blocks)
            clusters = clusters_123_213(blocks)
            for j, c in enumerate(clusters):
                if c.kind != "closed" or c.parameter is None:
                    continue
                suffix = _suffix_blocks(blocks, clusters, j + 1)
                inner = bj.phi_123_213(suffix)
                for ell in range(0, c.parameter + 1):
                    if _open_cluster_interferes(blocks, clusters, j, ell):
                        continue
                    candidate = inner
                    for _ in range(ell):
                        candidate = tree(candidate)
                    assert is_full_right_subtree(whole, candidate), (blocks, j, ell)


def is_full_right_subtree(t: trees.OrderedTree, candidate: trees.OrderedTree) -> bool:
    """True iff ``candidate`` equals a subtree of ``t`` induced by a vertex of
    the right-most spine together with a run of its branches taken from the
    right, nonempty and consecutive."""
    node = t
    while True:
        children = node.children
        for take in range(1, len(children) + 1):
            if tree(*children[len(children) - take :]) == candidate:
                return True
        if not children:
            return False
        node = children[-1]


def find_target_path(t: trees.OrderedTree) -> tuple[int, ...]:
    """Child-index path to the branching vertex whose two left-most branches
    are bare paths (the attachment point of the last {123,132} branch or
    jump graft), by the descent the inverse makes."""
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


def find_target_vertex(t: trees.OrderedTree) -> trees.OrderedTree:
    """The subtree rooted at the vertex find_target_path points to."""
    for i in find_target_path(t):
        t = t.children[i]
    return t


def _suffix_blocks(blocks, clusters, start: int):
    """Blocks of the parking function formed by the clusters from ``start`` on."""
    drop: set[int] = set()
    for c in clusters[:start]:
        drop.update(c.main_positions)
        if c.empty_position is not None:
            drop.add(c.empty_position)
    return tuple(b for pos, b in enumerate(blocks) if pos not in drop)


def _open_cluster_interferes(blocks, clusters, j, ell) -> bool:
    host = clusters[j]
    for c in clusters[:j]:
        if c.kind != "open" or c.empty_position is None:
            continue
        q = c.empty_position
        nearest = None
        for hc in clusters[j:]:
            for pos in hc.main_positions:
                if pos < q and (nearest is None or pos > nearest):
                    nearest = pos
        if nearest is None:
            continue
        owner = next(hc for hc in clusters if nearest in hc.main_positions)
        if owner.lo < host.lo:
            return True  # empty block sits beyond the closed cluster
        if owner is host:
            after = sum(1 for pos in host.main_positions if pos > q)
            if after < ell:
                return True
    return False


@lru_cache(maxsize=None)
def generalized_path_sums(n_max: int = 6, m_max: int = 3) -> None:
    for m in range(1, m_max + 1):
        for n in range(1, n_max + 1):
            for congruence, formula in (
                ("hypoplactic", generalized.hypoplactic_mpark),
                ("hyposylvester", generalized.hyposylvester_mpark),
            ):
                factor = generalized._CONGRUENCES[congruence][1]
                assert path_weight_row(n, m, factor)[n] == formula(n, m)


@lru_cache(maxsize=None)
def metasylvester_identity(order: int = 8, m_max: int = 3) -> None:
    for m in range(1, m_max + 1):
        lhs, rhs = metasylvester_identity_sides(m, order)
        assert check_identity(lhs, rhs), m


@lru_cache(maxsize=None)
def consistency_triangle(n_max: int = 8) -> None:
    """At m = 1 the metasylvester multi and m-parking counts and pk {312} are
    one sequence; all three read the "312" path-weight table, once through
    its first-run cells and once through path_weight_row."""
    for n in range(1, n_max + 1):
        a = generalized.metasylvester_multipark(n, 1)
        b = generalized.metasylvester_mpark(n, 1)
        c = counting.pk_count(pattern_set("312"), n).value
        assert a == b == c, (n, a, b, c)
