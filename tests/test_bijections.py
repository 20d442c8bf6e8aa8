import copy
import hashlib
import itertools
import os
import pickle
import random
import re
import sys

import pytest

from parkav import bijections as bj
from parkav import oracle, trees
from parkav.parking import enumerate_parking_functions, format_blocks, parse_blocks, to_blocks
from parkav.permutations import avoids_all, pattern_set
from parkav.trees import OrderedTree, serialize_tree
from invariants import (
    bijection_roundtrips,
    creation_order_claim,
    family_cardinalities,
    find_target_path,
    find_target_vertex,
    full_right_subtree_condition,
    is_full_right_subtree,
    labeled_text,
    random_family_tree,
    reference_bracket_match,
    reference_clusters,
    reference_lay_out,
    text_labels,
)
from tables import SMALL_123_132, SMALL_123_213
from views import (
    Cluster,
    block_permutation,
    clusters_123_132,
    clusters_123_213,
    path_tree,
    phi_123_132_labeled,
    tree,
)

# the two worked 25- and 20-car examples, with their published images
FIG25_BLOCKS = parse_blocks(
    "({24},{23,25},{21},{},{20},{19,22},{17},{16,18},{15},{14},{},{13},{12},"
    "{10},{9},{8,11},{6},{5,7},{3},{},{2},{1},{},{4},{})"
)

FIG25_ADJACENCY = {
    "R": [22, 19, 0],
    22: [], 19: [20], 20: [25, 23, 21], 25: [], 23: [24], 24: [], 21: [],
    0: [11, 8, 4, 1],
    11: [12], 12: [18, 16, 13], 18: [], 16: [17], 17: [], 13: [14], 14: [15], 15: [],
    8: [9], 9: [10], 10: [], 4: [],
    1: [2], 2: [7, 5, 3], 7: [], 5: [6], 6: [], 3: [],
}

FIG20_BLOCKS = parse_blocks(
    "({18,20},{19},{15,17},{16},{},{12,14},{13},{9},{},{11},{10},{6,8},{7},"
    "{1},{5},{4},{},{3},{},{2})"
)

FIG20_ADJACENCY = {
    1: [18, "R"], 18: [2], 2: [9, 6], 9: [10], 10: [19, 15, 12],
    19: [20], 20: [], 15: [16], 16: [17], 17: [],
    12: [13, 11], 13: [14], 14: [], 11: [],
    6: [3], 3: [4], 4: [7, 5], 7: [8], 8: [], 5: [],
    "R": [0], 0: [],
}


def _tree_from(adjacency, node) -> OrderedTree:
    return tree(*(_tree_from(adjacency, c) for c in adjacency[node]))


def test_cluster_tables_for_worked_examples():
    cl = clusters_123_132(FIG25_BLOCKS)
    assert [c.kind for c in cl] == [
        "jump", "jump", "jump", "extend", "jump", "jump", "branch",
    ]
    assert [(c.lo, c.hi) for c in cl] == [
        (23, 25), (19, 22), (16, 18), (12, 15), (8, 11), (5, 7), (1, 4),
    ]
    cl2 = clusters_123_213(FIG20_BLOCKS)
    assert [c.kind for c in cl2] == ["open", "closed", "open", "closed", "open", "closed"]
    assert [c.parameter for c in cl2] == [None, 0, None, 2, None, 4]


def test_simple_cluster_cases():
    assert [c.kind for c in clusters_123_132(parse_blocks("({2},{1})"))] == ["extend"]
    assert clusters_123_132(parse_blocks("({2},{1})"))[0].length == 2
    with pytest.raises(ValueError):
        clusters_123_132(parse_blocks("({1},{2},{3})"))  # contains 123
    with pytest.raises(ValueError):
        clusters_123_213(parse_blocks("({2},{1},{3})"))  # contains 213


def _pairs(blocks):
    """bj.bracket_match's pairing as a dict (0-based positions): each size-2
    block -> its empty block."""
    return {p: q for p, q in enumerate(bj.bracket_match(blocks)[0]) if q is not None}


def test_match_empty_blocks():
    assert _pairs(parse_blocks("({2,3},{1},{})")) == {0: 2}
    assert _pairs(parse_blocks("({1},{2})")) == {}
    with pytest.raises(ValueError):
        _pairs((((1, 2, 3),) + ((),) * 2))


def test_worked_example_123_132():
    golden = _tree_from(FIG25_ADJACENCY, "R")
    got = bj.phi_123_132(FIG25_BLOCKS)
    assert got == golden
    labeled = phi_123_132_labeled(FIG25_BLOCKS)
    assert labeled == {None if v == "R" else v: children for v, children in FIG25_ADJACENCY.items()}
    assert bj.psi_123_132(golden) == FIG25_BLOCKS


def test_worked_example_123_213():
    golden = _tree_from(FIG20_ADJACENCY, 1)
    assert bj.phi_123_213(FIG20_BLOCKS) == golden
    assert bj.psi_123_213(golden) == FIG20_BLOCKS


def test_small_case_tables():
    # a couple of spot checks straight from the small-case tables
    assert bj.phi_123_132(parse_blocks("({2},{1})")) == path_tree(3)
    assert serialize_tree(bj.phi_123_132(parse_blocks("({1,2},{})"))) == "(()()())"
    assert serialize_tree(bj.phi_123_213(parse_blocks("({1})"))) == "(()())"
    assert serialize_tree(bj.phi_123_213(parse_blocks("({2},{1})"))) == "(()()())"


def _shape_of_labeled(text: str) -> OrderedTree:
    return trees.parse_tree(re.sub(r"[*0-9]", "", text).replace("[", "(").replace("]", ")"))


def test_recursion_reproduces_small_case_tables():
    """The cluster recursion, seeded only at n = 0, must agree with the
    small cases transcribed in tables.py, labels included."""
    for blocks_text, labeled in SMALL_123_132.items():
        blocks = parse_blocks(blocks_text)
        assert labeled_text(phi_123_132_labeled(blocks)) == labeled, blocks_text
        assert bj.psi_123_132(_shape_of_labeled(labeled)) == blocks, blocks_text
    for blocks_text, tree_text in SMALL_123_213.items():
        blocks = parse_blocks(blocks_text)
        assert serialize_tree(bj.phi_123_213(blocks)) == tree_text, blocks_text
        assert bj.psi_123_213(trees.parse_tree(tree_text)) == blocks, blocks_text
    for family, table in (("123-132", SMALL_123_132), ("123-213", SMALL_123_213)):
        domain = [b for n in range(4) for b in bj.enumerate_pf_family(n, family)]
        assert sorted(domain) == sorted(parse_blocks(b) for b in table), family


def test_roundtrips_exhaustive_to_seven():
    sizes = bijection_roundtrips(7)
    assert sizes["123-132", 7] == 808
    assert sizes["123-213", 7] == 1001


def test_family_sizes_match_tree_counts_to_ten():
    family_cardinalities(10)


def test_enumerator_against_simulation():
    for family in bj.FAMILIES:
        patterns = bj.FAMILIES[family].patterns
        for n in range(1, 7):
            assert len(bj.enumerate_pf_family(n, family)) == oracle.brute_pf(n, patterns)
    # the enumerator is generic in the pattern set; spot-check other sets,
    # word for word against the parking functions filtered by their blocks
    for text in ("123", "132,213", "312,321", "123,132", "123,213"):
        patterns = pattern_set(*text.split(","))
        for n in range(1, 6):
            got = bj.enumerate_pf_avoiding(n, patterns)
            assert len(got) == len(set(got)) == oracle.brute_pf(n, patterns), (text, n)
            want = {to_blocks(f) for f in enumerate_parking_functions(n) if avoids_all(block_permutation(f), patterns)}
            assert set(got) == want, (text, n)


# the labelled image of every {123,132} word with n <= 7, written by
# labeled_text, one line per word in enumeration order (1,163 words)
LABELS_TO_SEVEN_SHA256 = "ddc98959ec0563e75047d6520360ade6aca30a9069d34e1f8deb606326e856de"


def test_labels_match_the_pinned_digest():
    domain = [b for n in range(8) for b in bj.enumerate_pf_family(n, "123-132")]
    texts = [labeled_text(phi_123_132_labeled(b)) for b in domain]
    assert len(texts) == 1163
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == LABELS_TO_SEVEN_SHA256


def test_labeled_shape_on_deep_trees():
    # a chain 20,000 deep that ends in two leaves: the labelled image is a
    # flat table, so building, writing, copying and pickling it never recurse
    blocks = ((20000,), (20001,)) + tuple((v,) for v in range(19999, 0, -1))
    table = phi_123_132_labeled(blocks)
    text = labeled_text(table)
    assert _shape_of_labeled(text) == bj.forward(blocks, "123-132")
    assert _shape_of_labeled(text).edge_count == 20002
    assert sorted(text_labels(text)) == list(range(20002))
    assert pickle.loads(pickle.dumps(table)) == table and copy.deepcopy(table) == table


def test_find_target_vertex():
    star = trees.parse_tree("(()()())")
    assert find_target_path(star) == ()
    assert find_target_vertex(star) == star
    with pytest.raises(ValueError):
        find_target_path(path_tree(4))
    # in the worked 26-edge image, the last graft landed on the vertex
    # created 21st (label 20): two bare branches, then the older path
    vpath = find_target_path(bj.phi_123_132(FIG25_BLOCKS))
    labeled = phi_123_132_labeled(FIG25_BLOCKS)
    vertex = None
    for i in vpath:
        vertex = labeled[vertex][i]
    assert vertex == 20


def test_is_full_right_subtree():
    t = trees.parse_tree("((())()((())()))")
    assert is_full_right_subtree(t, t)
    # the root plus only its right-most branch
    assert is_full_right_subtree(t, trees.parse_tree("(((())()))"))
    # a left branch of the root does not qualify
    assert not is_full_right_subtree(t, trees.parse_tree("((()))"))
    # anchored deeper on the right-most spine
    inner = trees.parse_tree("((())())")
    assert is_full_right_subtree(t, inner)


def test_creation_order_claim():
    creation_order_claim(8)


def test_full_right_subtree_condition():
    full_right_subtree_condition(8)


def test_domain_errors():
    with pytest.raises(ValueError):
        bj.psi_123_132(trees.parse_tree("(()())"))  # even root degree
    with pytest.raises(ValueError):
        bj.psi_123_213(trees.parse_tree("((()))"))  # root degree 1, two edges
    with pytest.raises(ValueError):
        bj.forward((), "123-999")
    with pytest.raises(ValueError):
        bj.backward(trees.LEAF, "123-999")


def test_block_format_roundtrip_on_worked_example():
    assert parse_blocks(format_blocks(FIG25_BLOCKS)) == FIG25_BLOCKS


def test_psi_rejects_foreign_trees():
    # odd root degree but unreachable: no tree with 2 edges has odd root... the
    # path does; use a 3-edge even-root tree for the other family instead
    with pytest.raises(ValueError):
        bj.psi_123_213(trees.parse_tree("(((())))"))  # degree-1 root, n=2


@pytest.mark.parametrize("family", list(bj.FAMILIES))
def test_domain_checked_once_at_the_boundary(monkeypatch, family):
    """forward checks avoidance once; backward feeds its own steps blocks it
    built and checks none of them."""
    calls = []
    real = bj.avoids_all
    monkeypatch.setattr(bj, "avoids_all", lambda p, q: calls.append(p) or real(p, q))
    t = random_family_tree(40, family, random.Random(40))
    blocks = bj.backward(t, family)
    assert len(calls) <= 1
    calls.clear()
    assert bj.forward(blocks, family) == t
    assert len(calls) == 1


@pytest.mark.parametrize("family", list(bj.FAMILIES))
def test_backward_derives_each_fact_once(monkeypatch, family):
    """backward never runs the forward map: the {123,132} inverse labels
    each vertex as its peel takes the vertex off.  Nor does it split
    any word into clusters: it lays its word out once from the clusters it
    built, and that one pass matches the word's brackets as it lays each
    empty block, so no bracket match of the finished word is needed."""
    calls = {"clusters": 0, "bracket_match": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    def forward_map(*args):
        raise AssertionError("backward ran the forward map")

    monkeypatch.setattr(bj, "_graft_table", forward_map)
    monkeypatch.setattr(bj, "_phi_132", forward_map)
    monkeypatch.setattr(bj, "_phi_213", forward_map)
    monkeypatch.setattr(bj, "_clusters", counted("clusters", bj._clusters))
    monkeypatch.setattr(bj, "bracket_match", counted("bracket_match", bj.bracket_match))
    t = random_family_tree(150, family, random.Random(150))
    blocks = bj.backward(t, family)
    assert calls["clusters"] == 0
    assert calls["bracket_match"] <= 1
    monkeypatch.undo()
    assert bj.forward(blocks, family) == t


@pytest.mark.parametrize("family", list(bj.FAMILIES))
def test_forward_scans_each_word_once(monkeypatch, family):
    """forward reads the word's bracket partners, non-empty positions and
    gaps off one scan: no peel, gap or graft scans the word again."""
    calls = []
    real = bj.bracket_match
    monkeypatch.setattr(bj, "bracket_match", lambda blocks: calls.append(blocks) or real(blocks))
    rng = random.Random(150)
    for edges in (1, 2, 40, 150):
        t = random_family_tree(edges, family, rng)
        blocks = bj.backward(t, family)
        calls.clear()
        assert bj.forward(blocks, family) == t
        assert calls == [blocks]


def _cluster_fields(blocks, peel):
    """bj._clusters, with each cluster's main positions put back in place:
    Cluster's fields in their order, as the references give them."""
    clusters, starts, gaps = bj._clusters(blocks, peel)
    mains = bj.bracket_match(blocks)[1]
    return [(*c[:4], mains[s:e], c[4]) for c, s, e in zip(clusters, starts, starts[1:])], starts, gaps


def _lay_out_by_gaps(mains, gaps):
    """bj._lay_out on clusters given in word order with their gaps: it takes
    the main blocks last first; each size-2 block's index there and the
    main blocks its cluster wants after its partner; and the main blocks
    after each empty block."""
    total = sum(map(len, mains))
    rev, pairs, holes = [], [], []
    for cluster, g in zip(mains[::-1], gaps[::-1]):
        after = None if g is None else total - g
        if after is not None:
            holes.append(after)
        for block in cluster[::-1]:
            if len(block) == 2:
                pairs += len(rev), after
            rev.append(block)
    return bj._lay_out(rev, pairs, holes)


def _outcome(fn, *args):
    """fn(*args), or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as e:  # the outcome under comparison, whatever it is
        return type(e), str(e)


@pytest.mark.parametrize("family", list(bj.FAMILIES))
def test_scan_peels_and_layout_match_the_references(family):
    """The scan, the peels and the layout give what the bracket match into a
    dict, the bisected gaps and the bisected layout check give (the
    references in invariants.py): on every domain word with n <= 7, on the
    worked example, and on the words backward gives for the trees of
    test_roundtrip_on_large_trees.  Each layout is also redone with each
    empty block one gap early and one gap late, and must give the same word
    or raise the same exception; so must the scan on every parking function
    of size 5 or less, most of which no bijection takes."""
    peel = {"123-132": bj._peel_132, "123-213": bj._peel_213}[family]
    words = [b for n in range(8) for b in bj.enumerate_pf_family(n, family)]
    assert len(words) == {"123-132": 1163, "123-213": 1430}[family]
    words.append(FIG25_BLOCKS if family == "123-132" else FIG20_BLOCKS)
    rng = random.Random(150)
    words += [bj.backward(random_family_tree(edges, family, rng), family) for edges in (150, 150, 600)]
    for blocks in words:
        match, mains, _ = bj.bracket_match(blocks)
        assert {p: q for p, q in enumerate(match) if q is not None} == reference_bracket_match(blocks)
        assert list(mains) == [q for q, b in enumerate(blocks) if b]
        clusters, starts, gaps = _cluster_fields(blocks, peel)
        assert (clusters, starts, gaps) == reference_clusters(blocks, family), blocks
        main_blocks = [tuple(blocks[q] for q in c[4]) for c in clusters]
        assert _lay_out_by_gaps(main_blocks, gaps) == reference_lay_out(main_blocks, gaps) == blocks
        for i, g in enumerate(gaps):
            for moved in (g - 1, g + 1) if g is not None else ():
                if 0 <= moved <= starts[-1]:
                    shifted = gaps[:i] + [moved] + gaps[i + 1 :]
                    got = _outcome(_lay_out_by_gaps, main_blocks, shifted)
                    assert got == _outcome(reference_lay_out, main_blocks, shifted), (blocks, shifted)
    for n in range(6):
        for f in enumerate_parking_functions(n):
            blocks = to_blocks(f)
            got = _outcome(_pairs, blocks)
            assert got == _outcome(reference_bracket_match, blocks), blocks


def test_lay_out_rejects_each_misplaced_empty_block():
    """An empty block one gap early or one gap late leaves a size-2 block
    matched outside its own cluster's gap; one before every size-2 block, or
    a size-2 block without one, leaves the word unmatched.  Each raises what
    the reference layout raises."""
    mains = [((1, 4),), ((2, 3),), ((5,),)]
    for gaps in ([3, 2, None], [1, 3, None]):
        assert _lay_out_by_gaps(mains, gaps) == reference_lay_out(mains, gaps)
    cases = [
        ([3, 1, None], bj.BijectionDefect),  # {2,3}'s empty block one gap early
        ([2, 3, None], bj.BijectionDefect),  # {1,4}'s empty block one gap late
        ([0, 2, None], ValueError),  # an empty block before every size-2 block
        ([3, None, None], ValueError),  # {2,3} left open
    ]
    for gaps, error in cases:
        for lay_out in (_lay_out_by_gaps, reference_lay_out):
            with pytest.raises(error):
                lay_out(mains, gaps)
    # ((5,6),(3,4),(),(),(1,2),()) with its last two gaps shifted: the first
    # empty block is {5,6}'s partner outside its gap, and the fourth has no
    # partner; the unmatched word is reported, as the reference reports it
    mains, gaps = [((5, 6),), ((3, 4),), ((1, 2),)], [2, 1, 2]
    for lay_out in (_lay_out_by_gaps, reference_lay_out):
        with pytest.raises(ValueError, match="^empty block 5 has no matching size-2 block$"):
            lay_out(mains, gaps)


@pytest.mark.parametrize("family", list(bj.FAMILIES))
def test_lay_out_orders_its_errors_as_the_reference(family):
    """Every two gaps of every domain word with n <= 7 shifted at once, each
    one gap early or late: a word can then be unmatched and hold a misplaced
    empty block at once.  The layout raises the reference's exception, type
    and message, so the unmatched word's ValueError comes first."""
    peel = {"123-132": bj._peel_132, "123-213": bj._peel_213}[family]
    seen = set()
    for n in range(8):
        for blocks in bj.enumerate_pf_family(n, family):
            clusters, starts, gaps = _cluster_fields(blocks, peel)
            main_blocks = [tuple(blocks[q] for q in c[4]) for c in clusters]
            placed = itertools.combinations([i for i, g in enumerate(gaps) if g is not None], 2)
            for (i, j), (d, e) in itertools.product(placed, [(-1, -1), (-1, 1), (1, -1), (1, 1)]):
                shifted = list(gaps)
                shifted[i] += d
                shifted[j] += e
                if 0 <= min(shifted[i], shifted[j]) and max(shifted[i], shifted[j]) <= starts[-1]:
                    got = _outcome(_lay_out_by_gaps, main_blocks, shifted)
                    assert got == _outcome(reference_lay_out, main_blocks, shifted), (blocks, shifted)
                    seen.add(got[0] if isinstance(got, tuple) and isinstance(got[0], type) else "laid out")
    assert seen == {ValueError, bj.BijectionDefect, "laid out"}


@pytest.mark.parametrize("family", list(bj.FAMILIES))
def test_lay_out_inverts_the_gaps(family):
    """Laying out each cluster's main blocks with the gaps read off a word
    gives the word back, over the whole domain for n <= 7."""
    peel = {"123-132": bj._peel_132, "123-213": bj._peel_213}[family]
    for n in range(8):
        for blocks in bj.enumerate_pf_family(n, family):
            clusters, _, gaps = _cluster_fields(blocks, peel)
            mains = [tuple(blocks[q] for q in Cluster(*c).main_positions) for c in clusters]
            assert _lay_out_by_gaps(mains, gaps) == blocks


@pytest.mark.parametrize("family", list(bj.FAMILIES))
def test_clusters_take_the_non_empty_blocks_in_order(family):
    """Over the whole domain for n <= 7, the clusters' main positions,
    concatenated, are the word's non-empty positions, and every empty block
    is the empty block of the cluster owning its bracket partner: what lets
    each peel read its main blocks off the non-empty positions by index."""
    peel = {"123-132": bj._peel_132, "123-213": bj._peel_213}[family]
    for n in range(8):
        for blocks in bj.enumerate_pf_family(n, family):
            clusters, starts, gaps = _cluster_fields(blocks, peel)
            clusters = [Cluster(*c) for c in clusters]
            non_empty = [q for q, b in enumerate(blocks) if b]
            assert [q for c in clusters for q in c.main_positions] == non_empty
            match, _, _ = bj.bracket_match(blocks)
            empties = [c.empty_position for c in clusters if c.empty_position is not None]
            assert sorted(empties) == [q for q, b in enumerate(blocks) if not b]
            for c in clusters:
                if c.empty_position is not None:
                    assert any(match[q] == c.empty_position for q in c.main_positions)
            assert starts == [non_empty.index(c.main_positions[0]) for c in clusters] + [len(non_empty)]
            assert gaps == [None if c.empty_position is None else sum(q < c.empty_position for q in non_empty)
                            for c in clusters]


def test_lay_out_checks_each_empty_block_gap():
    # the word ({1,4},{2,3},{},{5},{}) pairs {2,3} with the empty block in
    # gap 2 and {1,4} with the one in gap 3, not the other way round
    mains = [((1, 4),), ((2, 3),), ((5,),)]
    assert _lay_out_by_gaps(mains, [3, 2, None]) == ((1, 4), (2, 3), (), (5,), ())
    # _lay_out itself takes the main blocks last first, the index there of each
    # size-2 block with the main blocks its cluster wants after its partner,
    # and the main blocks after each empty block
    assert bj._lay_out([(5,), (2, 3), (1, 4)], [1, 1, 2, 0], [1, 0]) == ((1, 4), (2, 3), (), (5,), ())
    with pytest.raises(bj.BijectionDefect):
        _lay_out_by_gaps(mains, [2, 3, None])


@pytest.mark.parametrize("family", list(bj.FAMILIES))
def test_roundtrip_on_large_trees(family):
    rng = random.Random(150)
    for edges in (150, 150, 600):
        t = random_family_tree(edges, family, rng)
        blocks = bj.backward(t, family)
        assert len(blocks) == edges - 1
        assert bj.forward(blocks, family) == t


# interpreted lines per edge that either map may run, in any parkav module
LINES_PER_EDGE = 100


def _lines_run(fn, *args):
    """fn(*args), and the lines of parkav's modules it executed, counted
    through sys.settrace: the interpreted work, whatever the host's speed."""
    package = os.path.dirname(bj.__file__)
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    before = sys.gettrace()
    sys.settrace(calls)
    try:
        result = fn(*args)
    finally:
        sys.settrace(before)
    return result, lines


# the lines of parkav's modules that oracle.verify_bijections(6) runs, warm:
# 362,323 measured, plus 10%
SUITE_LINES = 398_555


def test_bijection_suite_runs_a_bounded_number_of_lines():
    """The bijection suite at n <= 6 (the domain enumerator, both maps on its
    784 words and the image sets), counted in lines, whatever the host's
    speed.  A first run fills the caches the suite reads (the trees of each
    size, the shared singleton blocks), so the count is that of a warm run,
    whichever tests ran before."""
    oracle.verify_bijections(6)
    reports, lines = _lines_run(oracle.verify_bijections, 6)
    assert reports and all(r.agree for r in reports)
    assert lines <= SUITE_LINES, lines


def _broom(edges: int) -> OrderedTree:
    # a path half the edges deep whose bottom vertex holds the other half as
    # leaves: every {123,132} branch graft sits at the bottom
    depth = edges // 2
    return trees.parse_tree("(" * depth + "()" * (edges - depth + 1) + ")" * depth)


@pytest.mark.parametrize("family,shape", [("123-132", "random"), ("123-213", "random"), ("123-132", "broom")])
def test_work_per_edge_stays_flat(family, shape):
    """Both maps run in linear time: from 1,200 to 9,600 edges, the lines
    each executes per edge stay under one constant."""
    rng = random.Random(1200)
    per_edge = {}
    for edges in (1200, 2400, 4800, 9600):
        t = random_family_tree(edges, family, rng) if shape == "random" else _broom(edges)
        blocks, backward_lines = _lines_run(bj.backward, t, family)
        image, forward_lines = _lines_run(bj.forward, blocks, family)
        assert image == t
        per_edge[edges] = backward_lines / edges, forward_lines / edges
    assert max(max(pair) for pair in per_edge.values()) < LINES_PER_EDGE, per_edge
