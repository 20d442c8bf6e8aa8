"""Brute-force ground truth for every count in the repository.

The oracle never touches the closed forms: one walk per size parks every
parking function (``parking.parking_walk``) and fills both profiles (how many
have each outcome, and each block, permutation), a batch of functions per
placement of all cars but the last two.  Containment of the patterns of size
<= 3 is read off one table per size, built from the definition by inserting
the largest letter into each smaller permutation; each profile is tallied
once by containment mask, so such a pattern set sums the mask bins it does
not block.  A set holding a larger pattern finds, by honest containment
(``contains_sequence``), the profile keys that avoid each of its patterns,
once per size and pattern for both sides, and counts the intersection of
those key sets, smallest first.  Filling both profiles takes about 0.007 s
at n = 6, 0.1 s at n = 7 and 1.1 s at n = 8; the tables up to n - 1 and
both tallies at n, from size-n insertions streamed and never kept, about
0.002 s, 0.014 s and 0.14-0.22 s (one process, 2-vCPU host).
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from typing import Iterable, Iterator

from ._record import Record
from .parking import parking_walk
from .permutations import S3_PATTERNS, BudgetExceeded, PatternSet, Permutation, avoider_walk, contains_sequence

BRUTE_CAP = 8


def check_cap(n: int) -> None:
    """Refuse any size past BRUTE_CAP: the one brute-force cap."""
    if n > BRUTE_CAP:
        raise BudgetExceeded(
            f"oracle enumeration capped at n={BRUTE_CAP}; n={n} needs {(n + 1) ** (n - 1)} simulations"
        )


@lru_cache(maxsize=None)
def _profiles(n: int) -> dict[str, Counter[tuple[int, ...]]]:
    """How many parking functions of size n have each outcome permutation
    ("pk") and each block permutation ("pf"), keyed by its entries.

    Each walk item stands for the functions whose last two cars park in the
    two spots a < b the others left free: a*b with one outcome, (b-a)*a with
    the two cars swapped, and one block permutation each, order with cars
    n-1 and n inserted at c1 = cuts[v - 1] and c2 = cuts[w - 1] + (v <= w).
    The pf side counts the functions per (order, c1, c2) as the walk goes,
    reading each (cuts, a) pair's counts per (c1, c2) from a table filled on
    first sight, and builds each block permutation once, after it.  Both
    sides must count all (n+1)^(n-1) functions.
    """
    pk, pf = Counter(), Counter()
    width = n + 2  # cell c1 * width + c2; c2 < n, or 1 in the one item of sizes 0 and 1
    by_order: dict[tuple[int, ...], list[int]] = {}  # per order: the functions at each cell
    by_cuts: dict[tuple[tuple[int, ...], int], Iterable[tuple[int, int]]] = {}  # per (cuts, a): (cell, functions)
    for _, rho, swapped, order, cuts, a in parking_walk(n):
        b = len(cuts)
        pk[rho] += a * b
        pk[swapped] += (b - a) * a
        cells = by_cuts.get((cuts, a))
        if cells is None:
            pairs = ((v, w) for v in range(b) for w in range(b if v < a else a))  # 0-based preferences
            cells = by_cuts[cuts, a] = Counter(cuts[v] * width + cuts[w] + (v <= w) for v, w in pairs).items()
        tally = by_order.get(order)
        if tally is None:
            tally = by_order[order] = [0] * width**2
        for cell, count in cells:
            tally[cell] += count
    for order, tally in by_order.items():
        for cell, count in enumerate(tally):
            if count:
                entries = list(order)
                for car, c in zip(range(len(order) + 1, n + 1), divmod(cell, width)):  # the unplaced cars
                    entries.insert(c, car)
                pf[tuple(entries)] += count
    total = (n + 1) ** n // (n + 1)
    for side, profile in ("pk", pk), ("pf", pf):
        if sum(profile.values()) != total:
            raise AssertionError(f"{side} profile of size {n} counts {sum(profile.values())}, not {total}")
    return {"pk": pk, "pf": pf}


# one bit per pattern of size <= 3 in a containment mask: 1, 12, 21, then S_3 in lexicographic order
_MASK_BIT = {q: 1 << b for b, q in enumerate([(1,), (1, 2), (2, 1), *itertools.permutations((1, 2, 3))])}


def _insertions(n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every permutation of 1..n, with the bits of the patterns of size <= 3
    that it contains.

    Built from size n - 1 by inserting n at each position p.  An occurrence
    that misses n is one of the smaller permutation's; one that uses n uses
    it as its largest letter, so it needs, of the letters before p (the
    head) and after p (the tail): 1, nothing; 12, a head; 21, a tail; 123
    or 213, a rise or fall in the head; 312 or 321, a rise or fall in the
    tail; 132 or 231, a head letter below or above a tail letter.
    """
    if n == 0:
        yield (), 0
        return
    b1, b12, b21, b123, b132, b213, b231, b312, b321 = _MASK_BIT.values()
    last = (n,)
    for sigma, held in _containment_masks(n - 1).items():
        m = n - 1
        # per p: the bits n gets from the tail sigma[p:], and its largest and smallest letter
        tail_bits, tail_max, tail_min = [0] * (m + 1), [0] * (m + 1), [n] * (m + 1)
        for p in range(m - 1, -1, -1):
            v, hi, lo = sigma[p], tail_max[p + 1], tail_min[p + 1]
            tail_bits[p] = tail_bits[p + 1] | b21 | (b312 if v < hi else 0) | (b321 if v > lo else 0)
            tail_max[p], tail_min[p] = max(v, hi), min(v, lo)
        head_bits, hi, lo = held | b1, 0, n  # and from the head sigma[:p]
        for p in range(m + 1):
            mask = head_bits | tail_bits[p]
            if lo < tail_max[p]:
                mask |= b132
            if hi > tail_min[p]:
                mask |= b231
            yield sigma[:p] + last + sigma[p:], mask
            if p < m:
                v = sigma[p]
                head_bits |= b12 | (b123 if v > lo else 0) | (b213 if v < hi else 0)
                hi, lo = max(v, hi), min(v, lo)


@lru_cache(maxsize=None)
def _containment_masks(n: int) -> dict[tuple[int, ...], int]:
    """The insertions of size n as a table, which those of size n + 1 read."""
    return dict(_insertions(n))


@lru_cache(maxsize=None)
def _mask_tallies(n: int) -> dict[str, Counter[int]]:
    """Either side's size-n profile, tallied by mask as the insertions stream."""
    profiles = _profiles(n)
    tallies = {side: Counter() for side in profiles}
    for entries, mask in _insertions(n):
        for side, profile in profiles.items():
            count = profile.get(entries)
            if count:
                tallies[side][mask] += count
    return tallies


@lru_cache(maxsize=None)
def _avoiders(n: int, pattern: Permutation) -> frozenset[tuple[int, ...]]:
    """The keys of either side's size-n profile that avoid the pattern, so
    each permutation is tested once for both sides."""
    profiles = _profiles(n)
    keys = profiles["pk"].keys() | profiles["pf"].keys()
    return frozenset(e for e in keys if not contains_sequence(e, pattern))


def _brute_general(n: int, patterns: PatternSet, side: str) -> int:
    """Parking functions of size n whose outcome ("pk") or block ("pf")
    permutation avoids every pattern, for pattern sets of any sizes."""
    check_cap(n)
    bits = [_MASK_BIT.get(q.entries) for q in patterns]
    if None not in bits:  # every pattern has size <= 3
        blocked = sum(bits)
        return sum(count for mask, count in _mask_tallies(n)[side].items() if not mask & blocked)
    profile = _profiles(n)[side]
    avoiders = sorted((_avoiders(n, q) for q in patterns), key=len)
    # a key missing from this side counts 0
    return sum(map(profile.__getitem__, avoiders[0].intersection(*avoiders[1:])))


def brute_pk(n: int, patterns: PatternSet) -> int:
    """Count parking functions whose outcome permutation avoids the patterns,
    by direct simulation."""
    return _brute_general(n, patterns, "pk")


def brute_pf(n: int, patterns: PatternSet) -> int:
    """Count parking functions whose block permutation avoids the patterns."""
    return _brute_general(n, patterns, "pf")


class OracleReport(Record):
    __slots__ = ("quantity", "n", "m", "oracle_value", "formula_value")

    @property
    def agree(self) -> bool:
        return self.oracle_value == self.formula_value

    def line(self) -> str:
        tag = "ok  " if self.agree else "FAIL"
        where = f"n={self.n}" + (f" m={self.m}" if self.m is not None else "")
        out = f"[{tag}] {self.quantity} {where}: oracle={self.oracle_value} formula={self.formula_value}"
        return out


def verify_pk(n_max: int) -> list[OracleReport]:
    """pk formulas vs weighted sums vs simulation, every subset of S_3."""
    from .counting import pk_route, row_of

    reports = []
    subsets = (PatternSet(c) for r in range(1, 7) for c in itertools.combinations(S3_PATTERNS, r))
    for patterns in subsets:
        name = f"pk({patterns})"
        walk = avoider_walk(n_max, patterns)  # one walk gives every n
        for n, formula in row_of(pk_route(patterns), n_max):  # and one row
            brute = brute_pk(n, patterns)
            reports.append(OracleReport(name, n, None, brute, formula.value))
            reports.append(OracleReport(name + " [weighted]", n, None, brute, walk.at("ell", n)))
    return reports


def verify_pf(n_max: int) -> list[OracleReport]:
    """pf closed forms vs simulation for the supported pattern sets."""
    from .counting import PF_ROUTES, row_of

    reports = []
    for patterns, route in PF_ROUTES.items():
        name = f"pf({patterns})"
        for n, formula in row_of(route, n_max):
            reports.append(OracleReport(name, n, None, brute_pf(n, patterns), formula.value))
    return reports


def verify_generalized(n_max: int) -> list[OracleReport]:
    """Class-count formulas vs the per-evaluation enumeration oracle."""
    from . import generalized

    # family names are <congruence>-multi (m-multiparking) or <congruence>-m
    by_evaluations = {
        "multi": generalized.multipark_class_count_by_evaluations,
        "m": generalized.mpark_class_count_by_evaluations,
    }
    reports = []
    for m in range(1, GENERALIZED_M_MAX + 1):
        for n in range(1, n_max + 1):
            for name, (_, value, _) in generalized.CLASS_FAMILIES.items():
                congruence, side = name.rsplit("-", 1)
                oracle_value = by_evaluations[side](n, m, congruence)
                reports.append(OracleReport(name, n, m, oracle_value, value(n, m)))
    return reports


def verify_bijections(n_max: int) -> list[OracleReport]:
    """Roundtrip and image checks for both tree bijections: each family's
    size-n images are exactly the trees of its constraint with n+1 edges."""
    from . import bijections, trees

    reports = []
    for n in range(0, n_max + 1):
        for family, spec in bijections.FAMILIES.items():
            functions = bijections.enumerate_pf_family(n, family)
            images = [bijections.forward_unchecked(blocks, family) for blocks in functions]
            good = sum(bijections.backward(t, family) == b for t, b in zip(images, functions))
            reports.append(OracleReport(f"roundtrip {family}", n, None, len(functions), good))
            drawn = {t.word for t in images}
            expected = set(trees.enumerate_trees(n + 1, spec.constraint))
            # the expected trees drawn, less any drawn outside them: len(expected) iff equal
            hits = len(drawn & expected) - len(drawn - expected)
            reports.append(OracleReport(f"image {family}", n, None, len(expected), hits))
    return reports


GENERALIZED_M_MAX = 2  # the classes suite checks m = 1..2 at each of its n
# the largest n each verify suite reaches, whatever n_max asks for
SUITE_LIMITS = {"formulas": BRUTE_CAP - 1, "classes": 5, "bijections": 7}
"""formulas: the simulation oracle refuses past BRUTE_CAP.  Its walk fills both
profiles in about 0.1 s at n = 7 and 1.1 s at n = 8 (4.78 M functions); verify_all
over every suite takes about 0.047 s at n_max = 6 and 0.18 s at 7 on its first
call in a fresh process, 0.030 s and 0.08 s warm (2-vCPU host).
classes: not cost.  Both sides of the evaluation oracle at m = 1, 2 take
0.002 s at n = 5, 0.01 s at n = 6 and 0.2 s at n = 8 (one process, 2-vCPU
host), but raising the limit changes what ``verify --n-max 6`` prints."""


def checked_range(n_max: int, families: str = "all") -> dict[str, int]:
    """The largest n each chosen suite checks: n_max, clamped to its limit.

    families: comma-joined subset of {formulas, bijections, classes} or
    "all"; empty names are skipped, so "formulas," means "formulas".
    """
    chosen = set(SUITE_LIMITS) if families == "all" else {
        f.strip() for f in families.split(",") if f.strip()}
    if not chosen:
        raise ValueError(f"empty suite list; choose from all or {', '.join(SUITE_LIMITS)}")
    unknown = sorted(chosen - set(SUITE_LIMITS))
    if unknown:
        raise ValueError(f"unknown suite {', '.join(unknown)}; choose from all or {', '.join(SUITE_LIMITS)}")
    return {name: min(n_max, limit) for name, limit in SUITE_LIMITS.items() if name in chosen}


def verify_all(n_max: int, families: str = "all") -> list[OracleReport]:
    """Run the formula-vs-oracle pairings; one failing report fails the run.

    families: as for checked_range, which also gives the range each suite checks.
    """
    reach = checked_range(n_max, families)
    reports: list[OracleReport] = []
    if "formulas" in reach:
        reports += verify_pk(reach["formulas"])
        reports += verify_pf(reach["formulas"])
    if "classes" in reach:
        reports += verify_generalized(reach["classes"])
    if "bijections" in reach:
        reports += verify_bijections(reach["bijections"])
    return reports

