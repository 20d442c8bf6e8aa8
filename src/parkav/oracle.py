"""Brute-force ground truth for every count in the repository.

The oracle never touches the closed forms: it enumerates preference lists,
runs the parking simulation, reads the outcome/block permutations off the
result and filters by honest pattern containment.  One enumeration per size
and side is cached as a profile (how many parking functions have each
outcome, or each block, permutation), and one filter over it counts any
pattern set, so sweeping all 63 subsets of S_3 costs a single enumeration.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .parking import block_permutation, enumerate_parking_functions, parking_permutation
from .permutations import S3_PATTERNS, BudgetExceeded, PatternSet, Permutation, contains_sequence

BRUTE_CAP = 8


def check_cap(n: int) -> None:
    """Refuse any size past BRUTE_CAP: the one brute-force cap."""
    if n > BRUTE_CAP:
        raise BudgetExceeded(
            f"oracle enumeration capped at n={BRUTE_CAP}; n={n} needs {(n + 1) ** (n - 1)} simulations"
        )


@lru_cache(maxsize=None)
def _profiles(n: int, use_rho: bool) -> Counter[tuple[int, ...]]:
    """How many parking functions of size n have each outcome permutation
    (use_rho) or each block permutation, keyed by its entries."""
    perm_of = parking_permutation if use_rho else block_permutation
    return Counter(perm_of(f).entries for f in enumerate_parking_functions(n))


@lru_cache(maxsize=None)
def _contains(entries: tuple[int, ...], pattern: Permutation) -> bool:
    # a pattern sweep tests each (permutation, pattern) pair once
    return contains_sequence(entries, pattern)


def _brute_general(n: int, patterns: PatternSet, use_rho: bool) -> int:
    """Parking functions of size n whose outcome (use_rho) or block
    permutation avoids every pattern, for pattern sets of any sizes."""
    check_cap(n)
    return sum(
        count
        for entries, count in _profiles(n, use_rho).items()
        if not any(_contains(entries, q) for q in patterns)
    )


def brute_pk(n: int, patterns: PatternSet) -> int:
    """Count parking functions whose outcome permutation avoids the patterns,
    by direct simulation."""
    return _brute_general(n, patterns, True)


def brute_pf(n: int, patterns: PatternSet) -> int:
    """Count parking functions whose block permutation avoids the patterns."""
    return _brute_general(n, patterns, False)


def brute_total(n: int) -> int:
    """Number of parking functions of size n, by enumeration."""
    check_cap(n)
    return sum(_profiles(n, True).values())


@dataclass(frozen=True)
class OracleReport:
    quantity: str
    n: int
    m: int | None
    oracle_value: int
    formula_value: int

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
    from .counting import generic_weighted_pk, pk_count

    reports = []
    subsets = (PatternSet(c) for r in range(1, 7) for c in itertools.combinations(S3_PATTERNS, r))
    for patterns in subsets:
        name = f"pk({patterns})"
        for n in range(1, n_max + 1):
            brute = brute_pk(n, patterns)
            formula = pk_count(patterns, n).value
            weighted = generic_weighted_pk(n, patterns).value
            reports.append(OracleReport(name, n, None, brute, formula))
            reports.append(OracleReport(name + " [weighted]", n, None, brute, weighted))
    return reports


def verify_pf(n_max: int) -> list[OracleReport]:
    """pf closed forms vs simulation for the supported pattern sets."""
    from .counting import PF_ROUTES, pf_count

    reports = []
    for patterns in PF_ROUTES:
        name = f"pf({patterns})"
        for n in range(1, n_max + 1):
            reports.append(
                OracleReport(name, n, None, brute_pf(n, patterns), pf_count(patterns, n).value)
            )
    return reports


def verify_generalized(n_max: int, m_max: int = 2) -> list[OracleReport]:
    """Class-count formulas vs the per-evaluation enumeration oracle."""
    from . import generalized

    # family names are <congruence>-multi (m-multiparking) or <congruence>-m
    by_evaluations = {
        "multi": generalized.multipark_class_count_by_evaluations,
        "m": generalized.mpark_class_count_by_evaluations,
    }
    reports = []
    for m in range(1, m_max + 1):
        for n in range(1, n_max + 1):
            for name, (_, value, _) in generalized.CLASS_FAMILIES.items():
                congruence, side = name.rsplit("-", 1)
                oracle_value = by_evaluations[side](n, m, congruence)
                reports.append(OracleReport(name, n, m, oracle_value, value(n, m)))
    return reports


def verify_bijections(n_max: int) -> list[OracleReport]:
    """Roundtrip and cardinality checks for both tree bijections."""
    from . import bijections, trees

    reports = []
    for n in range(0, n_max + 1):
        for family, spec in bijections.FAMILIES.items():
            functions = bijections.enumerate_pf_family(n, family)
            images = set()
            good = 0
            for blocks in functions:
                t = bijections.forward(blocks, family)
                images.add(trees.serialize_tree(t))
                if bijections.backward(t, family) == blocks:
                    good += 1
            reports.append(OracleReport(f"roundtrip {family}", n, None, len(functions), good))
            expected = trees.count_trees(n + 1, spec.constraint)
            reports.append(OracleReport(f"image {family}", n, None, expected, len(images)))
    return reports


# the largest n each verify suite reaches, whatever n_max asks for
SUITE_LIMITS = {"formulas": BRUTE_CAP - 1, "classes": 5, "bijections": 7}
"""formulas: the simulation oracle refuses past BRUTE_CAP, and its n = 8
pass enumerates 4.78 M parking functions per side, 18 times n = 7.
classes: not cost.  Both sides of the evaluation oracle at m = 1, 2 take
0.05 s at n = 5, 0.11 s at n = 6 and 1.0 s at n = 8 (one process, 2-vCPU
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
        reports += verify_generalized(reach["classes"], 2)
    if "bijections" in reach:
        reports += verify_bijections(reach["bijections"])
    return reports

