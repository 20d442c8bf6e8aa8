"""The immutable-record contract every parkav value type keeps: frozen
fields, type-strict equality, hashing by value, the field-by-field repr, and
validation on construction."""

import copy
import pickle
from fractions import Fraction

import pytest

from parkav._record import Record
from parkav.bijections import Cluster, LabeledTree, backward, enumerate_pf_family, phi_123_132_labeled
from parkav.counting import CountResult
from parkav.generalized import Evaluation, MMultiparking, MParking
from parkav.oracle import OracleReport
from parkav.parking import ParkingFunction, ParkingOutcome, enumerate_parking_functions
from parkav.paths import AscentWord, LatticePath
from parkav.permutations import AvoiderSums, PatternSet, Permutation, perm
from parkav.series import PowerSeries
from parkav.trees import LEAF, OrderedTree, parse_tree

# one sample per record class, keyed by test id; the cluster record, shared by
# both tree families, has one sample per family. Each call builds a fresh,
# equal instance
SAMPLES = {
    "Permutation": lambda: Permutation((2, 1, 3)),
    "PatternSet": lambda: PatternSet((perm("132"), perm("12"), perm("132"))),
    "AvoiderSums": lambda: AvoiderSums([1, 1, 2], [1, 1, 3], [(1, 2), (2, 1)]),
    "ParkingOutcome": lambda: ParkingOutcome((1, 2), perm("12")),
    "ParkingFunction": lambda: ParkingFunction((1, 1)),
    "LatticePath": lambda: LatticePath(("U", "D", "D"), m=2),
    "AscentWord": lambda: AscentWord((1, 2)),
    "OrderedTree": lambda: OrderedTree("(())"),
    "CountResult": lambda: CountResult(5, "formula"),
    "Evaluation": lambda: Evaluation((2, 0, 1)),
    "MMultiparking": lambda: MMultiparking((1, 2, 1, 2), 2, 2),
    "MParking": lambda: MParking((1, 3), 2),
    "PowerSeries": lambda: PowerSeries((1, Fraction(1, 2))),
    "OracleReport": lambda: OracleReport("pk(123)", 3, None, 14, 14),
    "LabeledTree": lambda: LabeledTree(None, (LabeledTree(0),)),
    "Cluster132": lambda: Cluster("extend", 1, 2, None, (0, 1), None),
    "Cluster213": lambda: Cluster("closed", 1, 3, 2, (0, 1), 4),
}

# what the frozen dataclasses printed; the other classes define their own repr
DEFAULT_REPRS = {
    "PatternSet": "PatternSet(patterns=(Permutation('12'), Permutation('132')))",
    "AvoiderSums": "AvoiderSums(ell=[1, 1, 2], blocks=[1, 1, 3], leaves=[(1, 2), (2, 1)])",
    "ParkingOutcome": "ParkingOutcome(spots=(1, 2), rho=Permutation('12'))",
    "AscentWord": "AscentWord(runs=(1, 2))",
    "CountResult": "CountResult(value=5, method='formula')",
    "Evaluation": "Evaluation(counts=(2, 0, 1))",
    "MMultiparking": "MMultiparking(values=(1, 2, 1, 2), m=2, n=2)",
    "MParking": "MParking(values=(1, 3), m=2)",
    "PowerSeries": "PowerSeries(coeffs=(Fraction(1, 1), Fraction(1, 2)))",
    "OracleReport": "OracleReport(quantity='pk(123)', n=3, m=None, oracle_value=14, formula_value=14)",
    "LabeledTree": "LabeledTree(label=None, children=(LabeledTree(label=0, children=()),))",
    "Cluster132": (
        "Cluster(kind='extend', lo=1, hi=2, parameter=None, main_positions=(0, 1), empty_position=None)"
    ),
    "Cluster213": "Cluster(kind='closed', lo=1, hi=3, parameter=2, main_positions=(0, 1), empty_position=4)",
}

# arguments each validating constructor refuses
INVALID = {
    Permutation: [((1, 1),), ((0, 1),)],
    PatternSet: [((Permutation(()),),)],
    ParkingFunction: [((2, 2),), ((1, 3),)],
    LatticePath: [(("D", "U"),), (("U",),), (("U", "X", "D"),), (("U", "D"), 0)],
    AscentWord: [((1, 0),)],
    MMultiparking: [((2, 2, 2, 2), 2, 2), ((1, 2, 1), 2, 2)],
    MParking: [((3, 3), 1), ((0,), 1)],
    PowerSeries: [((),)],
}

CASES = list(SAMPLES)


def test_every_record_class_is_sampled():
    classes = {type(make()) for make in SAMPLES.values()}
    assert len(classes) == 16
    assert all(issubclass(cls, Record) for cls in classes)


@pytest.mark.parametrize("case", CASES)
def test_fields_are_frozen(case):
    x = SAMPLES[case]()
    field = type(x).__slots__[0]
    before = getattr(x, field)
    with pytest.raises(AttributeError):
        setattr(x, field, before)
    with pytest.raises(AttributeError):
        delattr(x, field)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert getattr(x, field) is before


@pytest.mark.parametrize("case", CASES)
def test_equality_and_hash_by_value(case):
    x, y = SAMPLES[case](), SAMPLES[case]()
    assert x is not y and x == y and not x != y
    assert x != object() and x != getattr(x, type(x).__slots__[0])
    if type(x) is AvoiderSums:  # list fields: unhashable, as the dataclass was
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y)
        assert len({x, y}) == 1


@pytest.mark.parametrize("case", CASES)
def test_copy_and_pickle_rebuild_equal_values(case):
    x = SAMPLES[case]()
    assert copy.copy(x) == x
    assert copy.deepcopy(x) == x
    assert pickle.loads(pickle.dumps(x)) == x


@pytest.mark.parametrize("case", list(DEFAULT_REPRS))
def test_default_repr_matches_the_dataclass_one(case):
    assert repr(SAMPLES[case]()) == DEFAULT_REPRS[case]


@pytest.mark.parametrize("cls", list(INVALID), ids=lambda c: c.__name__)
def test_validators_still_refuse(cls):
    for args in INVALID[cls]:
        with pytest.raises(ValueError):
            cls(*args)


def test_equality_is_type_strict():
    assert Permutation((1,)) != ParkingFunction((1,))
    assert ParkingFunction((1,)) != Permutation((1,))
    assert Permutation((1,)) != (1,) and ParkingFunction((1,)) != (1,)
    assert Evaluation((1, 2)) != AscentWord((1, 2))


def test_keyword_arguments_and_defaults():
    assert CountResult(value=5, method="formula") == CountResult(5, "formula")
    assert LatticePath(("U", "D")).m == 1
    assert OrderedTree() == LEAF and LabeledTree(3).children == ()


def test_normalising_constructors_store_the_normal_form():
    assert PatternSet((perm("21"), perm("12"), perm("21"))).patterns == (perm("12"), perm("21"))
    assert all(type(c) is Fraction for c in PowerSeries((1, 2)).coeffs)


def test_labeled_tree_is_always_truthy():
    # a record is truthy whatever its fields: no length makes a leaf falsy
    assert not hasattr(Record, "__len__") and not hasattr(Record, "__bool__")
    assert LabeledTree(0) and LabeledTree(None)


def test_enumerated_parking_functions_equal_validated_ones():
    for f in enumerate_parking_functions(4):
        assert f == ParkingFunction(f.prefs) and hash(f) == hash(ParkingFunction(f.prefs))


def test_labeled_tree_repr_is_the_record_repr():
    # written with a stack, field by field as Record writes it
    for n in range(6):
        for blocks in enumerate_pf_family(n, "123-132"):
            t = phi_123_132_labeled(blocks)
            assert repr(t) == Record.__repr__(t)


def test_deep_trees_compare_and_hash_at_any_depth():
    # 5,001 levels of nesting: field tuples compared, printed or copied level
    # by level would pass Python's recursion limit
    a, b, c = (parse_tree("(" * 5001 + bottom + ")" * 5001) for bottom in ("()()", "()()", "(())"))
    la, lb, lc = (phi_123_132_labeled(backward(t, "123-132")) for t in (a, b, c))
    for x, y in ((a, b), (la, lb)):
        assert x is not y and x == y and not x != y
        assert hash(x) == hash(y) and len({x, y}) == 1
    for x, y in ((a, c), (la, lc)):
        assert x != y and not x == y
        assert len({x, y}) == 2
    assert a != la and la != a
    assert repr(la).startswith("LabeledTree(label=None, children=(LabeledTree(label=")
    assert repr(la).endswith(",))")
    for x in (a, la):
        assert repr(x).count("(") == repr(x).count(")") > 5001
        assert pickle.loads(pickle.dumps(x)) == x and copy.deepcopy(x) == x
