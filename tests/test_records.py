"""The immutable-record contract every parkav value type keeps: frozen
fields, type-strict equality, hashing by value, the field-by-field repr, and
validation on construction."""

import copy
import importlib
import pathlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import parkav
from parkav._record import Record
from parkav.bijections import Family, backward, forward_unchecked
from parkav.cli import Option, positive_int
from parkav.counting import CountResult
from parkav.generalized import Evaluation
from parkav.oracle import OracleReport
from parkav.parking import ParkingFunction, ParkingOutcome, enumerate_parking_functions
from parkav.paths import LatticePath
from parkav.permutations import AvoiderSums, PatternSet, Permutation, pattern_set, perm
from parkav.trees import LEAF, OrderedTree, parse_tree
from power_series import PowerSeries
from views import AscentWord, Cluster, phi_123_132_labeled

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
    "PowerSeries": lambda: PowerSeries((1, Fraction(1, 2))),
    "OracleReport": lambda: OracleReport("pk(123)", 3, None, 14, 14),
    "Cluster132": lambda: Cluster("extend", 1, 2, None, (0, 1), None),
    "Cluster213": lambda: Cluster("closed", 1, 3, 2, (0, 1), 4),
    "Family": lambda: Family(pattern_set("123", "132"), forward_unchecked, backward, "odd_root"),
    "Option": lambda: Option(positive_int, 6, None, "at least 1"),
}

# what the frozen dataclasses printed; the other classes define their own repr
DEFAULT_REPRS = {
    "PatternSet": "PatternSet(patterns=(Permutation('12'), Permutation('132')))",
    "AvoiderSums": "AvoiderSums(ell=[1, 1, 2], blocks=[1, 1, 3], leaves=[(1, 2), (2, 1)])",
    "ParkingOutcome": "ParkingOutcome(spots=(1, 2), rho=Permutation('12'))",
    "AscentWord": "AscentWord(runs=(1, 2))",
    "CountResult": "CountResult(value=5, method='formula')",
    "Evaluation": "Evaluation(counts=(2, 0, 1))",
    "PowerSeries": "PowerSeries(coeffs=(Fraction(1, 1), Fraction(1, 2)))",
    "OracleReport": "OracleReport(quantity='pk(123)', n=3, m=None, oracle_value=14, formula_value=14)",
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
    PowerSeries: [((),)],
}

# the records whose fields are stored as given, with no __init__ of their own
STORE_ONLY = {CountResult, ParkingOutcome, AvoiderSums, Evaluation, OracleReport, Cluster, Family}

# per validating constructor of a sequence field: the same arguments with lists in place of tuples
LIST_BUILT = {
    Permutation: ([2, 1, 3],),
    ParkingFunction: ([1, 1],),
    LatticePath: (["U", "D", "D"], 2),
    AscentWord: ([1, 2],),
}

CASES = list(SAMPLES)


def _fields(x):
    return [getattr(x, name) for name in type(x).__slots__]


def test_every_record_class_is_sampled():
    # with every module loaded, each record class in parkav, and each in the
    # test views imported above, is a subclass here
    for module in pkgutil.iter_modules(parkav.__path__):
        importlib.import_module(f"parkav.{module.name}")
    assert {type(make()) for make in SAMPLES.values()} == set(Record.__subclasses__())


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


@pytest.mark.parametrize("case", CASES)
def test_base_constructor_takes_each_field_once(case):
    x = SAMPLES[case]()
    cls, fields = type(x), _fields(x)
    with pytest.raises(TypeError):
        cls(*fields, None)
    trusted = cls._trusted(*fields)
    assert type(trusted) is cls and trusted == x


@pytest.mark.parametrize("case", [case for case in CASES if type(SAMPLES[case]()) in STORE_ONLY])
def test_store_only_records_bind_fields_like_a_signature(case):
    x = SAMPLES[case]()
    cls, fields, names = type(x), _fields(x), type(x).__slots__
    assert cls(**dict(zip(names, fields))) == x
    assert cls(*fields[:1], **dict(zip(names[1:], fields[1:]))) == x
    bad = [
        (fields[:-1], {}),  # the last field missing
        ([], dict(zip(names[1:], fields[1:]))),  # the first field missing
        (fields[:-1], {"no_such_field": fields[-1]}),  # the last field under an unknown name
        (fields, {"no_such_field": 1}),  # an unknown field too many
        (fields, {names[0]: fields[0]}),  # the first field given twice
    ]
    for values, named in bad:
        with pytest.raises(TypeError):
            cls(*values, **named)


def test_only_the_store_only_records_lack_an_init():
    # every other record validates or normalises, then passes its fields to the base
    classes = {type(make()) for make in SAMPLES.values()}
    assert {cls for cls in classes if "__init__" not in vars(cls)} == STORE_ONLY


def test_only_the_base_stores_fields():
    # the slot-storing decision lives in _record.py alone
    for path in pathlib.Path(parkav.__file__).parent.glob("*.py"):
        if path.name != "_record.py":
            assert "object.__setattr__" not in path.read_text(), path.name


@pytest.mark.parametrize("cls", list(LIST_BUILT), ids=lambda c: c.__name__)
def test_sequence_fields_are_stored_as_tuples(cls):
    args = LIST_BUILT[cls]
    from_lists = cls(*args)
    from_tuples = cls(*(tuple(a) if isinstance(a, list) else a for a in args))
    assert type(_fields(from_lists)[0]) is tuple
    assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
    assert len({from_lists, from_tuples}) == 1


def test_a_pattern_set_of_list_built_permutations():
    assert PatternSet((Permutation([1, 2]),)) == pattern_set("12")
    assert Permutation([2, 1]) == perm("21") and hash(Permutation([2, 1])) == hash(perm("21"))


def test_equality_is_type_strict():
    assert Permutation((1,)) != ParkingFunction((1,))
    assert ParkingFunction((1,)) != Permutation((1,))
    assert Permutation((1,)) != (1,) and ParkingFunction((1,)) != (1,)
    assert Evaluation((1, 2)) != AscentWord((1, 2))


def test_keyword_arguments_and_defaults():
    assert CountResult(value=5, method="formula") == CountResult(5, "formula")
    assert LatticePath(("U", "D")).m == 1
    assert OrderedTree() == LEAF


def test_normalising_constructors_store_the_normal_form():
    assert PatternSet((perm("21"), perm("12"), perm("21"))).patterns == (perm("12"), perm("21"))
    assert all(type(c) is Fraction for c in PowerSeries((1, 2)).coeffs)


def test_records_are_always_truthy():
    # a record is truthy whatever its fields: no length makes an empty one falsy
    assert not hasattr(Record, "__len__") and not hasattr(Record, "__bool__")
    assert ParkingFunction(()) and CountResult(0, "formula") and Evaluation(())


def test_enumerated_parking_functions_equal_validated_ones():
    for f in enumerate_parking_functions(4):
        assert f == ParkingFunction(f.prefs) and hash(f) == hash(ParkingFunction(f.prefs))


def test_deep_trees_compare_and_hash_at_any_depth():
    # 5,001 levels of nesting: field tuples compared, printed or copied level
    # by level would pass Python's recursion limit; the labelled images are
    # flat tables of child labels
    a, b, c = (parse_tree("(" * 5001 + bottom + ")" * 5001) for bottom in ("()()", "()()", "(())"))
    la, lb, lc = (phi_123_132_labeled(backward(t, "123-132")) for t in (a, b, c))
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) and len({a, b}) == 1
    assert la is not lb and la == lb and not la != lb
    assert a != c and not a == c and len({a, c}) == 2
    assert la != lc and not la == lc
    assert a != la and la != a
    assert repr(a).count("(") == repr(a).count(")") > 5001
    for x in (a, la, lc):
        assert pickle.loads(pickle.dumps(x)) == x and copy.deepcopy(x) == x
