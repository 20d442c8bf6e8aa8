"""Exact counting, enumeration and bijections for pattern-restricted parking
functions, their lattice-path and tree correspondences, and the class counts
of generalized parking functions.  All arithmetic is exact.

The names below load with their module on first access (PEP 562), so
``import parkav.cli`` reads none of the modules a command does not run."""

# public name -> the module that defines it
_HOMES = {
    "CountResult": "counting",
    "OrderedTree": "trees",
    "ParkingFunction": "parking",
    "PatternSet": "permutations",
    "Permutation": "permutations",
    "generic_weighted_pk": "counting",
    "parking_function": "parking",
    "parse_tree": "trees",
    "pattern_set": "permutations",
    "perm": "permutations",
    "pf_count": "counting",
    "pk_count": "counting",
    "serialize_tree": "trees",
    "simulate": "parking",
}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value
