"""Immutable slot records: the value-type base of every parkav class.

A subclass lists its fields in ``__slots__`` and sets each one in its own
``__init__`` with ``object.__setattr__``, after any validation.  The base
gives it what a frozen dataclass would, without importing ``dataclasses``:
field-wise equality only between instances of the same class, a hash over
the same fields, ``Name(field=value, ...)`` as the repr, and AttributeError
on assignment or deletion.  It defines no ``__len__`` or ``__bool__``, so a
record is truthy unless its class says otherwise.  A class may name its own
``_key``: the labelled trees use their printed form, since nested tuples
recurse.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # the field values in order (the value itself for one field), unless the class names a key
        if "_key" not in cls.__dict__:
            cls._key = attrgetter(*cls.__slots__)

    @classmethod
    def _trusted(cls, *values):
        """An instance from field values already known to be valid; no
        validation or normalisation runs."""
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which revalidates
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)
