"""Immutable slot records: the value-type base of every parkav class.

A subclass lists its fields in ``__slots__``; the base stores one value per
field, by position in slot order or by keyword, and a missing, extra or
unknown field is a TypeError.  A subclass that validates or normalises does
so in its own ``__init__``, then calls ``super().__init__``.  The base also
gives what a frozen dataclass would, without ``dataclasses``: type-strict
field-wise equality, a hash over the same fields, ``Name(field=value, ...)``
as the repr, and AttributeError on assignment or deletion.  With no
``__len__`` or ``__bool__``, a record is truthy unless its class says
otherwise.  No record holds another of its own class, so equality and
hashing never recurse deeply.

>>> from parkav.counting import CountResult
>>> CountResult(5, methods="formula")
Traceback (most recent call last):
TypeError: CountResult() takes the fields value, method
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls.__slots__)  # the field values in order (the value itself for one field)
        # per field, in slot order: its index and its slot's setter (no frozen __setattr__)
        cls._setters = tuple(enumerate(cls.__dict__[name].__set__ for name in cls.__slots__))

    def __init__(self, *values, **named) -> None:
        if named:  # the fields after the positional ones, in slot order
            values += tuple(named.pop(name) for name in self.__slots__[len(values) :] if name in named)
        if named or len(values) != len(self._setters):  # a field missing, extra, unknown or given twice
            raise TypeError(f"{self.__class__.__qualname__}() takes the fields {', '.join(self.__slots__)}")
        for i, set_field in self._setters:
            set_field(self, values[i])

    @classmethod
    def _trusted(cls, *values):
        """An instance from field values already known to be valid; no
        validation or normalisation runs."""
        self = object.__new__(cls)
        for i, set_field in cls._setters:
            set_field(self, values[i])
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
