"""The base of the workbench's record types: results, reports, tiles.

A record's fields are its class's __slots__, in order, set once by the
class's own __init__ (with object.__setattr__, as assignment raises). A
record compares equal to a record of its own class with equal fields,
hashes like the tuple of its fields, and prints as Name(field=value, ...).
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class MutableRecord(Record):
    """A record whose fields may be assigned; unhashable."""

    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None
