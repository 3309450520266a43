"""The base of the workbench's record types: results, reports, tiles.

A record's fields are its class's __slots__, in order. Record's __init__
fills them, positional values first, then keywords; a record that checks or
normalises its fields does so in its own __init__ and then calls Record's.
Fields are set once (with object.__setattr__, as assignment raises). A
record compares equal to a record of its own class with equal fields,
hashes like the tuple of its fields, prints as Name(field=value, ...), and
pickles and copies as a call of its class on its fields.

_fields() is the one place a record states its identity: ==, hash and
pickling all read it, and no subclass defines __eq__ or __hash__. A type
whose identity is not its slots overrides _fields(): a Frame is (size,
triples), a Model (frame, its valuation), and a Formula its pre-order key;
a Formula pickles and copies as its rendered text, parsed again.
"""

from __future__ import annotations

_set = object.__setattr__


class Record:
    __slots__ = ()

    def __init__(self, *values, **named):
        names, cls = self.__slots__, type(self).__qualname__
        if len(values) > len(names):
            raise TypeError(f"{cls}() takes {len(names)} fields, not {len(values)}")
        for name, value in zip(names, values):
            _set(self, name, value)
        for name in names[len(values):]:
            if name not in named:
                raise TypeError(f"{cls}() missing field {name!r}")
            _set(self, name, named.pop(name))
        if named:
            raise TypeError(f"{cls}() got an unknown or repeated field {next(iter(named))!r}")

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __reduce__(self):
        return type(self), self._fields()

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
