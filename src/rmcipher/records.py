"""Bases of the records that cannot be `typing.NamedTuple`s: those that
check or complete their fields on construction, change, or cache
properties.  The package does not import `dataclasses`, which costs more
than a short command's arithmetic.  A subclass names its fields in
`_fields` and sets them in its `__init__`."""

from __future__ import annotations


class Record:
    """A mutable record: repr shows its fields (but those in `_hidden`), and
    records of one class are equal when their fields are.  Unhashable, as
    a class that defines __eq__ alone is."""

    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields if name not in self._hidden)
        return f"{type(self).__name__}({shown})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()


class FrozenRecord(Record):
    """A record that refuses attribute assignment and hashes on its fields."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())
