"""`Record`, the base of the library's small value classes.

A record is a few named fields.  A subclass lists them in `__slots__`
(a slot whose name starts with an underscore, such as a cached hash, is
not a field) and sets them in its own `__init__`, which keeps the
signature, the defaults and the checks of the class.  The base supplies
the rest from the field tuple, once per class when the class is made:

* equality field by field, and only with a record of the same class;
* the hash of the field tuple;
* the repr `Name(field=value, ...)`;
* copy and pickle, which rebuild a record through its constructor.

Records are frozen: `__init__` sets the fields with `object.__setattr__`,
and assignment and deletion raise AttributeError.  A mutable record class
sets `__setattr__` and `__delattr__` back to object's and `__hash__` to
None.
"""

from __future__ import annotations

from operator import attrgetter


def _no_fields(record) -> tuple:
    return ()


class Record:
    __slots__ = ()

    # set for each subclass: its field names, and a function from a record
    # to the tuple of its field values
    _fields: tuple[str, ...]
    _astuple: staticmethod

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(name for klass in reversed(cls.__mro__)
                       for name in vars(klass).get("__slots__", ())
                       if not name.startswith("_"))
        if len(fields) == 1:
            get = attrgetter(fields[0])

            def astuple(record):
                return (get(record),)
        else:
            astuple = attrgetter(*fields) if fields else _no_fields
        cls._fields, cls._astuple = fields, staticmethod(astuple)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._astuple(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
