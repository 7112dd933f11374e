"""The one base of the package's immutable value types.

A value type lists its fields in ``__slots__`` (plus ``"__dict__"`` when it
caches with `functools.cached_property`) and sets them in ``__init__`` with
`_set`.  Equality, hashing, ``repr`` and pickling follow the fields in slot
order; assigning or deleting an attribute raises `AttributeError`.
"""

_set = object.__setattr__  # bypasses the refusal below; for ``__init__`` only


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(f for f in cls.__slots__ if f != "__dict__")

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), self._values()
