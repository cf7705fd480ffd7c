"""The base class of the library's immutable value classes."""

from operator import attrgetter


class Frozen:
    """An immutable value: its fields are the class annotations, after
    those of its bases, kept in the instance `__dict__` (as is what
    `cached_property` caches).  Equality (one class, equal fields), the
    hash and the repr read them; nothing is generated.  A subclass that
    checks or derives fields, or is hot, writes its own `__init__`."""

    _fields = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))
        cls._values = attrgetter(*cls._fields)  # one field: not in a tuple

    def __init__(self, *values):
        self.__dict__.update(zip(self._fields, values, strict=True))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: {name!r}")

    __delattr__ = __setattr__
