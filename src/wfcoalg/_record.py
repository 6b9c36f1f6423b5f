"""Plain value classes: what ``dataclasses`` gave them, without the import of
``dataclasses`` (and through it ``inspect``) or code generation per class.

A subclass names its fields in ``_fields``, in constructor order: the one
``__init__`` here stores them, by position or by name, unless the subclass
checks, derives or defaults one in its own; the repr shows them, and equality
and the hash read them.  As for a dataclass, two values are equal only if
they are of the same class, and the repr is ``Name(field=value, ...)``.
"""

from typing import Any, Tuple


class Record:
    """Compared and shown field by field; mutable, so unhashable."""

    _fields: Tuple[str, ...] = ()
    __hash__ = None

    def __init__(self, *args: Any, **kwargs: Any):
        fields = self._fields  # by position, the common case, checked first; or by name
        if (len(args) != len(fields) or kwargs) and (
                len(args) + len(kwargs) != len(fields)
                or not kwargs.keys() <= set(fields[len(args):])):
            raise TypeError(f"{type(self).__qualname__} takes ({', '.join(fields)}), each once")
        vars(self).update(zip(fields, args), **kwargs)

    def _key(self) -> tuple:
        """The values that equality compares and the hash reads."""
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: Any):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key() == other._key()

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields) + ")"


class FrozenRecord(Record):
    """Hashable, and read-only once built: ``__init__`` writes its fields
    into ``vars(self)``, past ``__setattr__``."""

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value: Any):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str):
        raise AttributeError(f"cannot delete field {name!r}")
