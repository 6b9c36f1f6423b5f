"""Finite sets, total functions and subsets.

Everything here is immutable and pure.  Carrier elements are opaque
hashable labels (strings, ints, None, and tuples and frozensets of them, so
values of a functor too); ``element_key`` gives them a total deterministic
order so that enumerations and rendered reports are reproducible.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Tuple

from ._record import FrozenRecord
from .errors import CarrierMismatch


def element_key(x: Any):
    """Total ordering key over all label kinds we allow in carriers."""
    if isinstance(x, str):  # document labels, the common case
        return ("s", x)
    if isinstance(x, bool):
        return ("b", x)
    if isinstance(x, int):
        return ("i", x)
    if isinstance(x, tuple):
        return ("t", tuple([element_key(c) for c in x]))
    if isinstance(x, frozenset):
        return ("f", tuple(sorted([element_key(c) for c in x])))
    if x is None:  # the point d of R
        return ("n",)
    raise TypeError(f"unorderable carrier element: {x!r}")


class Carrier(FrozenRecord):
    """A finite ordered set of distinct atoms."""

    _fields = ("elements",)

    def __init__(self, elements: Tuple[Any, ...]):
        as_set = frozenset(elements)
        if len(as_set) != len(elements):
            raise ValueError("carrier has duplicate elements")
        vars(self).update(elements=elements, _set=as_set)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x: Any) -> bool:
        return x in self._set


class FinMap(FrozenRecord):
    """A total function between carriers, stored pointwise.

    ``values[i]`` is the image of ``dom.elements[i]``.
    """

    _fields = ("dom", "cod", "values")

    def __init__(self, dom: Carrier, cod: Carrier, values: Tuple[Any, ...]):
        vars(self).update(dom=dom, cod=cod, values=values)
        self.__post_init__()

    def __post_init__(self):  # checks and indexes; a method of its own for perfbench's tracer
        if len(self.values) != len(self.dom):
            raise ValueError("map table does not cover the domain")
        for v in self.values:
            if v not in self.cod:
                raise ValueError(f"image element {v!r} not in codomain")
        vars(self)["_table"] = dict(zip(self.dom.elements, self.values))

    @staticmethod
    def from_dict(dom: Carrier, cod: Carrier, table: dict) -> "FinMap":
        return FinMap(dom, cod, tuple(table[x] for x in dom))

    @staticmethod
    def identity(carrier: Carrier) -> "FinMap":
        return FinMap(carrier, carrier, carrier.elements)

    @staticmethod
    def constant(dom: Carrier, cod: Carrier, value: Any) -> "FinMap":
        return FinMap(dom, cod, tuple(value for _ in dom))

    @staticmethod
    def inclusion(sub: Carrier, sup: Carrier) -> "FinMap":
        for x in sub:
            if x not in sup:
                raise ValueError(f"{x!r} not in the larger carrier")
        return FinMap(sub, sup, sub.elements)

    def __call__(self, x: Any) -> Any:
        return self._table[x]

    def is_surjective(self) -> bool:
        return set(self.values) == self.cod._set


class Subobject(FrozenRecord):
    """A subset of a carrier: the working representative in Sub(A)."""

    _fields = ("of", "members")

    def __init__(self, of: Carrier, members: frozenset = frozenset()):
        vars(self).update(of=of, members=members)
        self.__post_init__()

    def __post_init__(self):  # the check, a method of its own for perfbench's tracer
        for x in self.members:
            if x not in self.of:
                raise ValueError(f"member {x!r} outside the ambient carrier")

    @staticmethod
    def full(carrier: Carrier) -> "Subobject":
        return Subobject(carrier, frozenset(carrier.elements))

    @staticmethod
    def of_members(carrier: Carrier, members: Iterable[Any]) -> "Subobject":
        return Subobject(carrier, frozenset(members))

    def is_full(self) -> bool:
        return len(self.members) == len(self.of)

    def is_empty(self) -> bool:
        return not self.members

    def __le__(self, other: "Subobject") -> bool:
        if self.of != other.of:
            raise CarrierMismatch("subobjects of different carriers")
        return self.members <= other.members

    def __contains__(self, x: Any) -> bool:
        return x in self.members

    def as_carrier(self) -> Carrier:
        """The members as a carrier, in the ambient carrier's order."""
        return Carrier(tuple(x for x in self.of if x in self.members))

    def inclusion(self) -> FinMap:
        return FinMap.inclusion(self.as_carrier(), self.of)

    def sorted_members(self) -> Tuple[Any, ...]:
        return tuple(sorted(self.members, key=element_key))


def all_subsets(carrier: Carrier) -> Iterator[Subobject]:
    """All subobjects of a carrier, in a deterministic order."""
    elems = carrier.elements
    for mask in range(1 << len(elems)):
        yield Subobject(carrier, frozenset(x for i, x in enumerate(elems) if mask >> i & 1))


def check_bounds(**bounds: int) -> None:
    """Refuse a negative search bound or enumeration cap by its name."""
    for name, value in bounds.items():
        if value < 0:
            raise ValueError(f"{name} must be at least 0, not {value}")


def capped_power(base: int, exp: int, cap: Optional[int] = None) -> int:
    """base ** exp; with a cap, cap + 1 stands for any value above it, and
    the power is not built past the cap."""
    if cap is None or base <= 1:
        return base ** exp
    result = 1
    for _ in range(exp):
        result *= base
        if result > cap:
            return cap + 1
    return result
