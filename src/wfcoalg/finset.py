"""Finite sets, total functions, subsets, pullbacks and images.

Everything here is immutable and pure.  Carrier elements are opaque
hashable labels (strings, ints, None, and tuples and frozensets of them, so
values of a functor too); ``element_key`` gives them a total deterministic
order so that enumerations and rendered reports are reproducible.
"""

from __future__ import annotations

from itertools import product
from typing import Any, Callable, Iterable, Iterator, Optional, Tuple

from ._record import FrozenRecord
from .errors import CarrierMismatch


def element_key(x: Any):
    """Total ordering key over all label kinds we allow in carriers."""
    if type(x) is str:  # document labels, the common case
        return ("s", x)
    if isinstance(x, bool):
        return ("b", x)
    if isinstance(x, int):
        return ("i", x)
    if isinstance(x, str):
        return ("s", x)
    if isinstance(x, tuple):
        return ("t", tuple(element_key(c) for c in x))
    if isinstance(x, frozenset):
        return ("f", tuple(sorted(element_key(c) for c in x)))
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

    @staticmethod
    def empty() -> "Carrier":
        return Carrier(())

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
    def from_callable(dom: Carrier, cod: Carrier, fn: Callable[[Any], Any]) -> "FinMap":
        return FinMap(dom, cod, tuple(fn(x) for x in dom))

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

    def compose(self, other: "FinMap") -> "FinMap":
        """self after other: (self . other)(x) = self(other(x))."""
        if other.cod != self.dom:
            raise CarrierMismatch("composition domains do not match")
        return FinMap(other.dom, self.cod, tuple(self(v) for v in other.values))

    def is_injective(self) -> bool:
        return len(set(self.values)) == len(self.values)

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
    def empty(carrier: Carrier) -> "Subobject":
        return Subobject(carrier, frozenset())

    @staticmethod
    def of_members(carrier: Carrier, members: Iterable[Any]) -> "Subobject":
        return Subobject(carrier, frozenset(members))

    def is_full(self) -> bool:
        return len(self.members) == len(self.of)

    def is_empty(self) -> bool:
        return not self.members

    def __le__(self, other: "Subobject") -> bool:
        self._check(other)
        return self.members <= other.members

    def __lt__(self, other: "Subobject") -> bool:
        self._check(other)
        return self.members < other.members

    def __contains__(self, x: Any) -> bool:
        return x in self.members

    def union(self, other: "Subobject") -> "Subobject":
        self._check(other)
        return Subobject(self.of, self.members | other.members)

    def intersection(self, other: "Subobject") -> "Subobject":
        self._check(other)
        return Subobject(self.of, self.members & other.members)

    def as_carrier(self) -> Carrier:
        """The members as a carrier, in the ambient carrier's order."""
        return Carrier(tuple(x for x in self.of if x in self.members))

    def inclusion(self) -> FinMap:
        return FinMap.inclusion(self.as_carrier(), self.of)

    def sorted_members(self) -> Tuple[Any, ...]:
        return tuple(sorted(self.members, key=element_key))

    def _check(self, other: "Subobject"):
        if self.of != other.of:
            raise CarrierMismatch("subobjects of different carriers")


def pullback(f: FinMap, g: FinMap) -> Tuple[Carrier, FinMap, FinMap]:
    """The pullback of f and g over their shared codomain.

    Returns the carrier of matching pairs together with the two
    projections; pairs appear in the lexicographic domain order.
    """
    if f.cod != g.cod:
        raise CarrierMismatch("pullback requires a shared codomain")
    pairs = tuple((x, y) for x in f.dom for y in g.dom if f(x) == g(y))
    carrier = Carrier(pairs)
    p1 = FinMap(carrier, f.dom, tuple(x for x, _ in pairs))
    p2 = FinMap(carrier, g.dom, tuple(y for _, y in pairs))
    return carrier, p1, p2


def inverse_image(f: FinMap, s: Subobject) -> Subobject:
    if s.of != f.cod:
        raise CarrierMismatch("subobject is not of the codomain")
    return Subobject(f.dom, frozenset(x for x in f.dom if f(x) in s.members))


def direct_image(f: FinMap, t: Subobject) -> Subobject:
    if t.of != f.dom:
        raise CarrierMismatch("subobject is not of the domain")
    return Subobject(f.cod, frozenset(f(x) for x in t.members))


def all_subsets(carrier: Carrier) -> Iterator[Subobject]:
    """All subobjects of a carrier, in a deterministic order."""
    elems = carrier.elements
    for mask in range(1 << len(elems)):
        yield Subobject(carrier, frozenset(x for i, x in enumerate(elems) if mask >> i & 1))


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


def all_maps(dom: Carrier, cod: Carrier) -> Iterator[FinMap]:
    """All total maps dom -> cod in lexicographic table order."""
    for values in product(cod.elements, repeat=len(dom)):
        yield FinMap(dom, cod, values)
