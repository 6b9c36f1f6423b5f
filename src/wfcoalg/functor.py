"""Compositional finite-set endofunctors and their structured values.

A ``FunctorExpr`` denotes an endofunctor on finite sets built from
constants, the identity, finite sums/products, finite exponents, the
finite powerset, and the special leaf ``RFunctor`` with

    R X = {(x, y) : x != y} + {d},
    R f (d) = d,
    R f (x, y) = d            if f merges x and y,
                 (f x, f y)   otherwise.

Values of ``F X`` are immutable tagged trees (``FValue``); equality is
structural with sets kept in canonical sorted order.

Each node kind owns its operations as methods: ``size`` (|F X|), ``enum`` (the
elements of F X), ``fmap`` (F f), ``code`` (F f(v) as a plain hashable tree, not
built; injective on F X for f = id), ``check`` (membership in F X, which also
collects the least support: ``Id`` appends its element, an R pair both of its
elements) and ``preserves_inverse_images``.  A composite node recurses through
its children's methods.  The module-level functions below are the entry points.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any, Callable, Iterator, List, Optional, Tuple

from .errors import CapExceeded, MalformedValue
from .finset import Carrier, Subobject, capped_power, element_key

DEFAULT_ENUM_CAP = 100_000


# --- functor expressions ---------------------------------------------------

def _clip(size: int, cap: Optional[int]) -> int:
    """cap + 1 stands for any size above the cap."""
    return size if cap is None or size <= cap else cap + 1


class FunctorExpr:
    """Base class; the concrete nodes below own the operations listed in
    the module docstring."""


@dataclass(frozen=True)
class Const(FunctorExpr):
    values: Carrier

    def size(self, n: int, cap: Optional[int]) -> int:
        return _clip(len(self.values), cap)

    def enum(self, x: Carrier) -> Iterator[FValue]:
        return (ConstVal(a) for a in self.values)

    def fmap(self, f: Callable[[Any], Any], v: FValue) -> FValue:
        if not isinstance(v, ConstVal):
            raise MalformedValue(f"expected constant value, got {v!r}")
        return v

    def code(self, f: Callable[[Any], Any], v: FValue) -> Any:
        return v.atom

    def check(self, x: Carrier, v: FValue, out: List[Any]) -> None:
        if not (isinstance(v, ConstVal) and v.atom in self.values):
            raise MalformedValue(f"{v!r} is not a constant of the declared carrier")

    def preserves_inverse_images(self) -> bool:
        return True


@dataclass(frozen=True)
class Id(FunctorExpr):
    def size(self, n: int, cap: Optional[int]) -> int:
        return _clip(n, cap)

    def enum(self, x: Carrier) -> Iterator[FValue]:
        return (IdVal(a) for a in x)

    def fmap(self, f: Callable[[Any], Any], v: FValue) -> FValue:
        if not isinstance(v, IdVal):
            raise MalformedValue(f"expected identity value, got {v!r}")
        return IdVal(f(v.element))

    def code(self, f: Callable[[Any], Any], v: FValue) -> Any:
        return f(v.element)

    def check(self, x: Carrier, v: FValue, out: List[Any]) -> None:
        if not (isinstance(v, IdVal) and v.element in x):
            raise MalformedValue(f"{v!r} is not an element of the carrier")
        out.append(v.element)

    def preserves_inverse_images(self) -> bool:
        return True


@dataclass(frozen=True)
class Sum(FunctorExpr):
    parts: Tuple[FunctorExpr, ...]

    def size(self, n: int, cap: Optional[int]) -> int:
        return _clip(sum(p.size(n, cap) for p in self.parts), cap)

    def enum(self, x: Carrier) -> Iterator[FValue]:
        for i, p in enumerate(self.parts):
            for v in p.enum(x):
                yield InjVal(i, v)

    def fmap(self, f: Callable[[Any], Any], v: FValue) -> FValue:
        if not isinstance(v, InjVal) or not 0 <= v.index < len(self.parts):
            raise MalformedValue(f"expected injection value, got {v!r}")
        return InjVal(v.index, self.parts[v.index].fmap(f, v.value))

    def code(self, f: Callable[[Any], Any], v: FValue) -> Any:
        return v.index, self.parts[v.index].code(f, v.value)

    def check(self, x: Carrier, v: FValue, out: List[Any]) -> None:
        if not (isinstance(v, InjVal) and 0 <= v.index < len(self.parts)):
            raise MalformedValue(f"{v!r} is not a valid injection")
        self.parts[v.index].check(x, v.value, out)

    def preserves_inverse_images(self) -> bool:
        return all(p.preserves_inverse_images() for p in self.parts)


@dataclass(frozen=True)
class Prod(FunctorExpr):
    parts: Tuple[FunctorExpr, ...]

    def size(self, n: int, cap: Optional[int]) -> int:
        total = 1
        for p in self.parts:
            total = _clip(total * p.size(n, cap), cap)
        return total

    def enum(self, x: Carrier) -> Iterator[FValue]:
        for combo in product(*(list(p.enum(x)) for p in self.parts)):
            yield TupleVal(combo)

    def fmap(self, f: Callable[[Any], Any], v: FValue) -> FValue:
        if not isinstance(v, TupleVal) or len(v.items) != len(self.parts):
            raise MalformedValue(f"expected tuple value, got {v!r}")
        return TupleVal(tuple(p.fmap(f, c) for p, c in zip(self.parts, v.items)))

    def code(self, f: Callable[[Any], Any], v: FValue) -> Any:
        return tuple([p.code(f, c) for p, c in zip(self.parts, v.items)])

    def check(self, x: Carrier, v: FValue, out: List[Any]) -> None:
        if not (isinstance(v, TupleVal) and len(v.items) == len(self.parts)):
            raise MalformedValue(f"{v!r} is not a valid tuple")
        for p, c in zip(self.parts, v.items):
            p.check(x, c, out)

    def preserves_inverse_images(self) -> bool:
        return all(p.preserves_inverse_images() for p in self.parts)


@dataclass(frozen=True)
class Exp(FunctorExpr):
    """arg ** alphabet: functions from a fixed finite alphabet."""

    alphabet: Carrier
    arg: FunctorExpr

    def __post_init__(self):
        if len(self.alphabet) == 0:
            raise ValueError("exponent alphabet must be nonempty")

    def size(self, n: int, cap: Optional[int]) -> int:
        return capped_power(self.arg.size(n, cap), len(self.alphabet), cap)

    def enum(self, x: Carrier) -> Iterator[FValue]:
        inner = list(self.arg.enum(x))
        letters = self.alphabet.elements
        for combo in product(inner, repeat=len(letters)):
            yield FuncVal(tuple(zip(letters, combo)))

    def fmap(self, f: Callable[[Any], Any], v: FValue) -> FValue:
        if not isinstance(v, FuncVal):
            raise MalformedValue(f"expected function value, got {v!r}")
        return FuncVal(tuple((s, self.arg.fmap(f, c)) for s, c in v.entries))

    def code(self, f: Callable[[Any], Any], v: FValue) -> Any:
        return tuple([self.arg.code(f, c) for _, c in v.entries])

    def check(self, x: Carrier, v: FValue, out: List[Any]) -> None:
        if not isinstance(v, FuncVal):
            raise MalformedValue(f"{v!r} is not a function value")
        if tuple(s for s, _ in v.entries) != self.alphabet.elements:
            raise MalformedValue(f"{v!r} does not cover the alphabet in order")
        for _, c in v.entries:
            self.arg.check(x, c, out)

    def preserves_inverse_images(self) -> bool:
        return self.arg.preserves_inverse_images()


@dataclass(frozen=True)
class PowFin(FunctorExpr):
    arg: FunctorExpr

    def size(self, n: int, cap: Optional[int]) -> int:
        return capped_power(2, self.arg.size(n, cap), cap)

    def enum(self, x: Carrier) -> Iterator[FValue]:
        inner = sorted(self.arg.enum(x), key=lambda v: v.key())
        for mask in range(1 << len(inner)):
            yield SetVal(tuple(v for i, v in enumerate(inner) if mask >> i & 1))

    def fmap(self, f: Callable[[Any], Any], v: FValue) -> FValue:
        if not isinstance(v, SetVal):
            raise MalformedValue(f"expected set value, got {v!r}")
        return SetVal.of(self.arg.fmap(f, c) for c in v.items)

    def code(self, f: Callable[[Any], Any], v: FValue) -> Any:
        return frozenset([self.arg.code(f, c) for c in v.items])

    def check(self, x: Carrier, v: FValue, out: List[Any]) -> None:
        if not isinstance(v, SetVal):
            raise MalformedValue(f"{v!r} is not a set value")
        keys = [c.key() for c in v.items]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise MalformedValue(f"{v!r} is not in canonical set order")
        for c in v.items:
            self.arg.check(x, c, out)

    def preserves_inverse_images(self) -> bool:
        return self.arg.preserves_inverse_images()


@dataclass(frozen=True)
class RFunctor(FunctorExpr):
    def size(self, n: int, cap: Optional[int]) -> int:
        return _clip(n * (n - 1) + 1, cap)

    def enum(self, x: Carrier) -> Iterator[FValue]:
        yield RPoint()
        for a in x:
            for b in x:
                if a != b:
                    yield RPair(a, b)

    def fmap(self, f: Callable[[Any], Any], v: FValue) -> FValue:
        if isinstance(v, RPoint):
            return v
        if isinstance(v, RPair):
            a, b = f(v.fst), f(v.snd)
            return RPoint() if a == b else RPair(a, b)
        raise MalformedValue(f"expected R value, got {v!r}")

    def code(self, f: Callable[[Any], Any], v: FValue) -> Any:
        a, b = (f(v.fst), f(v.snd)) if isinstance(v, RPair) else (None, None)
        return None if a == b else (a, b)

    def check(self, x: Carrier, v: FValue, out: List[Any]) -> None:
        if isinstance(v, RPoint):
            return
        if isinstance(v, RPair) and v.fst in x and v.snd in x:
            out += (v.fst, v.snd)
            return
        raise MalformedValue(f"{v!r} is not a valid R value over the carrier")

    def preserves_inverse_images(self) -> bool:
        return False


# --- values ----------------------------------------------------------------

class FValue:
    """Base class for elements of F X."""

    def key(self):
        raise NotImplementedError


@dataclass(frozen=True)
class ConstVal(FValue):
    atom: Any

    def key(self):
        return ("c", element_key(self.atom))


@dataclass(frozen=True)
class IdVal(FValue):
    element: Any

    def key(self):
        return ("x", element_key(self.element))


@dataclass(frozen=True)
class InjVal(FValue):
    index: int
    value: FValue

    def key(self):
        return ("inj", self.index, self.value.key())


@dataclass(frozen=True)
class TupleVal(FValue):
    items: Tuple[FValue, ...]

    def key(self):
        return ("tup", tuple([v.key() for v in self.items]))


@dataclass(frozen=True)
class FuncVal(FValue):
    """Entries in alphabet order, one per letter."""

    entries: Tuple[Tuple[Any, FValue], ...]

    def key(self):
        return ("fun", tuple((element_key(s), v.key()) for s, v in self.entries))

    def __call__(self, letter: Any) -> FValue:
        for s, v in self.entries:
            if s == letter:
                return v
        raise KeyError(letter)


@dataclass(frozen=True)
class SetVal(FValue):
    """Members sorted by key, duplicate-free."""

    items: Tuple[FValue, ...]

    def key(self):
        return ("set", tuple([v.key() for v in self.items]))

    @staticmethod
    def of(items) -> "SetVal":
        uniq = {v.key(): v for v in items}
        return SetVal(tuple(uniq[k] for k in sorted(uniq)))


@dataclass(frozen=True)
class RPoint(FValue):
    """The extra point d of the R functor."""

    def key(self):
        return ("rd",)


@dataclass(frozen=True)
class RPair(FValue):
    fst: Any
    snd: Any

    def __post_init__(self):
        if self.fst == self.snd:
            raise MalformedValue("R pair components must be distinct")

    def key(self):
        return ("rp", element_key(self.fst), element_key(self.snd))


# --- entry points -------------------------------------------------------------

def size_obj(expr: FunctorExpr, n: int, cap: Optional[int] = None) -> int:
    """|F X| as a function of |X| = n.  With a cap, cap + 1 stands for any
    size above it, so no count grows past the cap (|P(P(P(X)))| included)."""
    return expr.size(n, cap)


def eval_obj(expr: FunctorExpr, x: Carrier, cap: int = DEFAULT_ENUM_CAP) -> List[FValue]:
    """Enumerate all of F X, duplicate-free, in a deterministic order."""
    if size_obj(expr, len(x), cap) > cap:
        raise CapExceeded("functor enumeration", cap)
    return list(expr.enum(x))


def eval_map(expr: FunctorExpr, f: Callable[[Any], Any], v: FValue) -> FValue:
    """Apply F f to a value over the domain of f; f may be any callable."""
    return expr.fmap(f, v)


def check_value(expr: FunctorExpr, x: Carrier, v: FValue) -> frozenset:
    """The least support of v, the elements of X it mentions; raise
    MalformedValue unless v is a well-formed element of F X."""
    out: List[Any] = []
    expr.check(x, v, out)
    return frozenset(out)


def support(expr: FunctorExpr, x: Carrier, v: FValue) -> Subobject:
    """The least subset S of X with v in the image of F(S -> X)."""
    return Subobject(x, check_value(expr, x, v))


def in_image(expr: FunctorExpr, s: Subobject, v: FValue) -> bool:
    """Is v in the image of F applied to the inclusion of s?"""
    return support(expr, s.of, v).members <= s.members


def preserves_inverse_images(expr: FunctorExpr) -> bool:
    """Structural verdict: true iff no R leaf occurs."""
    return expr.preserves_inverse_images()
