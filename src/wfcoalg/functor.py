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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any, Callable, Iterator, List, Optional, Tuple, Union

from .errors import CapExceeded, MalformedValue
from .finset import Carrier, FinMap, Subobject, capped_power, element_key

DEFAULT_ENUM_CAP = 100_000


# --- functor expressions ---------------------------------------------------

class FunctorExpr:
    """Base class; concrete nodes below."""

    def key(self):
        raise NotImplementedError


@dataclass(frozen=True)
class Const(FunctorExpr):
    values: Carrier

    def key(self):
        return ("Const", tuple(element_key(v) for v in self.values))


@dataclass(frozen=True)
class Id(FunctorExpr):
    def key(self):
        return ("Id",)


@dataclass(frozen=True)
class Sum(FunctorExpr):
    parts: Tuple[FunctorExpr, ...]

    def key(self):
        return ("Sum", tuple(p.key() for p in self.parts))


@dataclass(frozen=True)
class Prod(FunctorExpr):
    parts: Tuple[FunctorExpr, ...]

    def key(self):
        return ("Prod", tuple(p.key() for p in self.parts))


@dataclass(frozen=True)
class Exp(FunctorExpr):
    """arg ** alphabet: functions from a fixed finite alphabet."""

    alphabet: Carrier
    arg: FunctorExpr

    def __post_init__(self):
        if len(self.alphabet) == 0:
            raise ValueError("exponent alphabet must be nonempty")

    def key(self):
        return ("Exp", tuple(element_key(s) for s in self.alphabet), self.arg.key())


@dataclass(frozen=True)
class PowFin(FunctorExpr):
    arg: FunctorExpr

    def key(self):
        return ("PowFin", self.arg.key())


@dataclass(frozen=True)
class RFunctor(FunctorExpr):
    def key(self):
        return ("R",)


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
        return ("tup", tuple(v.key() for v in self.items))


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
        return ("set", tuple(v.key() for v in self.items))

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


# --- object action ----------------------------------------------------------

def size_obj(expr: FunctorExpr, n: int, cap: Optional[int] = None) -> int:
    """|F X| as a function of |X| = n.  With a cap, cap + 1 stands for any
    size above it, so no count grows past the cap (|P(P(P(X)))| included)."""
    def clip(size: int) -> int:
        return size if cap is None or size <= cap else cap + 1

    if isinstance(expr, Const):
        return clip(len(expr.values))
    if isinstance(expr, Id):
        return clip(n)
    if isinstance(expr, Sum):
        return clip(sum(size_obj(p, n, cap) for p in expr.parts))
    if isinstance(expr, Prod):
        total = 1
        for p in expr.parts:
            total = clip(total * size_obj(p, n, cap))
        return total
    if isinstance(expr, Exp):
        return capped_power(size_obj(expr.arg, n, cap), len(expr.alphabet), cap)
    if isinstance(expr, PowFin):
        return capped_power(2, size_obj(expr.arg, n, cap), cap)
    if isinstance(expr, RFunctor):
        return clip(n * (n - 1) + 1)
    raise TypeError(f"unknown functor node {expr!r}")


def eval_obj(expr: FunctorExpr, x: Carrier, cap: int = DEFAULT_ENUM_CAP) -> List[FValue]:
    """Enumerate all of F X, duplicate-free, in a deterministic order."""
    if size_obj(expr, len(x), cap) > cap:
        raise CapExceeded("functor enumeration", cap)
    return list(_enum(expr, x))


def _enum(expr: FunctorExpr, x: Carrier) -> Iterator[FValue]:
    if isinstance(expr, Const):
        for a in expr.values:
            yield ConstVal(a)
    elif isinstance(expr, Id):
        for a in x:
            yield IdVal(a)
    elif isinstance(expr, Sum):
        for i, p in enumerate(expr.parts):
            for v in _enum(p, x):
                yield InjVal(i, v)
    elif isinstance(expr, Prod):
        for combo in product(*(list(_enum(p, x)) for p in expr.parts)):
            yield TupleVal(combo)
    elif isinstance(expr, Exp):
        inner = list(_enum(expr.arg, x))
        letters = expr.alphabet.elements
        for combo in product(inner, repeat=len(letters)):
            yield FuncVal(tuple(zip(letters, combo)))
    elif isinstance(expr, PowFin):
        inner = sorted(_enum(expr.arg, x), key=lambda v: v.key())
        for mask in range(1 << len(inner)):
            yield SetVal(tuple(v for i, v in enumerate(inner) if mask >> i & 1))
    elif isinstance(expr, RFunctor):
        yield RPoint()
        for a in x:
            for b in x:
                if a != b:
                    yield RPair(a, b)
    else:
        raise TypeError(f"unknown functor node {expr!r}")


# --- morphism action ---------------------------------------------------------

MapLike = Union[FinMap, Callable[[Any], Any]]


def eval_map(expr: FunctorExpr, f: MapLike, v: FValue) -> FValue:
    """Apply F f to a value over the domain of f; f may be any callable."""
    fn = f
    if isinstance(expr, Const):
        if not isinstance(v, ConstVal):
            raise MalformedValue(f"expected constant value, got {v!r}")
        return v
    if isinstance(expr, Id):
        if not isinstance(v, IdVal):
            raise MalformedValue(f"expected identity value, got {v!r}")
        return IdVal(fn(v.element))
    if isinstance(expr, Sum):
        if not isinstance(v, InjVal) or not 0 <= v.index < len(expr.parts):
            raise MalformedValue(f"expected injection value, got {v!r}")
        return InjVal(v.index, eval_map(expr.parts[v.index], fn, v.value))
    if isinstance(expr, Prod):
        if not isinstance(v, TupleVal) or len(v.items) != len(expr.parts):
            raise MalformedValue(f"expected tuple value, got {v!r}")
        return TupleVal(tuple(eval_map(p, fn, c) for p, c in zip(expr.parts, v.items)))
    if isinstance(expr, Exp):
        if not isinstance(v, FuncVal):
            raise MalformedValue(f"expected function value, got {v!r}")
        return FuncVal(tuple((s, eval_map(expr.arg, fn, c)) for s, c in v.entries))
    if isinstance(expr, PowFin):
        if not isinstance(v, SetVal):
            raise MalformedValue(f"expected set value, got {v!r}")
        return SetVal.of(eval_map(expr.arg, fn, c) for c in v.items)
    if isinstance(expr, RFunctor):
        if isinstance(v, RPoint):
            return v
        if isinstance(v, RPair):
            a, b = fn(v.fst), fn(v.snd)
            return RPoint() if a == b else RPair(a, b)
        raise MalformedValue(f"expected R value, got {v!r}")
    raise TypeError(f"unknown functor node {expr!r}")


def check_value(expr: FunctorExpr, x: Carrier, v: FValue) -> None:
    """Raise MalformedValue unless v is a well-formed element of F X."""
    if isinstance(expr, Const):
        if not (isinstance(v, ConstVal) and v.atom in expr.values):
            raise MalformedValue(f"{v!r} is not a constant of the declared carrier")
    elif isinstance(expr, Id):
        if not (isinstance(v, IdVal) and v.element in x):
            raise MalformedValue(f"{v!r} is not an element of the carrier")
    elif isinstance(expr, Sum):
        if not (isinstance(v, InjVal) and 0 <= v.index < len(expr.parts)):
            raise MalformedValue(f"{v!r} is not a valid injection")
        check_value(expr.parts[v.index], x, v.value)
    elif isinstance(expr, Prod):
        if not (isinstance(v, TupleVal) and len(v.items) == len(expr.parts)):
            raise MalformedValue(f"{v!r} is not a valid tuple")
        for p, c in zip(expr.parts, v.items):
            check_value(p, x, c)
    elif isinstance(expr, Exp):
        if not isinstance(v, FuncVal):
            raise MalformedValue(f"{v!r} is not a function value")
        if tuple(s for s, _ in v.entries) != expr.alphabet.elements:
            raise MalformedValue(f"{v!r} does not cover the alphabet in order")
        for _, c in v.entries:
            check_value(expr.arg, x, c)
    elif isinstance(expr, PowFin):
        if not isinstance(v, SetVal):
            raise MalformedValue(f"{v!r} is not a set value")
        keys = [c.key() for c in v.items]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise MalformedValue(f"{v!r} is not in canonical set order")
        for c in v.items:
            check_value(expr.arg, x, c)
    elif isinstance(expr, RFunctor):
        if isinstance(v, RPoint):
            return
        if isinstance(v, RPair) and v.fst in x and v.snd in x:
            return
        raise MalformedValue(f"{v!r} is not a valid R value over the carrier")
    else:
        raise TypeError(f"unknown functor node {expr!r}")


# --- least supports and image membership -------------------------------------

def support(expr: FunctorExpr, x: Carrier, v: FValue) -> Subobject:
    """The least subset S of X with v in the image of F(S -> X)."""
    return Subobject(x, frozenset(_support_elems(expr, v)))


def _support_elems(expr: FunctorExpr, v: FValue) -> Iterator[Any]:
    if isinstance(expr, Const):
        return
    elif isinstance(expr, Id):
        yield v.element
    elif isinstance(expr, Sum):
        yield from _support_elems(expr.parts[v.index], v.value)
    elif isinstance(expr, Prod):
        for p, c in zip(expr.parts, v.items):
            yield from _support_elems(p, c)
    elif isinstance(expr, Exp):
        for _, c in v.entries:
            yield from _support_elems(expr.arg, c)
    elif isinstance(expr, PowFin):
        for c in v.items:
            yield from _support_elems(expr.arg, c)
    elif isinstance(expr, RFunctor):
        if isinstance(v, RPair):
            yield v.fst
            yield v.snd
    else:
        raise TypeError(f"unknown functor node {expr!r}")


def in_image(expr: FunctorExpr, s: Subobject, v: FValue) -> bool:
    """Is v in the image of F applied to the inclusion of s?"""
    return support(expr, s.of, v).members <= s.members


def in_image_brute(expr: FunctorExpr, s: Subobject, v: FValue,
                   cap: int = DEFAULT_ENUM_CAP) -> bool:
    """Image membership by enumerating F(S) and pushing along the inclusion."""
    incl = s.inclusion()
    for w in eval_obj(expr, s.as_carrier(), cap=cap):
        if eval_map(expr, incl, w) == v:
            return True
    return False


def preserves_inverse_images(expr: FunctorExpr) -> bool:
    """Structural verdict: true iff no R leaf occurs."""
    if isinstance(expr, RFunctor):
        return False
    if isinstance(expr, (Const, Id)):
        return True
    if isinstance(expr, (Sum, Prod)):
        return all(preserves_inverse_images(p) for p in expr.parts)
    if isinstance(expr, (Exp, PowFin)):
        return preserves_inverse_images(expr.arg)
    raise TypeError(f"unknown functor node {expr!r}")


def empty_is_preserved(expr: FunctorExpr) -> bool:
    """True iff F(empty) is empty."""
    return size_obj(expr, 0, cap=0) == 0
