"""Compositional finite-set endofunctors and their values.

A ``FunctorExpr`` denotes an endofunctor on finite sets built from
constants, the identity, finite sums/products, finite exponents, the
finite powerset, and the special leaf ``RFunctor`` with

    R X = {(x, y) : x != y} + {d},
    R f (d) = d,
    R f (x, y) = d            if f merges x and y,
                 (f x, f y)   otherwise.

An element of F X is a plain hashable Python value: for ``Const`` the atom,
for ``Id`` the element of X, for ``Sum`` the pair ``(i, v)`` with v in the
i-th summand, for ``Prod`` the tuple of its components, for ``Exp`` the tuple
of its entries in alphabet order, for ``PowFin`` a ``frozenset``, and for
``RFunctor`` ``None`` (the point d) or the pair ``(x, y)``.  Equality and
hashing are Python's: two values of F X are equal iff they are the same
element, so a value keys a table as it is.

Each node kind owns its operations as methods: ``size`` (|F X|), ``enum`` (the
elements of F X), ``fmap`` (F f), ``render`` (the text form) and ``reader`` (its
inverse: ``reader(ids, push)`` is a closure ``read(tok, nxt)`` that gets a
value's first token, takes the rest from ``nxt``, looks elements up in ``ids``
and passes each to ``push``, so those of one value are its least support).  A
composite node recurses through its children's methods.  One rule answers
``preserves_inverse_images``: all direct subexpressions (``parts``) preserve;
only ``RFunctor`` overrides it.  ``Const.numeral(n)`` is the literal ``n``.
``fmap`` is the one walk over a value: it refuses a value of the wrong shape
(a tuple of the wrong length, a summand index out of range, a P value that is
no frozenset, an R pair with equal components) and an atom outside its
constant carrier.  ``check_value`` is ``fmap`` of the element test of X, which
refuses anything outside X and collects the least support.  Values are
ordered, for output and for positions, by ``element_key`` as elements are.
The module-level functions below are the entry points.
"""

from __future__ import annotations

import re
from itertools import product
from typing import Any, Callable, Dict, Iterator, List, Optional

from ._record import FrozenRecord
from .errors import CapExceeded, MalformedValue
from .finset import Carrier, Subobject, capped_power, check_bounds, element_key

DEFAULT_ENUM_CAP = 100_000
_TAG_RE = re.compile(r"in(\d+)")


def _clip(size: int, cap: Optional[int]) -> int:
    """cap + 1 stands for any size above the cap."""
    return size if cap is None or size <= cap else cap + 1


def _want(want: str, tok: str) -> None:
    """Refuse ``tok`` unless it is ``want``; hot readers compare first."""
    if tok != want:
        raise MalformedValue(f"expected {want!r}, found {tok!r}")


class FunctorExpr(FrozenRecord):
    """Base class; the concrete nodes below own the operations listed in
    the module docstring.  ``parts`` are a node's direct subexpressions."""

    parts: tuple = ()

    def preserves_inverse_images(self) -> bool:
        return all(p.preserves_inverse_images() for p in self.parts)


class Const(FunctorExpr):
    _fields = ("values",)

    @classmethod
    def numeral(cls, n: int) -> Const:  # the text form's literal n: u0 ... u(n-1)
        return cls(Carrier(tuple(f"u{i}" for i in range(n))))

    def size(self, n: int, cap: Optional[int]) -> int:
        return _clip(len(self.values), cap)

    def enum(self, x: Carrier) -> Iterator[Any]:
        return iter(self.values)

    def fmap(self, f: Callable[[Any], Any], v: Any) -> Any:
        try:
            if v in self.values._set:  # a frozenset: fmap is on every hylo path
                return v
        except TypeError:  # an unhashable value is no constant either
            pass
        raise MalformedValue(f"{v!r} is not a constant of the declared carrier")

    def render(self, v: Any) -> str:
        return str(v)

    def reader(self, ids: dict, push: Callable[[Any], Any]) -> Callable:
        table = {a: a for a in self.values}

        def read(tok, nxt):
            try:
                return table[tok]
            except KeyError:
                raise MalformedValue(f"{tok!r} is not a constant atom here") from None
        return read


class Id(FunctorExpr):
    def size(self, n: int, cap: Optional[int]) -> int:
        return _clip(n, cap)

    def enum(self, x: Carrier) -> Iterator[Any]:
        return iter(x)

    def fmap(self, f: Callable[[Any], Any], v: Any) -> Any:
        return f(v)

    render = Const.render

    def reader(self, ids: dict, push: Callable[[Any], Any]) -> Callable:
        def read(tok, nxt):
            try:
                v = ids[tok]
            except KeyError:
                raise MalformedValue(f"{tok!r} is not a carrier element") from None
            push(v)
            return v
        return read


class Sum(FunctorExpr):
    _fields = ("parts",)

    def size(self, n: int, cap: Optional[int]) -> int:
        return _clip(sum(p.size(n, cap) for p in self.parts), cap)

    def enum(self, x: Carrier) -> Iterator[Any]:
        for i, p in enumerate(self.parts):
            for v in p.enum(x):
                yield i, v

    def fmap(self, f: Callable[[Any], Any], v: Any) -> Any:
        if not (isinstance(v, tuple) and len(v) == 2 and type(v[0]) is int
                and 0 <= v[0] < len(self.parts)):
            raise MalformedValue(f"{v!r} is not a valid injection")
        i, w = v
        return i, self.parts[i].fmap(f, w)

    def render(self, v: Any) -> str:
        i, w = v
        return f"in{i} {self.parts[i].render(w)}"

    def reader(self, ids: dict, push: Callable[[Any], Any]) -> Callable:
        tags = {f"in{i}": (i, p.reader(ids, push)) for i, p in enumerate(self.parts)}

        def read(tok, nxt):
            tag = tags.get(tok)
            if tag is None:
                m = _TAG_RE.fullmatch(tok)  # "in01" also names in1
                tag = m and tags.get("in" + (m.group(1).lstrip("0") or "0"))
                if not tag:
                    raise MalformedValue(f"expected an injection tag, found {tok!r}")
            return tag[0], tag[1](nxt(), nxt)
        return read


class Prod(FunctorExpr):
    _fields = ("parts",)

    def size(self, n: int, cap: Optional[int]) -> int:
        total = 1
        for p in self.parts:
            total = _clip(total * p.size(n, cap), cap)
        return total

    def enum(self, x: Carrier) -> Iterator[Any]:
        return product(*(list(p.enum(x)) for p in self.parts))

    def fmap(self, f: Callable[[Any], Any], v: Any) -> Any:
        if not (isinstance(v, tuple) and len(v) == len(self.parts)):
            raise MalformedValue(f"{v!r} is not a valid tuple")
        return tuple([p.fmap(f, c) for p, c in zip(self.parts, v)])

    def render(self, v: Any) -> str:
        return "(" + ", ".join(p.render(c) for p, c in zip(self.parts, v)) + ")"

    def reader(self, ids: dict, push: Callable[[Any], Any]) -> Callable:
        parts = [p.reader(ids, push) for p in self.parts]

        def read(tok, nxt):
            if tok != "(":
                _want("(", tok)
            items = []
            for part in parts:
                if items and (tok := nxt()) != ",":
                    _want(",", tok)
                items.append(part(nxt(), nxt))
            if (tok := nxt()) != ")":
                _want(")", tok)
            return tuple(items)
        return read


class Exp(FunctorExpr):
    """arg ** alphabet: functions from a fixed finite alphabet, as the tuple
    of their entries in alphabet order."""

    _fields = ("alphabet", "arg")
    parts = property(lambda self: (self.arg,))

    def __init__(self, alphabet: Carrier, arg: FunctorExpr):
        if len(alphabet) == 0:
            raise ValueError("exponent alphabet must be nonempty")
        vars(self).update(alphabet=alphabet, arg=arg)

    def size(self, n: int, cap: Optional[int]) -> int:
        return capped_power(self.arg.size(n, cap), len(self.alphabet), cap)

    def enum(self, x: Carrier) -> Iterator[Any]:
        return product(list(self.arg.enum(x)), repeat=len(self.alphabet))

    def fmap(self, f: Callable[[Any], Any], v: Any) -> Any:
        if not (isinstance(v, tuple) and len(v) == len(self.alphabet)):
            raise MalformedValue(f"{v!r} is not one entry per alphabet letter")
        return tuple([self.arg.fmap(f, c) for c in v])

    def render(self, v: Any) -> str:
        return "[" + ", ".join(f"{s}: {self.arg.render(c)}"
                               for s, c in zip(self.alphabet, v)) + "]"

    def reader(self, ids: dict, push: Callable[[Any], Any]) -> Callable:
        letters = self.alphabet.elements
        known = frozenset(letters)
        arg = self.arg.reader(ids, push)

        def read(tok, nxt):
            if tok != "[":
                _want("[", tok)
            entries: Dict[Any, Any] = {}
            tok = nxt()
            while tok != "]":
                if entries:
                    if tok != ",":
                        _want(",", tok)
                    tok = nxt()
                if tok not in known:
                    raise MalformedValue(f"{tok!r} is not in the alphabet")
                if tok in entries:
                    raise MalformedValue(f"repeated alphabet entry {tok!r}")
                if (sep := nxt()) != ":":
                    _want(":", sep)
                entries[tok] = arg(nxt(), nxt)
                tok = nxt()
            if len(entries) < len(letters):
                missing = next(s for s in letters if s not in entries)
                raise MalformedValue(f"missing alphabet entry {missing!r}")
            return tuple(map(entries.__getitem__, letters))
        return read


class PowFin(FunctorExpr):
    _fields = ("arg",)
    parts = Exp.parts

    def size(self, n: int, cap: Optional[int]) -> int:
        return capped_power(2, self.arg.size(n, cap), cap)

    def enum(self, x: Carrier) -> Iterator[Any]:
        inner = sorted(self.arg.enum(x), key=element_key)
        for mask in range(1 << len(inner)):
            yield frozenset([v for i, v in enumerate(inner) if mask >> i & 1])

    def fmap(self, f: Callable[[Any], Any], v: Any) -> Any:
        if not isinstance(v, frozenset):
            raise MalformedValue(f"{v!r} is not a set value (a frozenset)")
        return frozenset([self.arg.fmap(f, c) for c in v])

    def render(self, v: Any) -> str:  # members in key order, not hash order
        return "{" + ", ".join(map(self.arg.render, sorted(v, key=element_key))) + "}"

    def reader(self, ids: dict, push: Callable[[Any], Any]) -> Callable:
        arg = self.arg.reader(ids, push)

        def read(tok, nxt):
            if tok != "{":
                _want("{", tok)
            items = []
            tok = nxt()
            while tok != "}":
                if items:
                    if tok != ",":
                        _want(",", tok)
                    tok = nxt()
                items.append(arg(tok, nxt))
                tok = nxt()
            return frozenset(items)
        return read


class RFunctor(FunctorExpr):
    def size(self, n: int, cap: Optional[int]) -> int:
        return _clip(n * (n - 1) + 1, cap)

    def enum(self, x: Carrier) -> Iterator[Any]:
        yield None
        for a in x:
            for b in x:
                if a != b:
                    yield a, b

    def fmap(self, f: Callable[[Any], Any], v: Any) -> Any:
        if v is None:
            return None
        if not (isinstance(v, tuple) and len(v) == 2 and v[0] != v[1]):
            raise MalformedValue(f"{v!r} is not a pair of distinct elements")
        a, b = f(v[0]), f(v[1])
        return None if a == b else (a, b)

    def render(self, v: Any) -> str:
        return "d" if v is None else f"({v[0]}, {v[1]})"

    def reader(self, ids: dict, push: Callable[[Any], Any]) -> Callable:
        def read(tok, nxt):
            if tok == "d":
                return None
            if tok != "(":
                raise MalformedValue(f"expected 'd' or a pair, found {tok!r}")
            x = nxt()
            _want(",", nxt())
            y = nxt()
            _want(")", nxt())
            for z, back in ((x, 3), (y, 1)):
                if z not in ids:
                    raise MalformedValue(f"{z!r} is not a carrier element", back)
            if x == y:
                raise MalformedValue("R pair components must be distinct", 3)
            x, y = ids[x], ids[y]
            push(x)
            push(y)
            return x, y
        return read

    def preserves_inverse_images(self) -> bool:  # Adámek, Lücke & Milius (2007)
        return False


# --- entry points -------------------------------------------------------------

def size_obj(expr: FunctorExpr, n: int, cap: Optional[int] = None) -> int:
    """|F X| as a function of |X| = n.  With a cap, cap + 1 stands for any
    size above it, so no count grows past the cap (|P(P(P(X)))| included)."""
    return expr.size(n, cap)


def eval_obj(expr: FunctorExpr, x: Carrier, cap: int = DEFAULT_ENUM_CAP) -> List[Any]:
    """Enumerate all of F X, duplicate-free, in a deterministic order."""
    check_bounds(cap=cap)
    if size_obj(expr, len(x), cap) > cap:
        raise CapExceeded("functor enumeration", cap)
    return list(expr.enum(x))


def eval_map(expr: FunctorExpr, f: Callable[[Any], Any], v: Any) -> Any:
    """Apply F f to a value of F(dom f); f may be any callable.  Raise
    MalformedValue on a value of the wrong shape or a foreign constant."""
    return expr.fmap(f, v)


def check_value(expr: FunctorExpr, x: Carrier, v: Any) -> frozenset:
    """The least support of v, the elements of X it mentions; raise
    MalformedValue unless v is a well-formed element of F X.  This is F
    applied to the element test of X, which collects what it passes."""
    out: List[Any] = []
    members = x._set

    def element(e: Any) -> Any:
        if e not in members:
            raise MalformedValue(f"{e!r} is not an element of the carrier")
        out.append(e)
        return e

    try:
        expr.fmap(element, v)
    except TypeError:  # a membership test met an unhashable part
        raise MalformedValue(f"{v!r} is not a hashable value") from None
    return frozenset(out)


def support(expr: FunctorExpr, x: Carrier, v: Any) -> Subobject:
    """The least subset S of X with v in the image of F(S -> X)."""
    return Subobject(x, check_value(expr, x, v))


def preserves_inverse_images(expr: FunctorExpr) -> bool:
    """Structural verdict: true iff no R leaf occurs."""
    return expr.preserves_inverse_images()
