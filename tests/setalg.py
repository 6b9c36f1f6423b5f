"""Set algebra the tests check the workbench against: pullbacks, direct and
inverse images, every map between two carriers, composition, the lattice
operations of subobjects and the coproduct of coalgebras.

None of it is on the path of a command; next-time, well-foundedness and the
searches are checked against these brute-force constructions.
"""

from itertools import product
from typing import Any, Callable, Iterator, Tuple

from wfcoalg import (Carrier, CarrierMismatch, Coalgebra, FinMap, FunctorExpr,
                     FunctorMismatch, Subobject, eval_map)
from wfcoalg.functor import check_value


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


def all_maps(dom: Carrier, cod: Carrier) -> Iterator[FinMap]:
    """All total maps dom -> cod in lexicographic table order."""
    for values in product(cod.elements, repeat=len(dom)):
        yield FinMap(dom, cod, values)


def from_callable(dom: Carrier, cod: Carrier, fn: Callable[[Any], Any]) -> FinMap:
    return FinMap(dom, cod, tuple(fn(x) for x in dom))


def compose(g: FinMap, f: FinMap) -> FinMap:
    """g after f: (g . f)(x) = g(f(x))."""
    if f.cod != g.dom:
        raise CarrierMismatch("composition domains do not match")
    return FinMap(f.dom, g.cod, tuple(g(v) for v in f.values))


def is_injective(f: FinMap) -> bool:
    return len(set(f.values)) == len(f.values)


def union(s: Subobject, t: Subobject) -> Subobject:
    if s.of != t.of:
        raise CarrierMismatch("subobjects of different carriers")
    return Subobject(s.of, s.members | t.members)


def intersection(s: Subobject, t: Subobject) -> Subobject:
    if s.of != t.of:
        raise CarrierMismatch("subobjects of different carriers")
    return Subobject(s.of, s.members & t.members)


def coproduct(c1: Coalgebra, c2: Coalgebra) -> Tuple[Coalgebra, FinMap, FinMap]:
    """Disjoint union with injected structures; returns both injections."""
    if c1.functor != c2.functor:
        raise FunctorMismatch("objects are over different functors")
    elems = tuple((0, a) for a in c1.carrier) + tuple((1, b) for b in c2.carrier)
    carrier = Carrier(elems)
    in1 = FinMap(c1.carrier, carrier, tuple((0, a) for a in c1.carrier))
    in2 = FinMap(c2.carrier, carrier, tuple((1, b) for b in c2.carrier))
    structure = tuple(eval_map(c1.functor, in1, c1.alpha(a)) for a in c1.carrier) + \
        tuple(eval_map(c2.functor, in2, c2.alpha(b)) for b in c2.carrier)
    return Coalgebra(c1.functor, carrier, structure), in1, in2


def in_image(expr: FunctorExpr, s: Subobject, v: Any) -> bool:
    """Is v in the image of F applied to the inclusion of s?"""
    return check_value(expr, s.of, v) <= s.members
