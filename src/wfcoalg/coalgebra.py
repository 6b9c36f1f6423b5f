"""Coalgebras, algebras, the next-time operator, and canonical graphs."""

from __future__ import annotations

from functools import cached_property
from typing import (Any, Callable, Collection, Dict, Iterator, List, Optional,
                    Tuple)

from ._record import FrozenRecord, Record
from .errors import (CapExceeded, CarrierMismatch, FunctorMismatch,
                     IncompatibleQuotient)
from .finset import Carrier, FinMap, Subobject, capped_power, check_bounds, element_key
from .functor import FunctorExpr, check_value, eval_map, eval_obj, size_obj

DEFAULT_SEARCH_CAP = 10_000_000  # maps searched: homs, find_homs, oracles, --max-enum


class Coalgebra(FrozenRecord):
    """A carrier together with a total structure map into F(carrier).

    ``structure`` holds values of F(carrier), aligned with the carrier order.
    ``supports``, aligned likewise, holds the least support of each state's
    value, which ``check_value`` (F applied to the element test of the
    carrier) collects as it validates the value."""

    _fields = ("functor", "carrier", "structure")

    def __init__(self, functor: FunctorExpr, carrier: Carrier, structure: Tuple[Any, ...]):
        if len(structure) != len(carrier):
            raise ValueError("structure table does not cover the carrier")
        supports = tuple(check_value(functor, carrier, v) for v in structure)
        vars(self).update(functor=functor, carrier=carrier, structure=structure,
                          supports=supports, _alpha=dict(zip(carrier.elements, structure)))

    @classmethod
    def _parsed(cls, functor: FunctorExpr, carrier: Carrier, structure: Tuple[Any, ...],
                supports: Tuple[frozenset, ...]) -> "Coalgebra":
        """A coalgebra of values a document reader built in F(carrier), with the
        least supports it collected: ``__init__`` would check them again."""
        self = object.__new__(cls)
        self.__dict__.update(functor=functor, carrier=carrier, structure=structure,
                             supports=supports, _alpha=dict(zip(carrier.elements, structure)))
        return self

    @staticmethod
    def from_dict(functor: FunctorExpr, carrier: Carrier, table: Dict[Any, Any]) -> "Coalgebra":
        return Coalgebra(functor, carrier, tuple(table[a] for a in carrier))

    def alpha(self, a: Any) -> Any:
        return self._alpha[a]


class Algebra(Record):
    """A carrier together with e: F(carrier) -> carrier.

    The operation is either an explicit table over the whole of
    eval_obj(F, carrier), whose lookup it is, or a total callable for carriers
    too large to tabulate.  A table's results lie in the carrier, and its keys,
    taken to be in F(carrier) (``from_table`` checks them), count |F(carrier)|.
    Equal only to itself; the repr leaves the table out.
    """

    _fields = ("functor", "carrier", "operation")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, functor: FunctorExpr, carrier: Carrier,
                 operation: Optional[Callable[[Any], Any]] = None,
                 table: Optional[Dict[Any, Any]] = None):
        if (operation is None) == (table is None):
            raise ValueError("an algebra takes either an operation or a table")
        if table is not None:
            for x in table.values():
                if x not in carrier:
                    raise ValueError(f"algebra result {x!r} outside the carrier")
            if size_obj(functor, len(carrier), len(table)) > len(table):
                try:
                    gap = next(v for v in eval_obj(functor, carrier) if v not in table)
                except CapExceeded:
                    raise ValueError("algebra table is not total") from None
                raise ValueError(f"algebra table is not total; missing {functor.render(gap)}")
        self.functor, self.carrier, self.table = functor, carrier, table
        self.operation = operation if table is None else table.__getitem__

    @staticmethod
    def from_table(functor: FunctorExpr, carrier: Carrier,
                   table: Dict[Any, Any]) -> "Algebra":
        """The algebra of a copy of ``table``, each key checked in F(carrier)."""
        for v in table:
            check_value(functor, carrier, v)
        return Algebra(functor, carrier, table=dict(table))


class ParAlgebra(Record):
    """A pointwise table for parametric recursion: (F-value, state) -> result."""

    _fields = ("functor", "target", "source", "table")


class CanonicalGraph(FrozenRecord):
    """Successor structure extracted from a coalgebra via least supports:
    ``succ`` pairs each vertex, in vertex order, with its successors."""

    _fields = ("vertices", "succ")

    def __init__(self, vertices: Carrier, succ: Tuple[Tuple[Any, frozenset], ...]):
        vars(self).update(vertices=vertices, succ=succ, _succ=dict(succ))

    def successors(self, a: Any) -> frozenset:
        return self._succ[a]

    def _place(self) -> Iterator[List[Any]]:
        """The placement engine: one FIFO Kahn pass over the reversed edges, in
        segments of vertices placed settled, after their successors.  When none
        is ready, a segment starts with one placed unsettled: the first vertex of
        the cycle that ``_walk`` closes from the first unplaced vertex.  The walk
        is kept, cut before its first newly placed vertex: its steps up to there
        are still to the least unplaced successor, as in a fresh walk."""
        pending = {v: len(succ) for v, succ in self.succ}
        preds: Dict[Any, List[Any]] = {v: [] for v in self.vertices}
        for v, succ in self.succ:
            for w in succ:
                preds[w].append(v)
        placed: set = set()
        walk: Dict[Any, int] = {}

        def settle(segment: List[Any]) -> Iterator[List[Any]]:
            for w in segment:  # grows while it is walked: a queue
                for v in preds[w]:
                    pending[v] -= 1
                    if not pending[v]:
                        segment.append(v)
            yield segment
            placed.update(segment)
            keep = min((walk[w] for w in segment if w in walk), default=len(walk))
            while len(walk) > keep:
                walk.popitem()

        yield from settle([v for v in self.vertices if not pending[v]])
        for start in self.vertices:
            while start not in placed:
                walk.setdefault(start, 0)  # a walk left over starts at start
                cut = self._walk(walk, placed)
                pending[cut] = 0  # only falls from here: it is queued once
                yield from settle([cut])

    def _walk(self, walk: Dict[Any, int], excluded: Collection) -> Any:
        """Extend the nonempty ``walk`` (vertex -> step at which it was reached)
        by steps to the least successor outside ``excluded`` (by ``element_key``)
        until it meets itself; return the vertex met, which starts the cycle."""
        v = next(reversed(walk))
        while True:
            v = min((w for w in self._succ[v] if w not in excluded), key=element_key)
            if v in walk:
                return v
            walk[v] = len(walk)

    @cached_property
    def ranking(self) -> Dict[Any, int]:
        """The first segment of the placement, successors first, ranked once per
        graph: 0 without successors, else 1 + the largest rank of a successor."""
        rank: Dict[Any, int] = {}
        of, succ = rank.__getitem__, self._succ
        for v in next(self._place()):
            rank[v] = 1 + max(map(of, succ[v])) if succ[v] else 0
        return rank

    def placement(self) -> List[Tuple[Any, bool, Tuple[Any, ...]]]:
        """Every vertex as a step (vertex, settled, after) of ``_place``;
        ``after`` lists the unsettled vertices whose last successor it places."""
        segments = list(self._place())
        position = {v: i for i, v in enumerate(v for s in segments for v in s)}
        after: Dict[Any, List[Any]] = {v: [] for v in position}
        for s in segments[1:]:
            after[max(self._succ[s[0]], key=position.__getitem__)].append(s[0])
        return [(v, k == 0 or i > 0, tuple(after[v]))
                for k, s in enumerate(segments) for i, v in enumerate(s)]

    def find_cycle(self) -> Optional[List[Any]]:
        """A vertex cycle if one exists, else None: the first unranked vertex's
        ``_walk`` past the ranked ones."""
        for v in self.vertices:
            if v not in self.ranking:
                walk = {v: 0}
                met = self._walk(walk, self.ranking)
                return list(walk)[walk[met]:]
        return None

    def is_acyclic(self) -> bool:
        return len(self.ranking) == len(self.vertices)

    def topological_order(self) -> List[Any]:
        """Vertices ordered successors-first; raises on a cycle."""
        if not self.is_acyclic():
            raise ValueError(f"graph has a cycle through {self.find_cycle()[0]!r}")
        return list(self.ranking)


def _require_same_functor(a: Coalgebra, b) -> None:
    if a.functor != b.functor:
        raise FunctorMismatch("objects are over different functors")


def is_coalgebra_hom(f: FinMap, src: Coalgebra, dst: Coalgebra) -> bool:
    _require_same_functor(src, dst)
    if f.dom != src.carrier or f.cod != dst.carrier:
        raise CarrierMismatch("map endpoints do not match the coalgebras")
    return all(eval_map(src.functor, f, src.alpha(a)) == dst.alpha(f(a))
               for a in src.carrier)


def next_time(coalg: Coalgebra, s: Subobject) -> Subobject:
    """States whose structure value is supported inside s."""
    if s.of != coalg.carrier:
        raise CarrierMismatch("subobject is not of the coalgebra carrier")
    return Subobject(coalg.carrier, frozenset(
        a for a, supp in zip(coalg.carrier, coalg.supports) if supp <= s.members))


def canonical_graph(coalg: Coalgebra) -> CanonicalGraph:
    return CanonicalGraph(coalg.carrier, tuple(zip(coalg.carrier, coalg.supports)))


def induced_subcoalgebra(coalg: Coalgebra, s: Subobject) -> Optional[Coalgebra]:
    """The restriction of the structure to s when s <= next_time(s), else None."""
    if not s <= next_time(coalg, s):
        return None
    sub = s.as_carrier()
    return Coalgebra(coalg.functor, sub, tuple(coalg.alpha(a) for a in sub))


def is_subcoalgebra(coalg: Coalgebra, s: Subobject) -> bool:
    return s <= next_time(coalg, s)


def is_cartesian(coalg: Coalgebra, s: Subobject) -> bool:
    """Is s a fixed point of the next-time operator?"""
    return s == next_time(coalg, s)


def quotient(coalg: Coalgebra, e: FinMap) -> Coalgebra:
    """The strong quotient along a compatible surjection e."""
    if e.dom != coalg.carrier:
        raise CarrierMismatch("surjection domain is not the coalgebra carrier")
    if not e.is_surjective():
        raise ValueError("quotient map must be surjective")
    pushed: Dict[Any, Tuple[Any, Any]] = {}
    for a in coalg.carrier:
        image = eval_map(coalg.functor, e, coalg.alpha(a))
        b = e(a)
        if b in pushed and pushed[b][1] != image:
            raise IncompatibleQuotient(pushed[b][0], a)
        pushed.setdefault(b, (a, image))
    return Coalgebra(coalg.functor, e.cod, tuple(pushed[b][1] for b in e.cod))


def enumerate_homs(src: Coalgebra, dst: Coalgebra,
                   cap: int = DEFAULT_SEARCH_CAP) -> List[FinMap]:
    """The list of all coalgebra homomorphisms src -> dst, in lexicographic
    table order."""
    _require_same_functor(src, dst)
    preimages: Dict[Any, List[Any]] = {}
    for b in dst.carrier:
        preimages.setdefault(dst.alpha(b), []).append(b)
    return solution_maps(src, dst.carrier, lambda a, w: preimages.get(w, ()),
                         cap, "homomorphism search")


# --- candidate search ---------------------------------------------------------

def solution_maps(coalg: Coalgebra, target: Carrier, allowed: Callable[[Any, Any], Collection],
                  cap: int, what: str) -> List[FinMap]:
    """Every h: A -> target with h(a) in allowed(a, Fh(alpha a)) at each
    state a, in lexicographic table order; the |target| ** |A| candidates
    are counted against ``cap`` first, and ``what`` names the search."""
    check_bounds(cap=cap)
    if capped_power(len(target), len(coalg.carrier), cap) > cap:
        raise CapExceeded(what, cap)
    index = {x: i for i, x in enumerate(target)}
    tables = search_tables(coalg, canonical_graph(coalg).placement(), target, allowed)
    rows = sorted((tuple(h[a] for a in coalg.carrier) for h in tables),
                  key=lambda row: [index[x] for x in row])
    return [FinMap(coalg.carrier, target, row) for row in rows]


def search_tables(coalg: Coalgebra, plan: List[Tuple[Any, bool, Tuple[Any, ...]]],
                  target: Collection, allowed: Callable[[Any, Any], Collection],
                  key: Callable[[Any, Any], Any] = lambda a, w: a
                  ) -> Iterator[Dict[Any, Any]]:
    """Backtracking search for every h: A -> target such that, at each state
    a with w = Fh(alpha a), h(a) is in allowed(a, w), and h takes one value
    per key: h(a) = h(b) whenever key(a, w) = key(b, Fh(alpha b)).

    Yields the table key -> value of each solution, in no fixed order; with
    the default key, the state itself, that table is h.  States are assigned
    in the order of ``plan``, ``canonical_graph(coalg).placement()``: the one
    placement pass over the canonical graph that also gives the ranks, the
    cycle witness and the evaluation order.  Each state's condition is checked
    once h is defined on the state and its support; a settled state takes only
    allowed(a, w) for the one w computed on entry.
    """
    if not plan:
        yield {}
        return
    functor, alpha = coalg.functor, coalg.alpha
    h: Dict[Any, Any] = {}
    table: Dict[Any, Any] = {}
    keyed: List[List[Any]] = [[] for _ in plan]  # table keys each step added

    def options(i: int) -> Iterator[Tuple[Any, Any]]:
        a, settled, _ = plan[i]
        if not settled:
            return ((x, None) for x in target)
        w = eval_map(functor, h.__getitem__, alpha(a))
        return ((x, w) for x in allowed(a, w))

    def unkey(i: int) -> None:
        for k in keyed[i]:
            del table[k]
        keyed[i].clear()

    def keeps(i: int, b: Any, w: Any) -> bool:
        k = key(b, w)
        if k not in table:
            table[k] = h[b]
            keyed[i].append(k)
        return table[k] == h[b]

    def holds(i: int, b: Any) -> bool:
        w = eval_map(functor, h.__getitem__, alpha(b))
        return h[b] in allowed(b, w) and keeps(i, b, w)

    stack = [options(0)]
    while stack:
        i = len(stack) - 1
        a, settled, after = plan[i]
        for x, w in stack[i]:
            unkey(i)
            h[a] = x
            if (not settled or keeps(i, a, w)) and all(holds(i, b) for b in after):
                break
        else:
            unkey(i)
            stack.pop()
            continue
        if i + 1 < len(plan):
            stack.append(options(i + 1))
        else:
            yield dict(table)
