"""Certified structured recursion, the initial-algebra chain, and oracles.

``hylo``/``para_hylo`` evaluate the unique coalgebra-to-algebra morphism of a
coalgebra whose well-foundedness has been verified (the termination
certificate).  ``initial_chain`` counts |W_{i+1}| = |F(W_i)|; its stages and
mu F are built only when read.  ``unfold_to_mu`` interns one node per distinct
closed term; its cycle report is final iff ``preserves_inverse_images(F)``.
``recursive_oracle``/``parametric_oracle`` decide the defining universal
quantification ("every algebra has exactly one solution") for every algebra on
each carrier up to a size bound: a verdict fails iff it has a witness, a
conclusive counterexample; a pass is evidence only.  Neither enumerates the
algebras.  A search over candidate maps (``search_tables``, shared with
``find_homs``) gives the table entries each candidate forces; every table has
exactly one solution iff the forced tables are pairwise incompatible and their
cylinders fill the table space.  Only where that fails is F(n) listed, for a
descent in lexicographic order to find the first table that does not, which is
the witness a scan of every table would report.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ._record import FrozenRecord
from .errors import (CapExceeded, CarrierMismatch, FunctorMismatch,
                     InternalConsistencyError, NotWellFounded)
from .finset import Carrier, FinMap, capped_power, check_bounds, element_key
from .functor import DEFAULT_ENUM_CAP, FunctorExpr, eval_map, eval_obj, size_obj
from .coalgebra import (DEFAULT_SEARCH_CAP, Algebra, Coalgebra, ParAlgebra,
                        canonical_graph, search_tables, solution_maps)


# --- certified evaluation -----------------------------------------------------

def hylo(coalg: Coalgebra, alg: Algebra) -> FinMap:
    """The unique morphism h = e . Fh . alpha, for well-founded input; a table
    algebra's step is one lookup of Fh(alpha a) in its table."""
    if coalg.functor != alg.functor:
        raise FunctorMismatch("coalgebra and algebra are over different functors")
    functor, e = coalg.functor, alg.operation
    return _evaluate(coalg, alg.carrier, lambda h, v, _a: e(eval_map(functor, h, v)))


def para_hylo(coalg: Coalgebra, target: Carrier,
              e: Union[ParAlgebra, Callable[[Any, Any], Any]]) -> FinMap:
    """The unique solution of h(a) = e(Fh(alpha(a)), a), for well-founded input."""
    functor = coalg.functor
    if not isinstance(e, ParAlgebra):
        return _evaluate(coalg, target, lambda h, v, a: e(eval_map(functor, h, v), a))
    if coalg.functor != e.functor:
        raise FunctorMismatch("coalgebra and paralgebra are over different functors")
    if target != e.target or not all(a in e.source for a in coalg.carrier):
        raise CarrierMismatch("the paralgebra is not from the coalgebra's states to the target")
    table = e.table
    return _evaluate(coalg, target, lambda h, v, a: table[eval_map(functor, h, v), a])


def _evaluate(coalg: Coalgebra, target: Carrier,
              step: Callable[[Callable, Any, Any], Any]) -> FinMap:
    h, cycle = _fold(coalg, step)
    if cycle is not None:
        raise NotWellFounded(
            f"no termination certificate: {cycle[0]!r} lies on a cycle "
            f"of the canonical graph ({' -> '.join(map(repr, cycle))})")
    result = FinMap(coalg.carrier, target, tuple(h[a] for a in coalg.carrier))
    for a in coalg.carrier:  # post-hoc soundness check of the square
        if result(a) != step(result, coalg.alpha(a), a):
            raise InternalConsistencyError(
                f"the evaluated map does not satisfy its equation at {a!r}")
    return result


def _fold(coalg: Coalgebra, step: Callable[[Callable, Any, Any], Any]
          ) -> Tuple[Optional[Dict[Any, Any]], Optional[List[Any]]]:
    """h(a) = step(h, alpha(a), a) for every state, memoized in the
    successors-first order of the rank pass over the canonical graph; or
    the graph's cycle witness when some state is unranked."""
    graph = canonical_graph(coalg)
    if not graph.is_acyclic():
        return None, graph.find_cycle()
    h: Dict[Any, Any] = {}
    for a in graph.ranking:
        h[a] = step(h.__getitem__, coalg.alpha(a), a)
    return h, None


# --- initial-algebra chain ----------------------------------------------------

class InitialChain(FrozenRecord):
    """Stages W_0 = empty, W_{i+1} = F(W_i) with connecting maps, over positions.

    ``sizes[i]`` is |W_i|.  Built when first read, against ``sizes``:
    ``stages[i + 1]``, F(range |W_i|) in ``element_key`` order, so each value names
    elements of W_i by position; ``maps[i]``, w_{i,i+1} as positions in stage
    i + 1.  ``stable_index`` (else None) is where a connecting map is a bijection,
    at the initial algebra (Lambek); ``cap_exceeded``, the error that stopped it early.
    """

    _fields = ("functor", "sizes", "stable_index", "cap_exceeded")

    @property
    def stabilized(self) -> bool:
        return self.stable_index is not None

    @cached_property
    def stages(self) -> Tuple[Tuple[Any, ...], ...]:
        stages: List[Tuple[Any, ...]] = [()]
        for size in self.sizes[1:]:
            n = len(stages[-1])
            if size_obj(self.functor, n, size) != size:  # counted before it is built
                raise InternalConsistencyError(f"W{len(stages)} is not of size {size}")
            values = eval_obj(self.functor, Carrier(tuple(range(n))), cap=size)
            stages.append(tuple(sorted(values, key=element_key)))
        return tuple(stages)

    @cached_property
    def maps(self) -> Tuple[Tuple[int, ...], ...]:
        s, maps, w = self.stages, [], ()
        for i in range(len(s) - 1):  # w_{i,i+1} = F(w_{i-1,i}), from the empty map
            pos = {v: j for j, v in enumerate(s[i + 1])}
            w = tuple(pos[eval_map(self.functor, w.__getitem__, v)] for v in s[i])
            if len(set(w)) != len(w):
                raise InternalConsistencyError(f"w_{i},{i + 1} is not injective")
            maps.append(w)
        return tuple(maps)

    def mu_coalgebra(self) -> Coalgebra:
        """The initial algebra, structure inverted, on the positions of the
        stable stage k: position j is the value ``stages[k + 1][maps[k][j]]``."""
        if not self.stabilized:
            raise ValueError("chain did not stabilize")
        k = self.stable_index
        return Coalgebra(self.functor, Carrier(tuple(range(self.sizes[k]))),
                         tuple(map(self.stages[k + 1].__getitem__, self.maps[k])))

    def mu_algebra(self) -> Algebra:
        """The initial algebra: the inverse of ``mu_coalgebra``'s structure."""
        mu = self.mu_coalgebra()
        return Algebra.from_table(self.functor, mu.carrier, dict(zip(mu.structure, mu.carrier)))


def initial_chain(functor: FunctorExpr, max_depth: int,
                  cap: int = DEFAULT_ENUM_CAP) -> InitialChain:
    check_bounds(max_depth=max_depth, cap=cap)
    sizes = [0]
    for i in range(max_depth + 1):
        sizes.append(size_obj(functor, sizes[i], cap))
        if sizes[-1] > cap:
            return InitialChain(functor, tuple(sizes[:-1]), None,
                                CapExceeded("functor enumeration", cap))
        if sizes[i] == sizes[-1]:  # F keeps injections: w_{i,i+1} is a bijection
            return InitialChain(functor, tuple(sizes), i, None)
    return InitialChain(functor, tuple(sizes), None, None)


# --- unfolding into the initial algebra ---------------------------------------

class UnfoldResult(FrozenRecord):
    """Either a total unfolding or a cycle witness.  ``nodes`` holds one
    F-value over node ids per distinct closed term, each after the nodes it
    names; ``mapping`` gives each state's node id.  Where F has an R leaf, so that
    ``preserves_inverse_images(F)`` fails, a cycle report is sound but incomplete:
    a coalgebra-to-algebra morphism into mu F may still exist (see find_homs).
    """

    _fields = ("nodes", "mapping", "cycle")

    def as_dict(self) -> Dict[Any, int]:
        return dict(self.mapping or ())


def unfold_to_mu(coalg: Coalgebra) -> UnfoldResult:
    """Unfold each state to its closed term when the canonical graph is acyclic.
    By induction on rank, two states get one node iff their terms are equal."""
    ids: Dict[Any, int] = {}
    h, cycle = _fold(coalg, lambda of, v, _a: ids.setdefault(
        eval_map(coalg.functor, of, v), len(ids)))
    if cycle is not None:
        return UnfoldResult(None, None, tuple(cycle))
    return UnfoldResult(tuple(ids), tuple((a, h[a]) for a in coalg.carrier), None)


# --- morphism search and oracles ------------------------------------------------

def find_homs(coalg: Coalgebra, alg: Algebra,
              cap: int = DEFAULT_SEARCH_CAP) -> List[FinMap]:
    """All coalgebra-to-algebra morphisms, in lexicographic table order."""
    if coalg.functor != alg.functor:
        raise FunctorMismatch("coalgebra and algebra are over different functors")

    def allowed(_a: Any, w: Any) -> Tuple[Any, ...]:
        x = alg.operation(w)
        return (x,) if x in alg.carrier else ()
    return solution_maps(coalg, alg.carrier, allowed, cap, "coalgebra-to-algebra search")


class OracleWitness(FrozenRecord):
    """``table`` is the algebra table that breaks uniqueness."""

    _fields = ("carrier", "table", "solution_count")


class OracleVerdict(FrozenRecord):
    """A fail iff ``witness`` is not None; ``complete``, every requested size decided."""

    _fields = ("witness", "sizes_checked", "complete")

    def passed(self) -> bool:
        return self.witness is None


def _oracle(coalg: Coalgebra, max_carrier: int, cap: int,
            parametric: bool) -> OracleVerdict:
    """Each candidate h: A -> X forces the algebra-table entries 'h is a
    solution' needs, keyed by the value w, or (w, a) when parametric; a
    table's solution count is the number of forced tables it extends.  A
    size passes when ``_partitioned`` holds of all the forced tables; only
    a failing size lists F(n), to find the first table whose count is not 1
    with ``_first_bad_table``."""
    check_bounds(max_carrier=max_carrier, cap=cap)
    sizes_checked: List[int] = []
    plan = canonical_graph(coalg).placement()

    def undecided() -> OracleVerdict:  # a cap binds: the size is not checked
        return OracleVerdict(None, tuple(sizes_checked), False)

    for n in range(max_carrier + 1):
        size = size_obj(coalg.functor, n, cap)  # counted before anything is listed
        if size > cap:
            return undecided()
        if not n and size:
            continue  # no algebra on the empty carrier
        if capped_power(n, len(coalg.carrier), cap) > cap or (
                parametric and size * len(coalg.carrier) > cap):
            return undecided()
        values = range(n)
        forced = list(search_tables(coalg, plan, values, lambda a, w: values,
                                    (lambda a, w: (w, a)) if parametric else
                                    (lambda a, w: w)))
        if len(forced) * (len(forced) - 1) // 2 > cap:
            return undecided()
        clash = [(i, j) for i, j in combinations(range(len(forced)), 2)
                 if all(forced[j].get(k, v) == v for k, v in forced[i].items())]
        live = {i: len(t) for i, t in enumerate(forced)}
        if _partitioned(n, live, clash):
            sizes_checked.append(n)
            continue
        x = Carrier(tuple(values))  # built at the failing size only, for the witness
        fx = sorted(eval_obj(coalg.functor, x, cap=cap), key=element_key)
        keys = [(w, a) for w in fx for a in coalg.carrier] if parametric else fx
        table, count = _first_bad_table(forced, n, keys, live, clash)
        witness = OracleWitness(x, tuple(zip(keys, table)), count)
        return OracleVerdict(witness, tuple(sizes_checked), False)
    return OracleVerdict(None, tuple(sizes_checked), True)


def _partitioned(n: int, live: Dict[int, int], clash: List[Tuple[int, int]]) -> bool:
    """Whether every table on the free keys extends exactly one forced table
    in ``live``, which maps each to its r entries on those keys: iff no
    ``clash`` pair is live and the cylinders of n ** (free - r) tables fill
    the n ** free, that is sum(n ** (m - r)) == n ** m for m = max r <= |A|."""
    if any(i in live and j in live for i, j in clash):
        return False
    m = max(live.values(), default=0)
    return sum(n ** (m - r) for r in live.values()) == n ** m


def _first_bad_table(forced: List[Dict[Any, Any]], n: int, keys: List[Any],
                     live: Dict[int, int], clash: List[Tuple[int, int]]
                     ) -> Tuple[Tuple[int, ...], int]:
    """The lexicographically first table keys -> range(n) that does not
    extend exactly one of the partial tables in ``forced``, with the number
    it extends, where ``live`` is not ``_partitioned``.  A prefix that is not
    holds a table that extends two (an overlap) or none (a gap), so the
    descent fixes the keys in order, each time stepping into the first child
    prefix that is not partitioned."""
    table = []
    for k in keys:
        for v in range(n):
            child = {i: r - (k in forced[i]) for i, r in live.items()
                     if forced[i].get(k, v) == v}
            # the prefix holds a bad table: under the last child if not before
            if v == n - 1 or not _partitioned(n, child, clash):
                break
        table.append(v)
        live = child
        clash = [(i, j) for i, j in clash if i in live and j in live]
    return tuple(table), len(live)


def recursive_oracle(coalg: Coalgebra, max_carrier: int,
                     cap: int = DEFAULT_SEARCH_CAP) -> OracleVerdict:
    """Check unique solvability against every algebra on carriers up to the bound."""
    return _oracle(coalg, max_carrier, cap, parametric=False)


def parametric_oracle(coalg: Coalgebra, max_carrier: int,
                      cap: int = DEFAULT_SEARCH_CAP) -> OracleVerdict:
    """As recursive_oracle, but the operation also sees the original state."""
    return _oracle(coalg, max_carrier, cap, parametric=True)
