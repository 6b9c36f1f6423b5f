"""Certified structured recursion, the initial-algebra chain, and oracles.

``hylo``/``para_hylo`` evaluate the unique coalgebra-to-algebra morphism
of a coalgebra whose well-foundedness has been verified (the termination
certificate).  ``recursive_oracle``/``parametric_oracle`` are brute-force
finite truncations of the defining universal quantification: a fail is a
conclusive counterexample, a pass is evidence only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any, Callable, Dict, List, Optional, Tuple

from .errors import (CapExceeded, FunctorMismatch, InternalConsistencyError,
                     NotWellFounded)
from .finset import Carrier, FinMap, all_maps
from .functor import (DEFAULT_ENUM_CAP, FunctorExpr, FValue, eval_map,
                      eval_obj, preserves_inverse_images)
from .coalgebra import Algebra, Coalgebra, canonical_graph

DEFAULT_ORACLE_CAP = 10_000_000

Term = FValue  # an element of some chain stage W_i is a closed F-tree


# --- certified evaluation -----------------------------------------------------

def hylo(coalg: Coalgebra, alg: Algebra) -> FinMap:
    """The unique morphism h with h = e . Fh . alpha, for well-founded input."""
    if coalg.functor != alg.functor:
        raise FunctorMismatch("coalgebra and algebra are over different functors")
    return _evaluate(coalg, alg.carrier, lambda value, _a: alg.apply(value))


def para_hylo(coalg: Coalgebra, target: Carrier,
              e: Callable[[FValue, Any], Any]) -> FinMap:
    """The unique solution of h(a) = e(Fh(alpha(a)), a), for well-founded input."""
    return _evaluate(coalg, target, e)


def _evaluate(coalg: Coalgebra, target: Carrier,
              step: Callable[[FValue, Any], Any]) -> FinMap:
    h, cycle = _fold(coalg, step)
    if cycle is not None:
        raise NotWellFounded(
            f"no termination certificate: {cycle[0]!r} lies on a cycle "
            f"of the canonical graph ({' -> '.join(map(repr, cycle))})")
    result = FinMap(coalg.carrier, target, tuple(h[a] for a in coalg.carrier))
    for a in coalg.carrier:  # post-hoc soundness check of the square
        if result(a) != step(eval_map(coalg.functor, result, coalg.alpha(a)), a):
            raise InternalConsistencyError(
                f"the evaluated map does not satisfy its equation at {a!r}")
    return result


def _fold(coalg: Coalgebra, step: Callable[[FValue, Any], Any]
          ) -> Tuple[Optional[Dict[Any, Any]], Optional[List[Any]]]:
    """h(a) = step(Fh(alpha(a)), a) for every state, memoized in the
    successors-first order of the rank pass over the canonical graph; or
    the graph's cycle witness when some state is unranked."""
    graph = canonical_graph(coalg)
    if not graph.is_acyclic():
        return None, graph.find_cycle()
    h: Dict[Any, Any] = {}
    for a in graph.ranking[1]:
        h[a] = step(eval_map(coalg.functor, h.__getitem__, coalg.alpha(a)), a)
    return h, None


# --- initial-algebra chain ----------------------------------------------------

@dataclass(frozen=True)
class InitialChain:
    """Stages W_0 = empty, W_{i+1} = F(W_i) with connecting maps.

    ``maps[i]`` is w_{i,i+1}: W_i -> W_{i+1}; the chain stabilizes at the
    first index whose connecting map is a bijection, and that stage is the
    initial algebra (Lambek).
    """

    functor: FunctorExpr
    stages: Tuple[Carrier, ...]
    maps: Tuple[FinMap, ...]
    stabilized: bool
    stable_index: Optional[int] = None

    def mu_carrier(self) -> Carrier:
        if not self.stabilized:
            raise ValueError("chain did not stabilize")
        return self.stages[self.stable_index]

    def mu_algebra(self, cap: int = DEFAULT_ENUM_CAP) -> Algebra:
        """The initial algebra: the inverse of the stabilizing bijection."""
        mu = self.mu_carrier()
        w = self.maps[self.stable_index]
        inverse = {w(t): t for t in mu}
        return Algebra.from_table(self.functor, mu, {
            v: inverse[v] for v in eval_obj(self.functor, mu, cap=cap)})

    def mu_coalgebra(self) -> Coalgebra:
        """The initial algebra as a coalgebra (structure inverted)."""
        mu = self.mu_carrier()
        w = self.maps[self.stable_index]
        return Coalgebra(self.functor, mu, tuple(w(t) for t in mu))


def initial_chain(functor: FunctorExpr, max_depth: int,
                  cap: int = DEFAULT_ENUM_CAP) -> InitialChain:
    stages: List[Carrier] = [Carrier.empty()]
    maps: List[FinMap] = []
    for i in range(max_depth + 1):
        try:
            values = eval_obj(functor, stages[i], cap=cap)
        except CapExceeded:
            break
        nxt = Carrier(tuple(sorted(values, key=lambda v: v.key())))
        if i == 0:
            w = FinMap(stages[0], nxt, ())
        else:
            w = FinMap(stages[i], nxt, tuple(
                eval_map(functor, maps[i - 1], v) for v in stages[i]))
        stages.append(nxt)
        maps.append(w)
        if len(stages[i]) == len(nxt) and w.is_injective():
            return InitialChain(functor, tuple(stages), tuple(maps), True, i)
    return InitialChain(functor, tuple(stages), tuple(maps), False)


# --- unfolding into the term algebra ------------------------------------------

@dataclass(frozen=True)
class UnfoldResult:
    """Either a total unfolding into closed terms or a cycle witness.

    For functors with an R leaf a cycle report is sound but incomplete: a
    coalgebra-to-algebra morphism into the initial algebra may still exist
    (search with find_homs).
    """

    mapping: Optional[Tuple[Tuple[Any, Term], ...]]
    cycle: Optional[Tuple[Any, ...]]
    complete: bool

    def as_dict(self) -> Dict[Any, Term]:
        return dict(self.mapping or ())


def unfold_to_mu(coalg: Coalgebra) -> UnfoldResult:
    """Unfold each state to its closed term when the canonical graph is acyclic."""
    h, cycle = _fold(coalg, lambda value, _a: value)
    complete = preserves_inverse_images(coalg.functor)
    if cycle is not None:
        return UnfoldResult(None, tuple(cycle), complete)
    return UnfoldResult(tuple((a, h[a]) for a in coalg.carrier), None, complete)


# --- brute-force morphism search and oracles -----------------------------------

def find_homs(coalg: Coalgebra, alg: Algebra,
              cap: int = DEFAULT_ORACLE_CAP) -> List[FinMap]:
    """All coalgebra-to-algebra morphisms, in lexicographic table order."""
    if coalg.functor != alg.functor:
        raise FunctorMismatch("coalgebra and algebra are over different functors")
    candidates = len(alg.carrier) ** len(coalg.carrier)
    if candidates > cap:
        raise CapExceeded("coalgebra-to-algebra search", candidates, cap)
    found = []
    for h in all_maps(coalg.carrier, alg.carrier):
        if all(h(a) == alg.apply(eval_map(coalg.functor, h, coalg.alpha(a)))
               for a in coalg.carrier):
            found.append(h)
    return found


@dataclass(frozen=True)
class OracleWitness:
    carrier: Carrier
    table: tuple  # the algebra table that breaks uniqueness
    solution_count: int


@dataclass(frozen=True)
class OracleVerdict:
    status: str  # "pass" or "fail"
    witness: Optional[OracleWitness]
    sizes_checked: Tuple[int, ...]
    complete: bool  # every requested size fully enumerated

    def passed(self) -> bool:
        return self.status == "pass"


def _solution_constraints(coalg: Coalgebra, x: Carrier,
                          position: Dict[Any, int],
                          parametric: bool) -> List[Tuple[Tuple[int, Any], ...]]:
    """For every candidate map h: A -> X, the algebra-table entries forced by
    'h is a solution'.  Internally conflicting candidates are dropped."""
    out = []
    elems = coalg.carrier.elements
    for values in product(x.elements, repeat=len(elems)):
        h = dict(zip(elems, values))
        forced: Dict[int, Any] = {}
        ok = True
        for a, ha in zip(elems, values):
            w = eval_map(coalg.functor, h.__getitem__, coalg.alpha(a))
            p = position[(w, a)] if parametric else position[w]
            if forced.get(p, ha) != ha:
                ok = False
                break
            forced[p] = ha
        if ok:
            out.append(tuple(forced.items()))
    return out


def _oracle(coalg: Coalgebra, max_carrier: int, cap: int,
            parametric: bool) -> OracleVerdict:
    sizes_checked: List[int] = []
    for n in range(max_carrier + 1):
        x = Carrier(tuple(range(n)))
        try:
            fx = sorted(eval_obj(coalg.functor, x, cap=cap), key=lambda v: v.key())
        except CapExceeded:
            return OracleVerdict("pass", None, tuple(sizes_checked), False)
        if n == 0:
            if fx:
                continue  # no algebra on the empty carrier
            count = 1 if len(coalg.carrier) == 0 else 0
            if count != 1:
                witness = OracleWitness(x, (), count)
                return OracleVerdict("fail", witness, tuple(sizes_checked), False)
            sizes_checked.append(0)
            continue
        if parametric:
            keys = [(w, a) for w in fx for a in coalg.carrier]
        else:
            keys = list(fx)
        tables = n ** len(keys)
        if tables > cap:
            return OracleVerdict("pass", None, tuple(sizes_checked), False)
        position = {k: i for i, k in enumerate(keys)}
        constraints = _solution_constraints(coalg, x, position, parametric)
        for table in product(x.elements, repeat=len(keys)):
            count = 0
            for forced in constraints:
                for p, v in forced:
                    if table[p] != v:
                        break
                else:
                    count += 1
            if count != 1:
                witness = OracleWitness(x, tuple(zip(keys, table)), count)
                return OracleVerdict("fail", witness,
                                     tuple(sizes_checked), False)
        sizes_checked.append(n)
    return OracleVerdict("pass", None, tuple(sizes_checked), True)


def recursive_oracle(coalg: Coalgebra, max_carrier: int,
                     cap: int = DEFAULT_ORACLE_CAP) -> OracleVerdict:
    """Check unique solvability against every algebra on carriers up to the bound."""
    return _oracle(coalg, max_carrier, cap, parametric=False)


def parametric_oracle(coalg: Coalgebra, max_carrier: int,
                      cap: int = DEFAULT_ORACLE_CAP) -> OracleVerdict:
    """As recursive_oracle, but the operation also sees the original state."""
    return _oracle(coalg, max_carrier, cap, parametric=True)
