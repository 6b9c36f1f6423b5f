"""Worked examples shipped with the tool.

Each builder returns plain library objects so tests and the CLI share one
fixture set: the four-vertex graph G, the pair-or-point counterexample
coalgebra, Quicksort as a hylomorphism on the subcoalgebra its input lists
generate (so it builds only their sublists), factorial and Fibonacci as
parametric recursion, a deterministic automaton, and a labelled
transition system for the next-time operator.
"""

from __future__ import annotations

import sys
from itertools import accumulate
from operator import mul
from typing import Any, Iterable, Optional, Tuple

from .errors import CapExceeded
from .finset import Carrier, Subobject
from .functor import Const, Exp, Id, PowFin, Prod, RFunctor, Sum
from .coalgebra import DEFAULT_SEARCH_CAP, Algebra, Coalgebra, generated

UNIT = Const.numeral(1).values


def graph_g() -> Coalgebra:
    """The graph a -> b; c <-> d as a powerset coalgebra."""
    carrier = Carrier(("a", "b", "c", "d"))
    table = {"a": {"b"}, "b": set(), "c": {"d"}, "d": {"c"}}
    return Coalgebra.from_dict(PowFin(Id()), carrier,
                               {v: frozenset(table[v]) for v in carrier})


def r_coalgebra() -> Coalgebra:
    """Two states, both mapped to the pair (0, 1): recursive, not well-founded."""
    carrier = Carrier((0, 1))
    return Coalgebra(RFunctor(), carrier, ((0, 1), (0, 1)))


def quicksort(seeds: Iterable[Tuple[Any, ...]], cap: int = DEFAULT_SEARCH_CAP):
    """The split coalgebra generated by the lists ``seeds`` and the merge algebra
    on the sorted images of its states.  The states are sublists, so memory is
    the sum of their lengths: ``split`` adds the letters of its two sublists to
    a count it checks against ``cap`` before it builds them."""
    seeds = tuple(seeds)
    letters = Carrier(tuple(sorted({x for w in seeds for x in w})))
    functor = Sum((Const(UNIT), Prod((Const(letters), Id(), Id()))))
    spent = 0

    def split(w):
        nonlocal spent
        if not w:
            return 0, "u0"
        spent += len(w) - 1
        if spent > cap:
            raise CapExceeded("letters of the quicksort sublists", cap)
        head, rest = w[0], w[1:]
        small = tuple(x for x in rest if x <= head)
        large = tuple(x for x in rest if x > head)
        return 1, (head, small, large)

    def merge(v):
        i, w = v
        if i == 0:
            return ()
        head, left, right = w
        return left + (head,) + right

    coalg = generated(functor, seeds, split)
    images = dict.fromkeys(tuple(sorted(w)) for w in coalg.carrier)
    return coalg, Algebra(functor, Carrier(tuple(images)), merge)


def predecessor(n_max: int) -> Coalgebra:
    """The coalgebra n -> n-1 (halting at 0) for X + 1."""
    functor = Sum((Id(), Const(UNIT)))
    carrier = Carrier(tuple(range(n_max + 1)))
    return Coalgebra(functor, carrier, tuple(
        (1, "u0") if n == 0 else (0, n - 1) for n in carrier))


def _printable_values(values: Iterable[int], what: str) -> Carrier:
    """The distinct values, in first-seen order, as a carrier.  Each is
    checked as it is produced: one with more decimal digits than int-to-str
    conversion allows (sys.get_int_max_str_digits) raises CapExceeded, so a
    result too long to print stops before any coalgebra is built."""
    limit = sys.get_int_max_str_digits()
    bound = 10 ** limit if limit else None
    seen = {}
    for v in values:
        if bound is not None and abs(v) >= bound:
            raise CapExceeded(f"decimal digits of a {what} value", limit)
        seen[v] = None
    return Carrier(tuple(seen))


def factorial_scheme(n_max: int, cap: Optional[int] = None):
    """Predecessor coalgebra plus the parametric step computing n!; the
    target is the distinct values 0!, ..., n_max!; a cap bounds its n_max + 1 states."""
    if cap is not None and n_max + 1 > cap:
        raise CapExceeded("states of the factorial coalgebra", cap)
    target = _printable_values(accumulate(range(1, n_max + 1), mul, initial=1),
                               "factorial")
    coalg = predecessor(n_max)

    def step(v, n):
        i, w = v
        return w * n if i == 0 else 1

    return coalg, target, step


def fibonacci_coalgebra(n_max: int) -> Coalgebra:
    """n -> (n-1, n-2) with halting states 0 and 1, for X*X + 1."""
    functor = Sum((Prod((Id(), Id())), Const(UNIT)))
    carrier = Carrier(tuple(range(n_max + 1)))
    return Coalgebra(functor, carrier, tuple(
        (1, "u0") if n <= 1 else (0, (n - 1, n - 2)) for n in carrier))


def _fibonacci(n_max: int, a0: int, a1: int):
    for _ in range(n_max + 1):
        yield a0
        a0, a1 = a1, a0 + a1


def fibonacci_scheme(n_max: int, a0: int, a1: int, cap: Optional[int] = None):
    """Fibonacci coalgebra plus the parametric step from a0, a1; the target
    is the distinct values of the sequence up to index n_max; a cap bounds
    its n_max + 1 states."""
    if cap is not None and n_max + 1 > cap:
        raise CapExceeded("states of the Fibonacci coalgebra", cap)
    target = _printable_values(_fibonacci(n_max, a0, a1), "Fibonacci")
    coalg = fibonacci_coalgebra(n_max)

    def step(v, n):
        i, w = v
        if i == 0:
            return w[0] + w[1]
        return a0 if n == 0 else a1 if n == 1 else 0

    return coalg, target, step


def automaton() -> Coalgebra:
    """A two-state deterministic automaton: nonempty, hence not well-founded."""
    sigma = Carrier(("p", "q"))
    flags = Carrier(("0", "1"))
    functor = Prod((Const(flags), Exp(sigma, Id())))
    carrier = Carrier(("s0", "s1"))
    delta = {("s0", "p"): "s1", ("s0", "q"): "s0",
             ("s1", "p"): "s1", ("s1", "q"): "s0"}
    final = {"s0": "0", "s1": "1"}
    return Coalgebra(functor, carrier, tuple(
        (final[s], tuple(delta[(s, a)] for a in sigma)) for s in carrier))


def transition_system():
    """A labelled transition system plus a subset for the next-time demo."""
    sigma = Carrier(("p", "q"))
    functor = PowFin(Prod((Const(sigma), Id())))
    carrier = Carrier(("s0", "s1", "s2"))
    steps = {"s0": [("p", "s1"), ("q", "s2")], "s1": [("p", "s2")], "s2": []}
    coalg = Coalgebra(functor, carrier, tuple(frozenset(steps[s]) for s in carrier))
    subset = Subobject.of_members(carrier, ("s2",))
    return coalg, subset
