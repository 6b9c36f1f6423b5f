"""Seeded random generators shared by the property and acceptance suites."""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from wfcoalg import (Carrier, Coalgebra, Const, Exp, FinMap, FunctorExpr, Id,
                     PowFin, Prod, RFunctor, Sum, eval_obj)
from wfcoalg.functor import size_obj

ATOMS = ("p", "q", "r")


def random_functor(rng: random.Random, depth: int = 2,
                   allow_r: bool = True) -> FunctorExpr:
    kinds = ["Id", "Const"]
    if allow_r:
        kinds.append("R")
    if depth > 0:
        kinds += ["Sum", "Prod", "Exp", "PowFin"]
    kind = rng.choice(kinds)
    if kind == "Id":
        return Id()
    if kind == "Const":
        return Const(Carrier(ATOMS[:rng.randint(1, 3)]))
    if kind == "R":
        return RFunctor()
    if kind == "Sum":
        return Sum(tuple(random_functor(rng, depth - 1, allow_r)
                         for _ in range(rng.randint(2, 3))))
    if kind == "Prod":
        return Prod(tuple(random_functor(rng, depth - 1, allow_r)
                          for _ in range(2)))
    if kind == "Exp":
        return Exp(Carrier(ATOMS[:rng.randint(1, 2)]),
                   random_functor(rng, depth - 1, allow_r))
    return PowFin(random_functor(rng, depth - 1, allow_r))


def bounded_functor(rng: random.Random, depth: int = 2, carrier_size: int = 4,
                    size_cap: int = 1024, allow_r: bool = True) -> FunctorExpr:
    """A random functor with |F(X)| within the cap at the given carrier size
    and F(X) nonempty."""
    while True:
        expr = random_functor(rng, depth, allow_r)
        n = size_obj(expr, carrier_size, cap=size_cap)
        if 0 < n <= size_cap:
            return expr


def random_coalgebra(rng: random.Random, functor: FunctorExpr,
                     carrier: Carrier) -> Coalgebra:
    values = eval_obj(functor, carrier)
    return Coalgebra(functor, carrier,
                     tuple(rng.choice(values) for _ in carrier))


def random_instance(rng: random.Random, depth: int = 2, max_size: int = 4,
                    size_cap: int = 1024,
                    allow_r: bool = True) -> Coalgebra:
    size = rng.randint(1, max_size)
    functor = bounded_functor(rng, depth, size, size_cap, allow_r)
    carrier = Carrier(tuple(range(size)))
    return random_coalgebra(rng, functor, carrier)


def random_map(rng: random.Random, dom: Carrier, cod: Carrier) -> FinMap:
    return FinMap(dom, cod, tuple(rng.choice(cod.elements) for _ in dom))
