"""Each library refusal: the exception type and its message, on the smallest
input that reaches it."""

import pytest

from wfcoalg import (Algebra, CapExceeded, Carrier, CarrierMismatch, Coalgebra, Exp,
                     FinMap, FunctorMismatch, Id, ParAlgebra, PowFin, Subobject,
                     element_key, enumerate_homs, find_homs, hylo, initial_chain,
                     is_coalgebra_hom, next_time, para_hylo, quotient)

A, B = Carrier(("a",)), Carrier(("b",))
AB = Carrier(("a", "b"))
P = PowFin(Id())
EMPTY = Coalgebra(P, A, (frozenset(),))  # a -> {}
ON_ID = Algebra(Id(), A, lambda v: v)
LOOPS = Coalgebra(P, AB, (frozenset({"a"}), frozenset({"b"})))


@pytest.mark.parametrize("call, error, message", [
    (lambda: hylo(EMPTY, ON_ID), FunctorMismatch,
     "coalgebra and algebra are over different functors"),
    (lambda: para_hylo(EMPTY, A, ParAlgebra(Id(), A, A, {("a", "a"): "a"})), FunctorMismatch,
     "coalgebra and paralgebra are over different functors"),
    (lambda: find_homs(EMPTY, ON_ID), FunctorMismatch,
     "coalgebra and algebra are over different functors"),
    (lambda: is_coalgebra_hom(FinMap.identity(B), EMPTY, EMPTY), CarrierMismatch,
     "map endpoints do not match the coalgebras"),
    (lambda: next_time(EMPTY, Subobject.full(B)), CarrierMismatch,
     "subobject is not of the coalgebra carrier"),
    (lambda: quotient(EMPTY, FinMap.identity(B)), CarrierMismatch,
     "surjection domain is not the coalgebra carrier"),
    (lambda: Subobject.full(A) <= Subobject.full(B), CarrierMismatch,
     "subobjects of different carriers"),
    (lambda: quotient(EMPTY, FinMap(A, AB, ("a",))), ValueError,
     "quotient map must be surjective"),
    (lambda: list(enumerate_homs(LOOPS, LOOPS, cap=3)), CapExceeded,
     "homomorphism search: more than 3"),
    (lambda: Coalgebra(P, AB, (frozenset(),)), ValueError,
     "structure table does not cover the carrier"),
    (lambda: Algebra.from_table(Id(), A, {"a": "z"}), ValueError,
     "algebra result 'z' outside the carrier"),
    (lambda: Carrier(("a", "a")), ValueError, "carrier has duplicate elements"),
    (lambda: FinMap(AB, A, ("a",)), ValueError, "map table does not cover the domain"),
    (lambda: FinMap(A, A, ("z",)), ValueError, "image element 'z' not in codomain"),
    (lambda: FinMap.inclusion(AB, A), ValueError, "'b' not in the larger carrier"),
    (lambda: Subobject(A, frozenset({"z"})), ValueError,
     "member 'z' outside the ambient carrier"),
    (lambda: Exp(Carrier(()), Id()), ValueError, "exponent alphabet must be nonempty"),
    (lambda: initial_chain(P, 1).mu_coalgebra(), ValueError, "chain did not stabilize"),
    (lambda: element_key(1.5), TypeError, "unorderable carrier element: 1.5"),
], ids=["hylo-functor", "para_hylo-functor", "find_homs-functor",
        "is_coalgebra_hom-carrier", "next_time-carrier", "quotient-carrier",
        "subobject-le-carrier", "quotient-not-surjective", "enumerate_homs-cap",
        "short-structure", "algebra-result", "duplicate-elements", "finmap-short",
        "finmap-image", "inclusion", "subobject-member", "exp-empty-alphabet",
        "mu-unstable", "element-key"])
def test_a_refusal_names_its_cause(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
