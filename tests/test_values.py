"""Values of F X are plain Python values: their order is the former one, and
the Python API refuses a malformed one with MalformedValue, also under -O."""

import random
import subprocess
import sys
from pathlib import Path

import pytest

from wfcoalg import (Algebra, Carrier, Coalgebra, Const, Exp, Id, MalformedValue, PowFin,
                     Prod, RFunctor, Sum, element_key, eval_map, eval_obj, parse_functor,
                     render_value)
from wfcoalg.functor import check_value, size_obj

from generators import random_functor
from test_functor_nodes import nodes
from values import POINT, const, elem, fset, fun, inj, pair, tup


def has_powerset(expr):
    return any(isinstance(e, PowFin) for e in nodes(expr))


def test_generated_enumerations_are_duplicate_free_counted_and_ordered():
    """eval_obj is duplicate-free and of length size_obj; element_key orders F X
    strictly.  Without P, eval_obj lists F X in that order (over a carrier in
    element_key order); P lists its subsets by bit mask, as it always has."""
    rng = random.Random(71)
    kinds = {True: 0, False: 0}
    for _ in range(150):
        f = random_functor(rng, depth=2)
        for x in (Carrier(()), Carrier((0, 1)), Carrier(("a", "b", "c"))):
            if size_obj(f, len(x), 2000) > 2000:
                continue
            values = eval_obj(f, x)
            assert len(values) == len(set(values)) == size_obj(f, len(x))
            keys = sorted(map(element_key, values))
            assert all(a < b for a, b in zip(keys, keys[1:]))
            if not has_powerset(f):
                assert list(map(element_key, values)) == keys
            kinds[has_powerset(f)] += 1
    assert kinds[True] > 50 and kinds[False] > 50


PINNED = {
    "P(1 + X)": ["{}", "{in0 u0}", "{in1 a}", "{in0 u0, in1 a}", "{in1 b}",
                 "{in0 u0, in1 b}", "{in1 a, in1 b}", "{in0 u0, in1 a, in1 b}"],
    "R + 1": ["in0 d", "in0 (a, b)", "in0 (b, a)", "in1 u0"],
    "X ^ S * 2": ["([s: a, t: a], u0)", "([s: a, t: a], u1)", "([s: a, t: b], u0)",
                  "([s: a, t: b], u1)", "([s: b, t: a], u0)", "([s: b, t: a], u1)",
                  "([s: b, t: b], u0)", "([s: b, t: b], u1)"],
}


@pytest.mark.parametrize("text", PINNED)
def test_enumeration_order_is_pinned(text):
    f = parse_functor(text, {"S": Carrier(("s", "t"))})
    assert [render_value(f, v) for v in eval_obj(f, Carrier(("a", "b")))] == PINNED[text]


# --- malformed values -----------------------------------------------------------------

X = Carrier(("a", "b"))
L = Carrier(("l", "m"))
MALFORMED = [
    ("an R pair with equal components", RFunctor(), pair("a", "a")),
    ("an R pair with a component outside the carrier", RFunctor(), pair("a", "z")),
    ("an R value that is not a pair", RFunctor(), ("a", "b", "a")),
    ("a Sum index out of range", Sum((Id(), Id())), inj(2, elem("a"))),
    ("a negative Sum index", Sum((Id(), Id())), inj(-1, elem("a"))),
    ("a Sum index that is not an int", Sum((Id(), Id())), (True, elem("a"))),
    ("a Prod tuple too short", Prod((Id(), Id())), tup(elem("a"))),
    ("a Prod tuple too long", Prod((Id(), Id())), tup(elem("a"), elem("b"), elem("a"))),
    ("an Exp tuple of the wrong length", Exp(L, Id()), fun(elem("a"))),
    ("a P value given as a list", PowFin(Id()), [elem("a")]),
    ("a P value given as a set", PowFin(Id()), {elem("a")}),
    ("a P member outside the carrier", PowFin(Id()), fset(elem("z"))),
    ("a Const atom outside its carrier", Const(L), const("z")),
    ("an unhashable Const atom", Const(L), [const("l")]),
    ("an unhashable element", Prod((Id(), Id())), tup(elem("a"), [elem("b")])),
]
# eval_map knows no carrier X, so it refuses only the values of the wrong shape
# and the atoms outside their constant carriers
SHAPED_RIGHT = {"an R pair with a component outside the carrier", "a P member outside the carrier",
                "an unhashable element"}


@pytest.mark.parametrize("what, functor, value", MALFORMED, ids=[m[0] for m in MALFORMED])
def test_the_api_refuses_a_malformed_value(what, functor, value):
    with pytest.raises(MalformedValue):
        check_value(functor, X, value)
    with pytest.raises(MalformedValue):
        Coalgebra(functor, Carrier(("a",)), (value,))
    try:
        table = {value: "a"}
    except TypeError:  # no table can hold an unhashable key
        return
    with pytest.raises(MalformedValue):
        Algebra.from_table(functor, X, table)


@pytest.mark.parametrize("what, functor, value",
                         [m for m in MALFORMED if m[0] not in SHAPED_RIGHT],
                         ids=[m[0] for m in MALFORMED if m[0] not in SHAPED_RIGHT])
def test_eval_map_refuses_a_value_of_the_wrong_shape(what, functor, value):
    with pytest.raises(MalformedValue):
        eval_map(functor, lambda a: a, value)


def test_well_formed_values_pass():
    for functor, value in [(RFunctor(), POINT), (RFunctor(), pair("a", "b")),
                           (Sum((Id(), Id())), inj(1, elem("b"))),
                           (Exp(L, Id()), fun(elem("a"), elem("b"))),
                           (PowFin(Prod((Const(L), Id()))), fset(tup("l", "a"), tup("m", "a")))]:
        check_value(functor, X, value)


def test_the_api_refuses_malformed_values_under_optimization():
    """The refusals are exceptions, not asserts: the same cases under python -O."""
    here = Path(__file__).resolve().parent
    script = (
        "import sys\n"
        f"sys.path[:0] = [{str(here)!r}, {str(here.parent / 'src')!r}]\n"
        "assert False, 'asserts are on'\n")
    result = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True)
    assert result.returncode == 0, result.stderr  # -O really drops asserts
    script += (
        "from test_values import MALFORMED, X\n"
        "from test_values import SHAPED_RIGHT\n"
        "from wfcoalg import MalformedValue\n"
        "from wfcoalg.functor import check_value, eval_map\n"
        "for what, functor, value in MALFORMED:\n"
        "    try:\n"
        "        check_value(functor, X, value)\n"
        "    except MalformedValue:\n"
        "        print('refused', what)\n"
        "    try:\n"
        "        eval_map(functor, lambda a: a, value)\n"
        "    except MalformedValue:\n"
        "        print('map refused', what)\n")
    result = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                            text=True, check=True)
    expected = []
    for what, _, _ in MALFORMED:
        expected += [f"refused {what}"] + ([] if what in SHAPED_RIGHT else [f"map refused {what}"])
    assert result.stdout.splitlines() == expected
