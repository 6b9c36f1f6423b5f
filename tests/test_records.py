"""The value classes are plain classes: each behaves as the dataclass it
replaced, declared here as its twin, and importing the CLI loads neither
``dataclasses`` nor ``inspect``."""

import subprocess
import sys
from dataclasses import MISSING, field, fields as fields_of, make_dataclass
from pathlib import Path
from typing import Any

import pytest

from wfcoalg import (Algebra, CanonicalGraph, CapExceeded, Carrier, Coalgebra, Const, Exp,
                     FinMap, Id, InitialChain, OracleVerdict, OracleWitness, ParAlgebra,
                     PowFin, Prod, RFunctor, SpecDocument, Subobject, Sum, UnfoldResult,
                     WfPartResult)
from wfcoalg._record import Record
from wfcoalg.wellfounded import RankChain

A = Carrier(("a", "b"))
L = Carrier(("l",))
PX = PowFin(Id())
G = Coalgebra(PX, A, (frozenset(), frozenset({"a"})))
TOTAL = {frozenset(): "l", frozenset({"l"}): "l"}  # an algebra table over P(X) on L
FROZEN = {"frozen": True}


def _algebra_post_init(self):
    if (self.operation is None) == (self.table is None):
        raise ValueError("an algebra takes either an operation or a table")
    if self.table is not None:
        self.operation = self.table.__getitem__


# class, the twin's fields and flags as they were declared, the arguments of
# one value, and those of a value that differs from it in its first field
CASES = [
    (Carrier, ["elements"], FROZEN, (("a", "b"),), (("b", "a"),)),
    (FinMap, ["dom", "cod", "values"], FROZEN, (A, A, ("a", "a")), (L, A, ("b",))),
    (Subobject, ["of", ("members", frozenset, field(default_factory=frozenset))], FROZEN,
     (A, frozenset({"b"})), (L, frozenset({"l"}))),
    (Const, ["values"], FROZEN, (L,), (A,)),
    (Id, [], FROZEN, (), None),
    (Sum, ["parts"], FROZEN, ((Id(), Const(L)),), ((Id(),),)),
    (Prod, ["parts"], FROZEN, ((Id(), Const(L)),), ((Id(),),)),
    (Exp, ["alphabet", "arg"], FROZEN, (L, Id()), (A, Id())),
    (PowFin, ["arg"], FROZEN, (Id(),), (RFunctor(),)),
    (RFunctor, [], FROZEN, (), None),
    (Coalgebra, ["functor", "carrier", "structure"], FROZEN,
     (PX, A, (frozenset(), frozenset({"a"}))), (RFunctor(), A, (None, None))),
    (Algebra, ["functor", "carrier", ("operation", Any, None),
               ("table", Any, field(default=None, repr=False))],
     {"eq": False, "namespace": {"__post_init__": _algebra_post_init}},
     (PX, L, None, TOTAL), (Id(), L, None, {"l": "l"})),
    (ParAlgebra, ["functor", "target", "source", "table"], {},
     (PX, L, A, {(frozenset(), "a"): "l"}), (Id(), L, A, {})),
    (CanonicalGraph, ["vertices", "succ"], FROZEN,
     (A, (("a", frozenset()), ("b", frozenset({"a"})))), (L, (("l", frozenset()),))),
    (InitialChain, ["functor", "sizes", "stable_index", "cap_exceeded"], FROZEN,
     (PX, (0, 1, 2), None, CapExceeded("functor enumeration", 9)), (Id(), (0, 0), 0, None)),
    (UnfoldResult, ["nodes", "mapping", "cycle"], FROZEN,
     ((frozenset(),), (("a", 0),), None), (None, None, ("a",))),
    (OracleWitness, ["carrier", "table", "solution_count"], FROZEN,
     (L, ((frozenset(), "l"),), 2), (A, (), 0)),
    (OracleVerdict, ["witness", "sizes_checked", "complete"], FROZEN,
     (OracleWitness(L, (), 0), (0, 1), False), (None, (0, 1, 2), True)),
    (WfPartResult, ["coalgebra", "part", ("chain", Any, field(compare=False))], FROZEN,
     (G, Subobject(A, frozenset({"a", "b"})), RankChain(A, {"a": 0, "b": 1})),
     (Coalgebra(PX, L, (frozenset(),)), Subobject(A), RankChain(L, {"l": 0}))),
    (SpecDocument, ["functor",
                    *[(name, Any, field(default_factory=dict))
                      for name in ("carriers", "coalgebras", "algebras", "paralgebras")],
                    ("description", str, "")], {},
     (PX, {"A": A}, {"G": G}, {}, {}, "a graph"), (Id(),)),
]


def twin_of(cls, fields, flags):
    return make_dataclass(cls.__name__, fields, **flags)


def names_of(fields):
    return [f if isinstance(f, str) else f[0] for f in fields]


def field_values(value, names):
    return [getattr(value, name) for name in names]


def built(cls, args, names):
    """The field values of cls(*args), or the message of its ValueError."""
    try:
        return field_values(cls(*args), names)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("cls, fields, flags, args, other", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_a_value_class_behaves_as_its_dataclass_twin(cls, fields, flags, args, other):
    twin, names = twin_of(cls, fields, flags), names_of(fields)
    ours, theirs = cls(*args), twin(*args)
    assert field_values(ours, names) == field_values(theirs, names)
    assert repr(ours) == repr(theirs)
    by_name = cls(**dict(zip(names, args)))
    assert field_values(by_name, names) == field_values(ours, names)
    required = sum(f.default is f.default_factory is MISSING for f in fields_of(twin))
    assert built(cls, args[:required], names) == built(twin, args[:required], names)

    assert (ours == cls(*args)) == (theirs == twin(*args))
    assert (ours != cls(*args)) == (theirs != twin(*args))
    if other is not None:
        assert (ours == cls(*other), theirs == twin(*other)) == (False, False)
    assert ours != theirs and ours != args and ours == ours

    if twin.__hash__ is None:
        with pytest.raises(TypeError):
            hash(ours)
    elif twin.__hash__ is object.__hash__:  # equal only to itself
        assert cls.__hash__ is object.__hash__
    else:
        assert hash(ours) == hash(theirs)

    name = names[0] if names else "anything"
    if flags.get("frozen"):
        for value in (ours, theirs):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert field_values(ours, names) == field_values(cls(*args), names)
    else:
        for value in (ours, theirs):
            setattr(value, name, "set")
        assert field_values(ours, names) == field_values(theirs, names)


@pytest.mark.parametrize("cls, fields, flags, args, other", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_a_value_class_refuses_what_its_dataclass_twin_refuses(cls, fields, flags, args, other):
    twin, names = twin_of(cls, fields, flags), names_of(fields)
    calls = [(args + (None,), {}), (args, {"nonesuch": None})]  # one too many, unknown
    if names:  # the first field by position and by name
        calls.append((args, {names[0]: args[0]}))
    if names and all(f.default is f.default_factory is MISSING for f in fields_of(twin)):
        calls.append((args[:-1], {}))  # the last field missing
    for call_args, kwargs in calls:
        with pytest.raises(TypeError):
            twin(*call_args, **kwargs)
        with pytest.raises(TypeError) as refused:
            cls(*call_args, **kwargs)
        if cls.__init__ is Record.__init__:  # the shared constructor names class and fields
            assert str(refused.value) == f"{cls.__name__} takes ({', '.join(names)}), each once"


def test_values_of_different_classes_are_unequal():
    assert Id() != RFunctor() and hash(Id()) == hash(RFunctor())
    assert Sum((Id(),)) != Prod((Id(),))
    assert Carrier(("a",)) != ("a",)


def test_the_excluded_fields_stay_excluded():
    part = Subobject(A, frozenset({"a", "b"}))
    assert WfPartResult(G, part, RankChain(A, {"a": 0, "b": 1})) == \
        WfPartResult(G, part, RankChain(A, {}))
    alg = Algebra(PX, L, table=TOTAL)
    assert "table" not in repr(alg) and alg != Algebra(PX, L, table=TOTAL)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = Path(__file__).resolve().parents[1] / "src"
    script = ("import sys\n"
              f"sys.path.insert(0, {str(src)!r})\n"
              "import wfcoalg.cli\n"
              "wfcoalg.cli.build_parser()\n"
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", script],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
