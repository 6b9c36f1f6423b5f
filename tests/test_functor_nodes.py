"""Each functor node's methods against the module-level isinstance chains
they replace, on generated functors (R, Const and nested Exp/PowFin
included) over carriers of size 0 to 3."""

import random
import sys
from itertools import product

from wfcoalg import (Algebra, Carrier, Const, ConstVal, Exp, FinMap, FuncVal, Id,
                     IdVal, InjVal, MalformedValue, PowFin, Prod, RFunctor, RPair,
                     RPoint, SetVal, Subobject, Sum, TupleVal, eval_map, eval_obj, hylo,
                     para_hylo, parse_functor, parse_spec, preserves_inverse_images,
                     render_value, support)
from wfcoalg import functor as functor_module
from wfcoalg.demos import quicksort
from wfcoalg.finset import capped_power
from wfcoalg.functor import check_value, size_obj

from generators import bounded_functor, random_functor, random_map
from test_functor import _disorder


# --- test-only references: the former dispatch chains ---------------------------

def size_ref(expr, n, cap=None):
    def clip(size):
        return size if cap is None or size <= cap else cap + 1

    if isinstance(expr, Const):
        return clip(len(expr.values))
    if isinstance(expr, Id):
        return clip(n)
    if isinstance(expr, Sum):
        return clip(sum(size_ref(p, n, cap) for p in expr.parts))
    if isinstance(expr, Prod):
        total = 1
        for p in expr.parts:
            total = clip(total * size_ref(p, n, cap))
        return total
    if isinstance(expr, Exp):
        return capped_power(size_ref(expr.arg, n, cap), len(expr.alphabet), cap)
    if isinstance(expr, PowFin):
        return capped_power(2, size_ref(expr.arg, n, cap), cap)
    if isinstance(expr, RFunctor):
        return clip(n * (n - 1) + 1)
    raise TypeError(f"unknown functor node {expr!r}")


def enum_ref(expr, x):
    if isinstance(expr, Const):
        for a in expr.values:
            yield ConstVal(a)
    elif isinstance(expr, Id):
        for a in x:
            yield IdVal(a)
    elif isinstance(expr, Sum):
        for i, p in enumerate(expr.parts):
            for v in enum_ref(p, x):
                yield InjVal(i, v)
    elif isinstance(expr, Prod):
        for combo in product(*(list(enum_ref(p, x)) for p in expr.parts)):
            yield TupleVal(combo)
    elif isinstance(expr, Exp):
        inner = list(enum_ref(expr.arg, x))
        letters = expr.alphabet.elements
        for combo in product(inner, repeat=len(letters)):
            yield FuncVal(tuple(zip(letters, combo)))
    elif isinstance(expr, PowFin):
        inner = sorted(enum_ref(expr.arg, x), key=lambda v: v.key())
        for mask in range(1 << len(inner)):
            yield SetVal(tuple(v for i, v in enumerate(inner) if mask >> i & 1))
    elif isinstance(expr, RFunctor):
        yield RPoint()
        for a in x:
            for b in x:
                if a != b:
                    yield RPair(a, b)
    else:
        raise TypeError(f"unknown functor node {expr!r}")


def eval_map_ref(expr, fn, v):
    if isinstance(expr, Const):
        if not isinstance(v, ConstVal):
            raise MalformedValue(f"expected constant value, got {v!r}")
        return v
    if isinstance(expr, Id):
        if not isinstance(v, IdVal):
            raise MalformedValue(f"expected identity value, got {v!r}")
        return IdVal(fn(v.element))
    if isinstance(expr, Sum):
        if not isinstance(v, InjVal) or not 0 <= v.index < len(expr.parts):
            raise MalformedValue(f"expected injection value, got {v!r}")
        return InjVal(v.index, eval_map_ref(expr.parts[v.index], fn, v.value))
    if isinstance(expr, Prod):
        if not isinstance(v, TupleVal) or len(v.items) != len(expr.parts):
            raise MalformedValue(f"expected tuple value, got {v!r}")
        return TupleVal(tuple(eval_map_ref(p, fn, c) for p, c in zip(expr.parts, v.items)))
    if isinstance(expr, Exp):
        if not isinstance(v, FuncVal):
            raise MalformedValue(f"expected function value, got {v!r}")
        return FuncVal(tuple((s, eval_map_ref(expr.arg, fn, c)) for s, c in v.entries))
    if isinstance(expr, PowFin):
        if not isinstance(v, SetVal):
            raise MalformedValue(f"expected set value, got {v!r}")
        return SetVal.of(eval_map_ref(expr.arg, fn, c) for c in v.items)
    if isinstance(expr, RFunctor):
        if isinstance(v, RPoint):
            return v
        if isinstance(v, RPair):
            a, b = fn(v.fst), fn(v.snd)
            return RPoint() if a == b else RPair(a, b)
        raise MalformedValue(f"expected R value, got {v!r}")
    raise TypeError(f"unknown functor node {expr!r}")


def check_ref(expr, x, v):
    """The former check, which returned nothing, then the least support."""
    well_formed_ref(expr, x, v)
    return frozenset(support_ref(expr, v))


def well_formed_ref(expr, x, v):
    if isinstance(expr, Const):
        if not (isinstance(v, ConstVal) and v.atom in expr.values):
            raise MalformedValue(f"{v!r} is not a constant of the declared carrier")
    elif isinstance(expr, Id):
        if not (isinstance(v, IdVal) and v.element in x):
            raise MalformedValue(f"{v!r} is not an element of the carrier")
    elif isinstance(expr, Sum):
        if not (isinstance(v, InjVal) and 0 <= v.index < len(expr.parts)):
            raise MalformedValue(f"{v!r} is not a valid injection")
        well_formed_ref(expr.parts[v.index], x, v.value)
    elif isinstance(expr, Prod):
        if not (isinstance(v, TupleVal) and len(v.items) == len(expr.parts)):
            raise MalformedValue(f"{v!r} is not a valid tuple")
        for p, c in zip(expr.parts, v.items):
            well_formed_ref(p, x, c)
    elif isinstance(expr, Exp):
        if not isinstance(v, FuncVal):
            raise MalformedValue(f"{v!r} is not a function value")
        if tuple(s for s, _ in v.entries) != expr.alphabet.elements:
            raise MalformedValue(f"{v!r} does not cover the alphabet in order")
        for _, c in v.entries:
            well_formed_ref(expr.arg, x, c)
    elif isinstance(expr, PowFin):
        if not isinstance(v, SetVal):
            raise MalformedValue(f"{v!r} is not a set value")
        keys = [c.key() for c in v.items]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise MalformedValue(f"{v!r} is not in canonical set order")
        for c in v.items:
            well_formed_ref(expr.arg, x, c)
    elif isinstance(expr, RFunctor):
        if isinstance(v, RPoint):
            return
        if isinstance(v, RPair) and v.fst in x and v.snd in x:
            return
        raise MalformedValue(f"{v!r} is not a valid R value over the carrier")
    else:
        raise TypeError(f"unknown functor node {expr!r}")


def support_ref(expr, v):
    """The former ``support_elems`` methods: the carrier elements v mentions."""
    if isinstance(expr, Const):
        return
    elif isinstance(expr, Id):
        yield v.element
    elif isinstance(expr, Sum):
        yield from support_ref(expr.parts[v.index], v.value)
    elif isinstance(expr, Prod):
        for p, c in zip(expr.parts, v.items):
            yield from support_ref(p, c)
    elif isinstance(expr, Exp):
        for _, c in v.entries:
            yield from support_ref(expr.arg, c)
    elif isinstance(expr, PowFin):
        for c in v.items:
            yield from support_ref(expr.arg, c)
    elif isinstance(expr, RFunctor):
        if isinstance(v, RPair):
            yield v.fst
            yield v.snd
    else:
        raise TypeError(f"unknown functor node {expr!r}")


def preserves_ref(expr):
    if isinstance(expr, RFunctor):
        return False
    if isinstance(expr, (Const, Id)):
        return True
    if isinstance(expr, (Sum, Prod)):
        return all(preserves_ref(p) for p in expr.parts)
    if isinstance(expr, (Exp, PowFin)):
        return preserves_ref(expr.arg)
    raise TypeError(f"unknown functor node {expr!r}")


# --- the generated functors --------------------------------------------------------

ONE, TWO = Carrier(("s",)), Carrier(("s", "t"))
P, PQ = Const(Carrier(("p",))), Const(Carrier(("p", "q")))
CARRIERS = [Carrier(()), Carrier((0,)), Carrier((0, 1)), Carrier(("a", "b", "c"))]
NESTED = [PowFin(Exp(ONE, RFunctor())),
          Exp(TWO, PowFin(Id())),
          Sum((PQ, PowFin(PowFin(P)), RFunctor())),
          Prod((Sum((Id(), P)), Exp(TWO, PowFin(P))))]


def functors(seed, count=60):
    """NESTED, then bounded depth-3 functors with at most 256 values over a
    3-element carrier."""
    rng = random.Random(seed)
    return NESTED + [bounded_functor(rng, 3, 3, size_cap=256) for _ in range(count)]


def nodes(expr):
    yield expr
    for child in getattr(expr, "parts", ()) + ((expr.arg,) if hasattr(expr, "arg") else ()):
        yield from nodes(child)


def relabel(v, atom):
    """v with every constant atom replaced by ``atom``."""
    if isinstance(v, ConstVal):
        return ConstVal(atom)
    if isinstance(v, InjVal):
        return InjVal(v.index, relabel(v.value, atom))
    if isinstance(v, TupleVal):
        return TupleVal(tuple(relabel(c, atom) for c in v.items))
    if isinstance(v, FuncVal):
        return FuncVal(tuple((s, relabel(c, atom)) for s, c in v.entries))
    if isinstance(v, SetVal):
        return SetVal(tuple(relabel(c, atom) for c in v.items))
    return v


def outcome(fn, *args):
    """fn's value, or the message of the MalformedValue it raised."""
    try:
        return "value", fn(*args)
    except MalformedValue as exc:
        return "malformed", str(exc)


def test_the_functors_cover_every_node_kind():
    fs = functors(1)
    kinds = {type(e).__name__ for f in fs for e in nodes(f)}
    assert kinds == {"Const", "Id", "Sum", "Prod", "Exp", "PowFin", "RFunctor"}
    nested = [f for f in fs
              if any(isinstance(e, (Exp, PowFin)) and isinstance(e.arg, (Exp, PowFin))
                     for e in nodes(f))]
    assert len(nested) > len(NESTED)


def test_size_with_and_without_a_cap():
    rng = random.Random(2)
    for _ in range(300):
        f = random_functor(rng, depth=2)
        for n in range(5):
            assert size_obj(f, n) == size_ref(f, n)
    for f in functors(3, count=100) + [random_functor(rng, depth=3) for _ in range(200)]:
        for n in range(5):
            for cap in (0, 1, 7, 100, 10 ** 6):
                assert size_obj(f, n, cap) == size_ref(f, n, cap)


def test_enumeration_order():
    for f in functors(4):
        for x in CARRIERS:
            assert eval_obj(f, x) == list(enum_ref(f, x))


def test_fmap_value_or_message():
    rng = random.Random(5)
    fs = functors(5)
    y = Carrier(("u", "v"))
    for f in fs:
        for x in CARRIERS:
            g = random_map(rng, x, y)
            other = rng.choice(fs)
            wrong = eval_obj(other, x)
            for v in eval_obj(f, x) + rng.sample(wrong, min(10, len(wrong))):
                assert outcome(eval_map, f, g, v) == outcome(eval_map_ref, f, g, v)


def test_check_accepts_and_rejects_alike():
    rng = random.Random(6)
    fs = functors(6)
    counts = {"value": 0, "malformed": 0}
    for f in fs:
        for x in CARRIERS:
            values = eval_obj(f, x)
            # values over a larger carrier, of another functor's shape, and
            # with constants that some Const nodes lack
            foreign = eval_obj(f, CARRIERS[-1]) + eval_obj(rng.choice(fs), x)
            sample = rng.sample(values, min(20, len(values)))
            for v in sample + [_disorder(rng, v) for v in sample] + \
                    [relabel(v, "q") for v in sample] + \
                    rng.sample(foreign, min(20, len(foreign))):
                got = outcome(check_value, f, x, v)
                assert got == outcome(check_ref, f, x, v)
                counts[got[0]] += 1
    assert counts["value"] > 500 and counts["malformed"] > 500


def test_support():
    for f in functors(7):
        for x in CARRIERS:
            for v in eval_obj(f, x):
                assert support(f, x, v) == Subobject(x, frozenset(support_ref(f, v)))


def test_check_value_returns_the_least_support():
    rng = random.Random(10)
    sizes = set()
    for f in functors(10):
        for x in CARRIERS:
            for v in eval_obj(f, x):
                supp = check_value(f, x, v)
                assert supp == frozenset(support_ref(f, v))
                sizes.add(len(supp))
            # support validates too: a value over a larger carrier is refused
            foreign = eval_obj(f, CARRIERS[-1])
            for v in rng.sample(foreign, min(10, len(foreign))):
                kind, expected = outcome(check_ref, f, x, v)
                assert outcome(support, f, x, v) == (
                    (kind, expected) if kind == "malformed" else (kind, Subobject(x, expected)))
    assert sizes >= {0, 1, 2, 3}


def test_preserves_inverse_images():
    rng = random.Random(8)
    verdicts = set()
    for f in functors(8) + [random_functor(rng, depth=3, allow_r=rng.random() < 0.5)
                            for _ in range(300)]:
        verdicts.add(preserves_inverse_images(f))
        assert preserves_inverse_images(f) == preserves_ref(f)
    assert verdicts == {True, False}


def test_fmap_preserves_injections():
    """F of an injective map is injective on F of its domain, the empty map
    into Y included.  ``initial_chain`` counts its stages on this: each
    connecting map is then injective, and a bijection iff the sizes agree."""
    rng = random.Random(11)
    atoms = [0, 1, 2, 3, 4, "a", "b", "c", "d", ("p", 0)]
    checked = set()
    for f in functors(10):
        for _ in range(6):
            x = Carrier(tuple(rng.sample(atoms, rng.randint(0, 3))))
            y = Carrier(tuple(rng.sample(atoms, rng.randint(len(x), len(x) + 2))))
            g = FinMap(x, y, tuple(rng.sample(y.elements, len(x))))
            values = eval_obj(f, x)
            assert len(values) == size_obj(f, len(x))  # what the chain counts
            images = [eval_map(f, g, v) for v in values]
            assert len(set(images)) == len(values), (f, g)
            for w in images:
                check_value(f, y, w)  # each image lies in F(Y)
            checked.add((len(x), len(y)))
    assert {(0, 0), (0, 2), (3, 3), (3, 5)} <= checked


# --- codes: F f(v) as a plain tree, not built ------------------------------------

def same(a):
    return a


def test_code_commutes_with_eval_map_under_merging_maps():
    """code(f, v) == code(id, eval_map(F, f, v)), on maps into one or two
    elements, so that R pairs collapse to d and P members collapse."""
    rng = random.Random(12)
    collapsed = set()
    for f in functors(12):
        for x in CARRIERS:
            for y in (Carrier(("u",)), Carrier(("u", "v"))):
                g = random_map(rng, x, y)
                for v in eval_obj(f, x):
                    image = eval_map(f, g, v)
                    assert f.code(g, v) == f.code(same, image)
                    collapsed.update(_shrunk(v, image))
    assert collapsed == {"R", "P"}
    merge = {0: "u", 1: "u"}.__getitem__
    assert RFunctor().code(merge, RPair(0, 1)) is None
    assert PowFin(Id()).code(merge, SetVal((IdVal(0), IdVal(1)))) == frozenset("u")


def _shrunk(v, image):
    """"R" for each pair of v mapped to d, "P" for each set of v mapped to
    fewer members."""
    if isinstance(v, RPair) and isinstance(image, RPoint):
        yield "R"
    elif isinstance(v, SetVal) and len(image.items) < len(v.items):
        yield "P"
    elif isinstance(v, InjVal):
        yield from _shrunk(v.value, image.value)
    elif isinstance(v, TupleVal):
        for c, d in zip(v.items, image.items):
            yield from _shrunk(c, d)
    elif isinstance(v, FuncVal):
        for (_, c), (_, d) in zip(v.entries, image.entries):
            yield from _shrunk(c, d)


def test_code_of_the_identity_is_injective():
    kinds = set()
    for f in functors(13):
        for x in CARRIERS:
            values = eval_obj(f, x)
            assert len({f.code(same, v) for v in values}) == len(values), (f, x)
            kinds.update(type(e).__name__ for e in nodes(f))
    assert kinds == {"Const", "Id", "Sum", "Prod", "Exp", "PowFin", "RFunctor"}


def test_table_algebras_build_each_value_of_fh_once(monkeypatch):
    """hylo and para_hylo on table algebras build Fh(alpha a) once per value,
    found by its code: a state whose value was met costs no eval_map."""
    built = []
    real_eval_map = functor_module.eval_map

    def counting_eval_map(*args):
        built.append(real_eval_map(*args))
        return built[-1]

    for name, module in list(sys.modules.items()):
        if name.startswith("wfcoalg") and getattr(module, "eval_map", None) is real_eval_map:
            monkeypatch.setattr(module, "eval_map", counting_eval_map)
    f = parse_functor("P(L * X) + R", {"L": Carrier(("l", "m"))})
    states, target = Carrier(("a", "b", "c", "w", "y", "z")), Carrier(("e", "o"))
    rng = random.Random(14)
    values = eval_obj(f, target)
    text = ("carrier L = l m\ncarrier A = a b c w y z\ncarrier T = e o\n"
            "functor = P(L * X) + R\ncoalgebra C : A\n  a -> in0 {(l, b), (m, c), (l, c)}\n"
            "  b -> in1 (c, z)\n  c -> in1 d\n  w -> in1 (c, y)\n  y -> in0 {}\n"
            "  z -> in0 {}\nalgebra E : T\n" +
            "".join(f"  {render_value(f, v)} -> {rng.choice('eo')}\n" for v in values) +
            "paralgebra Q : T @ A\n" +
            "".join(f"  {render_value(f, v)} @ {a} -> {rng.choice('eo')}\n"
                    for v in values for a in states))
    doc = parse_spec(text)
    coalg, alg, par = doc.the_coalgebra("C"), doc.the_algebra("E"), doc.the_paralgebra("Q")
    def built_once(h):
        images = {real_eval_map(f, h, coalg.alpha(a)) for a in states}
        assert sorted(map(repr, built)) == sorted(map(repr, images))
        assert len(images) < len(states)  # y and z, b and w share a value
        del built[:]
        return h

    h, p = built_once(hylo(coalg, alg)), built_once(para_hylo(coalg, target, par))
    # the same maps through the callable path, which builds Fh(alpha a) twice a state
    assert h == hylo(coalg, Algebra(f, target, alg.table.__getitem__))
    assert p == para_hylo(coalg, target, lambda v, a: par.table[(v, a)])
    assert len(built) == 4 * len(states)
    del built[:]
    coalg, alg = quicksort(("a", "b", "c"), 4)
    assert alg.table is None and hylo(coalg, alg)(("c", "a", "b")) == ("a", "b", "c")
    assert len(built) == 2 * len(coalg.carrier)
