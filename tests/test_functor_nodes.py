"""Each functor node's methods against the module-level isinstance chains
they replace, on generated functors (R, Const and nested Exp/PowFin
included) over carriers of size 0 to 3."""

import random
from itertools import product

from wfcoalg import (Algebra, Carrier, Const, Exp, FinMap, Id, MalformedValue, PowFin,
                     Prod, RFunctor, Subobject, Sum, eval_map, eval_obj, hylo,
                     para_hylo, parse_functor, parse_spec, preserves_inverse_images,
                     render_value, support)
from wfcoalg.demos import quicksort
from wfcoalg.finset import capped_power, element_key
from wfcoalg.functor import check_value, size_obj

from generators import bounded_functor, random_functor, random_map
from test_functor import _disorder
from values import POINT, const, elem, fset, fun, inj, pair, tup


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


def key_ref(expr, v):
    """The former ``FValue.key()``, the order ``element_key`` keeps on F X."""
    if isinstance(expr, Const):
        return ("c", element_key(v))
    if isinstance(expr, Id):
        return ("x", element_key(v))
    if isinstance(expr, Sum):
        return ("inj", v[0], key_ref(expr.parts[v[0]], v[1]))
    if isinstance(expr, Prod):
        return ("tup", tuple(key_ref(p, c) for p, c in zip(expr.parts, v)))
    if isinstance(expr, Exp):
        return ("fun", tuple((element_key(s), key_ref(expr.arg, c))
                             for s, c in zip(expr.alphabet, v)))
    if isinstance(expr, PowFin):
        return ("set", tuple(sorted(key_ref(expr.arg, c) for c in v)))
    if isinstance(expr, RFunctor):
        return ("rd",) if v is None else ("rp", element_key(v[0]), element_key(v[1]))
    raise TypeError(f"unknown functor node {expr!r}")


def enum_ref(expr, x):
    if isinstance(expr, Const):
        for a in expr.values:
            yield const(a)
    elif isinstance(expr, Id):
        for a in x:
            yield elem(a)
    elif isinstance(expr, Sum):
        for i, p in enumerate(expr.parts):
            for v in enum_ref(p, x):
                yield inj(i, v)
    elif isinstance(expr, Prod):
        for combo in product(*(list(enum_ref(p, x)) for p in expr.parts)):
            yield tup(*combo)
    elif isinstance(expr, Exp):
        inner = list(enum_ref(expr.arg, x))
        for combo in product(inner, repeat=len(expr.alphabet)):
            yield fun(*combo)
    elif isinstance(expr, PowFin):
        inner = sorted(enum_ref(expr.arg, x), key=lambda v: key_ref(expr.arg, v))
        for mask in range(1 << len(inner)):
            yield fset(*(v for i, v in enumerate(inner) if mask >> i & 1))
    elif isinstance(expr, RFunctor):
        yield POINT
        for a in x:
            for b in x:
                if a != b:
                    yield pair(a, b)
    else:
        raise TypeError(f"unknown functor node {expr!r}")


def eval_map_ref(expr, fn, v):
    if isinstance(expr, Const):
        if v not in expr.values:
            raise MalformedValue(f"{v!r} is not a constant of the declared carrier")
        return v
    if isinstance(expr, Id):
        return elem(fn(v))
    if isinstance(expr, Sum):
        if not (isinstance(v, tuple) and len(v) == 2 and type(v[0]) is int
                and 0 <= v[0] < len(expr.parts)):
            raise MalformedValue(f"{v!r} is not a valid injection")
        return inj(v[0], eval_map_ref(expr.parts[v[0]], fn, v[1]))
    if isinstance(expr, Prod):
        if not (isinstance(v, tuple) and len(v) == len(expr.parts)):
            raise MalformedValue(f"{v!r} is not a valid tuple")
        return tup(*(eval_map_ref(p, fn, c) for p, c in zip(expr.parts, v)))
    if isinstance(expr, Exp):
        if not (isinstance(v, tuple) and len(v) == len(expr.alphabet)):
            raise MalformedValue(f"{v!r} is not one entry per alphabet letter")
        return fun(*(eval_map_ref(expr.arg, fn, c) for c in v))
    if isinstance(expr, PowFin):
        if not isinstance(v, frozenset):
            raise MalformedValue(f"{v!r} is not a set value (a frozenset)")
        return fset(*(eval_map_ref(expr.arg, fn, c) for c in v))
    if isinstance(expr, RFunctor):
        if v is None:
            return POINT
        if not (isinstance(v, tuple) and len(v) == 2 and v[0] != v[1]):
            raise MalformedValue(f"{v!r} is not a pair of distinct elements")
        a, b = fn(v[0]), fn(v[1])
        return POINT if a == b else pair(a, b)
    raise TypeError(f"unknown functor node {expr!r}")


def check_ref(expr, x, v):
    """The former check, which returned nothing, then the least support."""
    try:
        well_formed_ref(expr, x, v)
    except TypeError:
        raise MalformedValue(f"{v!r} is not a hashable value") from None
    return frozenset(support_ref(expr, v))


def well_formed_ref(expr, x, v):
    if isinstance(expr, Const):
        if v not in expr.values:
            raise MalformedValue(f"{v!r} is not a constant of the declared carrier")
    elif isinstance(expr, Id):
        if v not in x:
            raise MalformedValue(f"{v!r} is not an element of the carrier")
    elif isinstance(expr, Sum):
        if not (isinstance(v, tuple) and len(v) == 2 and type(v[0]) is int
                and 0 <= v[0] < len(expr.parts)):
            raise MalformedValue(f"{v!r} is not a valid injection")
        well_formed_ref(expr.parts[v[0]], x, v[1])
    elif isinstance(expr, Prod):
        if not (isinstance(v, tuple) and len(v) == len(expr.parts)):
            raise MalformedValue(f"{v!r} is not a valid tuple")
        for p, c in zip(expr.parts, v):
            well_formed_ref(p, x, c)
    elif isinstance(expr, Exp):
        if not (isinstance(v, tuple) and len(v) == len(expr.alphabet)):
            raise MalformedValue(f"{v!r} is not one entry per alphabet letter")
        for c in v:
            well_formed_ref(expr.arg, x, c)
    elif isinstance(expr, PowFin):
        if not isinstance(v, frozenset):
            raise MalformedValue(f"{v!r} is not a set value (a frozenset)")
        for c in v:
            well_formed_ref(expr.arg, x, c)
    elif isinstance(expr, RFunctor):
        if v is None:
            return
        if not (isinstance(v, tuple) and len(v) == 2 and v[0] != v[1]):
            raise MalformedValue(f"{v!r} is not a pair of distinct elements")
        for c in v:
            if c not in x:
                raise MalformedValue(f"{c!r} is not an element of the carrier")
    else:
        raise TypeError(f"unknown functor node {expr!r}")


def support_ref(expr, v):
    """The former ``support_elems`` methods: the carrier elements v mentions."""
    if isinstance(expr, Const):
        return
    elif isinstance(expr, Id):
        yield v
    elif isinstance(expr, Sum):
        yield from support_ref(expr.parts[v[0]], v[1])
    elif isinstance(expr, Prod):
        for p, c in zip(expr.parts, v):
            yield from support_ref(p, c)
    elif isinstance(expr, (Exp, PowFin)):
        for c in v:
            yield from support_ref(expr.arg, c)
    elif isinstance(expr, RFunctor):
        if v is not None:
            yield from v
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
MIXED = [Carrier((1, "a", None, (0, "b"))), Carrier((True, 2, "z"))]  # labels of every kind
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


def relabel(expr, v, atom):
    """v, a value of expr, with every constant atom replaced by ``atom``."""
    if isinstance(expr, Const):
        return const(atom)
    if isinstance(expr, Sum):
        return inj(v[0], relabel(expr.parts[v[0]], v[1], atom))
    if isinstance(expr, Prod):
        return tup(*(relabel(p, c, atom) for p, c in zip(expr.parts, v)))
    if isinstance(expr, Exp):
        return fun(*(relabel(expr.arg, c, atom) for c in v))
    if isinstance(expr, PowFin):
        return fset(*(relabel(expr.arg, c, atom) for c in v))
    return v


def outcome(fn, *args):
    """fn's value, or the message of the MalformedValue it raised, or of the
    KeyError of a finite map applied outside its domain: an element of X is
    any hashable, so eval_map hands a foreign one to the map at an Id leaf."""
    try:
        return "value", fn(*args)
    except MalformedValue as exc:
        return "malformed", str(exc)
    except KeyError as exc:
        return "outside the domain", str(exc)


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
    kinds = set()
    for f in fs:
        for x in CARRIERS:
            g = random_map(rng, x, y)
            other = rng.choice(fs)
            wrong = eval_obj(other, x)
            for v in eval_obj(f, x) + rng.sample(wrong, min(10, len(wrong))):
                got = outcome(eval_map, f, g, v)
                assert got == outcome(eval_map_ref, f, g, v)
                kinds.add(got[0])
    assert kinds == {"value", "malformed", "outside the domain"}


def test_element_key_keeps_the_former_key_order():
    for f in functors(15):
        for x in CARRIERS + MIXED:
            values = eval_obj(f, x)
            ordered = sorted(values, key=element_key)
            assert ordered == sorted(values, key=lambda v: key_ref(f, v))
            keys = list(map(element_key, ordered))
            assert all(a < b for a, b in zip(keys, keys[1:]))


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
                    [relabel(f, v, "q") for v in sample] + \
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


# --- values are plain: F f(v) is its own code ----------------------------------------

def same(a):
    return a


def test_code_commutes_with_eval_map_under_merging_maps():
    """A value is its code: eval_map gives the plain image, which F id
    leaves as it is, on maps into one or two elements, so that R pairs
    collapse to d and P members collapse."""
    rng = random.Random(12)
    collapsed = set()
    for f in functors(12):
        for x in CARRIERS:
            for y in (Carrier(("u",)), Carrier(("u", "v"))):
                g = random_map(rng, x, y)
                for v in eval_obj(f, x):
                    image = eval_map(f, g, v)
                    assert f.fmap(same, image) == image == eval_map_ref(f, g, v)
                    collapsed.update(_shrunk(f, v, image))
    assert collapsed == {"R", "P"}
    merge = {0: "u", 1: "u"}.__getitem__
    assert RFunctor().fmap(merge, pair(0, 1)) is POINT
    assert PowFin(Id()).fmap(merge, fset(elem(0), elem(1))) == frozenset("u")


def _shrunk(expr, v, image):
    """"R" for each pair of v mapped to d, "P" for each set of v mapped to
    fewer members."""
    if isinstance(expr, RFunctor) and v is not None and image is None:
        yield "R"
    elif isinstance(expr, PowFin) and len(image) < len(v):
        yield "P"
    elif isinstance(expr, Sum):
        yield from _shrunk(expr.parts[v[0]], v[1], image[1])
    elif isinstance(expr, Prod):
        for p, c, d in zip(expr.parts, v, image):
            yield from _shrunk(p, c, d)
    elif isinstance(expr, Exp):
        for c, d in zip(v, image):
            yield from _shrunk(expr.arg, c, d)


def test_code_of_the_identity_is_injective():
    kinds = set()
    for f in functors(13):
        for x in CARRIERS:
            values = eval_obj(f, x)
            assert len({f.fmap(same, v) for v in values}) == len(values), (f, x)
            kinds.update(type(e).__name__ for e in nodes(f))
    assert kinds == {"Const", "Id", "Sum", "Prod", "Exp", "PowFin", "RFunctor"}


class CountingTable(dict):
    """A table that counts its lookups."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_table_algebras_look_up_fh_in_the_table():
    """hylo and para_hylo on table algebras look Fh(alpha a) up in the table,
    once a state in the fold and once in the check of the square, and give
    the maps of the callable path."""
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
    table, par.table = CountingTable(alg.table), CountingTable(par.table)
    h = hylo(coalg, Algebra(f, target, table=table))
    p = para_hylo(coalg, target, par)
    assert table.lookups == par.table.lookups == 2 * len(states)
    # the same maps through the callable path
    assert h == hylo(coalg, alg) == hylo(coalg, Algebra(f, target, alg.table.__getitem__))
    assert p == para_hylo(coalg, target, lambda v, a: par.table[(v, a)])
    coalg, alg = quicksort(("a", "b", "c"), 4)
    assert alg.table is None and hylo(coalg, alg)(("c", "a", "b")) == ("a", "b", "c")
