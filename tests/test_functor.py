import random
from itertools import combinations

import pytest

from wfcoalg import (CapExceeded, Carrier, Const, Exp, FinMap, Id,
                     PowFin, Prod, RFunctor, Subobject,
                     Sum, eval_map, eval_obj, preserves_inverse_images, support)
from wfcoalg.functor import DEFAULT_ENUM_CAP, MalformedValue, check_value, size_obj

from generators import bounded_functor, random_map
from setalg import compose, from_callable, in_image, pullback
from values import POINT, elem, fset, fun, pair, tup


def in_image_brute(expr, s, v, cap=DEFAULT_ENUM_CAP):
    """Image membership by enumerating F(S) and pushing along the inclusion."""
    incl = s.inclusion()
    for w in eval_obj(expr, s.as_carrier(), cap=cap):
        if eval_map(expr, incl, w) == v:
            return True
    return False


class TestEvalObj:
    def test_r_on_two_elements(self):
        values = eval_obj(RFunctor(), Carrier((0, 1)))
        assert set(values) == {POINT, pair(0, 1), pair(1, 0)}

    def test_powfin_on_empty(self):
        values = eval_obj(PowFin(Id()), Carrier(()))
        assert values == [fset()]

    def test_square_plus_point_size(self):
        f = Sum((Prod((Id(), Id())), Const(Carrier(("*",)))))
        assert len(eval_obj(f, Carrier((0, 1, 2)))) == 10

    def test_size_formulas(self):
        sigma = Carrier(("p", "q"))
        assert size_obj(Exp(sigma, Id()), 3) == 9
        assert size_obj(PowFin(Id()), 4) == 16
        assert size_obj(RFunctor(), 4) == 13

    def test_enumeration_is_duplicate_free(self):
        rng = random.Random(5)
        for _ in range(20):
            f = bounded_functor(rng, 2, 3, size_cap=512)
            values = eval_obj(f, Carrier((0, 1, 2)))
            assert len(set(values)) == len(values)

    def test_cap_is_a_hard_error(self):
        with pytest.raises(CapExceeded):
            eval_obj(PowFin(Id()), Carrier(tuple(range(10))), cap=100)


class TestEvalMap:
    def test_r_collapses_merged_pair_to_point(self):
        two = Carrier((0, 1))
        const1 = FinMap.constant(two, two, 1)
        assert eval_map(RFunctor(), const1, pair(0, 1)) == POINT

    def test_r_keeps_separated_pair(self):
        two = Carrier((0, 1))
        swap = FinMap.from_dict(two, two, {0: 1, 1: 0})
        assert eval_map(RFunctor(), swap, pair(0, 1)) == pair(1, 0)

    def test_powfin_acts_by_direct_image(self):
        dom, cod = Carrier((0, 1)), Carrier(("a",))
        f = FinMap.constant(dom, cod, "a")
        v = fset(elem(0), elem(1))
        assert eval_map(PowFin(Id()), f, v) == fset(elem("a"))

    def test_identity_law_exhaustive(self):
        rng = random.Random(23)
        for _ in range(25):
            f = bounded_functor(rng, 2, 3, size_cap=512)
            x = Carrier((0, 1, 2))
            ident = FinMap.identity(x)
            for v in eval_obj(f, x):
                assert eval_map(f, ident, v) == v

    def test_composition_law(self):
        rng = random.Random(29)
        for _ in range(25):
            f = bounded_functor(rng, 3, 4, size_cap=512)
            x = Carrier(tuple(range(rng.randint(0, 4))))
            y = Carrier(tuple("ab"[:rng.randint(1, 2)]))
            z = Carrier(tuple(range(10, 10 + rng.randint(1, 3))))
            g1 = random_map(rng, x, y)
            g2 = random_map(rng, y, z)
            composed = compose(g2, g1)
            for v in eval_obj(f, x):
                assert eval_map(f, composed, v) == \
                    eval_map(f, g2, eval_map(f, g1, v))

    def test_malformed_value_rejected(self):
        with pytest.raises(MalformedValue):
            eval_map(PowFin(Id()), FinMap.identity(Carrier((0,))), elem(0))
        with pytest.raises(MalformedValue):
            check_value(Id(), Carrier((0,)), elem(99))



def _disorder(rng, v):
    """v with the items of each set shuffled and, now and then, one repeated,
    and the set now and then given as a list instead of a frozenset."""
    if isinstance(v, frozenset):
        items = [_disorder(rng, c) for c in v]
        if items and rng.random() < 0.3:
            items.append(rng.choice(items))
        if rng.random() < 0.5:
            rng.shuffle(items)
        if rng.random() < 0.6 and all(map(_canonical, items)):
            return frozenset(items)
        return items
    if isinstance(v, tuple):
        return tuple(_disorder(rng, c) for c in v)
    return v


def _canonical(v):
    """Every set of v is a frozenset, so v is hashable and equal values are
    one value whatever the order in which their members were given."""
    if isinstance(v, (frozenset, tuple)):
        return all(map(_canonical, v))
    return not isinstance(v, (list, set))


class TestCheckValue:
    """check_value rejects exactly the values that give a set in another
    form than a frozenset."""

    def agrees(self, f, x, v):
        try:
            check_value(f, x, v)
            accepted = True
        except MalformedValue:
            accepted = False
        assert accepted == _canonical(v), v
        return accepted

    def test_random_disordered_values(self):
        rng = random.Random(11)
        counts = {True: 0, False: 0}
        for _ in range(300):
            f = bounded_functor(rng, 2, 3, size_cap=512)
            x = Carrier((0, 1, 2))
            values = eval_obj(f, x)
            for v in rng.sample(values, min(5, len(values))):
                counts[self.agrees(f, x, v)] += 1
                counts[self.agrees(f, x, _disorder(rng, v))] += 1
        assert counts[True] > 500 and counts[False] > 100

    def test_hand_made_orders(self):
        x = Carrier(("a", "b", "c"))
        a, b, c = (elem(e) for e in x)
        pp = PowFin(PowFin(Id()))
        cases = [(PowFin(Id()), fset(a, b, c), True),
                 (PowFin(Id()), fset(b, a, a), True),
                 (PowFin(Id()), [a, b], False),
                 (PowFin(Id()), {a, c, b}, False),
                 (pp, fset(fset(a, b), fset(), fset(a)), True),
                 (pp, [fset(b, a)], False),
                 (pp, [fset(a), fset(a)], False),
                 (PowFin(Prod((Id(), Id()))),
                  [tup(b, a), tup(a, b)], False)]
        for f, v, ok in cases:
            assert self.agrees(f, x, v) == ok, v


class TestSupport:
    def test_r_point_has_empty_support(self):
        assert support(RFunctor(), Carrier((0, 1)), POINT).is_empty()

    def test_r_pair_supported_by_both_components(self):
        x = Carrier((0, 1))
        assert support(RFunctor(), x, pair(0, 1)).members == {0, 1}

    def test_exponent_support_is_the_value_range(self):
        sigma = Carrier(("p", "q"))
        x = Carrier((0, 1, 2))
        t = fun(elem(1), elem(1))
        assert support(Exp(sigma, Id()), x, t).members == {1}

    def test_support_is_least_exhaustively(self):
        rng = random.Random(31)
        x = Carrier((0, 1, 2))
        for _ in range(15):
            f = bounded_functor(rng, 2, 3, size_cap=256)
            for v in eval_obj(f, x):
                s = support(f, x, v)
                assert in_image_brute(f, s, v)
                for k in range(len(s.members)):
                    for smaller in combinations(s.sorted_members(), k):
                        assert not in_image_brute(
                            f, Subobject.of_members(x, smaller), v)


class TestInImage:
    def test_powfin_examples(self):
        x = Carrier((0, 1))
        s = Subobject.of_members(x, (0,))
        assert in_image(PowFin(Id()), s, fset(elem(0)))
        assert not in_image(PowFin(Id()), s, fset(elem(0), elem(1)))

    def test_r_point_lands_in_empty_subset(self):
        x = Carrier((0, 1))
        assert in_image(RFunctor(), Subobject(x), POINT)

    def test_full_subset_always_contains(self):
        rng = random.Random(37)
        for _ in range(10):
            f = bounded_functor(rng, 2, 3, size_cap=256)
            x = Carrier((0, 1, 2))
            for v in eval_obj(f, x):
                assert in_image(f, Subobject.full(x), v)

    def test_structural_equals_brute_force(self):
        # the Gumm pullback property for every grammar functor
        rng = random.Random(41)
        x = Carrier((0, 1, 2))
        for _ in range(15):
            f = bounded_functor(rng, 2, 3, size_cap=256)
            for v in eval_obj(f, x):
                for k in range(4):
                    for members in combinations(x.elements, k):
                        s = Subobject.of_members(x, members)
                        assert in_image(f, s, v) == in_image_brute(f, s, v)


class TestInverseImagePreservation:
    def test_structural_verdicts(self):
        sigma = Carrier(("p",))
        assert preserves_inverse_images(PowFin(Prod((Const(sigma), Id()))))
        assert preserves_inverse_images(Id())
        assert not preserves_inverse_images(RFunctor())
        assert not preserves_inverse_images(Sum((Id(), RFunctor())))

    def test_an_r_leaf_under_any_node_breaks_preservation(self):
        # one rule on FunctorExpr over `parts`, which Exp and PowFin give as (arg,)
        sigma = Carrier(("p",))
        assert Exp(sigma, RFunctor()).parts == PowFin(RFunctor()).parts == (RFunctor(),)
        assert Const(sigma).parts == Id().parts == RFunctor().parts == ()
        for wrap in (lambda f: Exp(sigma, f), PowFin, lambda f: Prod((Id(), f)),
                     lambda f: Sum((f, Const(sigma)))):
            assert preserves_inverse_images(wrap(Id()))
            assert not preserves_inverse_images(wrap(RFunctor()))
            assert not preserves_inverse_images(PowFin(wrap(RFunctor())))

    def test_r_breaks_a_pullback_square(self):
        # const_1 against the inclusion of {0}: the pullback is empty, but
        # applying R merges (0,1) with d, so R of the square is not a pullback
        two = Carrier((0, 1))
        const1 = FinMap.constant(two, two, 1)
        incl = FinMap.inclusion(Carrier((0,)), two)
        top, _, _ = pullback(const1, incl)
        assert len(top) == 0
        r_two = Carrier(tuple(eval_obj(RFunctor(), two)))
        r_one = Carrier(tuple(eval_obj(RFunctor(), Carrier((0,)))))
        rf = from_callable(
            r_two, r_two, lambda v: eval_map(RFunctor(), const1, v))
        rm = from_callable(
            r_one, r_two, lambda v: eval_map(RFunctor(), incl, v))
        matched, _, _ = pullback(rf, rm)
        r_empty = eval_obj(RFunctor(), Carrier(()))
        assert len(r_empty) == 1  # just the point d
        assert len(matched) > len(r_empty)  # comparison map cannot be onto

    def test_grammar_functors_preserve_pullbacks(self):
        rng = random.Random(43)
        for _ in range(10):
            f = bounded_functor(rng, 2, 3, size_cap=128, allow_r=False)
            assert preserves_inverse_images(f)
            b = Carrier((0, 1, 2))
            a = Carrier(("x", "y"))
            s = Subobject.of_members(b, (0, 2))
            g = random_map(rng, a, b)
            # inverse image square: g^-1(S) -> S over g
            pre = Subobject.of_members(a, [x for x in a if g(x) in s.members])
            fa = Carrier(tuple(eval_obj(f, a)))
            fb = Carrier(tuple(eval_obj(f, b)))
            fg = from_callable(fa, fb, lambda v: eval_map(f, g, v))
            fs = from_callable(
                Carrier(tuple(eval_obj(f, s.as_carrier()))), fb,
                lambda v: eval_map(f, s.inclusion(), v))
            top, p1, p2 = pullback(fg, fs)
            # canonical comparison from F(pre) must be a bijection
            fpre = eval_obj(f, pre.as_carrier())
            canon = {eval_map(f, pre.inclusion(), w) for w in fpre}
            assert canon == {p1(t) for t in top}
            assert len(fpre) == len(top)
