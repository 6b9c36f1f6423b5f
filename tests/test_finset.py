import random

import pytest

from wfcoalg import Carrier, CarrierMismatch, FinMap, Subobject, all_subsets

from setalg import (all_maps, compose, direct_image, intersection, inverse_image,
                    pullback, union)

from generators import random_map


@pytest.fixture
def f_three_to_two():
    dom = Carrier(("0", "1", "2"))
    cod = Carrier(("a", "b"))
    return FinMap.from_dict(dom, cod, {"0": "a", "1": "a", "2": "b"})


class TestPullback:
    def test_identity_pullback_is_diagonal(self):
        c = Carrier((0, 1))
        ident = FinMap.identity(c)
        carrier, p1, p2 = pullback(ident, ident)
        assert carrier.elements == ((0, 0), (1, 1))

    def test_product_over_point(self):
        point = Carrier(("*",))
        f = FinMap.constant(Carrier((0, 1)), point, "*")
        g = FinMap.constant(Carrier(("a",)), point, "*")
        carrier, _, _ = pullback(f, g)
        assert carrier.elements == ((0, "a"), (1, "a"))

    def test_const_against_inclusion_is_empty(self):
        # the square that witnesses R's failure to preserve inverse images
        two = Carrier((0, 1))
        const1 = FinMap.constant(two, two, 1)
        incl = FinMap.inclusion(Carrier((0,)), two)
        carrier, _, _ = pullback(const1, incl)
        assert len(carrier) == 0

    def test_codomain_mismatch_rejected(self):
        f = FinMap.identity(Carrier((0,)))
        g = FinMap.identity(Carrier((1,)))
        with pytest.raises(CarrierMismatch):
            pullback(f, g)

    def test_projections_commute(self):
        rng = random.Random(7)
        for _ in range(25):
            z = Carrier(tuple(range(rng.randint(1, 3))))
            f = random_map(rng, Carrier(tuple(range(rng.randint(0, 3)))), z)
            g = random_map(rng, Carrier(("x", "y", "z")[:rng.randint(0, 3)]), z)
            _, p1, p2 = pullback(f, g)
            for pair in p1.dom:
                assert f(p1(pair)) == g(p2(pair))

    def test_universal_property_by_enumeration(self):
        z = Carrier(("t", "u"))
        f = FinMap.from_dict(Carrier((0, 1, 2)), z, {0: "t", 1: "u", 2: "t"})
        g = FinMap.from_dict(Carrier(("a", "b")), z, {"a": "t", "b": "u"})
        carrier, p1, p2 = pullback(f, g)
        for size in range(4):
            cone = Carrier(tuple(range(10, 10 + size)))
            for q1 in all_maps(cone, f.dom):
                for q2 in all_maps(cone, g.dom):
                    if any(f(q1(c)) != g(q2(c)) for c in cone):
                        continue
                    mediating = [u for u in all_maps(cone, carrier)
                                 if compose(p1, u).values == q1.values
                                 and compose(p2, u).values == q2.values]
                    assert len(mediating) == 1


class TestImages:
    def test_inverse_image_identity(self):
        c = Carrier((0, 1, 2))
        s = Subobject.of_members(c, (1,))
        assert inverse_image(FinMap.identity(c), s) == s

    def test_inverse_image_pointwise(self, f_three_to_two):
        s = Subobject.of_members(f_three_to_two.cod, ("a",))
        assert inverse_image(f_three_to_two, s).members == {"0", "1"}

    def test_inverse_image_of_full_is_full(self, f_three_to_two):
        full = Subobject.full(f_three_to_two.cod)
        assert inverse_image(f_three_to_two, full).is_full()

    def test_direct_image_identity(self):
        c = Carrier((0, 1, 2))
        t = Subobject.of_members(c, (0, 2))
        assert direct_image(FinMap.identity(c), t) == t

    def test_direct_image_of_constant(self):
        dom, cod = Carrier((0, 1)), Carrier(("c", "e"))
        f = FinMap.constant(dom, cod, "c")
        assert direct_image(f, Subobject.full(dom)).members == {"c"}

    def test_direct_image_pointwise(self, f_three_to_two):
        t = Subobject.of_members(f_three_to_two.dom, ("0", "2"))
        assert direct_image(f_three_to_two, t).members == {"a", "b"}

    def test_carrier_mismatch_rejected(self, f_three_to_two):
        with pytest.raises(CarrierMismatch):
            inverse_image(f_three_to_two, Subobject.full(f_three_to_two.dom))
        with pytest.raises(CarrierMismatch):
            direct_image(f_three_to_two, Subobject.full(f_three_to_two.cod))


class TestGaloisConnection:
    def test_adjunction_over_random_maps(self):
        rng = random.Random(11)
        for _ in range(40):
            dom = Carrier(tuple(range(rng.randint(0, 5))))
            cod = Carrier(tuple("abcde"[:rng.randint(1, 5)]))
            f = random_map(rng, dom, cod)
            for t in all_subsets(dom):
                for s in all_subsets(cod):
                    assert (direct_image(f, t) <= s) == (t <= inverse_image(f, s))

    def test_inverse_image_preserves_meets_and_top(self):
        rng = random.Random(13)
        for _ in range(30):
            dom = Carrier(tuple(range(rng.randint(0, 4))))
            cod = Carrier(tuple("abcd"[:rng.randint(1, 4)]))
            f = random_map(rng, dom, cod)
            assert inverse_image(f, Subobject.full(cod)).is_full()
            for s in all_subsets(cod):
                for t in all_subsets(cod):
                    assert inverse_image(f, intersection(s, t)) == \
                        intersection(inverse_image(f, s), inverse_image(f, t))

    def test_direct_image_preserves_joins_and_bottom(self):
        rng = random.Random(17)
        for _ in range(30):
            dom = Carrier(tuple(range(rng.randint(0, 4))))
            cod = Carrier(tuple("abcd"[:rng.randint(1, 4)]))
            f = random_map(rng, dom, cod)
            assert direct_image(f, Subobject(dom)).is_empty()
            for s in all_subsets(dom):
                for t in all_subsets(dom):
                    assert direct_image(f, union(s, t)) == \
                        union(direct_image(f, s), direct_image(f, t))
