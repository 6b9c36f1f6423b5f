import random

import pytest

from wfcoalg import (Carrier, Coalgebra, Const, FinMap, Id,
                     NotAHomomorphism, NotWellFounded, PowFin,
                     Subobject, Sum, all_subsets, canonical_graph,
                     coreflect, induced_subcoalgebra, is_coalgebra_hom,
                     is_subcoalgebra, is_wellfounded, next_time, quotient,
                     wf_part)
from wfcoalg.demos import (automaton, fibonacci_coalgebra, graph_g,
                           predecessor, r_coalgebra)

from generators import random_instance
from setalg import compose, coproduct, from_callable
from values import fset


class TestWfPart:
    def test_graph_g(self):
        result = wf_part(graph_g())
        assert result.part.sorted_members() == ("a", "b")

    def test_chain_is_the_kleene_iteration(self):
        result = wf_part(graph_g())
        members = [s.sorted_members() for s in result.chain]
        assert members[0] == ()
        assert members[1] == ("b",)
        assert members[-1] == members[-2] == ("a", "b")

    def test_r_coalgebra_has_empty_part(self):
        assert wf_part(r_coalgebra()).part.is_empty()

    def test_empty_coalgebra(self):
        c = Coalgebra(PowFin(Id()), Carrier(()), ())
        result = wf_part(c)
        assert result.part.is_empty()
        assert is_wellfounded(c)

    def test_part_carries_a_subcoalgebra(self):
        rng = random.Random(71)
        for _ in range(30):
            c = random_instance(rng, depth=2, max_size=4)
            result = wf_part(c)
            assert is_subcoalgebra(c, result.part)
            assert induced_subcoalgebra(c, result.part) == result.structure

    def test_part_is_the_least_fixed_point(self):
        # exhaustive scan over all subsets on small carriers
        rng = random.Random(73)
        for _ in range(30):
            c = random_instance(rng, depth=2, max_size=4)
            part = wf_part(c).part
            fixed = [s for s in all_subsets(c.carrier) if next_time(c, s) == s]
            assert part in fixed
            assert all(part <= s for s in fixed)

    def test_chain_length_bound(self):
        rng = random.Random(79)
        for _ in range(30):
            c = random_instance(rng, depth=2, max_size=4)
            assert len(wf_part(c).chain) <= len(c.carrier) + 2


class TestIsWellfounded:
    def test_automaton_is_not(self):
        assert not is_wellfounded(automaton())

    def test_predecessor_is(self):
        assert is_wellfounded(predecessor(5))

    def test_fibonacci_is(self):
        assert is_wellfounded(fibonacci_coalgebra(7))

    def test_agrees_with_graph_acyclicity(self):
        rng = random.Random(83)
        for _ in range(40):
            c = random_instance(rng, depth=2, max_size=4)
            assert is_wellfounded(c) == canonical_graph(c).is_acyclic()


class TestClosureLaws:
    def test_subcoalgebras_of_wellfounded_are_wellfounded(self):
        rng = random.Random(89)
        seen = 0
        while seen < 20:
            c = random_instance(rng, depth=2, max_size=4)
            if not is_wellfounded(c):
                continue
            seen += 1
            for s in all_subsets(c.carrier):
                sub = induced_subcoalgebra(c, s)
                if sub is not None:
                    assert is_wellfounded(sub)

    def test_quotients_of_wellfounded_are_wellfounded(self):
        rng = random.Random(97)
        seen = 0
        while seen < 20:
            c = random_instance(rng, depth=1, max_size=3)
            if not is_wellfounded(c) or len(c.carrier) < 2:
                continue
            # merge the first two states when the structures push compatibly
            merged = Carrier(("m",) + c.carrier.elements[2:])
            e = from_callable(
                c.carrier, merged,
                lambda x: "m" if x in c.carrier.elements[:2] else x)
            try:
                q = quotient(c, e)
            except Exception:
                continue
            seen += 1
            assert is_wellfounded(q)

    def test_coproducts_of_wellfounded_are_wellfounded(self):
        rng = random.Random(101)
        seen = 0
        while seen < 15:
            c1 = random_instance(rng, depth=1, max_size=3)
            c2 = random_instance(rng, depth=1, max_size=3)
            if c1.functor != c2.functor:
                continue
            if not (is_wellfounded(c1) and is_wellfounded(c2)):
                continue
            seen += 1
            both, _, _ = coproduct(c1, c2)
            assert is_wellfounded(both)


class TestCoreflection:
    def test_corestriction_of_a_hom_from_wellfounded(self):
        g = graph_g()
        src = predecessor(0)  # single halting state
        assert is_wellfounded(src)
        # hom n=0 -> b: both map to the empty set / halt
        pg = Coalgebra(g.functor, src.carrier,
                       tuple(fset() for _ in src.carrier))
        f = from_callable(pg.carrier, g.carrier, lambda _: "b")
        restricted = coreflect(f, pg, g)
        assert restricted.cod.elements == ("a", "b")
        assert all(restricted(x) == "b" for x in pg.carrier)

    def test_source_must_be_wellfounded(self):
        r = r_coalgebra()
        f = from_callable(r.carrier, r.carrier, lambda x: x)
        with pytest.raises(NotWellFounded):
            coreflect(f, r, r)

    def test_map_must_be_a_hom(self):
        g = graph_g()
        sub = induced_subcoalgebra(
            g, Subobject.of_members(g.carrier, ("a", "b")))
        bad = from_callable(sub.carrier, g.carrier, lambda _: "c")
        with pytest.raises(NotAHomomorphism):
            coreflect(bad, sub, g)

    def test_every_hom_from_wellfounded_lands_in_the_part(self):
        # universal property, checked exhaustively on small instances
        from wfcoalg import enumerate_homs
        rng = random.Random(103)
        checked = 0
        while checked < 10:
            src = random_instance(rng, depth=1, max_size=2, size_cap=64)
            dst = random_instance(rng, depth=0, max_size=3)
            if src.functor != dst.functor or not is_wellfounded(src):
                continue
            part = wf_part(dst).part
            for f in enumerate_homs(src, dst, cap=10_000):
                checked += 1
                assert all(f(x) in part.members for x in src.carrier)
                restricted = coreflect(f, src, dst)
                incl = FinMap.inclusion(restricted.cod, dst.carrier)
                assert compose(incl, restricted) == f
