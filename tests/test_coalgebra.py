import random

import pytest

from wfcoalg import (Algebra, Carrier, Coalgebra, Const, Exp, FinMap,
                     FunctorMismatch, Id, IncompatibleQuotient, PowFin,
                     Prod, RFunctor, Subobject, Sum,
                     all_subsets, canonical_graph, enumerate_homs,
                     eval_map, eval_obj, induced_subcoalgebra, is_cartesian,
                     is_coalgebra_hom, is_subcoalgebra, next_time,
                     preserves_inverse_images, quotient, support)
from wfcoalg import MalformedValue
from wfcoalg import coalgebra as coalgebra_module
from wfcoalg.demos import automaton, graph_g, r_coalgebra, transition_system

from generators import random_instance, random_map
from setalg import coproduct, from_callable, intersection, inverse_image, pullback
from values import elem, fset, pair


def next_time_brute(coalg, s):
    """Next time as the pullback of F(inclusion) along the structure map."""
    f_a = Carrier(tuple(eval_obj(coalg.functor, coalg.carrier)))
    alpha = from_callable(coalg.carrier, f_a, coalg.alpha)
    f_s = Carrier(tuple(eval_obj(coalg.functor, s.as_carrier())))
    fs_incl = from_callable(
        f_s, f_a, lambda v: eval_map(coalg.functor, s.inclusion(), v))
    top, p1, _ = pullback(alpha, fs_incl)
    return Subobject(coalg.carrier, frozenset(p1(t) for t in top))


@pytest.fixture
def g():
    return graph_g()


def subset(coalg, *members):
    return Subobject.of_members(coalg.carrier, members)


class TestHomomorphisms:
    def test_identity_is_a_hom(self, g):
        assert is_coalgebra_hom(FinMap.identity(g.carrier), g, g)

    def test_inclusion_of_cd_is_a_hom(self, g):
        sub = induced_subcoalgebra(g, subset(g, "c", "d"))
        assert sub is not None
        assert is_coalgebra_hom(FinMap.inclusion(sub.carrier, g.carrier), sub, g)

    def test_inclusion_of_a_alone_is_not(self, g):
        one = Carrier(("a",))
        candidate = Coalgebra(g.functor, one, (fset(),))
        assert not is_coalgebra_hom(FinMap.inclusion(one, g.carrier), candidate, g)

    def test_a_value_built_outside_the_carrier_is_refused(self, g):
        # only document readers skip the check: Python-built values get it
        with pytest.raises(MalformedValue):
            Coalgebra(g.functor, Carrier(("a",)), (fset(elem("z")),))
        with pytest.raises(MalformedValue):
            Coalgebra(Id(), Carrier(("a",)), (elem("b"),))

    def test_functor_mismatch_rejected(self, g):
        other = Coalgebra(RFunctor(), Carrier((0, 1)), (pair(0, 1), pair(1, 0)))
        with pytest.raises(FunctorMismatch):
            is_coalgebra_hom(FinMap.identity(g.carrier), g, other)


class TestNextTime:
    def test_graph_example(self, g):
        assert next_time(g, subset(g, "b")).members == {"a", "b"}

    def test_full_is_fixed(self, g):
        assert next_time(g, Subobject.full(g.carrier)).is_full()

    def test_empty_gives_halting_states(self, g):
        assert next_time(g, subset(g)).members == {"b"}

    def test_lts_next_time(self):
        coalg, s = transition_system()
        # states all of whose next states lie in {s2}
        assert next_time(coalg, s).members == {"s1", "s2"}

    def test_monotone_exhaustive(self):
        rng = random.Random(51)
        for _ in range(25):
            coalg = random_instance(rng, depth=2, max_size=4)
            subs = list(all_subsets(coalg.carrier))
            images = {s: next_time(coalg, s) for s in subs}
            for s in subs:
                for t in subs:
                    if s <= t:
                        assert images[s] <= images[t]

    def test_support_route_equals_pullback_route(self):
        rng = random.Random(53)
        for _ in range(20):
            coalg = random_instance(rng, depth=2, max_size=4, size_cap=256)
            for s in all_subsets(coalg.carrier):
                assert next_time(coalg, s) == next_time_brute(coalg, s)

    def test_generalized_next_time_preserves_meets(self):
        # f-indexed next time for arbitrary f: A -> F(B) preserves intersections
        rng = random.Random(59)
        for _ in range(20):
            from generators import bounded_functor
            functor = bounded_functor(rng, 2, 3, size_cap=256)
            a = Carrier(("x", "y", "z"))
            b = Carrier((0, 1, 2))
            values = eval_obj(functor, b)
            f = {x: rng.choice(values) for x in a}

            def nt(s):
                return Subobject(a, frozenset(
                    x for x in a
                    if support(functor, b, f[x]).members <= s.members))

            for s in all_subsets(b):
                for t in all_subsets(b):
                    assert nt(intersection(s, t)) == intersection(nt(s), nt(t))


class TestCanonicalGraph:
    def test_powerset_coalgebra_is_its_own_graph(self, g):
        graph = canonical_graph(g)
        assert graph.successors("a") == {"b"}
        assert graph.successors("b") == frozenset()
        assert graph.successors("c") == {"d"}

    def test_automaton_graph_is_the_transition_graph(self):
        c = automaton()
        graph = canonical_graph(c)
        assert graph.successors("s0") == {"s0", "s1"}
        assert graph.successors("s1") == {"s0", "s1"}

    def test_r_coalgebra_graph(self):
        c = r_coalgebra()
        graph = canonical_graph(c)
        assert graph.successors(0) == {0, 1}
        assert graph.successors(1) == {0, 1}

    def test_cycle_detection(self, g):
        graph = canonical_graph(g)
        cycle = graph.find_cycle()
        assert cycle is not None and set(cycle) == {"c", "d"}
        assert not graph.is_acyclic()


class TestSubcoalgebras:
    def test_the_six_subcoalgebras_of_g(self, g):
        found = {s.sorted_members() for s in all_subsets(g.carrier)
                 if is_subcoalgebra(g, s)}
        assert found == {(), ("b",), ("a", "b"), ("c", "d"),
                         ("b", "c", "d"), ("a", "b", "c", "d")}

    def test_induced_structure_restricts_alpha(self, g):
        sub = induced_subcoalgebra(g, subset(g, "c", "d"))
        assert sub.carrier.elements == ("c", "d")
        assert sub.alpha("c") == fset(elem("d"))

    def test_singleton_a_is_not_a_subcoalgebra(self, g):
        assert not is_subcoalgebra(g, subset(g, "a"))
        assert induced_subcoalgebra(g, subset(g, "a")) is None

    def test_empty_subset_is_a_subcoalgebra(self, g):
        assert is_subcoalgebra(g, subset(g))

    def test_cartesian_subcoalgebras_of_g(self, g):
        found = {s.sorted_members() for s in all_subsets(g.carrier)
                 if is_cartesian(g, s)}
        assert found == {("a", "b"), ("a", "b", "c", "d")}


class TestColimits:
    def test_quotient_by_identity(self, g):
        q = quotient(g, FinMap.identity(g.carrier))
        assert q.structure == g.structure

    def test_coproduct_of_g_with_itself(self, g):
        both, in1, in2 = coproduct(g, g)
        assert len(both.carrier) == 8
        assert is_coalgebra_hom(in1, g, both)
        assert is_coalgebra_hom(in2, g, both)
        graph = canonical_graph(both)
        assert graph.successors((0, "a")) == {(0, "b")}
        assert graph.successors((1, "c")) == {(1, "d")}

    def test_fold_quotient_recovers_g(self, g):
        both, _, _ = coproduct(g, g)
        fold = from_callable(both.carrier, g.carrier, lambda p: p[1])
        assert is_coalgebra_hom(fold, both, g)
        q = quotient(both, fold)
        assert q.carrier == g.carrier and q.structure == g.structure

    def test_incompatible_quotient_rejected(self, g):
        # merging a (one successor) with b (none) pushes unequal structures
        merged = Carrier(("ab", "c", "d"))
        e = FinMap.from_dict(g.carrier, merged, {
            "a": "ab", "b": "ab", "c": "c", "d": "d"})
        with pytest.raises(IncompatibleQuotient) as exc:
            quotient(g, e)
        assert set(exc.value.witness) == {"a", "b"}


class TestNextTimeAlongHoms:
    def test_preimage_inequality_for_homs(self):
        # for every hom f, next-time of the preimage contains the preimage
        # of next-time
        rng = random.Random(61)
        checked = 0
        while checked < 15:
            dst = random_instance(rng, depth=1, max_size=3, size_cap=128)
            src = random_instance(rng, depth=0, max_size=3)
            if src.functor != dst.functor:
                continue
            for f in enumerate_homs(src, dst, cap=10_000):
                checked += 1
                for s in all_subsets(dst.carrier):
                    lhs = next_time(src, inverse_image(f, s))
                    rhs = inverse_image(f, next_time(dst, s))
                    assert lhs <= rhs

    def test_equality_for_injective_homs(self, g):
        # subcoalgebra inclusions: equality holds (finite intersections)
        for s in all_subsets(g.carrier):
            sub = induced_subcoalgebra(g, s)
            if sub is None:
                continue
            f = FinMap.inclusion(sub.carrier, g.carrier)
            for t in all_subsets(g.carrier):
                assert next_time(sub, inverse_image(f, t)) == \
                    inverse_image(f, next_time(g, t))

    def test_equality_for_arbitrary_homs_when_inverse_images_preserved(self, g):
        assert preserves_inverse_images(g.functor)
        both, _, _ = coproduct(g, g)
        fold = from_callable(both.carrier, g.carrier, lambda p: p[1])
        for t in all_subsets(g.carrier):
            assert next_time(both, inverse_image(fold, t)) == \
                inverse_image(fold, next_time(g, t))


class TestAlgebraTables:
    """Totality is counted against |F(carrier)|, after each key is checked."""

    def test_a_total_table_loads_without_enumerating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("F(carrier) enumerated")
        monkeypatch.setattr(coalgebra_module, "eval_obj", refuse)
        b = Carrier(("x", "y"))
        table = {fset(*map(elem, s.members)): "x"
                 for s in all_subsets(b)}
        alg = Algebra.from_table(PowFin(Id()), b, table)
        assert alg.operation(fset()) == "x" and len(alg.table) == 4

    def test_a_key_outside_f_of_the_carrier_is_refused(self):
        b = Carrier(("x",))
        with pytest.raises(MalformedValue):  # counted, it would pass for {x}
            Algebra.from_table(PowFin(Id()), b, {fset(): "x",
                                                 fset(elem("z")): "x"})

    def test_an_algebra_takes_an_operation_or_a_table(self):
        b = Carrier(("x",))
        table = {fset(): "x", fset(elem("x")): "x"}
        assert Algebra(PowFin(Id()), b, table=table).operation(fset()) == "x"
        with pytest.raises(ValueError):  # the two could disagree
            Algebra(PowFin(Id()), b, lambda v: "y", table)
        with pytest.raises(ValueError):
            Algebra(PowFin(Id()), b)

    @pytest.mark.parametrize("table, message", [
        ({}, "algebra table is not total; missing {}"),
        ({fset(): "x"}, "algebra table is not total; missing {x}"),
        ({fset(): "x", fset(elem("x")): "z"}, "algebra result 'z' outside the carrier"),
    ])
    def test_the_constructor_refuses_a_partial_table(self, table, message):
        # a partial table once ended a hylo in a bare KeyError
        with pytest.raises(ValueError) as exc:
            Algebra(PowFin(Id()), Carrier(("x",)), table=table)
        assert str(exc.value) == message

    def test_past_the_enumeration_cap_no_missing_value_is_named(self):
        b = Carrier(tuple(f"b{i}" for i in range(17)))  # |P(B)| = 131,072
        with pytest.raises(ValueError) as exc:
            Algebra.from_table(PowFin(Id()), b, {fset(): "b0"})
        assert str(exc.value) == "algebra table is not total"
