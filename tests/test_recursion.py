import math
import random

import pytest

from wfcoalg import (Algebra, Carrier, Coalgebra, Const, FinMap, Id,
                     NotWellFounded, PowFin, Prod, RFunctor, Sum, eval_map, eval_obj,
                     find_homs, hylo, initial_chain, is_coalgebra_hom, is_wellfounded,
                     paired, para_hylo, parametric_oracle, preserves_inverse_images,
                     recursive_oracle, unfold_to_mu)
from wfcoalg import recursion
from wfcoalg.functor import size_obj
from wfcoalg.demos import (UNIT, factorial_scheme, fibonacci_scheme, graph_g,
                           predecessor, quicksort, r_coalgebra)

from generators import lists_up_to, random_instance
from values import POINT, const, elem, fset, inj


class TestHylo:
    def test_quicksort_small(self):
        coalg, alg = quicksort(lists_up_to("abc", 4))
        h = hylo(coalg, alg)
        for xs in coalg.carrier:
            assert h(xs) == tuple(sorted(xs))

    def test_graph_g_is_not_wellfounded(self):
        g = graph_g()
        # reachable-set algebra over the same functor
        target = Carrier(tuple(range(5)))
        alg = Algebra(g.functor, target,
                      lambda v: min(4, 1 + sum(v)))
        with pytest.raises(NotWellFounded) as exc:
            hylo(g, alg)
        assert exc.value.args and "c" in str(exc.value) or "d" in str(exc.value)

    def test_result_is_the_unique_hom(self):
        rng = random.Random(107)
        seen = 0
        while seen < 10:
            coalg = random_instance(rng, depth=1, max_size=3, size_cap=64)
            if not is_wellfounded(coalg):
                continue
            target = Carrier((0, 1))
            values = list(range(2))
            from wfcoalg import eval_obj
            table = {v: rng.choice(values)
                     for v in eval_obj(coalg.functor, target)}
            if not table:
                continue
            seen += 1
            alg = Algebra.from_table(coalg.functor, target, table)
            h = hylo(coalg, alg)
            homs = find_homs(coalg, alg, cap=1_000_000)
            assert len(homs) == 1
            assert all(homs[0](a) == h(a) for a in coalg.carrier)

    def test_empty_coalgebra(self):
        c = Coalgebra(PowFin(Id()), Carrier(()), ())
        alg = Algebra(c.functor, Carrier((0,)), lambda v: 0)
        h = hylo(c, alg)
        assert callable(h)


class TestParaHylo:
    def test_factorial(self):
        coalg, target, step = factorial_scheme(5)
        h = para_hylo(coalg, target, step)
        for n in range(6):
            assert h(n) == math.factorial(n)
        assert h(3) == 6

    def test_fibonacci(self):
        coalg, target, step = fibonacci_scheme(7, 0, 1)
        h = para_hylo(coalg, target, step)
        fib = [0, 1]
        while len(fib) < 8:
            fib.append(fib[-1] + fib[-2])
        for n in range(8):
            assert h(n) == fib[n]
        assert h(6) == 8

    def test_constant_step_ignoring_parameter(self):
        coalg = predecessor(4)
        target = Carrier(("k",))
        h = para_hylo(coalg, target, lambda v, a: "k")
        assert all(h(n) == "k" for n in coalg.carrier)

    def test_requires_wellfoundedness(self):
        r = r_coalgebra()
        with pytest.raises(NotWellFounded):
            para_hylo(r, Carrier((0,)), lambda v, a: 0)

    def test_paired_keeps_each_state_beside_its_value(self):
        c = predecessor(3)
        pairs = paired(c)
        assert pairs.functor == Prod((c.functor, Const(c.carrier)))
        assert pairs.structure == tuple((c.alpha(a), a) for a in c.carrier)
        # a constant adds no support: the checked constructor collects alpha's
        checked = Coalgebra(pairs.functor, c.carrier, pairs.structure)
        assert checked == pairs and checked.supports == pairs.supports == c.supports

    def test_para_hylo_is_hylo_of_the_paired_coalgebra(self, monkeypatch):
        calls = []
        monkeypatch.setattr(recursion, "hylo", lambda *args: calls.append(args) or "h")
        c = predecessor(2)
        assert para_hylo(c, Carrier((0,)), lambda v, a: 0) == "h"
        (pairs, alg), = calls
        assert pairs == paired(c) and alg.functor == pairs.functor
        assert alg.carrier == Carrier((0,)) and alg.operation(((1, "u0"), 0)) == 0

    def test_a_paralgebra_table_has_the_one_solution_find_homs_finds(self):
        # para_hylo folds; find_homs searches every map A -> T for a solution
        # of <alpha, id> into the table, an algebra for F(-) x A
        rng = random.Random(431)
        checked = 0
        for _ in range(300):
            c = random_instance(rng, depth=rng.randint(1, 2), max_size=4, size_cap=64)
            target = Carrier(tuple(f"t{i}" for i in range(rng.randint(1, 3))))
            pairs = paired(c)
            if not is_wellfounded(c) or size_obj(pairs.functor, len(target), cap=500) > 500:
                continue
            par = Algebra.from_table(pairs.functor, target, {
                k: rng.choice(target.elements) for k in eval_obj(pairs.functor, target)})
            assert find_homs(pairs, par) == [para_hylo(c, target, par)]
            checked += 1
        assert checked > 50


class TestInitialChain:
    def test_r_stabilizes_at_the_point(self):
        chain = initial_chain(RFunctor(), max_depth=8, cap=10_000)
        assert [len(s) for s in chain.stages] == [0, 1, 1]
        assert chain.stabilized and chain.stable_index == 1
        mu = chain.mu_coalgebra()  # muR = {d}: one element, whose structure is d
        assert len(mu.carrier) == 1 and mu.structure == (POINT,)

    def test_identity_stabilizes_at_empty(self):
        chain = initial_chain(Id(), max_depth=8, cap=10_000)
        assert chain.stabilized and chain.stable_index == 0
        assert len(chain.mu_coalgebra().carrier) == 0

    def test_successor_functor_never_stabilizes(self):
        chain = initial_chain(Sum((Id(), Const(UNIT))), max_depth=4,
                              cap=10_000)
        assert not chain.stabilized
        assert [len(s) for s in chain.stages] == [0, 1, 2, 3, 4, 5]

    def test_mu_algebra_is_a_bijection_on_values(self):
        chain = initial_chain(RFunctor(), max_depth=8, cap=10_000)
        alg = chain.mu_algebra()
        from wfcoalg import eval_obj
        values = eval_obj(alg.functor, alg.carrier)
        images = {alg.operation(v) for v in values}
        assert images == set(alg.carrier.elements)

    def test_mu_as_coalgebra_is_wellfounded(self):
        chain = initial_chain(RFunctor(), max_depth=8, cap=10_000)
        assert is_wellfounded(chain.mu_coalgebra())

    def test_stage_coalgebras_pass_the_recursive_oracle(self):
        chain = initial_chain(RFunctor(), max_depth=8, cap=10_000)
        verdict = recursive_oracle(chain.mu_coalgebra(), max_carrier=2,
                                   cap=1_000_000)
        assert verdict.passed()


class TestUnfold:
    def test_predecessor_unfolds_to_numerals(self):
        coalg = predecessor(2)
        result = unfold_to_mu(coalg)
        assert preserves_inverse_images(coalg.functor)  # so the report is final
        node = result.as_dict()
        # 2 unfolds to the depth-2 numeral inj0(inj0(inj1(u0))), one node a level
        assert len(result.nodes) == 3
        assert result.nodes[node[0]] == inj(1, const("u0"))
        assert result.nodes[node[1]] == inj(0, elem(node[0]))
        assert result.nodes[node[2]] == inj(0, elem(node[1]))

    def test_quicksort_collapses_to_its_distinct_terms(self):
        coalg, _ = quicksort(lists_up_to("abc", 6))
        assert (len(coalg.carrier), len(unfold_to_mu(coalg).nodes)) == (1093, 371)

    def test_states_share_a_node_iff_their_closed_terms_are_equal(self):
        coalg, _ = quicksort(lists_up_to("abc", 4))
        result = unfold_to_mu(coalg)
        node = result.as_dict()
        closed = {}

        def term(a):  # the closed term of a state, by recursion on its depth
            if a not in closed:
                closed[a] = eval_map(coalg.functor, term, coalg.alpha(a))
            return closed[a]
        for a in coalg.carrier:
            assert result.nodes[node[a]] == eval_map(coalg.functor, node.__getitem__,
                                                     coalg.alpha(a))
        assert len(set(result.nodes)) == len(result.nodes)
        assert len(set(map(term, coalg.carrier))) == len(result.nodes)
        for a in coalg.carrier:
            for b in coalg.carrier:
                assert (node[a] == node[b]) == (term(a) == term(b))

    def test_self_loop_reports_its_cycle(self):
        c = Coalgebra(Sum((Id(), Const(UNIT))), Carrier(("s",)),
                      (inj(0, elem("s")),))
        result = unfold_to_mu(c)
        assert result.mapping is None and result.nodes is None
        assert result.cycle == ("s",)

    def test_r_coalgebra_cycle_but_hom_exists(self):
        # unfolding fails on the cycle, yet the hom into muR exists:
        # both states to the point
        r = r_coalgebra()
        chain = initial_chain(r.functor, max_depth=8, cap=10_000)
        result = unfold_to_mu(r)
        assert result.cycle is not None
        assert not preserves_inverse_images(r.functor)  # so the report is not final
        homs = find_homs(r, chain.mu_algebra(), cap=1_000_000)
        assert len(homs) == 1
        assert homs[0](0) == homs[0](1)
        assert chain.mu_coalgebra().alpha(homs[0](0)) == POINT


class TestOracles:
    def test_r_coalgebra_is_recursive(self):
        verdict = recursive_oracle(r_coalgebra(), max_carrier=2,
                                   cap=10_000_000)
        assert verdict.passed()
        # size 0 is skipped: R(empty) is nonempty, so no algebra exists there
        assert verdict.sizes_checked == (1, 2)

    def test_r_coalgebra_is_not_parametrically_recursive(self):
        verdict = parametric_oracle(r_coalgebra(), max_carrier=2,
                                    cap=10_000_000)
        assert not verdict.passed()
        w = verdict.witness
        assert w is not None and w.solution_count != 1

    def test_the_exhibit_triple(self):
        r = r_coalgebra()
        assert recursive_oracle(r, max_carrier=2, cap=10_000_000).passed()
        assert not parametric_oracle(r, max_carrier=2, cap=10_000_000).passed()
        assert not is_wellfounded(r)

    def test_self_loop_powerset_is_not_recursive(self):
        c = Coalgebra(PowFin(Id()), Carrier(("s",)),
                      (fset(elem("s")),))
        verdict = recursive_oracle(c, max_carrier=2, cap=10_000_000)
        assert not verdict.passed()

    def test_wellfounded_implies_both_oracles_pass(self):
        rng = random.Random(109)
        seen = 0
        while seen < 8:
            c = random_instance(rng, depth=1, max_size=3, size_cap=32,
                                allow_r=False)
            if not is_wellfounded(c):
                continue
            seen += 1
            assert recursive_oracle(c, max_carrier=2, cap=10_000_000).passed()
            assert parametric_oracle(c, max_carrier=2,
                                     cap=10_000_000).passed()

    def test_empty_coalgebra_is_recursive(self):
        c = Coalgebra(PowFin(Id()), Carrier(()), ())
        assert recursive_oracle(c, max_carrier=2, cap=10_000_000).passed()


class TestFindHoms:
    def test_unique_hom_for_r_example(self):
        r = r_coalgebra()
        target = Carrier((0, 1, 2))
        from wfcoalg import eval_obj
        table = {}
        for v in eval_obj(RFunctor(), target):
            table[v] = 2 if v == POINT else 0
        alg = Algebra.from_table(RFunctor(), target, table)
        homs = find_homs(r, alg, cap=1_000_000)
        assert len(homs) == 1
        assert homs[0](0) == homs[0](1) == 2

    def test_deterministic_order(self):
        g = graph_g()
        target = Carrier((0, 1))
        from wfcoalg import eval_obj
        table = {v: len(v) % 2 for v in eval_obj(g.functor, target)}
        alg = Algebra.from_table(g.functor, target, table)
        first = [h.values for h in find_homs(g, alg, cap=1_000_000)]
        second = [h.values for h in find_homs(g, alg, cap=1_000_000)]
        assert first == second
