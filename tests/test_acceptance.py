"""End-to-end checks over the worked examples and the general laws.

Each test covers one headline claim and prints a single PASS/FAIL line
(run with ``pytest -s`` to see them on success).
"""

import math
import random
import time
from contextlib import contextmanager

from wfcoalg import (Carrier, Coalgebra, Const, FinMap, Id, PowFin, RFunctor,
                     Subobject, all_subsets,
                     enumerate_homs, eval_map, eval_obj, find_homs, hylo,
                     induced_subcoalgebra, initial_chain,
                     is_cartesian, is_coalgebra_hom, is_subcoalgebra,
                     is_wellfounded, next_time, para_hylo, parametric_oracle,
                     quotient, recursive_oracle, wf_part)
from wfcoalg.demos import (factorial_scheme, fibonacci_scheme, graph_g,
                           quicksort, r_coalgebra)

from generators import lists_up_to, random_instance, random_map
from setalg import coproduct, direct_image, from_callable, inverse_image, is_injective
from test_coalgebra import next_time_brute
from values import POINT


@contextmanager
def report(name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL  {name}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"{name}: {elapsed:.1f}s over {budget_s}s budget"
    print(f"PASS  {name} ({elapsed:.2f}s)")


def test_graph_g_landmark():
    with report("graph G: subcoalgebras, cartesian ones, well-founded part", 1.0):
        g = graph_g()
        subs = {s.sorted_members() for s in all_subsets(g.carrier)
                if is_subcoalgebra(g, s)}
        assert subs == {(), ("b",), ("a", "b"), ("c", "d"),
                        ("b", "c", "d"), ("a", "b", "c", "d")}
        cart = {s.sorted_members() for s in all_subsets(g.carrier)
                if is_cartesian(g, s)}
        assert cart == {("a", "b"), ("a", "b", "c", "d")}
        assert wf_part(g).part.sorted_members() == ("a", "b")


def test_r_coalgebra_exhibit():
    with report("R-coalgebra: recursive, not parametrically recursive, "
                "not well-founded", 300.0):
        r = r_coalgebra()
        assert not is_wellfounded(r)

        rec = recursive_oracle(r, max_carrier=3, cap=10_000_000)
        assert rec.passed() and rec.sizes_checked == (1, 2, 3)

        par = parametric_oracle(r, max_carrier=3, cap=10_000_000)
        assert not par.passed()
        assert par.witness is not None and par.witness.solution_count != 1

        # the textbook-shaped witness: a target with two distinct points
        # where e((x0, x1), i) picks the i-th one; both the swap and the
        # identity assignment then solve the parametric equation
        target = Carrier((0, 1, 2))

        def e(v, i):
            if v is not POINT:
                return v[i]
            return 0

        solutions = []
        for h0 in target:
            for h1 in target:
                h = {0: h0, 1: h1}.__getitem__
                if all(h(i) == e(eval_map(RFunctor(), h, r.alpha(i)), i)
                       for i in r.carrier):
                    solutions.append((h0, h1))
        assert len(solutions) >= 2
        assert (0, 1) in solutions and (1, 0) in solutions


def test_quicksort_against_reference_sort():
    with report("quicksort hylomorphism vs sorted(), lists of length <= 6 "
                "over 3 letters", 30.0):
        coalg, alg = quicksort(lists_up_to("abc", 6))
        h = hylo(coalg, alg)
        assert len(coalg.carrier) == sum(3 ** k for k in range(7))
        for xs in coalg.carrier:
            assert h(xs) == tuple(sorted(xs))


def test_factorial_and_fibonacci():
    with report("parametric recursion: n! for n <= 5, Fib(n) for n <= 7", 1.0):
        coalg, target, step = factorial_scheme(5)
        fact = para_hylo(coalg, target, step)
        for n in range(6):
            assert fact(n) == math.factorial(n)

        coalg, target, step = fibonacci_scheme(7, 0, 1)
        fib = para_hylo(coalg, target, step)
        table = [0, 1]
        while len(table) < 8:
            table.append(table[-1] + table[-2])
        for n in range(8):
            assert fib(n) == table[n]


def _check_laws(coalg, rng):
    carrier = coalg.carrier
    subsets = list(all_subsets(carrier))
    images = {s: next_time(coalg, s) for s in subsets}

    # monotone, and the support route agrees with the pullback route
    for s in subsets:
        assert images[s] == next_time_brute(coalg, s)
        for t in subsets:
            if s <= t:
                assert images[s] <= images[t]

    # Galois connection between direct and inverse images
    f = random_map(rng, carrier, Carrier(tuple(range(3))))
    for s in all_subsets(f.cod):
        for t in subsets:
            assert (direct_image(f, t) <= s) == (t <= inverse_image(f, s))

    # the well-founded part is the least fixed point of next time
    part = wf_part(coalg).part
    fixed = [s for s in subsets if images[s] == s]
    assert part in fixed and all(part <= s for s in fixed)
    return part


def _check_hom_laws(src, dst):
    for f in enumerate_homs(src, dst, cap=50_000):
        for s in all_subsets(dst.carrier):
            lhs = next_time(src, inverse_image(f, s))
            rhs = inverse_image(f, next_time(dst, s))
            assert lhs <= rhs  # preimages of invariants stay invariant
            from wfcoalg import preserves_inverse_images
            if is_injective(f) or preserves_inverse_images(dst.functor):
                assert lhs == rhs


def test_law_suite_on_random_coalgebras():
    with report("law suite: 500 random coalgebras, zero violations", 240.0):
        rng = random.Random(20260826)
        wellfounded = []
        for i in range(500):
            coalg = random_instance(rng, depth=2, max_size=4, size_cap=256)
            _check_laws(coalg, rng)
            if is_wellfounded(coalg):
                wellfounded.append(coalg)

            # closure under subcoalgebras
            if is_wellfounded(coalg):
                for s in all_subsets(coalg.carrier):
                    sub = induced_subcoalgebra(coalg, s)
                    if sub is not None:
                        assert is_wellfounded(sub)

        # homomorphism laws across same-functor pairs
        checked_homs = 0
        by_functor = {}
        for c in wellfounded:
            by_functor.setdefault(c.functor, []).append(c)
        for group in by_functor.values():
            for src in group[:3]:
                for dst in group[:3]:
                    if len(dst.carrier) ** len(src.carrier) <= 4096:
                        _check_hom_laws(src, dst)
                        checked_homs += 1

        # closure under strong quotients and coproducts
        quotients = coproducts = 0
        for c in wellfounded:
            if len(c.carrier) >= 2:
                merged = Carrier(("m",) + c.carrier.elements[2:])
                e = from_callable(
                    c.carrier, merged,
                    lambda x: "m" if x in c.carrier.elements[:2] else x)
                try:
                    q = quotient(c, e)
                except Exception:
                    continue
                assert is_wellfounded(q)
                quotients += 1
        for group in by_functor.values():
            for c1, c2 in zip(group, group[1:]):
                both, _, _ = coproduct(c1, c2)
                assert is_wellfounded(both)
                coproducts += 1

        assert len(wellfounded) >= 50
        assert checked_homs >= 10 and quotients >= 10 and coproducts >= 10


def test_wellfounded_implies_recursive():
    with report("equivalence suite: well-founded => both oracles pass", 240.0):
        rng = random.Random(4242)
        wf_seen = rec_seen = agree_back = 0
        while wf_seen < 40:
            coalg = random_instance(rng, depth=1, max_size=3, size_cap=32,
                                    allow_r=False)
            rec = recursive_oracle(coalg, max_carrier=3, cap=10_000_000)
            par = parametric_oracle(coalg, max_carrier=3, cap=10_000_000)
            if is_wellfounded(coalg):
                wf_seen += 1
                assert rec.passed(), "recursive oracle failed on a well-founded instance"
                assert par.passed(), "parametric oracle failed on a well-founded instance"
            elif par.passed():
                # evidence for the converse: a bounded oracle pass on a
                # non-well-founded instance would be a contradiction only if
                # the check were exhaustive; record it
                rec_seen += 1
            else:
                agree_back += 1
        assert wf_seen == 40


def test_initial_algebra_desk_checks():
    with report("initial algebras: muR = {d}; unique morphism from "
                "well-founded coalgebras; muF well-founded", 60.0):
        chain = initial_chain(RFunctor(), max_depth=8, cap=100_000)
        assert chain.stabilized and chain.stable_index == 1
        mu = chain.mu_coalgebra()  # one element, whose structure is d
        assert len(mu.carrier) == 1 and mu.structure == (POINT,)
        assert is_wellfounded(mu)

        rng = random.Random(777)
        functors = [RFunctor(), PowFin(Const(Carrier(("p",)))),
                    Const(Carrier(("p", "q")))]
        checked = 0
        for functor in functors:
            fchain = initial_chain(functor, max_depth=8, cap=100_000)
            assert fchain.stabilized
            assert is_wellfounded(fchain.mu_coalgebra())
            mu_alg = fchain.mu_algebra()
            for _ in range(10):
                size = rng.randint(0, 3)
                carrier = Carrier(tuple(range(size)))
                values = eval_obj(functor, carrier)
                if size and not values:
                    continue
                coalg = Coalgebra(functor, carrier,
                                  tuple(rng.choice(values) for _ in carrier))
                if not is_wellfounded(coalg):
                    continue
                homs = find_homs(coalg, mu_alg, cap=10_000_000)
                assert len(homs) == 1
                checked += 1
        assert checked >= 15
