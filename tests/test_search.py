"""The candidate search and the table search against the scans they replace,
and the size checks that saturate at the cap."""

import io
import random
from itertools import product
from typing import Any, Dict, List, Tuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wfcoalg import (Algebra, CapExceeded, Carrier, Coalgebra, Const, FinMap,
                     Id, PowFin, Prod, RFunctor, enumerate_homs,
                     eval_map, eval_obj, find_homs, is_coalgebra_hom,
                     parametric_oracle, recursive_oracle)
from wfcoalg import coalgebra as coalgebra_module
from wfcoalg import recursion as recursion_module
from wfcoalg.cli import main
from wfcoalg.demos import predecessor
from wfcoalg.functor import size_obj
from wfcoalg.recursion import OracleVerdict, OracleWitness

from generators import bounded_functor, random_coalgebra, random_instance
from setalg import all_maps


# --- test-only references: the scans over every map and every table ------------

def find_homs_scan(coalg: Coalgebra, alg: Algebra) -> List[FinMap]:
    return [h for h in all_maps(coalg.carrier, alg.carrier)
            if all(h(a) == alg.operation(eval_map(coalg.functor, h, coalg.alpha(a)))
                   for a in coalg.carrier)]


def enumerate_homs_scan(src: Coalgebra, dst: Coalgebra) -> List[FinMap]:
    return [f for f in all_maps(src.carrier, dst.carrier)
            if is_coalgebra_hom(f, src, dst)]


def solution_constraints_scan(coalg: Coalgebra, x: Carrier,
                              position: Dict[Any, int], parametric: bool
                              ) -> List[Tuple[Tuple[int, Any], ...]]:
    """For every candidate map h: A -> X, the algebra-table entries forced by
    'h is a solution'.  Internally conflicting candidates are dropped."""
    out = []
    elems = coalg.carrier.elements
    for values in product(x.elements, repeat=len(elems)):
        h = dict(zip(elems, values))
        forced: Dict[int, Any] = {}
        ok = True
        for a, ha in zip(elems, values):
            w = eval_map(coalg.functor, h.__getitem__, coalg.alpha(a))
            p = position[(w, a)] if parametric else position[w]
            if forced.get(p, ha) != ha:
                ok = False
                break
            forced[p] = ha
        if ok:
            out.append(tuple(forced.items()))
    return out


def oracle_scan(coalg: Coalgebra, max_carrier: int, cap: int,
                parametric: bool) -> OracleVerdict:
    """Every algebra table of each carrier size, in lexicographic order,
    counting the candidates that solve it."""
    sizes_checked: List[int] = []
    for n in range(max_carrier + 1):
        x = Carrier(tuple(range(n)))
        try:
            fx = sorted(eval_obj(coalg.functor, x, cap=cap), key=coalg.functor.sort_key)
        except CapExceeded:
            return OracleVerdict("pass", None, tuple(sizes_checked), False)
        if n == 0:
            if fx:
                continue
            count = 1 if len(coalg.carrier) == 0 else 0
            if count != 1:
                witness = OracleWitness(x, (), count)
                return OracleVerdict("fail", witness, tuple(sizes_checked), False)
            sizes_checked.append(0)
            continue
        if parametric:
            keys = [(w, a) for w in fx for a in coalg.carrier]
        else:
            keys = list(fx)
        if n ** len(keys) > cap:
            return OracleVerdict("pass", None, tuple(sizes_checked), False)
        position = {k: i for i, k in enumerate(keys)}
        constraints = solution_constraints_scan(coalg, x, position, parametric)
        for table in product(x.elements, repeat=len(keys)):
            count = 0
            for forced in constraints:
                for p, v in forced:
                    if table[p] != v:
                        break
                else:
                    count += 1
            if count != 1:
                witness = OracleWitness(x, tuple(zip(keys, table)), count)
                return OracleVerdict("fail", witness, tuple(sizes_checked), False)
        sizes_checked.append(n)
    return OracleVerdict("pass", None, tuple(sizes_checked), True)


def scan_tables(coalg: Coalgebra, max_carrier: int, parametric: bool) -> int:
    """The tables the scan enumerates at most, over every size it reaches."""
    per_state = len(coalg.carrier) if parametric else 1
    return sum(n ** (size_obj(coalg.functor, n) * per_state)
               for n in range(1, max_carrier + 1))


def random_algebra(rng: random.Random, functor, carrier: Carrier) -> Algebra:
    return Algebra.from_table(functor, carrier, {
        v: rng.choice(carrier.elements) for v in eval_obj(functor, carrier)})


# --- the candidate search --------------------------------------------------------

def test_find_homs_equals_the_scan():
    rng = random.Random(401)
    found = 0
    for _ in range(300):
        coalg = random_instance(rng, depth=rng.randint(1, 2), max_size=4,
                                size_cap=64)
        target = Carrier(tuple(f"b{i}" for i in range(rng.randint(1, 3))))
        if size_obj(coalg.functor, len(target), cap=200) > 200:
            continue
        alg = random_algebra(rng, coalg.functor, target)
        homs = find_homs(coalg, alg)
        assert [h.values for h in homs] == \
            [h.values for h in find_homs_scan(coalg, alg)]
        found += len(homs)
    assert found > 100


def test_find_homs_with_a_callable_algebra_outside_its_carrier():
    coalg = predecessor(2)
    alg = Algebra(coalg.functor, Carrier((0, 1)), lambda v: 7)
    assert find_homs(coalg, alg) == find_homs_scan(coalg, alg) == []


def test_enumerate_homs_equals_the_scan():
    rng = random.Random(409)
    found = 0
    for _ in range(300):
        size = rng.randint(1, 4)
        functor = bounded_functor(rng, rng.randint(1, 2), size, 64)
        src = random_coalgebra(rng, functor, Carrier(tuple(range(size))))
        # a quotient-sized target makes homomorphisms common
        dst_size = rng.randint(1, 3)
        dst_carrier = Carrier(tuple(f"d{i}" for i in range(dst_size)))
        if size_obj(functor, dst_size, cap=500) > 500:
            continue
        dst = random_coalgebra(rng, functor, dst_carrier)
        homs = list(enumerate_homs(src, dst))
        assert [f.values for f in homs] == \
            [f.values for f in enumerate_homs_scan(src, dst)]
        found += len(homs)
    assert found > 20


class Counting:
    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, v):
        self.calls += 1
        return self.fn(v)


class CountingTable(dict):
    """A table that counts its lookups."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_a_shared_cycle_is_placed_first():
    # every state points at the carrier's last state, which points at
    # itself; assigning states in carrier order would leave every equation
    # open until the last state, |B| ** (|A| - 1) partial maps
    rng = random.Random(17)
    functor = Prod((Const(Carrier(("u0", "u1"))), Id()))
    carrier = Carrier(tuple(f"a{i}" for i in range(4)))
    last = carrier.elements[-1]
    values = [v for v in eval_obj(functor, carrier) if v[1] == last]
    coalg = Coalgebra(functor, carrier, tuple(rng.choice(values) for _ in carrier))
    target = Carrier(tuple(f"b{i}" for i in range(17)))
    table = CountingTable({v: rng.choice(target.elements) for v in eval_obj(functor, target)})
    alg = Algebra(functor, target, table=table)
    homs = find_homs(coalg, alg)
    assert table.lookups <= len(target) * len(carrier)
    assert homs == find_homs_scan(coalg, Algebra.from_table(functor, target, table))


def test_find_homs_cap_check_builds_no_huge_power():
    coalg = predecessor(5000)
    alg = Algebra(coalg.functor, Carrier((0, 1)), lambda v: 0)
    with pytest.raises(CapExceeded) as info:
        find_homs(coalg, alg, cap=10_000_000)
    assert str(info.value) == "coalgebra-to-algebra search: more than 10000000"


# --- the table search --------------------------------------------------------------

def test_oracles_equal_the_scan():
    rng = random.Random(419)
    compared = {2: 0, 3: 0}
    fails = 0
    for _ in range(400):
        coalg = random_instance(rng, depth=1, max_size=3, size_cap=16)
        parametric = rng.random() < 0.5
        max_carrier = 3 if scan_tables(coalg, 3, parametric) <= 10 ** 5 else 2
        if scan_tables(coalg, max_carrier, parametric) > 10 ** 5:
            continue
        run = parametric_oracle if parametric else recursive_oracle
        verdict = run(coalg, max_carrier)
        assert verdict == oracle_scan(coalg, max_carrier, 10_000_000, parametric)
        compared[max_carrier] += 1
        fails += not verdict.passed()
    assert compared[2] > 50 and compared[3] > 50 and fails > 20


def test_predecessor_3_is_complete_at_size_3(monkeypatch):
    # the search plan, and with it the canonical graph, is built once per
    # oracle call, not once per carrier size
    builds = Counting(coalgebra_module.canonical_graph)
    monkeypatch.setattr(coalgebra_module, "canonical_graph", builds)
    verdict = parametric_oracle(predecessor(3), max_carrier=3)
    assert verdict == OracleVerdict("pass", None, (1, 2, 3), True)
    assert builds.calls == 1


def test_oracle_caps_bound_candidates_and_pairs():
    # four states with one constant structure: 3 ** 4 = 81 candidate maps
    # at size 3, of which the 3 constant ones are consistent
    u = Const(Carrier(("u",)))
    same = Coalgebra(u, Carrier(tuple(range(4))), tuple(eval_obj(u, Carrier(()))) * 4)
    assert recursive_oracle(same, 3, cap=80) == OracleVerdict("pass", None, (1, 2), False)
    assert recursive_oracle(same, 3, cap=81) == OracleVerdict("pass", None, (1, 2, 3), True)
    # 16 candidates at size 2, all consistent: 120 pairs to compare
    verdict = parametric_oracle(predecessor(3), max_carrier=2, cap=119)
    assert verdict == OracleVerdict("pass", None, (1,), False)
    assert parametric_oracle(predecessor(3), max_carrier=2, cap=120).complete


def listed_sizes(monkeypatch):
    """The carrier sizes at which the oracles list F(n), in call order."""
    sizes = []

    def eval_obj_spy(expr, x, cap):
        sizes.append(len(x))
        return eval_obj(expr, x, cap=cap)
    monkeypatch.setattr(recursion_module, "eval_obj", eval_obj_spy)
    return sizes


@pytest.mark.parametrize("run", [recursive_oracle, parametric_oracle])
def test_an_oracle_counts_candidates_before_it_lists(monkeypatch, run):
    # 2 ** 4 = 16 candidate maps at size 2, one over the cap: F(2) is not
    # listed, and size 1 passes, so F(1) is not listed either
    sizes = listed_sizes(monkeypatch)
    assert run(predecessor(3), 2, cap=15) == OracleVerdict("pass", None, (1,), False)
    assert sizes == []


def test_parametric_keys_are_counted_before_they_are_built(monkeypatch):
    # at size 1, |F(1)| * 4 states = 8 table keys against one candidate map
    sizes = listed_sizes(monkeypatch)
    assert parametric_oracle(predecessor(3), 1, cap=7) == OracleVerdict("pass", None, (), False)
    assert parametric_oracle(predecessor(3), 1, cap=8) == OracleVerdict("pass", None, (1,), True)
    assert recursive_oracle(predecessor(3), 1, cap=7) == OracleVerdict("pass", None, (1,), True)
    assert sizes == []


@pytest.mark.parametrize("run", [recursive_oracle, parametric_oracle])
def test_an_oracle_lists_f_n_only_at_the_failing_size(monkeypatch, run):
    # a -> {a} passes at size 1 and fails at size 2: e({0}) = 0, e({1}) = 1
    # has two solutions; F(2) is listed once, for the witness, and size 3
    # is never reached
    loop = Coalgebra(PowFin(Id()), Carrier(("a",)), (frozenset({"a"}),))
    sizes = listed_sizes(monkeypatch)
    verdict = run(loop, 3)
    assert (verdict.status, verdict.sizes_checked) == ("fail", (1,))
    assert verdict.witness.carrier == Carrier((0, 1))
    assert sizes == [2]


# --- size checks saturate at the cap ------------------------------------------------

def test_size_obj_saturates_at_the_cap():
    pppx = PowFin(PowFin(PowFin(Id())))
    assert size_obj(pppx, 3, cap=10 ** 7) == 10 ** 7 + 1
    assert size_obj(PowFin(PowFin(PowFin(RFunctor()))), 3, cap=10 ** 7) == 10 ** 7 + 1
    assert size_obj(pppx, 1, cap=10 ** 7) == 16
    assert size_obj(pppx, 1, cap=15) == 16
    assert size_obj(PowFin(Id()), 5, cap=10) == 11
    assert size_obj(Prod((pppx, pppx)), 3, cap=10) == 11
    assert size_obj(Prod((pppx, Const(Carrier(())))), 3, cap=10) == 0


def test_bounded_functor_at_depth_3_returns():
    # each of these seeds draws a functor with a powerset of more than
    # 2 ** 30 values before it draws one within the cap
    for seed in (244, 2510, 2815):
        expr = bounded_functor(random.Random(seed), 3, 3)
        assert 0 < size_obj(expr, 3) <= 1024


def test_cap_message_of_a_huge_powerset():
    # the last stage of initial-chain on P(X) with --max-depth 5: 2 ** 65536
    with pytest.raises(CapExceeded) as info:
        eval_obj(PowFin(Id()), Carrier(tuple(range(65536))), cap=10_000_000)
    assert str(info.value) == "functor enumeration: more than 10000000"


def test_initial_chain_on_pppx_stops_at_the_cap(tmp_path):
    doc = tmp_path / "ppp.txt"
    doc.write_text("functor = P(P(P(X)))\n")
    out = io.StringIO()
    assert main(["initial-chain", str(doc)], out=out) == 3
    assert out.getvalue() == ("W0: 0 elements\nW1: 4 elements\n"
                              "cap exceeded: functor enumeration: more than 10000000\n")
