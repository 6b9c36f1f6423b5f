"""The rank pass over the canonical graph against brute-force references,
and the recursion entry points that rely on it."""

import os
import random
import subprocess
import sys
import time
from itertools import takewhile
from typing import Any, Dict, List, Optional, Tuple

import pytest

import wfcoalg
from wfcoalg import (Algebra, Carrier, CanonicalGraph, Coalgebra,
                     InternalConsistencyError, Subobject,
                     canonical_graph, element_key, eval_map, hylo, is_wellfounded,
                     next_time, para_hylo, parse_spec, preserves_inverse_images,
                     unfold_to_mu, wf_part)
from wfcoalg import coalgebra as coalgebra_module
from wfcoalg import demos
from wfcoalg import functor as functor_module
from wfcoalg.demos import (automaton, fibonacci_coalgebra, graph_g,
                           predecessor, quicksort, r_coalgebra)

from generators import bounded_functor, lists_up_to, random_coalgebra, random_instance
from values import POINT, const, elem, inj, pair


# --- test-only references -------------------------------------------------------

def kleene_chain(coalg: Coalgebra) -> List[Subobject]:
    """next-time iterated from the empty set until two stages agree."""
    current = Subobject(coalg.carrier)
    chain = [current]
    while True:
        nxt = next_time(coalg, current)
        chain.append(nxt)
        if nxt == current:
            return chain
        current = nxt


def dfs_cycle(graph: CanonicalGraph) -> Optional[List[Any]]:
    """The first cycle met by a depth-first search from each vertex in
    vertex order, successors taken in ``element_key`` order."""
    color: Dict[Any, int] = {}  # 0 absent, 1 on stack, 2 done
    parent: Dict[Any, Any] = {}
    for root in graph.vertices:
        if color.get(root):
            continue
        stack = [(root, iter(sorted(graph.successors(root), key=element_key)))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            for nxt in it:
                c = color.get(nxt, 0)
                if c == 1:
                    cycle = [node]
                    while cycle[-1] != nxt:
                        cycle.append(parent[cycle[-1]])
                    cycle.reverse()
                    return cycle
                if c == 0:
                    color[nxt] = 1
                    parent[nxt] = node
                    stack.append((nxt, iter(sorted(graph.successors(nxt),
                                                   key=element_key))))
                    break
            else:
                color[node] = 2
                stack.pop()
    return None


def reference_plan(graph: CanonicalGraph) -> List[Tuple[Any, bool, Tuple[Any, ...]]]:
    """The search plan as a second Kahn pass of its own, with a LIFO ready
    stack: a vertex is placed, settled, once its whole support is; when
    every unplaced vertex waits on another, the walk from the first unplaced
    vertex to its least unplaced successor places the first vertex it meets
    twice, unsettled."""
    waiting = {a: len(succ) for a, succ in graph.succ}
    preds: Dict[Any, List[Any]] = {a: [] for a in graph.vertices}
    for a, succ in graph.succ:
        for b in succ:
            preds[b].append(a)
    ready = [a for a in graph.vertices if not waiting[a]]
    states = graph.vertices.elements
    first = 0  # every state before it is placed
    placed: set = set()
    plan = []
    while len(plan) < len(states):
        settled = bool(ready)
        if settled:
            a = ready.pop()
        else:
            while states[first] in placed:
                first += 1
            a = states[first]
            walk = set()
            while a not in walk:
                walk.add(a)
                a = min((b for b in graph.successors(a) if b not in placed),
                        key=element_key)
        placed.add(a)
        after = []
        for b in preds[a]:
            waiting[b] -= 1
            if not waiting[b]:
                (after if b in placed else ready).append(b)
        plan.append((a, settled, tuple(after)))
    return plan


def instances():
    yield from (graph_g(), r_coalgebra(), automaton(), predecessor(6),
                fibonacci_coalgebra(6))
    rng = random.Random(131)
    for _ in range(300):
        yield random_instance(rng, depth=2, max_size=6)


def random_digraph(rng: random.Random) -> CanonicalGraph:
    n = rng.randint(1, 12)
    density = rng.choice((0.05, 0.1, 0.2, 0.35))
    vertices = list(range(n))
    rng.shuffle(vertices)
    return CanonicalGraph(Carrier(tuple(vertices)), tuple(
        (v, frozenset(w for w in range(n) if rng.random() < density))
        for v in vertices))


# --- the pass against the references --------------------------------------------

def test_wf_part_and_chain_match_kleene_iteration():
    for c in instances():
        result = wf_part(c)
        reference = kleene_chain(c)
        assert len(result.chain) == len(reference)
        assert list(result.chain) == reference
        assert list(result.chain.stage_texts()) == [
            ", ".join(map(str, s.sorted_members())) for s in reference]
        assert result.chain[-1] == result.chain[-2] == result.part
        assert result.part == reference[-1]


def test_stage_texts_join_each_stage_in_element_key_order():
    # ints sort by value and mixed labels by kind, not by their str
    rng = random.Random(137)
    labels = (tuple(range(12)), ("s10", "s9", "b", "a10", "a2", "B"),
              (1, "a", None, (0, "b"), False, 10, "B", (1,)))
    for _ in range(200):
        pool = rng.choice(labels)
        carrier = Carrier(tuple(rng.sample(pool, rng.randint(1, len(pool)))))
        functor = bounded_functor(rng, depth=2, carrier_size=len(carrier), size_cap=4096)
        chain = wf_part(random_coalgebra(rng, functor, carrier)).chain
        assert list(chain.stage_texts()) == [
            ", ".join(str(a) for a in sorted(stage.members, key=element_key))
            for stage in chain]


def test_chain_slices_as_a_tuple():
    bounds = (None, -4, -1, 0, 1, 2, 5)
    for c in instances():
        chain = wf_part(c).chain
        stages = tuple(chain)
        for i in bounds:
            for j in bounds:
                for k in (None, 1, 2, -1, -3):
                    assert chain[i:j:k] == stages[i:j:k]
    assert wf_part(predecessor(3)).chain[1:3] == tuple(kleene_chain(predecessor(3))[1:3])


def test_verdict_matches_both_references():
    for c in instances():
        expected = kleene_chain(c)[-1].is_full()
        assert is_wellfounded(c) == expected
        assert (dfs_cycle(canonical_graph(c)) is None) == expected


def test_cycle_witness_matches_depth_first_search():
    graphs = [canonical_graph(c) for c in instances()]
    rng = random.Random(137)
    graphs += [random_digraph(rng) for _ in range(600)]
    cyclic = 0
    for graph in graphs:
        witness = graph.find_cycle()
        assert witness == dfs_cycle(graph)
        if witness is not None:
            cyclic += 1
            assert all(b in graph.successors(a)
                       for a, b in zip(witness, witness[1:] + witness[:1]))
    assert 100 < cyclic < len(graphs) - 100


def test_topological_order_puts_successors_first():
    rng = random.Random(139)
    graphs = [canonical_graph(c) for c in instances()]
    graphs += [random_digraph(rng) for _ in range(300)]
    for graph in graphs:
        if not graph.is_acyclic():
            with pytest.raises(ValueError, match="cycle"):
                graph.topological_order()
            continue
        order = graph.topological_order()
        assert sorted(order, key=element_key) == \
            sorted(graph.vertices, key=element_key)
        position = {a: i for i, a in enumerate(order)}
        for a in order:
            assert all(position[b] < position[a] for b in graph.successors(a))


def breaks_and_segments(plan):
    """The unsettled vertices in order, and the settled vertices between
    them as sets."""
    breaks, segments = [], [set()]
    for a, settled, _ in plan:
        if settled:
            segments[-1].add(a)
        else:
            breaks.append(a)
            segments.append(set())
    return breaks, segments


def test_placement_matches_the_reference_plan():
    graphs = [canonical_graph(c) for c in instances()]
    rng = random.Random(149)
    graphs += [random_digraph(rng) for _ in range(600)]
    cyclic = 0
    for graph in graphs:
        plan = graph.placement()
        assert breaks_and_segments(plan) == breaks_and_segments(reference_plan(graph))
        order = [a for a, _, _ in plan]
        assert sorted(order, key=element_key) == sorted(graph.vertices, key=element_key)
        position = {a: i for i, a in enumerate(order)}
        completes = {}  # unsettled vertex -> the step that lists it in after
        for i, (a, settled, after) in enumerate(plan):
            if settled:
                assert all(position[b] < i for b in graph.successors(a))
            for b in after:
                assert b not in completes
                completes[b] = a
        unsettled = [a for a, settled, _ in plan if not settled]
        assert sorted(completes, key=element_key) == sorted(unsettled, key=element_key)
        for b, a in completes.items():
            assert a == max(graph.successors(b), key=position.__getitem__)
        prefix = takewhile(lambda step: step[1], plan)
        assert [a for a, _, _ in prefix] == list(graph.ranking)
        if unsettled:
            cyclic += 1
            assert unsettled[0] == graph.find_cycle()[0]
    assert 100 < cyclic < len(graphs) - 100


def self_loop_chain(n: int) -> CanonicalGraph:
    """Vertex i -> {i - 1, i}, the carrier in descending order: every
    placement step after the first stall walks back to the unplaced end."""
    vertices = tuple(range(n - 1, -1, -1))
    return CanonicalGraph(Carrier(vertices), tuple(
        (i, frozenset({max(i - 1, 0), i})) for i in vertices))


def test_the_rank_pass_stops_at_the_first_stall(monkeypatch):
    walks = []
    real = CanonicalGraph._walk

    def counting(self, walk, excluded):
        walks.append(next(iter(walk)))  # the vertex the walk started from
        return real(self, walk, excluded)

    monkeypatch.setattr(CanonicalGraph, "_walk", counting)
    graph = self_loop_chain(300)
    assert graph.ranking == {} and not graph.is_acyclic()
    assert walks == []
    assert graph.find_cycle() == [0]
    assert walks == [299]
    assert [a for a, settled, _ in graph.placement() if not settled] == list(range(300))
    assert walks == [299] * 301


def test_the_placement_resumes_its_walk():
    # every break of the chain places the vertex at the walk's end, so a walk
    # restarted from the first unplaced vertex made the placement quadratic:
    # about 16 s at 4,000 vertices
    for n in (1, 2, 300):
        assert self_loop_chain(n).placement() == reference_plan(self_loop_chain(n))
    graph = self_loop_chain(4000)
    start = time.perf_counter()
    plan = graph.placement()
    assert time.perf_counter() - start < 1.0
    assert plan == [(i, False, (i,)) for i in range(4000)]  # the reference's plan


# --- recursion on the pass --------------------------------------------------------

def reversed_predecessor(n: int) -> Coalgebra:
    c = predecessor(n)
    carrier = Carrier(tuple(reversed(c.carrier.elements)))
    return Coalgebra.from_dict(c.functor, carrier,
                               {a: c.alpha(a) for a in c.carrier})


def successor_count(v, _a=None):
    i, w = v
    return 0 if i == 1 else w + 1


def test_deep_reversed_chain_needs_no_recursion():
    n = 5000
    c = reversed_predecessor(n)
    counts = Carrier(tuple(range(n + 1)))
    h = hylo(c, Algebra(c.functor, counts, successor_count))
    assert all(h(a) == a for a in c.carrier)
    p = para_hylo(c, counts, successor_count)
    assert all(p(a) == a for a in c.carrier)
    unfolded = unfold_to_mu(c)
    assert unfolded.cycle is None and preserves_inverse_images(c.functor)
    assert len(unfolded.mapping) == n + 1
    assert unfolded.nodes[unfolded.as_dict()[0]] == inj(1, const("u0"))


def test_every_node_of_a_deep_unfolding_hashes_compares_and_prints():
    c = reversed_predecessor(3000)
    unfolded = unfold_to_mu(c)
    node = unfolded.as_dict()
    assert len(unfolded.nodes) == 3001
    for a in c.carrier:
        v = unfolded.nodes[node[a]]
        same = eval_map(c.functor, node.__getitem__, c.alpha(a))  # built afresh
        assert v == same and hash(v) == hash(same)
        assert element_key(v) == element_key(same) and repr(v) == repr(same)
    deepest = unfolded.nodes[node[3000]]
    assert repr(deepest) == repr(inj(0, elem(node[2999])))
    for k, v in enumerate(unfolded.nodes):  # each node after the nodes it names
        assert v[0] == 1 or v[1] < k


def test_hylo_computes_each_support_once(monkeypatch):
    checks, supports, steps = [], [], []
    real_check, real_support = functor_module.check_value, functor_module.support
    real_generated = demos.generated

    def counting_check(*args):
        checks.append(args[2])
        return real_check(*args)

    def counting_support(*args):
        supports.append(args[2])
        return real_support(*args)

    def counting_generated(functor, seeds, step, *cap):
        def counted(a):
            steps.append(a)
            return step(a)
        return real_generated(functor, seeds, counted, *cap)

    monkeypatch.setattr(demos, "generated", counting_generated)
    monkeypatch.setattr(coalgebra_module, "check_value", counting_check)
    for name, module in list(sys.modules.items()):
        if name.startswith("wfcoalg") and getattr(module, "support", None) is real_support:
            monkeypatch.setattr(module, "support", counting_support)
    coalg, alg = quicksort(lists_up_to("abc", 5))
    assert len(coalg.carrier) == 364
    assert steps == list(coalg.carrier)  # once per state, as it is reached
    h = hylo(coalg, alg)
    assert h(("c", "a", "b")) == ("a", "b", "c")
    assert len(steps) == len(coalg.carrier) and checks == [] and supports == []


def test_parse_spec_checks_no_coalgebra_row_again(monkeypatch):
    checks = []
    real_check = functor_module.check_value

    def counting_check(*args):
        checks.append(args[2])
        return real_check(*args)

    monkeypatch.setattr(coalgebra_module, "check_value", counting_check)
    doc = parse_spec("carrier L = l m\ncarrier A = a b c\nfunctor = P(L * X) + R\n"
                     "coalgebra C : A\n  a -> in0 {(l, b), (m, c), (l, c)}\n"
                     "  b -> in1 (a, c)\n  c -> in1 d\n")
    coalg = doc.the_coalgebra("C")
    assert checks == []  # the reader collected each support as it read the row
    assert coalg.supports == (frozenset("bc"), frozenset("ac"), frozenset())
    again = Coalgebra(coalg.functor, coalg.carrier, coalg.structure)
    assert checks == list(coalg.structure) and again.supports == coalg.supports


def test_parse_spec_checks_no_algebra_row_again(monkeypatch):
    checks = []
    real_check = functor_module.check_value

    def counting_check(*args):
        checks.append(args[2])
        return real_check(*args)

    monkeypatch.setattr(coalgebra_module, "check_value", counting_check)
    doc = parse_spec("carrier B = x y\nfunctor = R\nalgebra E : B\n"
                     "  d -> x\n  (x, y) -> y\n  (y, x) -> x\n")
    alg = doc.the_algebra("E")
    assert checks == []  # the reader built each key in F(B)
    assert alg.table == {POINT: "x", pair("x", "y"): "y", pair("y", "x"): "x"}
    again = Algebra.from_table(alg.functor, alg.carrier, alg.table)
    assert checks == list(alg.table) and again.table == alg.table


FICKLE_SCRIPT = """
from wfcoalg import Carrier, InternalConsistencyError, para_hylo
from wfcoalg.demos import predecessor

calls = []

def fickle(value, state):  # 0 on its first call, 1 on every later one
    calls.append(state)
    return 0 if len(calls) == 1 else 1

try:
    para_hylo(predecessor(0), Carrier((0, 1)), fickle)
except InternalConsistencyError as exc:
    print("raised:", exc)
"""


def test_square_check_catches_an_inconsistent_step():
    calls = []

    def fickle(value, state):  # 0 on its first call, 1 on every later one
        calls.append(state)
        return 0 if len(calls) == 1 else 1

    with pytest.raises(InternalConsistencyError):
        para_hylo(predecessor(0), Carrier((0, 1)), fickle)
    assert calls == [0, 0]


def test_square_check_survives_optimized_python():
    src = os.path.dirname(os.path.dirname(os.path.abspath(wfcoalg.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-O", "-c", FICKLE_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("raised: ")
