"""The counted initial chain, and the stages over positions it builds on
demand, against the closed-term chain: every public field, folded into closed
terms here, agrees on named and generated functors."""

import io
import random
import sys
from typing import Any, List, NamedTuple, Optional, Tuple

import pytest

from wfcoalg import (Algebra, CapExceeded, Carrier, Coalgebra, Const, FinMap,
                     Id, InitialChain, InternalConsistencyError, PowFin, Sum, element_key,
                     eval_map, eval_obj, initial_chain, parse_functor)
from wfcoalg import cli
from wfcoalg.functor import DEFAULT_ENUM_CAP

from generators import random_functor
from setalg import is_injective


# --- test-only reference: the closed-term chain -----------------------------------

class ClosedChain(NamedTuple):
    stages: List[Carrier]
    maps: List[FinMap]
    stabilized: bool
    stable_index: Optional[int]
    capped: bool


def closed_chain(functor, max_depth: int, cap: int) -> ClosedChain:
    """W_{i+1} = F(W_i) as closed terms sorted by the node order, an element of
    W_i ordered by its place in W_i, with w_{i,i+1} = F(w_{i-1,i}) applied to
    closed terms."""
    stages = [Carrier(())]
    maps: List[FinMap] = []
    for i in range(max_depth + 1):
        try:
            values = eval_obj(functor, stages[i], cap=cap)
        except CapExceeded:
            return ClosedChain(stages, maps, False, None, True)
        place = {t: j for j, t in enumerate(stages[i])}
        nxt = Carrier(tuple(sorted(values, key=lambda v: element_key(
            eval_map(functor, place.__getitem__, v)))))
        if i == 0:
            w = FinMap(stages[0], nxt, ())
        else:
            w = FinMap(stages[i], nxt, tuple(
                eval_map(functor, maps[i - 1], v) for v in stages[i]))
        stages.append(nxt)
        maps.append(w)
        if len(stages[i]) == len(nxt) and is_injective(w):
            return ClosedChain(stages, maps, True, i, False)
    return ClosedChain(stages, maps, False, None, False)


def closed_mu_algebra(ref: ClosedChain, functor) -> Algebra:
    mu = ref.stages[ref.stable_index]
    w = ref.maps[ref.stable_index]
    inverse = {w(t): t for t in mu}
    return Algebra.from_table(functor, mu, {
        v: inverse[v] for v in eval_obj(functor, mu, cap=DEFAULT_ENUM_CAP)})


def closed_mu_coalgebra(ref: ClosedChain, functor) -> Coalgebra:
    mu = ref.stages[ref.stable_index]
    w = ref.maps[ref.stable_index]
    return Coalgebra(functor, mu, tuple(w(t) for t in mu))


def fold(chain) -> List[Tuple[Any, ...]]:
    """The position stages as closed terms: a value over stage-i positions
    becomes F applied to the closed terms at those positions."""
    terms: List[Tuple[Any, ...]] = [()]
    for values in chain.stages[1:]:
        terms.append(tuple(eval_map(chain.functor, terms[-1].__getitem__, v)
                           for v in values))
    return terms


# --- agreement --------------------------------------------------------------------

CARRIERS = {"K": Carrier(("k0", "k1")), "L": Carrier(("a", "b"))}
NAMED = ("1 + X", "K + X", "X * K + K", "2 + X * X", "R", "P(X)", "P(1 + X)",
         "X ^ L + 1")
CAP = 5_000


def assert_agrees(functor, max_depth: int, cap: int) -> None:
    chain = initial_chain(functor, max_depth, cap=cap)
    ref = closed_chain(functor, max_depth, cap)
    assert list(chain.sizes) == [len(s) for s in ref.stages]
    assert [len(s) for s in chain.stages] == [len(s) for s in ref.stages]
    terms = fold(chain)
    stages = tuple(map(Carrier, terms))
    assert stages == tuple(ref.stages)
    maps = tuple(FinMap(stages[i], stages[i + 1], tuple(terms[i + 1][j] for j in w))
                 for i, w in enumerate(chain.maps))
    assert [w.values for w in maps] == [w.values for w in ref.maps]
    assert maps == tuple(ref.maps)
    assert chain.stabilized == ref.stabilized
    assert chain.stable_index == ref.stable_index
    assert (chain.cap_exceeded is not None) == ref.capped
    if ref.stabilized:
        mu, coalg = terms[ref.stable_index], chain.mu_coalgebra()

        def term(v):  # a value over mu's positions, as a closed term
            return eval_map(functor, mu.__getitem__, v)
        assert coalg.carrier == Carrier(tuple(range(len(mu))))
        assert Carrier(mu) == ref.stages[ref.stable_index]
        assert {term(v): mu[j] for v, j in chain.mu_algebra().table.items()} \
            == closed_mu_algebra(ref, functor).table
        assert Coalgebra(functor, Carrier(mu), tuple(map(term, coalg.structure))) \
            == closed_mu_coalgebra(ref, functor)


@pytest.mark.parametrize("text", NAMED)
@pytest.mark.parametrize("depth", range(7))
def test_named_functors_agree_with_the_closed_chain(text, depth):
    assert_agrees(parse_functor(text, CARRIERS), depth, CAP)


def test_generated_functors_agree_with_the_closed_chain():
    rng = random.Random(61)
    for depth in (0, 1, 2):
        for _ in range(25):
            assert_agrees(random_functor(rng, depth), 6, CAP)


def test_index_values_name_stage_positions():
    chain = initial_chain(parse_functor("P(X)", {}), 4, cap=CAP)
    for i, values in enumerate(chain.stages[1:]):
        for v in values:
            assert all(0 <= item < len(chain.stages[i]) for item in v)


# --- depth and the cap --------------------------------------------------------------

def test_deep_successor_chain_needs_no_closed_terms():
    chain = initial_chain(parse_functor("1 + X", {}), 300)
    assert not chain.stabilized and chain.cap_exceeded is None
    assert [len(s) for s in chain.stages] == list(range(302))
    assert chain.maps[-1] == tuple(range(300))


def test_cap_is_recorded_on_the_chain():
    chain = initial_chain(parse_functor("P(X)", {}), 8, cap=1_000)
    assert [len(s) for s in chain.stages] == [0, 1, 2, 4, 16]
    assert not chain.stabilized
    assert str(chain.cap_exceeded) == "functor enumeration: more than 1000"


def test_cli_prints_sizes_without_folding_closed_terms(tmp_path, monkeypatch):
    built = []

    def recording(*args, **kwargs):
        built.append(initial_chain(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "initial_chain", recording)
    doc = tmp_path / "succ.txt"
    doc.write_text("functor = 1 + X\n")
    out = io.StringIO()
    assert cli.main(["initial-chain", str(doc), "--max-depth", "300"], out=out) == 1
    assert out.getvalue().splitlines()[-2:] == [
        "W301: 301 elements", "not stabilized within the depth bound"]
    assert not {"stages", "maps"} & set(vars(built[0]))


@pytest.mark.parametrize("functor, depth, code, last", [
    ("P(X)", 5, 3, "W5: 65536 elements"),
    ("1 + X", 300, 1, "W301: 301 elements")])
def test_cli_counts_the_chain_without_enumerating(tmp_path, monkeypatch,
                                                  functor, depth, code, last):
    calls = {"eval_obj": 0, "eval_map": 0}
    for name in calls:
        original = getattr(sys.modules["wfcoalg.functor"], name)

        def counting(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        for module in [m for n, m in sys.modules.items() if n.startswith("wfcoalg")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    doc = tmp_path / "f.txt"
    doc.write_text(f"functor = {functor}\n")
    out = io.StringIO()
    assert cli.main(["initial-chain", str(doc), "--max-depth", str(depth)], out=out) == code
    assert out.getvalue().splitlines()[-2] == last
    assert calls == {"eval_obj": 0, "eval_map": 0}
    initial_chain(parse_functor(functor, {}), 3).maps  # the counters count
    assert calls["eval_obj"] > 0 and calls["eval_map"] > 0


# --- the stages over indices are checked against the count ------------------------

class Forgetful(Sum):
    """1 + X whose F f sends every value to the constant: not injective."""

    def fmap(self, f, v):
        return next(self.enum(Carrier(())))


ONE_PLUS_X = Sum((Const(Carrier(("*",))), Id()))


@pytest.mark.parametrize("sizes", [(0, 1, 3), (0, 1, 1), (0, 2, 3), (0, 0)])
def test_a_stage_of_the_wrong_size_is_an_internal_error(sizes):
    chain = InitialChain(ONE_PLUS_X, sizes, None, None)
    with pytest.raises(InternalConsistencyError, match="is not of size"):
        chain.stages
    with pytest.raises(InternalConsistencyError, match="is not of size"):
        chain.maps


def test_stabilized_is_read_off_the_stable_index():
    # the record stores the index only, so it cannot claim a stable chain
    # without one: index 0 is a stable chain, None refuses mu F
    assert "__init__" not in vars(InitialChain)
    assert InitialChain(Const(Carrier(())), (0, 0), 0, None).stabilized
    chain = InitialChain(PowFin(Id()), (0, 1), None, None)
    assert not chain.stabilized
    with pytest.raises(ValueError, match="^chain did not stabilize$"):
        chain.mu_coalgebra()
    with pytest.raises(AttributeError):
        chain.stabilized = True


def test_a_non_injective_connecting_map_is_an_internal_error():
    chain = initial_chain(Forgetful(ONE_PLUS_X.parts), 3)
    assert chain.sizes == (0, 1, 2, 3, 4) and not chain.stabilized
    assert [len(s) for s in chain.stages] == [0, 1, 2, 3, 4]
    with pytest.raises(InternalConsistencyError, match="w_2,3 is not injective"):
        chain.maps


def test_cli_exits_3_when_the_cap_stops_p_of_x(tmp_path):
    doc = tmp_path / "px.txt"
    doc.write_text("functor = P(X)\n")
    out = io.StringIO()
    assert cli.main(["initial-chain", str(doc), "--max-depth", "5"], out=out) == 3
    assert out.getvalue() == (
        "W0: 0 elements\nW1: 1 elements\nW2: 2 elements\nW3: 4 elements\n"
        "W4: 16 elements\nW5: 65536 elements\n"
        "cap exceeded: functor enumeration: more than 10000000\n")


def test_cli_stabilized_verdict_is_unchanged(tmp_path):
    doc = tmp_path / "r.txt"
    doc.write_text("functor = R\n")
    out = io.StringIO()
    assert cli.main(["initial-chain", str(doc)], out=out) == 0
    assert out.getvalue() == ("W0: 0 elements\nW1: 1 elements\nW2: 1 elements\n"
                              "stabilized at index 1; |mu F| = 1\n")
