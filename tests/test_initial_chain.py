"""The initial chain built over indices against the closed-term chain it
replaces: every public field agrees on named and generated functors."""

import io
import random
from typing import List, NamedTuple, Optional

import pytest

from wfcoalg import (Algebra, CapExceeded, Carrier, Coalgebra, FinMap,
                     eval_map, eval_obj, initial_chain, parse_functor)
from wfcoalg import cli
from wfcoalg.functor import DEFAULT_ENUM_CAP

from generators import random_functor


# --- test-only reference: the closed-term chain -----------------------------------

class ClosedChain(NamedTuple):
    stages: List[Carrier]
    maps: List[FinMap]
    stabilized: bool
    stable_index: Optional[int]
    capped: bool


def closed_chain(functor, max_depth: int, cap: int) -> ClosedChain:
    """W_{i+1} = F(W_i) as closed terms sorted by key, with
    w_{i,i+1} = F(w_{i-1,i}) applied to closed terms."""
    stages = [Carrier.empty()]
    maps: List[FinMap] = []
    for i in range(max_depth + 1):
        try:
            values = eval_obj(functor, stages[i], cap=cap)
        except CapExceeded:
            return ClosedChain(stages, maps, False, None, True)
        nxt = Carrier(tuple(sorted(values, key=lambda v: v.key())))
        if i == 0:
            w = FinMap(stages[0], nxt, ())
        else:
            w = FinMap(stages[i], nxt, tuple(
                eval_map(functor, maps[i - 1], v) for v in stages[i]))
        stages.append(nxt)
        maps.append(w)
        if len(stages[i]) == len(nxt) and w.is_injective():
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


# --- agreement --------------------------------------------------------------------

CARRIERS = {"K": Carrier(("k0", "k1")), "L": Carrier(("a", "b"))}
NAMED = ("1 + X", "K + X", "X * K + K", "2 + X * X", "R", "P(X)", "P(1 + X)",
         "X ^ L + 1")
CAP = 5_000


def assert_agrees(functor, max_depth: int, cap: int) -> None:
    chain = initial_chain(functor, max_depth, cap=cap)
    ref = closed_chain(functor, max_depth, cap)
    assert [len(s) for s in chain.index_stages] == [len(s) for s in ref.stages]
    assert chain.stages == tuple(ref.stages)
    assert [w.values for w in chain.maps] == [w.values for w in ref.maps]
    assert chain.maps == tuple(ref.maps)
    assert chain.stabilized == ref.stabilized
    assert chain.stable_index == ref.stable_index
    assert (chain.cap_exceeded is not None) == ref.capped
    if ref.stabilized:
        assert chain.mu_carrier() == ref.stages[ref.stable_index]
        assert chain.mu_algebra().table == closed_mu_algebra(ref, functor).table
        assert chain.mu_coalgebra() == closed_mu_coalgebra(ref, functor)


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
    for i, values in enumerate(chain.index_stages[1:]):
        for v in values:
            assert all(0 <= item.element < len(chain.index_stages[i])
                       for item in v.items)


# --- depth and the cap --------------------------------------------------------------

def test_deep_successor_chain_needs_no_closed_terms():
    chain = initial_chain(parse_functor("1 + X", {}), 300)
    assert not chain.stabilized and chain.cap_exceeded is None
    assert [len(s) for s in chain.index_stages] == list(range(302))
    assert chain.index_maps[-1] == tuple(range(300))


def test_cap_is_recorded_on_the_chain():
    chain = initial_chain(parse_functor("P(X)", {}), 8, cap=1_000)
    assert [len(s) for s in chain.index_stages] == [0, 1, 2, 4, 16]
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
    assert "stages" not in vars(built[0]) and "maps" not in vars(built[0])


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
