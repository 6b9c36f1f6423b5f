"""The benchmark's per-layer tracer names wfcoalg functions and methods by
hand; each of them must still resolve, and each result hook must still read
the fields it reads, so a rename fails here and not only in a traced run."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the checkout root

from perfbench import tracer  # noqa: E402

from wfcoalg import Carrier, initial_chain, parse_spec, parse_functor  # noqa: E402
from wfcoalg.demos import predecessor  # noqa: E402


def module(name):
    return importlib.import_module(f"wfcoalg.{name}")


def test_every_function_target_resolves():
    for layer, home, attr, _ in tracer.FUNCTIONS:
        assert callable(getattr(module(home), attr)), layer
    for name in tracer.RECURSIVE:
        assert callable(getattr(module("functor"), name))


def test_every_method_target_resolves():
    for layer, (home, cls, method) in tracer.METHODS.items():
        assert callable(getattr(getattr(module(home), cls), method)), layer


def test_the_result_hooks_read_real_results():
    recursion, wellfounded = module("recursion"), module("wellfounded")
    t = tracer.Tracer()
    t.start_job("job")
    text = "functor = P(X)\ncarrier A = s\ncoalgebra C : A\n  s -> {s}\n"
    tracer._lines(t, (text,), parse_spec(text))
    coalg = parse_spec(text).the_coalgebra(None)
    tracer._rounds(t, (coalg,), wellfounded.wf_part(coalg))
    for parametric in (False, True):
        run = recursion.parametric_oracle if parametric else recursion.recursive_oracle
        verdict = run(coalg, 2)
        assert verdict.witness is not None and not verdict.passed()
        tracer._oracle(parametric)(t, (coalg, 2), verdict)
    verdict = recursion.recursive_oracle(predecessor(1), 1)
    assert verdict.passed() and verdict.complete and verdict.sizes_checked == (1,)
    tracer._oracle(False)(t, (predecessor(1), 1), verdict)
    chain = initial_chain(parse_functor("P(X)", {}), 3)
    tracer._stages(t, (chain.functor, 3), chain)
    tracer._values(t, (), module("functor").eval_obj(chain.functor, Carrier((0,))))
    facts = t.facts["job"]
    assert facts["recursion.initial_chain.stages"] == len(chain.sizes) == 5
    assert facts["textform.lines"] == 5 and facts["recursion.oracle.decided"] == 3
