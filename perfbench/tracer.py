"""Per-layer timing wrappers, installed from outside the program.

Each wrapper replaces a function where wfcoalg's modules look it up, not
where it is defined: eval_map and check_value recurse through their own
module's binding, which stays unwrapped, so only their outermost calls are
counted.  A layer's self time is its span minus the spans of the layers
it called.

Kernel layers are called millions of times on large inputs, so their
calls are only summed per job; the coarser layers also keep each span
(name, start, end, parent, job) in memory until the pass ends.
"""

from __future__ import annotations

import time

# (module, class, method) of each wrapped method
METHODS = {
    "finset.Subobject": ("finset", "Subobject", "__post_init__"),
    "finset.FinMap": ("finset", "FinMap", "__post_init__"),
    "coalgebra.find_cycle": ("coalgebra", "CanonicalGraph", "find_cycle"),
    "coalgebra.topological_order": ("coalgebra", "CanonicalGraph", "topological_order"),
}
KERNELS = {"functor.check_value", "functor.support", "functor.eval_map",
           "functor.eval_obj", "finset.Subobject", "finset.FinMap"}


class Tracer:
    """Spans and per-job counts for the wrapped layers."""

    def __init__(self):
        self.stack = []      # open frames: [layer, start, time in child layers]
        self.spans = []      # (layer, start, end, parent layer, job) of coarse layers
        self.jobs = {}       # job -> layer -> [calls, self seconds, inclusive seconds]
        self.facts = {}      # job -> name -> number, read off arguments and results
        self.job = None

    def start_job(self, job):
        self.job = job
        self.jobs[job] = {}
        self.facts[job] = {}

    def add(self, name, amount):
        facts = self.facts[self.job]
        facts[name] = facts.get(name, 0) + amount

    def wrap(self, layer, fn, after=None):
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        coarse = layer not in KERNELS

        def wrapper(*args, **kwargs):
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = end - frame[1]
                if stack:
                    stack[-1][2] += span
                totals = self.jobs[self.job].setdefault(layer, [0, 0.0, 0.0])
                totals[0] += 1
                totals[1] += span - frame[2]
                totals[2] += span
                if coarse:
                    spans.append((layer, frame[1], end, stack[-1][0] if stack else None,
                                  self.job))
            if after is not None:
                after(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _lines(tracer, args, result):
    tracer.add("textform.lines", args[0].count("\n") + 1)


def _values(tracer, args, result):
    tracer.add("functor.eval_obj.values", len(result))


def _rounds(tracer, args, result):
    tracer.add("wellfounded.wf_part.rounds", len(result.chain) - 1)


def _homs(tracer, args, result):
    coalg, alg = args[0], args[1]
    tracer.add("recursion.find_homs.candidates", len(alg.carrier) ** len(coalg.carrier))
    tracer.add("recursion.find_homs.found", len(result))


def _oracle(parametric):
    """Counts the algebra tables of every carrier size the oracle reached,
    and whether it decided: found a witness or checked every size.

    The table count is computed from the functor and the sizes, not
    counted inside the scan, which may stop early at a witness.
    """
    def after(tracer, args, result):
        from wfcoalg.functor import size_obj

        coalg = args[0]
        sizes = list(result.sizes_checked)
        if result.witness is not None:
            sizes.append(len(result.witness.carrier))
        per_state = len(coalg.carrier) if parametric else 1
        tracer.add("recursion.oracle.tables",
                   sum(n ** (size_obj(coalg.functor, n) * per_state) for n in sizes if n))
        tracer.add("recursion.oracle.decided", int(result.complete or not result.passed()))
    return after


def _stages(tracer, args, result):
    tracer.add("recursion.initial_chain.stages", len(result.stages))


# (layer, defining module, function, hook run on its result).  The wrapper
# replaces every binding of the function in wfcoalg's modules, except the
# defining module's own binding of check_value and eval_map, which recurse
# through it.
FUNCTIONS = [
    ("cli.main", "cli", "main", None),
    ("textform.parse_spec", "textform", "parse_spec", _lines),
    ("functor.check_value", "functor", "check_value", None),
    ("functor.support", "functor", "support", None),
    ("functor.eval_map", "functor", "eval_map", None),
    ("functor.eval_obj", "functor", "eval_obj", _values),
    ("coalgebra.next_time", "coalgebra", "next_time", None),
    ("coalgebra.canonical_graph", "coalgebra", "canonical_graph", None),
    ("wellfounded.wf_part", "wellfounded", "wf_part", _rounds),
    ("wellfounded.is_wellfounded", "wellfounded", "is_wellfounded", None),
    ("recursion.hylo", "recursion", "hylo", None),
    ("recursion.para_hylo", "recursion", "para_hylo", None),
    ("recursion.find_homs", "recursion", "find_homs", _homs),
    ("recursion.oracle", "recursion", "recursive_oracle", _oracle(False)),
    ("recursion.oracle", "recursion", "parametric_oracle", _oracle(True)),
    ("recursion.initial_chain", "recursion", "initial_chain", _stages),
]
RECURSIVE = {"check_value", "eval_map"}
LAYERS = sorted({layer for layer, *_ in FUNCTIONS} | set(METHODS))


def install(tracer):
    """Wrap every layer of the imported wfcoalg package."""
    import importlib

    modules = {name: importlib.import_module(f"wfcoalg.{name}")
               for name in ("cli", "textform", "functor", "finset", "coalgebra",
                            "wellfounded", "recursion", "demos")}
    modules["wfcoalg"] = importlib.import_module("wfcoalg")
    for layer, home, attr, after in FUNCTIONS:
        original = getattr(modules[home], attr)
        wrapped = tracer.wrap(layer, original, after)
        for name, module in modules.items():
            if name == home and attr in RECURSIVE:
                continue
            for binding, value in list(vars(module).items()):
                if value is original:
                    setattr(module, binding, wrapped)
    for layer, (home, cls, method) in METHODS.items():
        owner = getattr(modules[home], cls)
        setattr(owner, method, tracer.wrap(layer, getattr(owner, method)))
