"""Seeded job lists for the three workloads, each job with its answer key.

A job is one CLI call on its own generated document.  Sizes and the mix of
commands are fixed per workload, so a pass costs about the same for every
seed; the seed picks names, carrier orders, edges and algebra tables.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, List, Optional, Tuple, Union

from . import model, reference as ref
from .model import C, E, P, R, S, T, X

# The CLI's default --max-enum, which the oracles and the initial chain use.
CLI_CAP = 10_000_000
BITS = ("e", "o")  # the two-element carrier T of every table algebra


@dataclass
class Job:
    """One CLI call, the document it reads and the outcomes that are correct."""

    id: str
    argv: List[str]
    doc: Optional[str] = None        # written to a file whose path ends argv
    states: int = 0                  # coalgebra states the call processes
    expect: List[Tuple[int, Union[str, Callable[[str], bool]]]] = field(default_factory=list)
    undecided_ok: bool = False       # exit 3 allowed: a cap of the program binds
    known_raise: Optional[str] = None  # exception of a known defect

    def accept(self, code, text):
        self.expect.append((code, hashlib.sha256(text.encode()).hexdigest()))

    @property
    def keep_text(self):
        return any(callable(check) for _, check in self.expect)


def _names(rng, prefix, n):
    ids = list(range(n))
    rng.shuffle(ids)
    return [f"{prefix}{i}" for i in ids]


def _document(functor, carriers, coalgebra=None, algebra=None, paralgebra=None):
    """Document text; ``coalgebra`` etc. are (header, lines) pairs."""
    lines = [f"carrier {name} = {' '.join(elems)}" for name, elems in carriers]
    lines.append(f"functor = {functor}")
    for block in (coalgebra, algebra, paralgebra):
        if block:
            lines.append(block[0])
            lines.extend("  " + line for line in block[1])
    return "\n".join(lines) + "\n"


@dataclass
class Coalg:
    """A generated coalgebra with the facts its key is computed from."""

    f: tuple
    functor: str
    carriers: list                 # extra named carriers (name, elements)
    built: list                    # acyclic states, successors first
    alpha: dict
    cyclic: list = field(default_factory=list)

    def order(self, rng, how):
        built = set(self.built)
        carrier = self.built + [a for a in self.alpha if a not in built]
        if how == "rev":
            carrier.reverse()
        elif how == "shuf":
            rng.shuffle(carrier)
        return carrier

    def succ(self):
        return {a: model.supp(self.f, v) for a, v in self.alpha.items()}

    def rank(self):
        return ref.ranks(self.built, self.succ(), self.cyclic)

    def text(self, carrier):
        return ("coalgebra C : A",
                [f"{a} -> {model.render(self.f, self.alpha[a])}" for a in carrier])


def _graph_job(rng, jid, c, how, cmd):
    """check-wf, wf-part, canonical-graph [--dot], hylo or para-hylo on ``c``."""
    carrier = c.order(rng, how)
    carriers = c.carriers + [("A", carrier)]
    job = Job(jid, cmd.split(), states=len(carrier))
    alg = par = None
    if cmd == "check-wf":
        job.accept(*ref.check_wf_text(c.rank()))
    elif cmd == "wf-part":
        job.accept(*ref.wf_part_text(c.rank()))
    elif cmd.startswith("canonical-graph"):
        job.accept(*ref.canonical_text(carrier, c.succ(), "--dot" in cmd))
    elif cmd == "hylo":
        table = {w: rng.choice(BITS) for w in model.enum(c.f, BITS)}
        alg = ("algebra E : T", [f"{model.render(c.f, w)} -> {x}" for w, x in table.items()])
        h = {}
        for a in c.built:
            h[a] = table[model.fmap(c.f, h, c.alpha[a])]
        job.accept(*ref.table_text(carrier, h))
    else:  # para-hylo: the result also depends on a per-state mark
        mark = {a: rng.randrange(2) for a in carrier}
        values = model.enum(c.f, BITS)
        salt = {w: rng.randrange(2) for w in values}

        def step(w, a):
            return BITS[salt[w] ^ mark[a]]

        par = ("paralgebra P : T @ A",
               [f"{model.render(c.f, w)} @ {a} -> {step(w, a)}"
                for w in values for a in carrier])
        h = {}
        for a in c.built:
            h[a] = step(model.fmap(c.f, h, c.alpha[a]), a)
        job.accept(*ref.table_text(carrier, h))
    if alg or par:
        carriers = carriers + [("T", BITS)]
    job.doc = _document(c.functor, carriers, c.text(carrier), alg, par)
    return job


# --- deep: long chains, rank depth close to the state count ------------------------

def _pred(rng, n):
    s = _names(rng, "s", n)
    f = S(X, C("nil"))
    alpha = {s[0]: ("in", 1, ("c", "nil"))}
    for i in range(1, n):
        alpha[s[i]] = ("in", 0, ("x", s[i - 1]))
    return Coalg(f, "X + U", [("U", ("nil",))], s, alpha)


def _fib(rng, n):
    s = _names(rng, "s", n)
    f = S(T(X, X), C("nil"))
    alpha = {s[0]: ("in", 1, ("c", "nil")), s[1]: ("in", 1, ("c", "nil"))}
    for i in range(2, n):
        other = s[rng.randrange(max(0, i - 4), i - 1)]
        pair = (("x", s[i - 1]), ("x", other))
        alpha[s[i]] = ("in", 0, ("tup", pair if rng.random() < 0.5 else pair[::-1]))
    return Coalg(f, "X * X + U", [("U", ("nil",))], s, alpha)


def _dag(rng, n):
    """A P(X) chain DAG plus a tail of states that reach a 3-cycle."""
    s = _names(rng, "s", n)
    m = n - max(4, n // 10)
    chain, tail = s[:m], s[m:]
    f = P(X)
    alpha = {chain[0]: ("set", frozenset())}
    for i in range(1, m):
        extra = rng.sample(chain[:i - 1], min(i - 1, rng.randrange(3)))
        alpha[chain[i]] = ("set", frozenset(("x", b) for b in [chain[i - 1]] + extra))
    cycle = tail[:3]
    for j, t in enumerate(cycle):
        alpha[t] = ("set", frozenset({("x", cycle[(j + 1) % 3]), ("x", rng.choice(chain))}))
    for t in tail[3:]:
        alpha[t] = ("set", frozenset({("x", rng.choice(cycle)), ("x", rng.choice(chain))}))
    return Coalg(f, "P(X)", [], chain, alpha, cyclic=cycle)


DEEP_SHAPES = {"pred": _pred, "fib": _fib, "dag": _dag}
DEEP_COMMANDS = {"pred": ("check-wf", "wf-part", "hylo", "para-hylo"),
                 "fib": ("check-wf", "wf-part", "hylo", "para-hylo"),
                 "dag": ("check-wf", "wf-part")}
DEEP_SIZES = (40, 50, 60, 80)
DEEP_LARGE = (("pred", "shuf", "check-wf", 300), ("fib", "fwd", "hylo", 300),
              ("dag", "rev", "wf-part", 300), ("pred", "fwd", "para-hylo", 250),
              ("fib", "shuf", "check-wf", 200))
# hylo on a reversed chain recurses once per state in
# CanonicalGraph.topological_order, past Python's default limit of 1000.
DEEP_DEFECT = ("pred", "rev", "hylo", 1050)


def deep(seed):
    rng = random.Random(f"deep-{seed}")
    plan = [(shape, how, cmd, n) for n in DEEP_SIZES
            for shape, cmds in DEEP_COMMANDS.items()
            for how in ("fwd", "shuf", "rev") for cmd in cmds]
    plan += list(DEEP_LARGE) + [DEEP_DEFECT]
    jobs = []
    for i, (shape, how, cmd, n) in enumerate(plan):
        job = _graph_job(rng, f"deep{i:03d}-{shape}-{how}-{cmd}-{n}", DEEP_SHAPES[shape](rng, n),
                         how, cmd)
        if (shape, how, cmd, n) == DEEP_DEFECT:
            job.known_raise = "RecursionError"
        jobs.append(job)
    return jobs


# --- wide: thousands of states, rank depth at most 4 ------------------------------

def _layers(rng, n, depth=4):
    s = _names(rng, "s", n)
    bounds = [n * k // (depth + 1) for k in range(depth + 2)]
    return s, [s[bounds[k]:bounds[k + 1]] for k in range(depth + 1)]


def _lower(rng, layers, k):
    """A state one layer below k, or any lower one."""
    return rng.choice(layers[k - 1] if rng.random() < 0.6 else layers[rng.randrange(k)])


def _lts(rng, n, cyclic=False):
    s, layers = _layers(rng, n)
    labels = ("a", "b", "c")
    f = P(T(C(*labels), X))
    alpha = {a: ("set", frozenset()) for a in layers[0]}
    for k in range(1, len(layers)):
        for a in layers[k]:
            edges = {("tup", (("c", rng.choice(labels)), ("x", rng.choice(layers[k - 1]))))}
            for _ in range(rng.randrange(3)):
                edges.add(("tup", (("c", rng.choice(labels)), ("x", _lower(rng, layers, k)))))
            alpha[a] = ("set", frozenset(edges))
    loop = []
    if cyclic:  # the last states of the top layer form a 2-cycle
        loop = layers[-1][-2:]
        for a, b in (loop, loop[::-1]):
            alpha[a] = ("set", frozenset(alpha[a][1] | {("tup", (("c", "a"), ("x", b)))}))
        for a in layers[-1][:len(layers[-1]) // 20]:
            alpha[a] = ("set", frozenset(alpha[a][1] | {("tup", (("c", "b"), ("x", loop[0])))}))
    built = [a for layer in layers for a in layer]
    return Coalg(f, "P(L * X)", [("L", labels)], built, alpha, cyclic=loop)


def _automaton(rng, n):
    """X^S * 2: every state has successors, so none is well-founded."""
    s = _names(rng, "s", n)
    f = T(E(("p", "q"), X), C("u0", "u1"))
    alpha = {a: ("tup", (("fun", (("x", rng.choice(s)), ("x", rng.choice(s)))),
                         ("c", rng.choice(("u0", "u1"))))) for a in s}
    return Coalg(f, "X^S * 2", [("S", ("p", "q"))], [], alpha, cyclic=s)


def _partial(rng, n):
    """(X + U)^S * 2: partial automata whose transitions go down the layers."""
    s, layers = _layers(rng, n)
    f = T(E(("p", "q"), S(X, C("nil"))), C("u0", "u1"))
    stop = ("in", 1, ("c", "nil"))
    alpha = {}
    for k, layer in enumerate(layers):
        for a in layer:
            moves = [stop, stop]
            if k:
                moves = [("in", 0, ("x", rng.choice(layers[k - 1]))),
                         ("in", 0, ("x", _lower(rng, layers, k))) if rng.random() < 0.7 else stop]
                rng.shuffle(moves)
            alpha[a] = ("tup", (("fun", tuple(moves)), ("c", rng.choice(("u0", "u1")))))
    built = [a for layer in layers for a in layer]
    return Coalg(f, "(X + U)^S * 2", [("S", ("p", "q")), ("U", ("nil",))], built, alpha)


def _tree(rng, n):
    """U + L * X + X * X: leaves, labelled unary and binary nodes."""
    s, layers = _layers(rng, n)
    labels = ("a", "b", "c")
    f = S(C("nil"), T(C(*labels), X), T(X, X))
    alpha = {a: ("in", 0, ("c", "nil")) for a in layers[0]}
    for k in range(1, len(layers)):
        for a in layers[k]:
            top = ("x", rng.choice(layers[k - 1]))
            if rng.random() < 0.5:
                alpha[a] = ("in", 1, ("tup", (("c", rng.choice(labels)), top)))
            else:
                alpha[a] = ("in", 2, ("tup", (top, ("x", _lower(rng, layers, k)))))
    built = [a for layer in layers for a in layer]
    return Coalg(f, "U + L * X + X * X", [("U", ("nil",)), ("L", labels)], built, alpha)


GRAPH = ("check-wf", "wf-part", "canonical-graph", "canonical-graph --dot")
WIDE_PLAN = ([("lts-cyclic", cmd) for cmd in GRAPH] + [("lts", "hylo")]
             + [("automaton", cmd) for cmd in GRAPH]
             + [("partial", cmd) for cmd in GRAPH + ("hylo",)]
             + [("tree", cmd) for cmd in GRAPH + ("hylo",)])
WIDE_SHAPES = {"lts-cyclic": lambda rng, n: _lts(rng, n, cyclic=True), "lts": _lts,
               "automaton": _automaton, "partial": _partial, "tree": _tree}
WIDE_SIZES = (1000, 1000, 1000, 1000, 1200)
WIDE_LARGE = (("lts-cyclic", "check-wf", 3000), ("tree", "hylo", 3000),
              ("partial", "wf-part", 2000), ("automaton", "canonical-graph --dot", 3000))


def wide(seed):
    rng = random.Random(f"wide-{seed}")
    plan = [(shape, cmd, n) for n in WIDE_SIZES for shape, cmd in WIDE_PLAN]
    plan += list(WIDE_LARGE)
    jobs = []
    for i, (shape, cmd, n) in enumerate(plan):
        c = WIDE_SHAPES[shape](rng, n)
        jobs.append(_graph_job(rng, f"wide{i:03d}-{shape}-{cmd.replace(' ', '')}-{n}", c,
                               rng.choice(("fwd", "shuf", "rev")), cmd))
    # Parse-free demos: quicksort over all 3,280 lists of length <= 7 on
    # three letters, and Fibonacci through a 317,812-element target.
    letters = list("aabbccc")
    rng.shuffle(letters)
    qs = Job("wide-demo-quicksort", ["demo", "quicksort", "--input", ",".join(letters)],
             states=3280)
    qs.accept(0, ",".join(sorted(letters)) + "\n")
    fib = Job("wide-demo-fibonacci", ["demo", "fibonacci", "--n", "28"], states=29)
    a, b = 0, 1
    for _ in range(28):
        a, b = b, a + b
    fib.accept(0, f"{a}\n")
    return jobs + [qs, fib]


# --- search: tiny documents, exhaustive enumeration ------------------------------

# (functor, document text, named carriers it needs)
SMALL = [
    (X, "X", []),
    (R, "R", []),
    (S(C("u0"), X), "1 + X", []),
    (S(X, R), "X + R", []),
    (S(C("u0"), T(X, X)), "1 + X * X", []),
    (P(X), "P(X)", []),
    (T(C("u0", "u1"), X), "2 * X", []),
    (S(R, C("u0")), "R + 1", []),
    (E(("p", "q"), X), "X^S", [("S", ("p", "q"))]),
    (S(C("u0"), P(X)), "1 + P(X)", []),
]
ORACLE_LIMIT = 20_000  # tables x candidates the program scans, at most


def _scan_cost(f, states, max_carrier, parametric):
    """Upper bound of the program's table scan, or None if a cap would bind."""
    cost = 0
    for n in range(1, max_carrier + 1):
        keys = model.size(f, n) * (states if parametric else 1)
        if n ** keys > CLI_CAP:
            return None
        cost += n ** keys * n ** states
    return cost


def _tiny(rng, f, functor, carriers, n):
    s = [f"{chr(97 + i)}{rng.randrange(10)}" for i in range(n)]
    values = model.enum(f, s)
    alpha = {a: rng.choice(values) for a in s}
    return Coalg(f, functor, carriers, [], alpha)


def _oracle_job(jid, c, parametric, max_carrier):
    carrier = list(c.alpha)
    cmd = "oracle-parametric" if parametric else "oracle-recursive"
    job = Job(jid, [cmd, "--max-carrier", str(max_carrier)], states=len(carrier),
              doc=_document(c.functor, c.carriers + [("A", carrier)], c.text(carrier)))
    oracle = ref.Oracle(c.f, carrier, c.alpha, parametric)
    verdict, size, passed, capped = oracle.decide(max_carrier, CLI_CAP)
    sizes = ", ".join(map(str, passed)) or "none"
    if verdict == "fail":
        job.expect.append((1, lambda text: oracle.witness_ok(size, text)))
    else:
        job.accept(0, f"pass (sizes checked: {sizes})\n")
    job.undecided_ok = capped is not None and (size is None or capped <= size)
    return job


def _chain_job(jid, f, functor, depth, carriers=()):
    job = Job(jid, ["initial-chain", "--max-depth", str(depth)],
              doc=_document(functor, list(carriers)))
    code, text, capped = ref.initial_chain_text(f, depth, CLI_CAP)
    job.accept(code, text)
    job.undecided_ok = capped
    return job


def _linear_chain_job(rng, jid, functor, width, depth):
    """An initial chain that grows by ``width`` per stage and never stabilizes.

    The constants get fresh names, so no two jobs share a functor.
    """
    atoms = tuple(f"k{rng.randrange(10**6)}x{i}" for i in range(width))
    f = {"K + X": S(C(*atoms), X), "X * K + K": S(T(X, C(*atoms)), C(*atoms))}[functor]
    return _chain_job(jid, f, functor, depth, [("K", atoms)])


def _homs_job(rng, jid, f, functor, width):
    c = _tiny(rng, f, functor, [], 4)
    carrier = list(c.alpha)
    b = _names(rng, "b", width)
    table = {w: rng.choice(b) for w in model.enum(f, b)}
    homs = ref.find_homs(f, carrier, c.alpha, b, table)
    job = Job(jid, ["find-homs"], states=len(carrier), doc=_document(
        functor, [("A", carrier), ("B", b)], c.text(carrier),
        ("algebra E : B", [f"{model.render(f, w)} -> {x}" for w, x in table.items()])))
    job.accept(*ref.find_homs_text(carrier, homs))
    return job


def _graph_g_demo():
    """The six subcoalgebras of a -> b, c <-> d, found by brute force."""
    succ = {"a": {"b"}, "b": set(), "c": {"d"}, "d": {"c"}}
    subsets = [set(x) for k in range(5) for x in combinations("abcd", k)]
    subs = [x for x in subsets if all(succ[a] <= x for a in x)]
    subs.sort(key=lambda x: (len(x), sorted(x)))
    cart = [x for x in subs if x == {a for a in succ if succ[a] <= x}]
    job = Job("search-landmark-graph-g", ["demo", "graph-g"], states=4)
    job.accept(0, "subcoalgebras: " + " ".join(ref.fmt_set(x) for x in subs) + "\n"
               + "cartesian: " + " ".join(ref.fmt_set(x) for x in cart) + "\n"
               + "well-founded part: {a, b}\n")
    return job


def _predecessor(rng, n):
    """The states 0..n with k -> k-1, over X + 1."""
    s = _names(rng, "s", n + 1)
    alpha = {s[0]: ("in", 1, ("c", "u0"))}
    alpha.update((s[i], ("in", 0, ("x", s[i - 1]))) for i in range(1, n + 1))
    return Coalg(S(X, C("u0")), "X + 1", [], s, alpha)


SEARCH_ORACLES = 92
# (functor, constants, depth, jobs).  The twelve equal jobs at depth 36
# put the 90th percentile of job times inside a run of equal costs.
SEARCH_CHAINS = (("K + X", 1, 20, 1), ("K + X", 2, 24, 1), ("K + X", 2, 28, 1),
                 ("X * K + K", 1, 20, 1), ("K + X", 1, 36, 12),
                 ("K + X", 1, 50, 1), ("K + X", 1, 60, 1))
SEARCH_HOMS = ((S(C("u0"), X), "1 + X", 10), (R, "R", 12),
               (S(C("u0"), X), "1 + X", 14), (T(C("u0", "u1"), X), "2 * X", 17))


def search(seed):
    rng = random.Random(f"search-{seed}")
    jobs = []
    seen = set()  # tiny documents repeat by chance; a repeat could be cached
    while len(jobs) < SEARCH_ORACLES:
        f, functor, carriers = rng.choice(SMALL)
        n = rng.randint(1, 4)
        parametric = rng.random() < 0.5
        max_carrier = rng.choice((2, 3))
        cost = _scan_cost(f, n, max_carrier, parametric)
        if cost is None or cost > ORACLE_LIMIT:
            continue
        job = _oracle_job(f"search{len(jobs):03d}-{functor.replace(' ', '')}",
                          _tiny(rng, f, functor, carriers, n), parametric, max_carrier)
        if (job.doc, max_carrier) not in seen:
            seen.add((job.doc, max_carrier))
            jobs.append(job)
    for functor, width, depth, count in SEARCH_CHAINS:
        for i in range(count):
            jobs.append(_linear_chain_job(
                rng, f"search-chain-{functor.replace(' ', '')}-{width}-{depth}-{i}",
                functor, width, depth))
    for f, functor, width in SEARCH_HOMS:
        jobs.append(_homs_job(rng, f"search-homs-{functor.replace(' ', '')}-{width}",
                              f, functor, width))
    # The paper's landmarks: the R coalgebra is recursive but not
    # parametrically recursive, mu R = {d}, and graph G.
    r = Coalg(R, "R", [], [], {"x": ("rp", "x", "y"), "y": ("rp", "x", "y")})
    jobs.append(_oracle_job("search-landmark-r-recursive", r, False, 3))
    jobs.append(_oracle_job("search-landmark-r-parametric", r, True, 2))
    demo = _oracle_job("search-landmark-r-demo", Coalg(
        R, "R", [], [], {"0": ("rp", "0", "1"), "1": ("rp", "0", "1")}), True, 2)
    demo.argv, demo.doc = ["oracle-parametric", "--demo", "r-coalgebra"], None
    jobs.append(demo)
    jobs.append(_chain_job("search-landmark-mu-r", R, "R", 16))
    jobs.append(_graph_g_demo())
    # Slow and defective calls kept on purpose so they show as numbers.
    jobs.append(_oracle_job("search-pred2-parametric-3", _predecessor(rng, 2), True, 3))
    jobs.append(_oracle_job("search-pred3-parametric-3", _predecessor(rng, 3), True, 3))
    ppp = _chain_job("search-chain-PPP", P(P(P(X))), "P(P(P(X)))", 16)
    ppp.known_raise = "ValueError"  # str() of a 2^65536 cap size
    jobs.append(ppp)
    return jobs


WORKLOADS = {"deep": deep, "wide": wide, "search": search}
