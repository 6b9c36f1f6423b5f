"""Batch command-line front end.

A command takes only the options it reads (see ``COMMANDS`` and ``demo``);
naming any other option is a usage error.

Exit codes: 0 the property holds / the value was computed, 1 the property
fails (a witness is printed), 2 usage or parse error, 3 an enumeration cap
was exceeded, 141 (as for SIGPIPE) stdout was closed before all was written.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional

from .errors import CapExceeded, WfcoalgError
from .finset import Subobject, all_subsets, element_key
from .coalgebra import (DEFAULT_SEARCH_CAP, canonical_graph, is_cartesian,
                        is_subcoalgebra, next_time)
from .wellfounded import is_wellfounded, wf_part
from .recursion import (find_homs, hylo, initial_chain, para_hylo,
                        parametric_oracle, recursive_oracle)
from .textform import (ParseError, SpecDocument, parse_spec, render_value)
from . import demos

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_PIPE = 141


def _fmt_subset(s: Subobject) -> str:
    return "{" + ", ".join(str(x) for x in s.sorted_members()) + "}"


def _load_document(args) -> SpecDocument:
    if args.demo_doc:
        return _demo_document(args.demo_doc)
    if not args.spec:
        raise WfcoalgError("give a spec file or --demo NAME")
    try:  # caught here, not in main: a BrokenPipeError is an OSError too
        with open(args.spec, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:  # no such file, a directory, no permission to read
        raise WfcoalgError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise WfcoalgError(f"{args.spec}: not UTF-8 text ({exc})") from None
    return parse_spec(text)


def _demo_document(name: str) -> SpecDocument:
    if name == "graph-g":
        g = demos.graph_g()
        return SpecDocument(g.functor, {"A": g.carrier}, coalgebras={"G": g})
    if name == "r-coalgebra":
        c = demos.r_coalgebra()
        return SpecDocument(c.functor, {"C": c.carrier}, coalgebras={"C": c})
    raise WfcoalgError(f"no built-in document {name!r} (try graph-g, r-coalgebra)")


def _cmd_check_wf(doc, args, out) -> int:
    coalg = doc.the_coalgebra(args.coalgebra)
    result = wf_part(coalg)
    if result.part.is_full():
        print("well-founded", file=out)
        return EXIT_OK
    print(f"not well-founded: well-founded part = {_fmt_subset(result.part)} != A",
          file=out)
    return EXIT_FAIL


def _cmd_wf_part(doc, args, out) -> int:
    result = wf_part(doc.the_coalgebra(args.coalgebra))
    for i, members in enumerate(result.chain.stage_texts()):
        print(f"step {i}: {{{members}}}", file=out)
    print(f"part: {{{members}}}", file=out)  # the last stage is the part
    return EXIT_OK


def _cmd_canonical_graph(doc, args, out) -> int:
    graph = canonical_graph(doc.the_coalgebra(args.coalgebra))
    if args.dot:
        print("digraph canonical {", file=out)
        ids = {v: str(v).replace("\\", "\\\\").replace('"', '\\"') for v in graph.vertices}
        for v in graph.vertices:
            for w in sorted(graph.successors(v), key=element_key):
                print(f'  "{ids[v]}" -> "{ids[w]}";', file=out)
        print("}", file=out)
    else:
        for v in graph.vertices:
            succ = " ".join(str(w) for w in
                            sorted(graph.successors(v), key=element_key))
            print(f"{v} -> {succ}" if succ else f"{v} ->", file=out)
    return EXIT_OK


def _cmd_hylo(doc, args, out, parametric: bool) -> int:
    coalg = doc.the_coalgebra(args.coalgebra)
    if parametric:
        par = doc.the_paralgebra(args.paralgebra)
        h = para_hylo(coalg, par.target, par)
    else:
        h = hylo(coalg, doc.the_algebra(args.algebra))
    for a in coalg.carrier:
        print(f"{a} -> {h(a)}", file=out)
    return EXIT_OK


def _cmd_initial_chain(doc, args, out) -> int:
    chain = initial_chain(doc.functor, args.max_depth, cap=args.max_enum)
    out.writelines(f"W{i}: {size} elements\n" for i, size in enumerate(chain.sizes))
    if chain.stabilized:
        print(f"stabilized at index {chain.stable_index}; "
              f"|mu F| = {chain.sizes[chain.stable_index]}", file=out)
        return EXIT_OK
    if chain.cap_exceeded is not None:
        print(f"cap exceeded: {chain.cap_exceeded}", file=out)
        return EXIT_CAP
    print("not stabilized within the depth bound", file=out)
    return EXIT_FAIL


def _cmd_find_homs(doc, args, out) -> int:
    coalg = doc.the_coalgebra(args.coalgebra)
    alg = doc.the_algebra(args.algebra)
    homs = find_homs(coalg, alg, cap=args.max_enum)
    print(f"found {len(homs)} morphisms", file=out)
    for i, h in enumerate(homs):
        body = ", ".join(f"{a} -> {h(a)}" for a in coalg.carrier)
        print(f"  [{i}] {body}", file=out)
    return EXIT_OK


def _cmd_oracle(doc, args, out, parametric: bool) -> int:
    coalg = doc.the_coalgebra(args.coalgebra)
    run = parametric_oracle if parametric else recursive_oracle
    verdict = run(coalg, args.max_carrier, cap=args.max_enum)
    sizes = ", ".join(map(str, verdict.sizes_checked))
    if not verdict.passed():
        w = verdict.witness
        print(f"fail at carrier size {len(w.carrier)}: "
              f"{w.solution_count} solutions", file=out)
        for k, v in w.table:
            if parametric:
                fv, a = k
                print(f"  {render_value(coalg.functor, fv)} @ {a} -> {v}", file=out)
            else:
                print(f"  {render_value(coalg.functor, k)} -> {v}", file=out)
        return EXIT_FAIL
    print(f"pass (sizes checked: {sizes or 'none'})", file=out)
    return EXIT_OK if verdict.complete else EXIT_CAP


def _cmd_demo(args, out) -> int:
    name = args.name
    if name == "quicksort":
        items = tuple(args.input.split(",")) if args.input else ()
        coalg, alg = demos.quicksort(tuple(sorted(set(items))) or ("a",),
                                     max(len(items), 1), cap=args.max_enum)
        h = hylo(coalg, alg)
        print(",".join(h(items)), file=out)
        return EXIT_OK
    if name in ("factorial", "fibonacci"):
        coalg, target, step = (
            demos.factorial_scheme(args.n, args.max_enum) if name == "factorial"
            else demos.fibonacci_scheme(args.n, args.a0, args.a1, args.max_enum))
        print(para_hylo(coalg, target, step)(args.n), file=out)
        return EXIT_OK
    if name == "graph-g":
        g = demos.graph_g()
        subs = [s for s in all_subsets(g.carrier) if is_subcoalgebra(g, s)]
        subs.sort(key=lambda s: (len(s.members), s.sorted_members()))
        print("subcoalgebras: " +
              " ".join(_fmt_subset(s) for s in subs), file=out)
        cart = [s for s in subs if is_cartesian(g, s)]
        print("cartesian: " + " ".join(_fmt_subset(s) for s in cart), file=out)
        print(f"well-founded part: {_fmt_subset(wf_part(g).part)}", file=out)
        return EXIT_OK
    if name == "r-coalgebra":
        c = demos.r_coalgebra()
        print(f"well-founded: {is_wellfounded(c)}", file=out)
        rec = recursive_oracle(c, args.max_carrier, cap=args.max_enum)
        par = parametric_oracle(c, args.max_carrier, cap=args.max_enum)
        print(f"recursive oracle: {'pass' if rec.passed() else 'fail'} "
              f"(sizes {list(rec.sizes_checked)})", file=out)
        print(f"parametric oracle: {'pass' if par.passed() else 'fail'}", file=out)
        undecided = any(v.passed() and not v.complete for v in (rec, par))
        return EXIT_CAP if undecided else EXIT_OK
    if name == "automaton":
        c = demos.automaton()
        verdict = is_wellfounded(c)
        print(f"deterministic automaton, {len(c.carrier)} states, "
              f"well-founded: {verdict}", file=out)
        return EXIT_OK
    if name == "lts":
        coalg, subset = demos.transition_system()
        print(f"next-time {_fmt_subset(subset)} = "
              f"{_fmt_subset(next_time(coalg, subset))}", file=out)
        return EXIT_OK
    raise WfcoalgError(f"unknown demo {name!r}")


def natural(text: str) -> int:
    """The argparse type of every bound: an int >= 0; argparse turns the
    ValueError into a usage error (exit 2)."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


OPTIONS = {  # the --max-* options are the bounds
    "--coalgebra": dict(help="coalgebra name in the document"),
    "--algebra": dict(help="algebra name in the document"),
    "--paralgebra": dict(help="paralgebra name in the document"),
    "--dot": dict(action="store_true", help="emit graphviz dot"),
    "--max-enum": dict(type=natural, default=DEFAULT_SEARCH_CAP, help="enumeration cap"),
    "--max-carrier": dict(type=natural, default=2, help="largest oracle carrier size"),
    "--max-depth": dict(type=natural, default=16, help="initial-chain depth bound"),
}
ORACLE_BOUNDS = ("--max-enum", "--max-carrier")

# Each document command: its handler, its other options, and the bounds it reads.
COMMANDS = {
    "check-wf": (_cmd_check_wf, ("--coalgebra",), ()),
    "wf-part": (_cmd_wf_part, ("--coalgebra",), ()),
    "canonical-graph": (_cmd_canonical_graph, ("--coalgebra", "--dot"), ()),
    "hylo": (functools.partial(_cmd_hylo, parametric=False),
             ("--coalgebra", "--algebra"), ()),
    "para-hylo": (functools.partial(_cmd_hylo, parametric=True),
                  ("--coalgebra", "--paralgebra"), ()),
    "initial-chain": (_cmd_initial_chain, (), ("--max-enum", "--max-depth")),
    "find-homs": (_cmd_find_homs, ("--coalgebra", "--algebra"), ("--max-enum",)),
    "oracle-recursive": (functools.partial(_cmd_oracle, parametric=False),
                         ("--coalgebra",), ORACLE_BOUNDS),
    "oracle-parametric": (functools.partial(_cmd_oracle, parametric=True),
                          ("--coalgebra",), ORACLE_BOUNDS),
}


@functools.cache  # parse_args reads the parser; it never changes it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wfcoalg",
        description="Workbench for well-founded and recursive coalgebras "
                    "of finite set functors.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options, bounds) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("spec", nargs="?", help="spec document file")
        p.add_argument("--demo", dest="demo_doc", metavar="NAME",
                       help="use a built-in document instead of a file")
        for option in options + bounds:
            p.add_argument(option, **OPTIONS[option])

    p = sub.add_parser("demo")
    p.add_argument("name", help="graph-g | r-coalgebra | quicksort | "
                                "factorial | fibonacci | automaton | lts")
    p.add_argument("--input", help="comma-separated list for quicksort")
    p.add_argument("--n", type=natural, default=5)
    p.add_argument("--a0", type=int, default=0)
    p.add_argument("--a1", type=int, default=1)
    for option in ORACLE_BOUNDS:
        p.add_argument(option, **OPTIONS[option])
    return parser


def main(argv: Optional[list] = None, out=None) -> int:
    out = out or sys.stdout
    try:
        try:
            args = build_parser().parse_args(argv)
            if args.command == "demo":
                return _cmd_demo(args, out)
            return COMMANDS[args.command][0](_load_document(args), args, out)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code else EXIT_OK
        except ParseError as exc:
            print(f"parse error: {exc}", file=out)
            return EXIT_USAGE
        except CapExceeded as exc:
            print(f"cap exceeded: {exc}", file=out)
            return EXIT_CAP
        except WfcoalgError as exc:
            print(f"error: {exc}", file=out)
            return EXIT_USAGE
        finally:
            out.flush()  # so a closed pipe fails here, not at interpreter exit
    except BrokenPipeError:
        if out is not sys.stdout:
            raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
