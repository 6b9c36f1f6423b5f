import argparse
import io
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wfcoalg
from wfcoalg import Carrier, demos, eval_obj, parse_functor, render_value
from wfcoalg.cli import (COMMANDS, EXIT_CAP, EXIT_FAIL, EXIT_OK, EXIT_PIPE,
                         EXIT_USAGE, ORACLE_BOUNDS, build_parser, main)
from wfcoalg.textform import MAX_NESTING

GRAPH_DOC = """\
carrier A = a b c d
functor = P(X)
coalgebra G : A
  a -> {b}
  b -> {}
  c -> {d}
  d -> {c}
"""

PRED_DOC = """\
carrier N = n0 n1 n2
carrier U = u
functor = X + U
coalgebra P : N
  n0 -> in1 u
  n1 -> in0 n0
  n2 -> in0 n1
algebra Twice : N
  in1 u -> n0
  in0 n0 -> n1
  in0 n1 -> n2
  in0 n2 -> n2
"""


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture
def graph_file(tmp_path):
    p = tmp_path / "graph.txt"
    p.write_text(GRAPH_DOC)
    return str(p)


@pytest.fixture
def pred_file(tmp_path):
    p = tmp_path / "pred.txt"
    p.write_text(PRED_DOC)
    return str(p)


@pytest.mark.parametrize("command, doc", [
    ("check-wf", "functor = P(X)\ncarrier A = a b\ncoalgebra C : A\n  a -> {b}\n  b -> {}\n"),
    ("check-wf", GRAPH_DOC),
    ("hylo", PRED_DOC),
], ids=["functor-line-first", "carrier-line-first", "hylo"])
def test_a_byte_order_mark_is_read_past(tmp_path, command, doc):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(doc, encoding="utf-8")
    marked.write_text(doc, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    code, text = run(command, str(plain))
    assert code in (EXIT_OK, EXIT_FAIL) and run(command, str(marked)) == (code, text)


class TestCheckWf:
    def test_graph_fails_with_the_part(self, graph_file):
        code, text = run("check-wf", graph_file)
        assert code == EXIT_FAIL
        assert "well-founded part = {a, b} != A" in text

    def test_predecessor_passes(self, pred_file):
        code, text = run("check-wf", pred_file)
        assert code == EXIT_OK
        assert text.strip() == "well-founded"

    def test_builtin_demo_document(self):
        code, text = run("check-wf", "--demo", "r-coalgebra")
        assert code == EXIT_FAIL
        assert "well-founded part = {} != A" in text


class TestWfPart:
    def test_chain_is_printed(self, graph_file):
        code, text = run("wf-part", graph_file)
        assert code == EXIT_OK
        lines = text.strip().splitlines()
        assert lines[0] == "step 0: {}"
        assert lines[1] == "step 1: {b}"
        assert lines[-1] == "part: {a, b}"

    def test_a_cyclic_tail_and_tied_ranks(self, tmp_path):
        # b and d have rank 0, a and c rank 1, e rank 2; f and g lie on a cycle
        p = tmp_path / "tail.txt"
        p.write_text("functor = P(X)\ncarrier A = g f e d c b a\ncoalgebra C : A\n"
                     "  a -> {b, d}\n  b -> {}\n  c -> {d}\n  d -> {}\n  e -> {a, c}\n"
                     "  f -> {g, e}\n  g -> {f}\n")
        assert run("wf-part", str(p)) == (EXIT_OK, "step 0: {}\n"
                                                   "step 1: {b, d}\n"
                                                   "step 2: {a, b, c, d}\n"
                                                   "step 3: {a, b, c, d, e}\n"
                                                   "step 4: {a, b, c, d, e}\n"
                                                   "part: {a, b, c, d, e}\n")


class TestCanonicalGraph:
    def test_edges(self, graph_file):
        code, text = run("canonical-graph", graph_file)
        assert code == EXIT_OK
        assert "a -> b" in text and "c -> d" in text

    def test_dot_output(self, graph_file):
        code, text = run("canonical-graph", graph_file, "--dot")
        assert code == EXIT_OK
        assert text.startswith("digraph")
        assert '"c" -> "d";' in text

    @pytest.mark.parametrize("name, dot", [('"', r'"\""'), ("\\", r'"\\"')])
    def test_dot_escapes_quotes_and_backslashes(self, tmp_path, name, dot):
        p = tmp_path / "quote.txt"
        p.write_text(f"functor = P(X)\ncarrier A = a {name}\ncoalgebra C : A\n"
                     f"  a -> {{{name}}}\n  {name} -> {{a, {name}}}\n")
        assert run("canonical-graph", str(p), "--dot") == (
            EXIT_OK, f'digraph canonical {{\n  "a" -> {dot};\n  {dot} -> {dot};\n'
                     f'  {dot} -> "a";\n}}\n')
        assert run("canonical-graph", str(p)) == (
            EXIT_OK, f"a -> {name}\n{name} -> {name} a\n")


class TestHylo:
    def test_unfold_then_fold(self, pred_file):
        code, text = run("hylo", pred_file)
        assert code == EXIT_OK
        assert "n2 -> n2" in text and "n0 -> n0" in text

    def test_not_wellfounded_is_a_failure(self, graph_file, tmp_path):
        doc = GRAPH_DOC + ("algebra Count : A\n"
                           "  {} -> a\n  {a} -> a\n  {b} -> a\n  {c} -> a\n"
                           "  {d} -> a\n  {a, b} -> b\n  {a, c} -> b\n"
                           "  {a, d} -> b\n  {b, c} -> b\n  {b, d} -> b\n"
                           "  {c, d} -> b\n  {a, b, c} -> c\n"
                           "  {a, b, d} -> c\n  {a, c, d} -> c\n"
                           "  {b, c, d} -> c\n  {a, b, c, d} -> d\n")
        p = tmp_path / "doc.txt"
        p.write_text(doc)
        code, text = run("hylo", str(p))
        assert code == EXIT_USAGE
        assert "no termination certificate" in text and "cycle" in text

    def test_cycle_witness_line(self, tmp_path):
        # a and b are well-founded and come first; c reaches the cycle e <-> d
        p = tmp_path / "cyclic.txt"
        p.write_text("carrier A = a b c d e\ncarrier B = z\nfunctor = P(X)\n"
                     "coalgebra G : A\n  a -> {b}\n  b -> {}\n  c -> {b, e}\n"
                     "  d -> {e}\n  e -> {d}\n"
                     "algebra K : B\n  {} -> z\n  {z} -> z\n")
        code, text = run("hylo", str(p))
        assert code == EXIT_USAGE
        assert text == ("error: no termination certificate: 'e' lies on a "
                        "cycle of the canonical graph ('e' -> 'd')\n")


class TestOracles:
    def test_parametric_fails_on_r(self):
        code, text = run("oracle-parametric", "--demo", "r-coalgebra")
        assert code == EXIT_FAIL
        assert "fail at carrier size" in text

    def test_recursive_passes_on_r(self):
        code, text = run("oracle-recursive", "--demo", "r-coalgebra")
        assert code == EXIT_OK
        assert text.startswith("pass")

    def test_graph_fails_at_carrier_size_two(self, graph_file):
        # G's cycle c <-> d gives an algebra on 2 elements with two solutions
        code, text = run("oracle-recursive", graph_file)
        assert code == EXIT_FAIL
        assert text == ("fail at carrier size 2: 2 solutions\n"
                        "  {} -> 0\n  {0} -> 0\n  {0, 1} -> 0\n  {1} -> 1\n")


class TestInitialChain:
    def test_r_demo(self, tmp_path):
        p = tmp_path / "r.txt"
        p.write_text("carrier C = c0 c1\nfunctor = R\n"
                     "coalgebra C : C\n  c0 -> (c0, c1)\n  c1 -> (c0, c1)\n")
        code, text = run("initial-chain", str(p))
        assert code == EXIT_OK
        assert "stabilized at index 1" in text


class TestFindHoms:
    def test_unique_hom_report(self, pred_file):
        code, text = run("find-homs", pred_file, "--algebra", "Twice")
        assert code == EXIT_OK
        assert text.splitlines()[0] == "found 1 morphisms"


class TestDemos:
    def test_quicksort(self):
        code, text = run("demo", "quicksort", "--input", "2,1,2")
        assert code == EXIT_OK
        assert text.strip() == "1,2,2"

    def test_factorial(self):
        code, text = run("demo", "factorial", "--n", "5")
        assert code == EXIT_OK
        assert text.strip() == "120"

    def test_fibonacci(self):
        code, text = run("demo", "fibonacci", "--n", "6", "--a0", "0",
                         "--a1", "1")
        assert code == EXIT_OK
        assert text.strip() == "8"

    def test_graph_g(self):
        code, text = run("demo", "graph-g")
        assert code == EXIT_OK
        assert "well-founded part: {a, b}" in text
        assert "cartesian: {a, b} {a, b, c, d}" in text

    def test_r_coalgebra(self):
        code, text = run("demo", "r-coalgebra")
        assert code == EXIT_OK
        assert "well-founded: False" in text
        assert "recursive oracle: pass" in text
        assert "parametric oracle: fail" in text

    @pytest.mark.parametrize("name, text", [
        ("automaton", "deterministic automaton, 2 states, well-founded: False\n"),
        ("lts", "next-time {s2} = {s1, s2}\n")])
    def test_automaton_and_lts(self, name, text):
        assert run("demo", name) == (EXIT_OK, text)

    def test_r_coalgebra_with_an_undecided_oracle_is_a_cap(self):
        # at cap 1 the size-2 carrier is not checked: a pass that is evidence of nothing
        assert run("demo", "r-coalgebra", "--max-enum", "1") == (
            EXIT_CAP, "well-founded: False\nrecursive oracle: pass (sizes [1])\n"
                      "parametric oracle: pass\n")
        assert run("oracle-recursive", "--demo", "r-coalgebra", "--max-enum", "1")[0] == EXIT_CAP


@pytest.fixture
def int_str_limit():
    """The default int-to-str digit limit, whatever the interpreter was started with."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


class TestSequenceDemos:
    def test_factorial_target_is_the_values_taken(self):
        # a target carrier of every int up to 10! costs 0.8 s and 500 MB
        assert run("demo", "factorial", "--n", "10") == (EXIT_OK, "3628800\n")

    def test_factorial_zero(self):
        assert run("demo", "factorial", "--n", "0") == (EXIT_OK, "1\n")

    def test_fibonacci_from_a_negative_start(self):
        # -1, 1, 0, 1, 1, 2: values below 0 are in the target too
        assert run("demo", "fibonacci", "--n", "5", "--a0", "-1") == (EXIT_OK, "2\n")

    def test_fibonacci_of_a_large_index(self, int_str_limit):
        a, b = 0, 1
        for _ in range(5000):
            a, b = b, a + b
        assert run("demo", "fibonacci", "--n", "5000") == (EXIT_OK, f"{a}\n")

    @pytest.mark.parametrize("argv, what", [
        (("factorial", "--n", "3000"), "factorial"),
        (("factorial", "--n", "100000"), "factorial"),
        (("fibonacci", "--n", "30000"), "Fibonacci"),
    ])
    def test_a_result_too_long_to_print_is_a_cap(self, int_str_limit, argv, what):
        assert run("demo", *argv) == (
            EXIT_CAP, f"cap exceeded: decimal digits of a {what} value: "
                      f"more than {int_str_limit}\n")

    @pytest.mark.parametrize("argv, what", [
        (("fibonacci", "--n", "200000", "--a0", "0", "--a1", "0"), "Fibonacci"),
        (("factorial", "--n", "1000"), "factorial"),
    ])
    def test_states_are_counted_before_they_are_built(self, argv, what):
        # a constant sequence never reaches the digit limit: 200,001 states
        # took about 8 s and 273 MB before they were counted
        assert run("demo", *argv, "--max-enum", "1000") == (
            EXIT_CAP, f"cap exceeded: states of the {what} coalgebra: "
                      "more than 1000\n")

    def test_state_cap_is_n_plus_one(self):
        assert run("demo", "fibonacci", "--n", "9", "--max-enum", "10") == (EXIT_OK, "34\n")
        assert run("demo", "factorial", "--n", "10", "--max-enum", "10")[0] == EXIT_CAP

    def test_quicksort_sorts_12_distinct_letters(self):
        # its 13 states, not the 9.7e12 lists of length <= 12 over its letters
        letters = ",".join("abcdefghijkl")
        assert run("demo", "quicksort", "--input", letters) == (EXIT_OK, letters + "\n")

    def test_quicksort_cap_is_the_letter_count(self):
        # c,a,b splits into (a, b) and (), then (a, b) into () and (b,): 2 + 1 letters
        assert run("demo", "quicksort", "--input", "c,a,b",
                   "--max-enum", "3") == (EXIT_OK, "a,b,c\n")
        assert run("demo", "quicksort", "--input", "c,a,b", "--max-enum", "2") == (
            EXIT_CAP, "cap exceeded: letters of the quicksort sublists: more than 2\n")
        # one letter five times: sublists of 4 + 3 + 2 + 1 = 10 letters
        assert run("demo", "quicksort", "--input", "a,a,a,a,a",
                   "--max-enum", "10") == (EXIT_OK, "a,a,a,a,a\n")
        assert run("demo", "quicksort", "--input", "a,a,a,a,a",
                   "--max-enum", "9")[0] == EXIT_CAP

    def test_quicksort_on_one_repeated_letter_is_capped_by_its_letters(self):
        # 10,001 states, but their sublists hold about 5e7 letters: over 400 MB to build
        assert run("demo", "quicksort", "--input", ",".join("a" * 10 ** 4)) == (
            EXIT_CAP, "cap exceeded: letters of the quicksort sublists: "
                      "more than 10000000\n")


@settings(max_examples=60, deadline=None)
@given(items=st.lists(st.text(alphabet="ab1_", min_size=1, max_size=3), max_size=40))
def test_quicksort_prints_sorted_from_at_most_one_state_per_item_and_the_empty_list(items):
    built, real_generated = [], demos.generated
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(demos, "generated", lambda *args: built.append(real_generated(*args))
                      or built[-1])
        assert run("demo", "quicksort", "--input=" + ",".join(items)) == (
            EXIT_OK, ",".join(sorted(items)) + "\n")
    assert len(built[0].carrier) <= len(items) + 1


class TestBounds:
    @pytest.mark.parametrize("argv", [
        ("oracle-parametric", "--demo", "r-coalgebra", "--max-carrier", "-3"),
        ("oracle-recursive", "--demo", "r-coalgebra", "--max-enum", "-1"),
        ("initial-chain", "--demo", "r-coalgebra", "--max-depth", "-1"),
        ("demo", "factorial", "--n", "-3"),
        ("demo", "fibonacci", "--n", "-1"),
        ("demo", "quicksort", "--input", "a", "--max-enum", "-1"),
    ])
    def test_a_negative_bound_is_a_usage_error(self, argv):
        assert run(*argv) == (EXIT_USAGE, "")

    def test_zero_stays_legal(self):
        assert run("oracle-parametric", "--demo", "r-coalgebra",
                   "--max-carrier", "0") == (EXIT_OK, "pass (sizes checked: none)\n")
        assert run("initial-chain", "--demo", "r-coalgebra", "--max-depth", "0") == (
            EXIT_FAIL, "W0: 0 elements\nW1: 1 elements\n"
                       "not stabilized within the depth bound\n")


class TestOptionsAreRead:
    DOC = {"spec", "--demo"}

    def test_each_command_takes_only_what_it_reads(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        taken = {name: {a.option_strings[0] if a.option_strings else a.dest
                        for a in p._actions if not isinstance(a, argparse._HelpAction)}
                 for name, p in sub.choices.items()}
        assert taken == {
            "check-wf": self.DOC | {"--coalgebra"},
            "wf-part": self.DOC | {"--coalgebra"},
            "canonical-graph": self.DOC | {"--coalgebra", "--dot"},
            "hylo": self.DOC | {"--coalgebra", "--algebra"},
            "para-hylo": self.DOC | {"--coalgebra", "--paralgebra"},
            "initial-chain": self.DOC | {"--max-enum", "--max-depth"},
            "find-homs": self.DOC | {"--coalgebra", "--algebra", "--max-enum"},
            "oracle-recursive": self.DOC | {"--coalgebra", "--max-enum", "--max-carrier"},
            "oracle-parametric": self.DOC | {"--coalgebra", "--max-enum", "--max-carrier"},
            "demo": {"name", "--input", "--n", "--a0", "--a1", "--max-enum",
                     "--max-carrier"},
        }
        assert sum(map(len, taken.values())) == 44

    @pytest.mark.parametrize("argv", [
        ("check-wf", "--demo", "r-coalgebra", "--max-enum", "5"),
        ("initial-chain", "--demo", "r-coalgebra", "--coalgebra", "C"),
        ("demo", "graph-g", "--max-depth", "3"),
    ])
    def test_an_unread_option_is_a_usage_error(self, argv):
        assert run(*argv) == (EXIT_USAGE, "")

    @pytest.mark.parametrize("command, bound", [
        *((c, b) for c, (_, _, bounds) in COMMANDS.items() for b in bounds),
        *(("demo", b) for b in ORACLE_BOUNDS)])
    def test_every_bound_a_command_takes_changes_its_result(self, pred_file,
                                                           command, bound):
        target = "r-coalgebra" if command == "demo" else pred_file
        assert run(command, target, bound, "0") != run(command, target)


class TestParalgebraTotality:
    """Totality is counted, so |F(target)| may pass the enumeration cap."""

    HEAD = ("functor = P(X)\ncarrier A = a\ncarrier B = " +
            " ".join(f"b{i}" for i in range(17)) +  # |P(B)| = 131,072
            "\ncoalgebra C : A\n  a -> {}\nparalgebra Q : B @ A\n")

    def check_wf(self, tmp_path, text):
        doc = tmp_path / "par.txt"
        doc.write_text(text)
        return run("check-wf", str(doc))

    def test_one_row_is_not_total(self, tmp_path):
        assert self.check_wf(tmp_path, self.HEAD + "  {} @ a -> b0\n") == (
            EXIT_USAGE,
            "parse error: line 6, column 1: paralgebra 'Q': algebra table is not total\n")

    def test_every_row_over_a_large_target_loads(self, tmp_path):
        rows = ("  {" + ", ".join(f"b{i}" for i in range(17) if mask >> i & 1) +
                "} @ a -> b0\n" for mask in range(2 ** 17))
        assert self.check_wf(tmp_path, self.HEAD + "".join(rows)) == (
            EXIT_OK, "well-founded\n")

    def test_no_rows_over_an_empty_source_load(self, tmp_path):
        assert self.check_wf(tmp_path, "functor = P(X)\ncarrier A = a\ncarrier E =\n"
                             "coalgebra C : A\n  a -> {}\nparalgebra Q : A @ E\n") == (
            EXIT_OK, "well-founded\n")


class TestAlgebraTotality:
    """Algebra tables are counted too; past the enumeration cap a table that
    is not total names no missing value."""

    def test_one_row_over_a_large_target_is_not_total(self, tmp_path):
        doc = tmp_path / "alg.txt"
        doc.write_text(TestParalgebraTotality.HEAD.replace(
            "paralgebra Q : B @ A", "algebra E : B") + "  {} -> b0\n")
        assert run("hylo", str(doc)) == (
            EXIT_USAGE,
            "parse error: line 6, column 1: algebra 'E': algebra table is not total\n")


def test_para_hylo_over_another_source_carrier_is_an_error(tmp_path):
    doc = tmp_path / "par.txt"
    doc.write_text("carrier A = a b\ncarrier B = x y\nfunctor = 1 + X\n"
                   "coalgebra C : A\n  a -> in1 b\n  b -> in0 u0\n"
                   "paralgebra P : A @ B\n" +
                   "".join(f"  {v} @ {s} -> a\n" for v in ("in0 u0", "in1 a", "in1 b")
                           for s in "xy"))
    assert run("para-hylo", str(doc)) == (
        EXIT_USAGE, "error: coalgebra and algebra are over different functors\n")


def test_para_hylo_refuses_a_source_that_holds_more_than_the_states(tmp_path):
    # a paralgebra is an algebra for F(-) x S, and the coalgebra <alpha, id>
    # is one for F(-) x A: S = A is the one source that fits
    head = "carrier A = a\ncarrier S = a b\nfunctor = 1 + X\ncoalgebra C : A\n  a -> in0 u0\n"
    for source, states, results in (
            ("S", "ab", (EXIT_USAGE, "error: coalgebra and algebra are over different functors\n")),
            ("A", "a", (EXIT_OK, "a -> a\n"))):
        doc = tmp_path / f"par-{source}.txt"
        doc.write_text(head + f"paralgebra P : A @ {source}\n" + "".join(
            f"  {v} @ {s} -> a\n" for v in ("in0 u0", "in1 a") for s in states))
        assert run("para-hylo", str(doc)) == results


def test_a_paralgebra_that_is_not_total_names_its_first_missing_row(tmp_path):
    doc = tmp_path / "par.txt"
    doc.write_text("functor = X + 1\ncarrier A = a\ncarrier T = t\ncoalgebra C : A\n"
                   "  a -> in1 u0\nparalgebra Q : T @ A\n  in1 u0 @ a -> t\n")
    assert run("para-hylo", str(doc)) == (
        EXIT_USAGE, "parse error: line 6, column 1: paralgebra 'Q': algebra table is not "
                    "total; missing (in0 t, a)\n")


class TestParametricOracleWitness:
    """The parametric oracle is the recursive oracle of <alpha, id>, an
    F(-) x A coalgebra: its witness lists F(n) x A in element_key order."""

    def oracle(self, tmp_path, text):
        doc = tmp_path / "doc.txt"
        doc.write_text(text)
        return run("oracle-parametric", str(doc), "--max-carrier", "2")

    def test_states_come_in_element_key_order(self, tmp_path):
        text = "functor = P(X)\ncarrier A = b a\ncoalgebra C : A\n  a -> {a}\n  b -> {}\n"
        assert self.oracle(tmp_path, text) == (EXIT_FAIL, (
            "fail at carrier size 2: 2 solutions\n"
            "  {} @ a -> 0\n  {} @ b -> 0\n  {0} @ a -> 0\n  {0} @ b -> 0\n"
            "  {0, 1} @ a -> 0\n  {0, 1} @ b -> 0\n  {1} @ a -> 1\n  {1} @ b -> 0\n"))

    def test_an_empty_coalgebra_checks_size_0(self, tmp_path):
        # F(0) x {} is empty, so the empty set carries one paralgebra
        text = "functor = 1\ncarrier A =\ncoalgebra C : A\n"
        assert self.oracle(tmp_path, text) == (EXIT_OK, "pass (sizes checked: 0, 1, 2)\n")


class TestDeepFunctors:
    """A functor nested past the bound is a parse error, not a traceback."""

    @pytest.mark.parametrize("opening, code", [("P(", EXIT_CAP), ("(", EXIT_OK)])
    def test_initial_chain_at_and_past_the_nesting_bound(self, tmp_path, opening, code):
        doc = tmp_path / "deep.txt"
        for depth, want in ((MAX_NESTING, code), (MAX_NESTING + 1, EXIT_USAGE)):
            doc.write_text(f"functor = {opening * depth}X{')' * depth}\n")
            assert run("initial-chain", str(doc))[0] == want

    def test_an_empty_alphabet_is_a_parse_error(self, tmp_path):
        doc = tmp_path / "empty.txt"
        doc.write_text("carrier L =\nfunctor = X ^ L\n")
        assert run("initial-chain", str(doc)) == (
            EXIT_USAGE, "parse error: line 2, column 15: empty alphabet 'L'\n")


class TestOneParserPerProcess:
    def test_the_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_no_option_leaks_into_the_next_call(self, graph_file, pred_file):
        assert run("oracle-recursive", pred_file, "--max-carrier", "3") == (
            EXIT_OK, "pass (sizes checked: 1, 2, 3)\n")
        assert run("oracle-recursive", pred_file) == (
            EXIT_OK, "pass (sizes checked: 1, 2)\n")
        assert run("canonical-graph", graph_file, "--dot") == (
            EXIT_OK, 'digraph canonical {\n  "a" -> "b";\n  "c" -> "d";\n'
                     '  "d" -> "c";\n}\n')
        assert run("canonical-graph", graph_file) == (
            EXIT_OK, "a -> b\nb ->\nc -> d\nd -> c\n")
        assert run("oracle-recursive", pred_file, "--max-carrier", "x") == (
            EXIT_USAGE, "")
        assert run("oracle-recursive", pred_file) == (
            EXIT_OK, "pass (sizes checked: 1, 2)\n")


class TestErrors:
    def test_missing_file(self):
        code, text = run("check-wf", "/nonexistent/path.txt")
        assert code == EXIT_USAGE

    def test_a_directory_is_an_error(self, tmp_path):
        code, text = run("check-wf", str(tmp_path))
        assert code == EXIT_USAGE
        assert text.startswith("error: ") and repr(str(tmp_path)) in text

    def test_a_file_that_is_not_utf8_is_an_error(self, tmp_path):
        p = tmp_path / "latin1.txt"
        p.write_bytes("functor = X\ncarrier A = \u00e9\n".encode("latin-1"))
        code, text = run("check-wf", str(p))
        assert code == EXIT_USAGE
        assert text.startswith(f"error: {p}: not UTF-8 text (")

    def test_parse_error(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("functor = P(\n")
        code, text = run("check-wf", str(p))
        assert code == EXIT_USAGE
        assert "parse error" in text

    def test_unknown_subcommand(self):
        code, _ = run("no-such-command")
        assert code == EXIT_USAGE

    def test_cap_exceeded(self, graph_file):
        code, text = run("find-homs", graph_file, "--max-enum", "1")
        assert code in (EXIT_CAP, EXIT_USAGE)

    @pytest.mark.parametrize("argv, message", [
        (("check-wf",), "give a spec file or --demo NAME"),
        (("check-wf", "--demo", "nope"),
         "no built-in document 'nope' (try graph-g, r-coalgebra)"),
        (("demo", "nope"), "unknown demo 'nope'"),
        (("check-wf", "--demo", "graph-g", "--coalgebra", "Z"), "no coalgebra named 'Z'"),
    ])
    def test_a_usage_error_names_its_cause(self, argv, message):
        assert run(*argv) == (EXIT_USAGE, f"error: {message}\n")

    def test_no_coalgebra_section(self, tmp_path):
        p = tmp_path / "bare.txt"
        p.write_text("functor = 1 + X\n")
        assert run("check-wf", str(p)) == (
            EXIT_USAGE, "error: document has no coalgebra section\n")

    def test_no_algebra_section(self):
        assert run("hylo", "--demo", "r-coalgebra") == (
            EXIT_USAGE, "error: document has no algebra section\n")

    def test_no_paralgebra_section(self):
        assert run("para-hylo", "--demo", "r-coalgebra") == (
            EXIT_USAGE, "error: document has no paralgebra section\n")

    def test_two_coalgebras_must_be_named(self, tmp_path):
        p = tmp_path / "two.txt"
        p.write_text("carrier A = a\nfunctor = P(X)\n"
                     "coalgebra C : A\n  a -> {}\n"
                     "coalgebra D : A\n  a -> {a}\n")
        assert run("check-wf", str(p)) == (
            EXIT_USAGE, "error: document has 2 coalgebras; name one\n")

    def test_deterministic_output(self, graph_file):
        first = run("wf-part", graph_file)
        second = run("wf-part", graph_file)
        assert first == second


class TestClosedStdout:
    """A reader that leaves early (``| head -c 100``) ends the CLI with
    EXIT_PIPE and nothing on stderr, not with a traceback."""

    def cli(self, *argv, stdout):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(wfcoalg.__file__).resolve().parents[1]))
        return subprocess.Popen([sys.executable, "-m", "wfcoalg.cli", *argv],
                                stdout=stdout, stderr=subprocess.PIPE, env=env)

    def test_reader_leaves_after_100_bytes(self, tmp_path):
        # about 480 kB of output, far past what the pipe buffers
        names = [f"s{i:05d}" for i in range(20_000)]
        doc = tmp_path / "loops.txt"
        doc.write_text("functor = P(X)\ncarrier A = " + " ".join(names) +
                       "\ncoalgebra C : A\n" + "".join(
                           f"  {b} -> {{{a}, {b}}}\n" for a, b in zip(names, names[1:])) +
                       f"  {names[0]} -> {{}}\n")
        proc = self.cli("canonical-graph", str(doc), stdout=subprocess.PIPE)
        head = proc.stdout.read(100)
        assert len(head) == 100 and head.startswith(b"s00000 ->\ns00001 -> s00000 s00001\n")
        proc.stdout.close()
        assert proc.communicate(timeout=60)[1] == b""  # no traceback
        assert proc.returncode == EXIT_PIPE

    def test_no_reader_at_all(self, graph_file):
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = self.cli("check-wf", graph_file, stdout=write_end)
        os.close(write_end)
        assert proc.communicate(timeout=60)[1] == b""  # no traceback
        assert proc.returncode == EXIT_PIPE

    def test_a_stream_of_the_caller_keeps_its_error(self, graph_file):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        with pytest.raises(BrokenPipeError):
            main(["check-wf", graph_file], out=Closed())


# --- the cap paths under generated documents and caps --------------------------

def bounds_of(command, values):
    """The bounds ``command`` reads, as COMMANDS lists them, set to ``values``."""
    return [arg for bound in COMMANDS[command][2] for arg in (bound, str(values[bound]))]


FUZZ_FUNCTORS = ("1 + X", "2 * X", "P(X)", "R", "X * X + 1", "X ^ S", "P(1 + X)")


def fuzz_document(rng, functor_text):
    states = Carrier(tuple(f"a{i}" for i in range(rng.randint(1, 3))))
    target = Carrier(tuple(f"b{i}" for i in range(rng.randint(1, 3))))
    f = parse_functor(functor_text, {"S": Carrier(("s", "t"))})
    lines = ["carrier S = s t",
             "carrier A = " + " ".join(states),
             "carrier B = " + " ".join(target),
             f"functor = {functor_text}",
             "coalgebra C : A"]
    values = eval_obj(f, states)
    lines += [f"  {a} -> {render_value(f, rng.choice(values))}" for a in states]
    lines.append("algebra E : B")
    lines += [f"  {render_value(f, v)} -> {rng.choice(target.elements)}"
              for v in eval_obj(f, target)]
    lines.append("paralgebra Q : B @ A")
    lines += [f"  {render_value(f, v)} @ {a} -> {rng.choice(target.elements)}"
              for v in eval_obj(f, target) for a in states]
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2 ** 32), functor_text=st.sampled_from(FUZZ_FUNCTORS),
       command=st.sampled_from(("find-homs", "oracle-recursive",
                                "oracle-parametric", "initial-chain")),
       cap=st.sampled_from((1, 10, 10 ** 3, 10 ** 7)),
       bound=st.integers(0, 3))
def test_cap_paths_end_in_a_documented_exit(tmp_path, seed, functor_text,
                                            command, cap, bound):
    doc = tmp_path / "fuzz.txt"
    doc.write_text(fuzz_document(random.Random(seed), functor_text))
    argv = [command, str(doc), *bounds_of(command, {"--max-enum": cap,
                                                    "--max-carrier": bound,
                                                    "--max-depth": bound})]
    build_parser().parse_args(argv)  # no option the command does not read
    code, _ = run(*argv)
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_CAP)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(("factorial", "fibonacci", "quicksort")),
       n=st.one_of(st.integers(-3, 40), st.sampled_from((2000, 6000))),
       a0=st.integers(-10 ** 6, 10 ** 6), a1=st.integers(-10 ** 6, 10 ** 6),
       items=st.lists(st.text(alphabet="ab-1 ", max_size=2), max_size=8),
       cap=st.sampled_from((-1, 0, 1, 100, 1000)))
def test_sequence_demos_end_in_a_documented_exit(name, n, a0, a1, items, cap):
    code, _ = run("demo", name, "--n", str(n), "--a0", str(a0), "--a1", str(a1),
                  "--input=" + ",".join(items), "--max-enum", str(cap))
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_CAP)


# --- every document command under generated and damaged documents --------------

_FUZZ_TOKEN_RE = re.compile(r"->|\w+|\S")


def damage(rng, text, edit):
    """text with one token deleted or duplicated (edit None: unchanged)."""
    if edit is None:
        return text
    m = rng.choice(list(_FUZZ_TOKEN_RE.finditer(text)))
    kept = m.group() + " " + m.group() if edit == "duplicate" else ""
    return text[:m.start()] + kept + text[m.end():]


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2 ** 32), functor_text=st.sampled_from(FUZZ_FUNCTORS),
       command=st.sampled_from((("check-wf",), ("wf-part",), ("canonical-graph",),
                                ("canonical-graph", "--dot"), ("hylo",), ("para-hylo",),
                                ("find-homs",), ("oracle-recursive",),
                                ("oracle-parametric",), ("initial-chain",))),
       edit=st.sampled_from((None, "delete", "duplicate")))
def test_document_commands_end_in_a_documented_exit(tmp_path, seed, functor_text,
                                                   command, edit):
    rng = random.Random(seed)
    doc = tmp_path / "fuzz.txt"
    doc.write_text(damage(rng, fuzz_document(rng, functor_text), edit))
    argv = [command[0], str(doc), *command[1:], *bounds_of(
        command[0], {"--max-enum": 1000, "--max-carrier": 2, "--max-depth": 3})]
    build_parser().parse_args(argv)  # no option the command does not read
    code, _ = run(*argv)
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_CAP)
