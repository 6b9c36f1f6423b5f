import gc
import random
from itertools import accumulate

import pytest

from wfcoalg import (Algebra, Carrier, Coalgebra, Const, Exp, Id, ParAlgebra, ParseError,
                     PowFin, Prod, RFunctor, SpecDocument, Sum, eval_map, eval_obj,
                     parse_functor, parse_spec, parse_value, render_functor,
                     render_spec, render_value)
from wfcoalg.functor import DEFAULT_ENUM_CAP, check_value, size_obj
from wfcoalg import textform
from wfcoalg.cli import EXIT_USAGE, main
from wfcoalg.textform import _CHUNK, MAX_NESTING

from generators import bounded_functor, random_coalgebra
from values import POINT, elem, fset, fun, inj, pair, tup

GRAPH_DOC = """\
carrier A = a b c d
functor = P(X)
coalgebra G : A
  a -> {b}
  b -> {}
  c -> {d}
  d -> {c}
"""


class TestFunctorSyntax:
    def test_atoms(self):
        assert parse_functor("X", {}) == Id()
        assert parse_functor("R", {}) == RFunctor()
        assert parse_functor("P(X)", {}) == PowFin(Id())

    def test_int_constant(self):
        assert parse_functor("3", {}) == Const(Carrier(("u0", "u1", "u2")))
        assert parse_functor("007", {}) == parse_functor("7", {})
        assert len(parse_functor(str(DEFAULT_ENUM_CAP), {}).values) == DEFAULT_ENUM_CAP

    @pytest.mark.parametrize("digits, message", [
        ("\u00b2", "unexpected '\u00b2'"),  # str.isdigit, but no ASCII digit
        ("9" * 5000, f"a constant of more than {DEFAULT_ENUM_CAP} atoms"),  # past int()'s limit
        ("99999999999999999999999", f"a constant of more than {DEFAULT_ENUM_CAP} atoms"),
        (str(DEFAULT_ENUM_CAP + 1), f"a constant of more than {DEFAULT_ENUM_CAP} atoms"),
    ], ids=["superscript two", "5000 digits", "23 digits", "one past the cap"])
    def test_int_constant_errors_are_located(self, digits, message):
        """Refused before any int() of the token or carrier is built."""
        with pytest.raises(ParseError) as exc:
            parse_spec(f"functor = X + {digits}\n")
        assert str(exc.value) == f"line 1, column 15: {message}"

    def test_named_constant(self):
        sigma = Carrier(("a", "b"))
        assert parse_functor("Sigma", {"Sigma": sigma}) == Const(sigma)

    def test_precedence(self):
        # sums bind loosest, then products, then exponents
        sigma = Carrier(("s",))
        expr = parse_functor("X * X + 1 ^ Sigma", {"Sigma": sigma})
        assert expr == Sum((Prod((Id(), Id())),
                            Exp(sigma, Const(Carrier(("u0",))))))

    def test_parens(self):
        expr = parse_functor("P((X + 1) * X)", {})
        assert isinstance(expr, PowFin)

    def test_round_trip(self):
        sigma = Carrier(("a", "b"))
        for text in ["X", "R", "P(X)", "X * X + 1", "(X + 1) * X",
                     "X ^ Sigma + Sigma", "P(X * R)"]:
            expr = parse_functor(text, {"Sigma": sigma})
            rendered = render_functor(expr, {sigma: "Sigma"})
            assert parse_functor(rendered, {"Sigma": sigma}) == expr

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            parse_functor("Q(X)", {})

    def test_error_location(self):
        with pytest.raises(ParseError) as exc:
            parse_functor("X + ", {})
        assert exc.value.line == 1


L = Carrier(("l",))


def nest(n: int, opening: str) -> str:
    return opening * n + "X" + ")" * n


class TestNestingBound:
    """Brackets and exponents nest at most MAX_NESTING deep; one more is a
    parse error at the bracket or the ``^`` that passes the bound."""

    @pytest.mark.parametrize("opening", ["P(", "("])
    def test_brackets(self, opening):
        expr = parse_functor(nest(MAX_NESTING, opening), {})
        assert expr == parse_functor(nest(MAX_NESTING, opening), {})
        with pytest.raises(ParseError) as exc:
            parse_functor(nest(MAX_NESTING + 1, opening), {})
        assert str(exc.value) == (f"line 1, column {len(opening) * MAX_NESTING + 1}: "
                                  f"functor nested more than {MAX_NESTING} deep")

    def test_exponents(self):
        parse_functor("X" + " ^ L" * MAX_NESTING, {"L": L})
        with pytest.raises(ParseError) as exc:  # the k-th '^' is at column 4k - 1
            parse_functor("X" + " ^ L" * (MAX_NESTING + 1), {"L": L})
        assert str(exc.value).startswith(f"line 1, column {4 * MAX_NESTING + 3}: ")

    def test_exponents_count_with_the_brackets_around_them(self):
        half = MAX_NESTING // 2
        text = "P(" * half + "X" + " ^ L" * half + ")" * half
        parse_functor(text, {"L": L})
        with pytest.raises(ParseError) as exc:  # the outermost bracket passes it
            parse_functor("P(" + text + ")", {"L": L})
        assert str(exc.value).startswith("line 1, column 1: ")
        with pytest.raises(ParseError) as exc:
            parse_functor(text + " ^ L", {"L": L})
        assert str(exc.value).startswith(f"line 1, column {len(text) + 2}: ")

    def test_every_walk_of_a_functor_at_the_bound_stays_in_the_stack(self):
        # P, Exp, Prod and Sum at each of 50 levels, two of them counted
        text = "X"
        for _ in range(MAX_NESTING // 2):
            text = f"P({text} ^ L * X + X)"
        expr = parse_functor(text, {"L": L})
        a = Carrier(("a",))
        value_text = "a"
        for _ in range(MAX_NESTING // 2):
            value_text = f"{{in0 ([l: {value_text}], a), in1 a}}"
        v = parse_value(expr, a, value_text)
        assert render_value(expr, v) == value_text
        assert parse_value(expr, a, render_value(expr, v)) == v
        assert hash(v) == hash(parse_value(expr, a, value_text)) and expr.sort_key(v)
        assert check_value(expr, a, v) == frozenset(a)
        assert eval_map(expr, lambda x: x, v) == v
        assert parse_functor(render_functor(expr, {L: "L"}), {"L": L}) == expr
        assert hash(expr) and size_obj(expr, 1, 10) == 11

    def test_an_empty_alphabet_is_a_parse_error(self):
        with pytest.raises(ParseError) as exc:
            parse_spec("carrier L =\nfunctor = X ^ L\n")
        assert str(exc.value) == "line 2, column 15: empty alphabet 'L'"


class TestValueSyntax:
    def test_graph_values(self):
        a = Carrier(("a", "b"))
        expr = PowFin(Id())
        assert parse_value(expr, a, "{a, b}") == fset(elem("a"), elem("b"))
        assert parse_value(expr, a, "{}") == fset()

    def test_r_values(self):
        a = Carrier(("x", "y"))
        assert parse_value(RFunctor(), a, "d") == POINT
        assert parse_value(RFunctor(), a, "(x, y)") == pair("x", "y")
        with pytest.raises(ParseError):
            parse_value(RFunctor(), a, "(x, x)")

    def test_sum_prod_exp(self):
        sigma = Carrier(("s", "t"))
        expr = Sum((Prod((Id(), Id())), Exp(sigma, Id())))
        a = Carrier(("p", "q"))
        assert parse_value(expr, a, "in0 (p, q)") == inj(
            0, tup(elem("p"), elem("q")))
        v = parse_value(expr, a, "in1 [s: p, t: q]")
        assert v == inj(1, fun(elem("p"), elem("q")))

    def test_an_injection_tag_of_many_digits(self):
        expr = Sum((Id(), Id()))
        assert parse_value(expr, Carrier(("p",)), "in" + "0" * 5000 + "1 p") == inj(1, elem("p"))

    def test_value_round_trip(self):
        a = Carrier(("p", "q"))
        expr = PowFin(Sum((Id(), RFunctor())))
        for text in ["{}", "{in0 p}", "{in1 d, in0 q}", "{in1 (p, q)}"]:
            v = parse_value(expr, a, text)
            assert parse_value(expr, a, render_value(expr, v)) == v


def carriers_of(expr):
    """The constant carriers and alphabets of a functor, which a document names."""
    if isinstance(expr, Const):
        return [expr.values]
    if isinstance(expr, Exp):
        return [expr.alphabet] + carriers_of(expr.arg)
    if isinstance(expr, PowFin):
        return carriers_of(expr.arg)
    return [c for p in getattr(expr, "parts", ()) for c in carriers_of(p)]


R_DOC = "carrier A = a b\ncarrier B = x y\nfunctor = R\n"
P_DOC = "carrier A = a b\nfunctor = P(X)\n"
TABLE_ERRORS = [
    (P_DOC + "coalgebra G A\n", "line 3, column 1: expected 'coalgebra NAME : CARRIER'"),
    (P_DOC + "coalgebra G : Z\n", "line 3, column 1: unknown carrier 'Z'"),
    (P_DOC + "coalgebra G : A\n  a {}\n", "line 4, column 1: expected 'lhs -> rhs'"),
    (P_DOC + "coalgebra G : A\n  c -> {}\n", "line 4, column 1: 'c' is not in the carrier"),
    (P_DOC + "coalgebra G : A\n  a -> {}\n",
     "line 3, column 1: coalgebra 'G' table misses 'b'"),
    (P_DOC + "algebra E : A\n  {} -> c\n", "line 4, column 1: 'c' is not in the carrier"),
    (P_DOC + "algebra E : A\n  {} -> a\n  {a} -> a\n",
     "line 3, column 1: algebra 'E': algebra table is not total; "
     "missing {b}"),
    (R_DOC + "paralgebra E : B\n",
     "line 4, column 1: expected 'paralgebra NAME : TARGET @ SOURCE'"),
    (R_DOC + "paralgebra E : B @ Z\n", "line 4, column 1: unknown carrier 'Z'"),
    (R_DOC + "paralgebra E : B @ A\n  d -> x\n",
     "line 5, column 1: expected 'value @ element -> result'"),
    (R_DOC + "paralgebra E : B @ A\n  d @ c -> x\n",
     "line 5, column 1: 'c' is not in the source carrier"),
    (R_DOC + "paralgebra E : B @ A\n  d @ a -> z\n",
     "line 5, column 1: 'z' is not in the target carrier"),
    (R_DOC + "paralgebra E : B @ A\n  d @ a -> x\n  d @ b -> x\n  (x, y) @ a -> y\n",
     "line 4, column 1: paralgebra 'E' table is not total"),
    ("carrier S = p q\n" + P_DOC.replace("P(X)", "X ^ S") + "coalgebra G : A\n"
     "  a -> [p: a, p: b, q: a]\n", "line 5, column 15: repeated alphabet entry 'p'"),
    ("carrier A = b x-1 c\nfunctor = X\n",
     "line 1, column 15: carrier element 'x-1' is not one token other than '->' and '@'"),
    ("carrier A = 1a\nfunctor = X\n",
     "line 1, column 13: carrier element '1a' is not one token other than '->' and '@'"),
    ("carrier A = a @\nfunctor = X\n",
     "line 1, column 15: carrier element '@' is not one token other than '->' and '@'"),
    ("  a -> {}\n" + P_DOC, "line 1, column 1: indented line outside a section"),
    (P_DOC + "widget W\n", "line 3, column 1: unknown section 'widget'"),
    ("carrier A = a\n" + P_DOC, "line 2, column 1: duplicate carrier 'A'"),
    ("carrier A = a b a\nfunctor = X\n",
     "line 1, column 1: carrier 'A' has duplicate elements"),
    (P_DOC + "functor = X\n", "line 3, column 1: duplicate functor section"),
    ("carrier A = a\ncarrier B = b\n", "line 2, column 1: document has no functor section"),
    (P_DOC + "coalgebra G : A\n  a -> {}\n  b -> {}\ncoalgebra G : A\n  a -> {a}\n  b -> {}\n",
     "line 6, column 1: duplicate coalgebra 'G'"),
    (P_DOC + "algebra E : A\n  {} -> a\n  {a} -> a\n  {b} -> a\n  {a, b} -> a\nalgebra E : A\n",
     "line 8, column 1: duplicate algebra 'E'"),
    (R_DOC + "paralgebra E : B @ A\n  d @ a -> x\n  d @ b -> x\n  (x, y) @ a -> y\n"
     "  (x, y) @ b -> y\n  (y, x) @ a -> x\n  (y, x) @ b -> x\nparalgebra E : B @ A\n",
     "line 11, column 1: duplicate paralgebra 'E'"),
]


class TestSpecDocuments:
    @pytest.mark.parametrize("doc, message", TABLE_ERRORS)
    def test_table_section_errors(self, doc, message):
        with pytest.raises(ParseError) as exc:
            parse_spec(doc)
        assert str(exc.value) == message

    def test_a_carrier_element_is_any_one_token_but_a_row_delimiter(self):
        doc = parse_spec("carrier A = 12 x' _y α -\nfunctor = P(X)\ncoalgebra C : A\n"
                         "  12 -> {x'}\n  x' -> {_y, α}\n  _y -> {}\n  α -> {-}\n  - -> {12, -}\n")
        coalg = doc.the_coalgebra("C")
        assert coalg.alpha("x'") == fset(elem("_y"), elem("α"))
        assert coalg.supports[-1] == frozenset({"12", "-"})

    @pytest.mark.parametrize("carrier, functor, column, element", [
        ("a }", "P(X)", 15, "}"), ("] a", "X ^ A", 13, "]")])
    def test_a_carrier_element_that_ends_a_value_is_refused(self, carrier, functor,
                                                            column, element):
        with pytest.raises(ParseError) as exc:
            parse_spec(f"carrier A = {carrier}\nfunctor = {functor}\n")
        assert str(exc.value) == (f"line 1, column {column}: carrier element {element!r} "
                                  "would end a set or exponent value")

    def test_a_closing_bracket_element_is_a_cli_parse_error(self, tmp_path, capsys):
        p = tmp_path / "brace.txt"
        p.write_text("functor = P(X)\ncarrier A = a }\ncoalgebra C : A\n  a -> {}}\n")
        assert main(["check-wf", str(p)]) == EXIT_USAGE
        assert capsys.readouterr().out == ("parse error: line 2, column 15: "
                                           "carrier element '}' would end a set or exponent value\n")

    def test_render_spec_of_a_closing_bracket_element_does_not_reparse(self):
        # so render_spec refuses the element rather than write this text
        carrier = Carrier(("a", "}"))
        coalg = Coalgebra.from_dict(PowFin(Id()), carrier,
                                    {"a": frozenset({"}"}), "}": frozenset()})
        doc = SpecDocument("P(X)", PowFin(Id()), {"A": carrier}, {"C": coalg})
        with pytest.raises(ValueError, match="carrier 'A': '}' is not one element"):
            render_spec(doc)
        text = "carrier A = a }\nfunctor = P(X)\ncoalgebra C : A\n  a -> {}}\n  } -> {}\n"
        with pytest.raises(ParseError, match="column 15: carrier element '}'"):
            parse_spec(text)

    @pytest.mark.parametrize("labels, bad", [
        (("a", "x-1"), "'x-1'"), ((0, 1), "0"), (("a b",), "'a b'"), (("",), "''"),
        (("a", "#"), "'#'"), (("->",), "'->'"), (("a", "@"), "'@'")])
    def test_render_spec_refuses_a_label_a_carrier_line_cannot_hold(self, labels, bad):
        doc = SpecDocument("P(X)", PowFin(Id()), {"A": Carrier(labels)})
        with pytest.raises(ValueError) as exc:
            render_spec(doc)
        assert str(exc.value) == f"carrier 'A': {bad} is not one element of a carrier line"

    @pytest.mark.parametrize("description", [
        "issue #3 fixed", "two\nlines", "a\r\nb", "form\x0cfeed", "line\u2028sep",
        " leading", "trailing ", "\ttab"])
    def test_render_spec_refuses_a_description_it_cannot_write_back(self, description):
        doc = SpecDocument("X", Id(), {}, description=description)
        with pytest.raises(ValueError) as exc:
            render_spec(doc)
        assert str(exc.value) == (f"description {description!r} is not one line "
                                  "without '#' or outer spaces")

    @pytest.mark.parametrize("kind", ["coalgebra", "algebra", "paralgebra"])
    def test_render_spec_refuses_a_table_over_an_unnamed_carrier(self, kind):
        a = Carrier(("a",))
        tables = {"coalgebra": Coalgebra(Id(), a, ("a",)),
                  "algebra": Algebra.from_table(Id(), a, {"a": "a"}),
                  "paralgebra": ParAlgebra(Id(), a, a, {("a", "a"): "a"})}
        doc = SpecDocument("X", Id(), {}, **{kind + "s": {"Z": tables[kind]}})
        with pytest.raises(ValueError) as exc:
            render_spec(doc)
        assert str(exc.value) == f"{kind} 'Z' is over a carrier the document does not name"

    def test_generated_documents_round_trip(self):
        rng = random.Random(23)
        # description words a header line keeps: punctuation, tabs, non-ASCII
        words = ("a", "worked", "example", "of", "recursion", "(x-1)", "3/4:",
                 "a\tb", "->", "{@}", "naïve", "description")
        for _ in range(60):
            states = Carrier(tuple(f"a{i}" for i in range(rng.randint(1, 3))))
            target = Carrier(("t0", "t1"))
            functor = bounded_functor(rng, depth=2, carrier_size=3, size_cap=32)
            names = {c: f"K{i}" for i, c in enumerate(dict.fromkeys(carriers_of(functor)))}
            names.update({states: "A", target: "T"})
            values = eval_obj(functor, target)
            doc = SpecDocument(
                render_functor(functor, names), functor, {n: c for c, n in names.items()},
                {"C": random_coalgebra(rng, functor, states)},
                {"E": Algebra.from_table(functor, target,
                                         {v: rng.choice(target.elements) for v in values})},
                {"Q": ParAlgebra(functor, target, states, {
                    (v, a): rng.choice(target.elements) for v in values for a in states})},
                " ".join(rng.choices(words, k=rng.randint(1, 4))))
            text = render_spec(doc)
            again = parse_spec(text)
            assert render_spec(again) == text
            assert (again.functor_text, again.functor, again.carriers, again.coalgebras,
                    again.paralgebras, again.description) == (
                doc.functor_text, doc.functor, doc.carriers, doc.coalgebras,
                doc.paralgebras, doc.description)
            assert again.the_algebra("E").table == doc.the_algebra("E").table

    def test_graph_document(self):
        doc = parse_spec(GRAPH_DOC)
        g = doc.the_coalgebra(None)
        assert g.carrier.elements == ("a", "b", "c", "d")
        assert g.alpha("a") == fset(elem("b"))
        assert g.alpha("b") == fset()

    def test_round_trip(self):
        doc = parse_spec(GRAPH_DOC)
        again = parse_spec(render_spec(doc))
        assert again.the_coalgebra("G") == doc.the_coalgebra("G")
        assert again.carriers == doc.carriers

    def test_algebra_section(self):
        doc = parse_spec(
            "carrier B = x y\n"
            "functor = R\n"
            "algebra E : B\n"
            "  d -> x\n"
            "  (x, y) -> y\n"
            "  (y, x) -> x\n")
        alg = doc.the_algebra("E")
        assert alg.operation(POINT) == "x"
        assert alg.operation(pair("x", "y")) == "y"

    def test_paralgebra_section(self):
        # paralgebra values range over the target carrier
        doc = parse_spec(
            "carrier A = a b\n"
            "carrier B = x y\n"
            "functor = R\n"
            "paralgebra E : B @ A\n"
            "  d @ a -> x\n"
            "  d @ b -> y\n"
            "  (x, y) @ a -> x\n"
            "  (x, y) @ b -> x\n"
            "  (y, x) @ a -> y\n"
            "  (y, x) @ b -> y\n")
        par = doc.the_paralgebra("E")
        assert par.table[(POINT, "a")] == "x"
        assert par.table[(pair("y", "x"), "b")] == "y"

    def test_missing_row_is_an_error(self):
        with pytest.raises(ParseError) as exc:
            parse_spec("carrier A = a b\n"
                       "functor = P(X)\n"
                       "coalgebra G : A\n"
                       "  a -> {b}\n")
        assert "b" in str(exc.value)

    def test_bad_value_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_spec("carrier A = a\n"
                       "functor = P(X)\n"
                       "coalgebra G : A\n"
                       "  a -> {z}\n")
        assert exc.value.line == 4

    def test_value_error_column_is_line_relative(self):
        with pytest.raises(ParseError) as exc:
            parse_spec("carrier A = a\n"
                       "functor = P(X)\n"
                       "coalgebra G : A\n"
                       "  a -> {z}\n")
        assert (exc.value.line, exc.value.col) == (4, 9)
        assert str(exc.value) == "line 4, column 9: 'z' is not a carrier element"

    def test_functor_error_column_is_line_relative(self):
        with pytest.raises(ParseError) as exc:
            parse_spec("carrier A = a\n"
                       "functor =  X + P(Q)\n")
        assert (exc.value.line, exc.value.col) == (2, 18)
        assert "unknown carrier 'Q'" in str(exc.value)

    def test_duplicate_coalgebra_row(self):
        with pytest.raises(ParseError) as exc:
            parse_spec("carrier A = a b\n"
                       "functor = P(X)\n"
                       "coalgebra G : A\n"
                       "  a -> {b}\n"
                       "  b -> {}\n"
                       "  a -> {}\n")
        assert str(exc.value) == "line 6, column 1: duplicate row for 'a'"

    def test_duplicate_algebra_row(self):
        # {b, a} is the same value as {a, b}
        with pytest.raises(ParseError) as exc:
            parse_spec("carrier A = a b\n"
                       "functor = P(X)\n"
                       "algebra E : A\n"
                       "  {} -> a\n"
                       "  {a} -> a\n"
                       "  {a, b} -> b\n"
                       "  {b} -> b\n"
                       "  {b, a} -> a\n")
        assert str(exc.value) == "line 8, column 1: duplicate row for '{b, a}'"

    def test_duplicate_paralgebra_row(self):
        rows = ["d @ a -> x", "(x, y) @ a -> x", "(y, x) @ a -> y", "(x, y) @ a -> y"]
        with pytest.raises(ParseError) as exc:
            parse_spec("carrier A = a\n"
                       "carrier B = x y\n"
                       "functor = R\n"
                       "paralgebra E : B @ A\n" + "".join(f"  {r}\n" for r in rows))
        assert str(exc.value) == "line 8, column 1: duplicate row for '(x, y) @ a'"

    def test_rows_past_the_first_chunks_report_their_own_line(self):
        # rows are tokenized a chunk of whole lines at a time: the location of
        # a bad row must not depend on where the chunks fall
        n = 3 * _CHUNK // 20
        names = [f"s{i}" for i in range(n)]
        head = f"carrier L = a b\ncarrier A = {' '.join(names)}\nfunctor = P(L * X)\ncoalgebra C : A\n"
        rows = [f"  s{i} -> {{(a, s{i // 2}), (b, s{i - 1})}}  # row {i}" for i in range(1, n)]
        rows.insert(0, "  s0 -> {}")
        doc = parse_spec(head + "\n".join(rows))
        assert doc.the_coalgebra("C").supports[-1] == frozenset({names[-2], names[(n - 1) // 2]})
        ends = list(accumulate(len(r) + 1 for r in rows))  # where each row ends
        cuts = [i for i in range(1, n) if ends[i - 1] // _CHUNK != ends[i] // _CHUNK]
        for i in sorted({j for c in cuts[:2] for j in (c - 1, c, c + 1)} | {n - 1}):
            bad = rows[:i] + [rows[i].replace("(a,", "(z,")] + rows[i + 1:]
            with pytest.raises(ParseError) as exc:
                parse_spec(head + "\n".join(bad))
            assert (exc.value.line, exc.value.col) == (5 + i, rows[i].index("(a,") + 2), i

    def test_no_collection_runs_while_a_section_is_read(self, monkeypatch):
        # the cyclic collector is paused inside _rows: at most one collection
        # runs, the one due once it is back on (unpaused, this read starts
        # about a hundred); the caller's setting is back after a clean parse
        # and after a parse error
        n = 20_000
        head = (f"carrier L = a b\ncarrier A = {' '.join(f's{i}' for i in range(n))}\n"
                "functor = P(L * X)\ncoalgebra C : A\n  s0 -> {}\n")
        rows = [f"  s{i} -> {{(a, s{i - 1}), (b, s{i // 2})}}\n" for i in range(1, n)]
        bad = rows[:-1] + [rows[-1].replace("(a,", "(z,")]
        inside, seen = [False], []

        def rows_watched(*args):
            gc.collect()  # none is due as _rows starts
            inside[0] = True
            try:
                return read_rows(*args)
            finally:
                inside[0] = False

        def callback(phase, info):
            if phase == "start" and inside[0]:
                seen.append(info["generation"])

        read_rows = textform._rows
        monkeypatch.setattr(textform, "_rows", rows_watched)
        gc.callbacks.append(callback)
        try:
            assert len(parse_spec(head + "".join(rows)).the_coalgebra("C").carrier) == n
            assert gc.isenabled() and len(seen) <= 1
            with pytest.raises(ParseError):
                parse_spec(head + "".join(bad))
            assert gc.isenabled() and len(seen) <= 2
            seen.clear()
            gc.disable()
            parse_spec(head + "".join(rows))
            assert not gc.isenabled() and seen == []
        finally:
            gc.enable()
            gc.callbacks.remove(callback)

    def test_comments_and_blank_lines_ignored(self):
        doc = parse_spec("# the graph\n\n" + GRAPH_DOC)
        assert doc.the_coalgebra("G").alpha("c") == fset(elem("d"))
