import gc
import random
from itertools import accumulate

import pytest

from wfcoalg import (Algebra, Carrier, Coalgebra, Const, Exp, Id, ParseError,
                     PowFin, Prod, RFunctor, SpecDocument, Sum, element_key, eval_map, eval_obj,
                     parse_functor, parse_spec, parse_value, render_functor,
                     render_spec, render_value)
from wfcoalg.functor import DEFAULT_ENUM_CAP, check_value, size_obj
from wfcoalg import textform
from wfcoalg.cli import EXIT_USAGE, main
from wfcoalg.demos import UNIT
from wfcoalg.textform import _CHUNK, MAX_NESTING

from generators import bounded_functor, random_coalgebra
from values import POINT, const, elem, fset, fun, inj, pair, tup

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
        assert parse_functor("3", {}) == Const(Carrier(("u0", "u1", "u2"))) == Const.numeral(3)
        assert parse_functor("0", {}) == Const.numeral(0) == Const(Carrier(()))
        assert UNIT == Const.numeral(1).values == Carrier(("u0",))
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
        assert hash(v) == hash(parse_value(expr, a, value_text)) and element_key(v)
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
     "line 4, column 1: paralgebra 'E': algebra table is not total; missing ((x, y), b)"),
    ("carrier S = p q\n" + P_DOC.replace("P(X)", "X ^ S") + "coalgebra G : A\n"
     "  a -> [p: a, p: b, q: a]\n", "line 5, column 15: repeated alphabet entry 'p'"),
    ("carrier A = b x-1 c\nfunctor = X\n",
     "line 1, column 15: carrier element 'x-1' is not one token other than '->' and '@'"),
    ("carrier A = 1a\nfunctor = X\n",
     "line 1, column 13: carrier element '1a' is not one token other than '->' and '@'"),
    ("carrier A = a @\nfunctor = X\n",
     "line 1, column 15: carrier element '@' is not one token other than '->' and '@'"),
    # a carrier's name is a name token that the functor grammar reads as a constant
    ("carrier R = a b\nfunctor = R\n", "line 1, column 9: carrier name 'R' is a functor keyword"),
    ("carrier X = a\nfunctor = X + X\n",
     "line 1, column 9: carrier name 'X' is a functor keyword"),
    ("carrier  P = a\nfunctor = X\n", "line 1, column 10: carrier name 'P' is a functor keyword"),
    ("carrier 2 = a b c\nfunctor = 2\n", "line 1, column 1: expected 'carrier NAME = elements'"),
    ("carrier é = a\nfunctor = X\n", "line 1, column 1: expected 'carrier NAME = elements'"),
    ("carrier 2a = a\nfunctor = X\n", "line 1, column 1: expected 'carrier NAME = elements'"),
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
        doc = SpecDocument(PowFin(Id()), {"A": carrier}, {"C": coalg})
        with pytest.raises(ValueError, match="carrier 'A': '}' is not one element"):
            render_spec(doc)
        text = "carrier A = a }\nfunctor = P(X)\ncoalgebra C : A\n  a -> {}}\n  } -> {}\n"
        with pytest.raises(ParseError, match="column 15: carrier element '}'"):
            parse_spec(text)

    @pytest.mark.parametrize("labels, bad", [
        (("a", "x-1"), "'x-1'"), ((0, 1), "0"), (("a b",), "'a b'"), (("",), "''"),
        (("a", "#"), "'#'"), (("->",), "'->'"), (("a", "@"), "'@'")])
    def test_render_spec_refuses_a_label_a_carrier_line_cannot_hold(self, labels, bad):
        doc = SpecDocument(PowFin(Id()), {"A": Carrier(labels)})
        with pytest.raises(ValueError) as exc:
            render_spec(doc)
        assert str(exc.value) == f"carrier 'A': {bad} is not one element of a carrier line"

    def test_a_carrier_name_is_any_name_token_but_a_keyword(self):
        text = "carrier A' = a\nfunctor = A' + X\ncoalgebra C : A'\n  a -> in1 a\n"
        doc = parse_spec(text)
        assert doc.functor == Sum((Const(Carrier(("a",))), Id()))
        assert render_spec(doc) == text

    @pytest.mark.parametrize("name", ["X", "R", "P", "2", "2a", "é", "A-B", ""])
    def test_render_spec_refuses_a_carrier_name_the_reader_refuses(self, name):
        # with the name X this document was written as 'functor = X + X'
        doc = SpecDocument(Sum((Id(), Const(Carrier(("a",))))), {name: Carrier(("a",))})
        with pytest.raises(ValueError) as exc:
            render_spec(doc)
        assert str(exc.value) == f"carrier name {name!r} is not a name other than X, R and P"

    @pytest.mark.parametrize("kind", ["coalgebra", "algebra", "paralgebra"])
    @pytest.mark.parametrize("name", ["G'", "a b", ""])
    def test_render_spec_refuses_a_table_name_the_reader_refuses(self, kind, name):
        a = Carrier(("a",))
        tables = {"coalgebra": Coalgebra(Id(), a, ("a",)),
                  "algebra": Algebra.from_table(Id(), a, {"a": "a"}),
                  "paralgebra": Algebra(Prod((Id(), Const(a))), a, table={("a", "a"): "a"})}
        doc = SpecDocument(Id(), {"A": a}, **{kind + "s": {name: tables[kind]}})
        with pytest.raises(ValueError) as exc:
            render_spec(doc)
        assert str(exc.value) == f"{kind} name {name!r} is not of word characters"

    def test_render_spec_refuses_an_algebra_without_a_table(self):
        a = Carrier(("a",))
        doc = SpecDocument(Id(), {"A": a}, algebras={"E": Algebra(Id(), a, lambda v: "a")})
        with pytest.raises(ValueError) as exc:
            render_spec(doc)
        assert str(exc.value) == "algebra 'E' has an operation but no table"

    def test_render_spec_refuses_a_paralgebra_without_a_table(self):
        a = Carrier(("a",))
        par = Algebra(Prod((Id(), Const(a))), a, lambda v: "a")
        with pytest.raises(ValueError) as exc:
            render_spec(SpecDocument(Id(), {"A": a}, paralgebras={"Q": par}))
        assert str(exc.value) == "paralgebra 'Q' has an operation but no table"

    AB = Carrier(("a", "b"))
    S = Carrier(("s",))

    @pytest.mark.parametrize("tables, message", [
        # a table over 1 + X once wrote 'a -> {0, b}', which does not reparse
        ({"coalgebras": {"C": Coalgebra(Sum((Id(), Const(Carrier(("u0",))))), AB,
                                        ((0, "b"), (1, "u0")))}},
         "coalgebra 'C' is over a functor other than the document's"),
        ({"algebras": {"E": Algebra.from_table(Id(), AB, {"a": "a", "b": "a"})}},
         "algebra 'E' is over a functor other than the document's"),
        ({"paralgebras": {"Q": Algebra.from_table(Prod((Id(), Const(AB))), AB, {
            (x, a): "a" for x in "ab" for a in "ab"})}},
         "paralgebra 'Q' is over a functor other than the document's times a carrier it names"),
        ({"paralgebras": {"Q": Algebra.from_table(Prod((PowFin(Id()), Const(S))), AB, {
            (v, "s"): "a" for v in eval_obj(PowFin(Id()), AB)})}},
         "paralgebra 'Q' is over a functor other than the document's times a carrier it names"),
        ({"paralgebras": {"Q": Algebra.from_table(PowFin(Id()), AB, {
            v: "a" for v in eval_obj(PowFin(Id()), AB)})}},
         "paralgebra 'Q' is over a functor other than the document's times a carrier it names"),
    ], ids=["coalgebra", "algebra", "paralgebra", "paralgebra-unnamed-source",
            "paralgebra-no-source"])
    def test_render_spec_refuses_a_table_over_another_functor(self, tables, message):
        doc = SpecDocument(PowFin(Id()), {"A": self.AB}, **tables)
        with pytest.raises(ValueError) as exc:
            render_spec(doc)
        assert str(exc.value) == message

    def test_render_spec_reads_a_paralgebra_source_off_its_functor(self):
        text = ("carrier A = a b\ncarrier S = s\nfunctor = X\nparalgebra Q : A @ S\n"
                "  a @ s -> b\n  b @ s -> a\n")
        doc = parse_spec(text)
        assert doc.the_paralgebra("Q").functor == Prod((Id(), Const(self.S)))
        assert render_spec(doc) == text

    @pytest.mark.parametrize("description", [
        "issue #3 fixed", "two\nlines", "a\r\nb", "form\x0cfeed", "line\u2028sep",
        " leading", "trailing ", "\ttab"])
    def test_render_spec_refuses_a_description_it_cannot_write_back(self, description):
        doc = SpecDocument(Id(), {}, description=description)
        with pytest.raises(ValueError) as exc:
            render_spec(doc)
        assert str(exc.value) == (f"description {description!r} is not one line "
                                  "without '#' or outer spaces")

    @pytest.mark.parametrize("kind", ["coalgebra", "algebra", "paralgebra"])
    def test_render_spec_refuses_a_table_over_an_unnamed_carrier(self, kind):
        a = Carrier(("a",))
        tables = {"coalgebra": Coalgebra(Id(), a, ("a",)),
                  "algebra": Algebra.from_table(Id(), a, {"a": "a"}),
                  "paralgebra": Algebra(Prod((Id(), Const(a))), a, table={("a", "a"): "a"})}
        doc = SpecDocument(Id(), {}, **{kind + "s": {"Z": tables[kind]}})
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
                functor, {n: c for c, n in names.items()},
                {"C": random_coalgebra(rng, functor, states)},
                {"E": Algebra.from_table(functor, target,
                                         {v: rng.choice(target.elements) for v in values})},
                {"Q": Algebra(Prod((functor, Const(states))), target, table={
                    (v, a): rng.choice(target.elements) for v in values for a in states})},
                " ".join(rng.choices(words, k=rng.randint(1, 4))))
            text = render_spec(doc)
            again = parse_spec(text)
            assert render_spec(again) == text
            assert (again.functor, again.carriers, again.coalgebras, again.description) == (
                doc.functor, doc.carriers, doc.coalgebras, doc.description)
            assert again.the_algebra("E").table == doc.the_algebra("E").table
            par, par_again = doc.the_paralgebra("Q"), again.the_paralgebra("Q")
            assert (par_again.functor, par_again.carrier, par_again.table) == (
                par.functor, par.carrier, par.table)

    @pytest.mark.parametrize("doc, message", [
        ("functor = P(X)\n  junk here !!\ncarrier A = a\n  more junk\ncoalgebra C : A\n  a -> {}\n",
         "line 2, column 1: a functor section takes no rows"),
        ("functor = P(X)\ncarrier A = a\n\n   # a comment\n  more junk\ncoalgebra C : A\n",
         "line 5, column 1: a carrier section takes no rows"),
        ("description two\n  lines\nfunctor = X\n",
         "line 2, column 1: a description section takes no rows"),
        # an unknown section is still found before any section is read
        ("functor = X\n  junk\nwidget W\n", "line 3, column 1: unknown section 'widget'"),
    ], ids=["functor", "carrier", "description", "unknown section first"])
    def test_a_header_that_takes_no_rows_refuses_an_indented_line(self, doc, message):
        with pytest.raises(ParseError) as exc:
            parse_spec(doc)
        assert str(exc.value) == message

    def test_blank_and_comment_lines_under_a_header_are_no_rows(self):
        doc = parse_spec("description d\n\n  # note\nfunctor = P(X)  # f\n   \n"
                         "carrier A = a\n\t\ncoalgebra C : A\n  a -> {}\n")
        assert (doc.description, doc.functor, doc.carriers) == (
            "d", PowFin(Id()), {"A": Carrier(("a",))})

    @pytest.mark.parametrize("tail, message", [
        ("widget W\n", "line 3004, column 1: unknown section 'widget'"),
        ("  stray\n", "line 3004, column 1: a description section takes no rows"),
        ("coalgebra C : A\n  a -> {b}\n", "line 3005, column 9: 'b' is not a carrier element"),
    ])
    def test_line_numbers_after_many_sections(self, tail, message):
        # counted forward from header to header, not from the start per section
        head = "functor = P(X)\ncarrier A = a\n\n" + "description x\n\n" * 1000
        text = head + "description y\n  # c\n" * 500 + tail
        with pytest.raises(ParseError) as exc:
            parse_spec(text)
        assert str(exc.value) == message

    def test_render_spec_writes_the_functor_tree(self):
        graph = Coalgebra.from_dict(PowFin(Id()), Carrier(("a", "b")),
                                    {"a": frozenset({"b"}), "b": frozenset()})
        doc = SpecDocument(PowFin(Id()), {"A": graph.carrier}, {"G": graph})
        text = render_spec(doc)
        assert text == "carrier A = a b\nfunctor = P(X)\ncoalgebra G : A\n  a -> {b}\n  b -> {}\n"
        assert parse_spec(text).the_coalgebra("G") == graph

    @pytest.mark.parametrize("functor, names, line", [
        (Sum((Id(), Const.numeral(2))), {}, "functor = X + 2"),
        (PowFin(Prod((Const(Carrier(("l", "m"))), Id()))), {"L": ("l", "m")},
         "functor = P(L * X)"),
        (Sum((Exp(Carrier(("l", "m")), Id()), Const.numeral(1))), {"L": ("l", "m")},
         "functor = X^L + 1"),
        (Prod((Const.numeral(2), Exp(Carrier(("p",)), PowFin(Id())))),
         {"U": ("u0", "u1"), "S": ("p",)}, "functor = U * P(X)^S"),
    ], ids=["numeral", "named constant", "exponent", "named numeral carrier"])
    def test_render_spec_round_trips_constants_and_exponents(self, functor, names, line):
        states = Carrier(("a", "b"))
        carriers = {"A": states, **{n: Carrier(elems) for n, elems in names.items()}}
        doc = SpecDocument(functor, carriers,
                           {"C": random_coalgebra(random.Random(5), functor, states)})
        text = render_spec(doc)
        assert line in text.splitlines()
        again = parse_spec(text)
        assert (again.functor, again.carriers, again.coalgebras) == (
            doc.functor, doc.carriers, doc.coalgebras)
        assert render_spec(again) == text

    @pytest.mark.parametrize("functor, message", [
        (Sum((Id(), Const(Carrier(("p", "q"))))),
         "constant carrier has no document name and is not a numeral"),
        (Sum((Id(), Const(Carrier(("u1", "u0"))))),
         "constant carrier has no document name and is not a numeral"),
        (Prod((Id(), Exp(Carrier(("p", "q")), Id()))), "exponent alphabet has no document name"),
    ], ids=["unnamed constant", "reordered numeral carrier", "unnamed alphabet"])
    def test_render_spec_refuses_a_functor_it_cannot_name(self, functor, message):
        for write in (lambda: render_spec(SpecDocument(functor, {})),
                      lambda: render_functor(functor, {})):
            with pytest.raises(ValueError) as exc:
                write()
            assert str(exc.value) == message

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


class TestParalgebraRows:
    """A paralgebra row is matched as one line and each distinct value text is
    read once; a row that does not match keeps the message the token stream
    gave it."""

    HEAD = ("carrier A = a b\ncarrier B = x y\nfunctor = X + 1\ncoalgebra C : A\n"
            "  a -> in1 u0\n  b -> in0 a\nparalgebra Q : B @ A\n")
    ROWS = ["  in0 x @ a -> x", "  in0 x @ b -> y", "  in0 y @ a -> y", "  in0 y @ b -> x",
            "  in1 u0 @ a -> x", "  in1 u0 @ b -> y"]
    TABLE = {(inj(0, elem("x")), "a"): "x", (inj(0, elem("x")), "b"): "y",
             (inj(0, elem("y")), "a"): "y", (inj(0, elem("y")), "b"): "x",
             (inj(1, const("u0")), "a"): "x", (inj(1, const("u0")), "b"): "y"}

    def table(self, lines):
        return parse_spec(self.HEAD + "\n".join(lines) + "\n").the_paralgebra("Q").table

    @pytest.mark.parametrize("row, message", [
        ("@ a -> x", "line 8, column 1: unexpected end of input"),
        ("in0 @x @ a -> x", "line 8, column 7: '@' is not a carrier element"),
        ("in0 x a -> x", "line 8, column 1: expected 'value @ element -> result'"),
        ("in0 x @ a @ b -> x", "line 8, column 9: trailing input '@'"),
        ("in0 x @ a -> x y", "line 8, column 1: 'x y' is not in the target carrier"),
        ("in0 x x @ a -> x", "line 8, column 9: trailing input 'x'"),
        ("in0 x @ a x", "line 8, column 1: expected 'lhs -> rhs'"),
    ])
    def test_a_bad_row_keeps_its_message(self, row, message):
        with pytest.raises(ParseError) as exc:
            self.table([f"  {row}"] + self.ROWS[1:])
        assert str(exc.value) == message

    def test_a_repeated_row_is_named_at_its_line(self):
        with pytest.raises(ParseError) as exc:
            self.table(self.ROWS + self.ROWS[:1])
        assert str(exc.value) == "line 14, column 1: duplicate row for 'in0 x @ a'"

    @pytest.mark.parametrize("lines", [
        ROWS,
        [row.replace(" ", "\t") for row in ROWS],
        ["  in0 x@a->x"] + ROWS[1:],
        [row.replace(" @ ", "\xa0@\xa0").replace(" -> ", "\xa0->\xa0") for row in ROWS],
        [ROWS[0], "", "  # a comment", "\t", "# at column 1", ROWS[1] + "  # trailing"]
        + ROWS[2:],
    ], ids=["spaces", "tabs", "no-spaces", "no-break-spaces", "blank-and-comment-lines"])
    def test_rows_may_be_spaced_as_the_token_stream_allows(self, lines):
        assert self.table(lines) == self.TABLE

    def test_random_tables_read_as_parse_value_reads_each_row(self):
        rng = random.Random(41)
        tight = set("()[]{}^*+,:@=") | {"->"}  # tokens that need no space beside them

        def respaced(tokens):
            out = tokens[0]
            for before, tok in zip(tokens, tokens[1:]):
                gaps = (" ", "  ", "\t", "\xa0", " \t") + (("",) * 3 if {before, tok} & tight
                                                           else ())
                out += rng.choice(gaps) + tok
            return out

        for _ in range(60):
            source = Carrier(tuple(f"a{i}" for i in range(rng.randint(1, 3))))
            target = Carrier(("t0", "t1"))
            functor = bounded_functor(rng, depth=2, carrier_size=2, size_cap=32)
            names = {c: f"K{i}" for i, c in enumerate(dict.fromkeys(carriers_of(functor)))}
            names.update({source: "A", target: "T"})
            lines, expected = [], {}
            for v in eval_obj(functor, target):
                for a in source:
                    x = rng.choice(target.elements)
                    vtext = respaced(textform._scan(render_value(functor, v)))
                    expected[parse_value(functor, target, vtext), a] = x
                    lines.append(rng.choice((" ", "  ", "\t", "\xa0")) + respaced(
                        [vtext, "@", a, "->", x]) + rng.choice(("", " ", "\t", "  # row")))
                    if rng.random() < 0.1:
                        lines.append(rng.choice(("", "  ", "\t", "  # between rows")))
            rng.shuffle(lines)
            head = "".join(f"carrier {n} = {' '.join(c)}\n" for c, n in names.items())
            head += f"functor = {render_functor(functor, names)}\nparalgebra Q : T @ A\n"
            assert parse_spec(head + "\n".join(lines) + "\n").the_paralgebra("Q").table == expected
