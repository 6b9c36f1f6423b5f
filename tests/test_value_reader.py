"""The compiled readers of ``wfcoalg.textform`` against the recursive
token-cursor parser they replaced, kept here as a test-only reference.

Both sides read the same texts: every value of small functors (all node
kinds, ``R`` and nested exponents and sets included) rendered over
name-labelled carriers, and those renderings with one token deleted,
duplicated, swapped with its neighbour or replaced by a foreign name.  They
must agree on accept or reject, on the value, and on the error's message,
line and column.  Every value they accept is also read as a coalgebra row,
whose least support, collected by the reader, must be ``check_value``'s.
"""

import random
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import pytest

from wfcoalg import (Carrier, Const, Exp, FunctorExpr, Id, ParseError, PowFin,
                     Prod, RFunctor, Sum, eval_obj, parse_functor, parse_spec,
                     parse_value, render_functor, render_value)
from wfcoalg.functor import check_value, size_obj

from generators import ATOMS, random_functor
from values import POINT, const, elem, fset, fun, inj, pair, tup


# --- test-only reference: the token-cursor parser --------------------------------

@dataclass
class Token:
    kind: str  # 'name', 'int', 'punct'
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9']*|\d+|->|[()\[\]{}^*+,:@=]|\S")


def _tokenize(text: str, line_offset: int = 1) -> List[Token]:
    tokens = []
    for lineno, line in enumerate(text.splitlines() or [""], start=line_offset):
        body = line.split("#", 1)[0]
        for m in _TOKEN_RE.finditer(body):
            t = m.group()
            if t.isdigit():
                kind = "int"
            elif re.fullmatch(r"[A-Za-z_][A-Za-z_0-9']*", t):
                kind = "name"
            else:
                kind = "punct"
            tokens.append(Token(kind, t, lineno, m.start() + 1))
    return tokens


class _Cursor:
    def __init__(self, tokens: List[Token], line: int = 1):
        self.tokens = tokens
        self.pos = 0
        self.last_line = line

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.last_line, 1)
        self.pos += 1
        self.last_line = tok.line
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}",
                             tok.line, tok.col)
        return tok

    def done(self) -> bool:
        return self.pos >= len(self.tokens)


def reference_parse_functor(text: str, carriers: Dict[str, Carrier],
                            line: int = 1) -> FunctorExpr:
    cur = _Cursor(_tokenize(text, line), line)
    expr = _parse_sum(cur, carriers)
    if not cur.done():
        tok = cur.peek()
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return expr


def _parse_sum(cur, carriers) -> FunctorExpr:
    parts = [_parse_prod(cur, carriers)]
    while cur.peek() and cur.peek().text == "+":
        cur.next()
        parts.append(_parse_prod(cur, carriers))
    return parts[0] if len(parts) == 1 else Sum(tuple(parts))


def _parse_prod(cur, carriers) -> FunctorExpr:
    parts = [_parse_exp(cur, carriers)]
    while cur.peek() and cur.peek().text == "*":
        cur.next()
        parts.append(_parse_exp(cur, carriers))
    return parts[0] if len(parts) == 1 else Prod(tuple(parts))


def _parse_exp(cur, carriers) -> FunctorExpr:
    base = _parse_atom(cur, carriers)
    while cur.peek() and cur.peek().text == "^":
        cur.next()
        tok = cur.next()
        if tok.kind != "name" or tok.text not in carriers:
            raise ParseError(f"unknown alphabet {tok.text!r}", tok.line, tok.col)
        base = Exp(carriers[tok.text], base)
    return base


def _parse_atom(cur, carriers) -> FunctorExpr:
    tok = cur.next()
    if tok.text == "X":
        return Id()
    if tok.text == "R":
        return RFunctor()
    if tok.text == "P":
        cur.expect("(")
        inner = _parse_sum(cur, carriers)
        cur.expect(")")
        return PowFin(inner)
    if tok.kind == "int":
        n = int(tok.text)
        return Const(Carrier(tuple(f"u{i}" for i in range(n))))
    if tok.kind == "name":
        if tok.text not in carriers:
            raise ParseError(f"unknown carrier {tok.text!r}", tok.line, tok.col)
        return Const(carriers[tok.text])
    if tok.text == "(":
        inner = _parse_sum(cur, carriers)
        cur.expect(")")
        return inner
    raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.col)


def reference_parse_value(expr: FunctorExpr, carrier: Carrier, text: str,
                          line: int = 1) -> Any:
    cur = _Cursor(_tokenize(text, line), line)
    v = _parse_val(cur, expr, carrier)
    if not cur.done():
        tok = cur.peek()
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return v


def _parse_val(cur: _Cursor, expr: FunctorExpr, carrier: Carrier) -> Any:
    if isinstance(expr, Const):
        tok = cur.next()
        if tok.text not in expr.values:
            raise ParseError(f"{tok.text!r} is not a constant atom here",
                             tok.line, tok.col)
        return const(tok.text)
    if isinstance(expr, Id):
        tok = cur.next()
        if tok.text not in carrier:
            raise ParseError(f"{tok.text!r} is not a carrier element",
                             tok.line, tok.col)
        return elem(tok.text)
    if isinstance(expr, Sum):
        tok = cur.next()
        m = re.fullmatch(r"in(\d+)", tok.text)
        if not m or not int(m.group(1)) < len(expr.parts):
            raise ParseError(f"expected an injection tag, found {tok.text!r}",
                             tok.line, tok.col)
        i = int(m.group(1))
        return inj(i, _parse_val(cur, expr.parts[i], carrier))
    if isinstance(expr, Prod):
        cur.expect("(")
        items = []
        for i, part in enumerate(expr.parts):
            if i:
                cur.expect(",")
            items.append(_parse_val(cur, part, carrier))
        cur.expect(")")
        return tup(*items)
    if isinstance(expr, Exp):
        cur.expect("[")
        entries: Dict[Any, Any] = {}
        first = True
        while True:
            tok = cur.peek()
            if tok is not None and tok.text == "]":
                cur.next()
                break
            if not first:
                cur.expect(",")
            first = False
            letter = cur.next()
            if letter.text not in expr.alphabet:
                raise ParseError(f"{letter.text!r} is not in the alphabet",
                                 letter.line, letter.col)
            if letter.text in entries:
                raise ParseError(f"repeated alphabet entry {letter.text!r}",
                                 letter.line, letter.col)
            cur.expect(":")
            entries[letter.text] = _parse_val(cur, expr.arg, carrier)
        missing = [s for s in expr.alphabet if s not in entries]
        if missing:
            raise ParseError(f"missing alphabet entry {missing[0]!r}",
                             cur.last_line, 1)
        return fun(*(entries[s] for s in expr.alphabet))
    if isinstance(expr, PowFin):
        cur.expect("{")
        items = []
        first = True
        while True:
            tok = cur.peek()
            if tok is not None and tok.text == "}":
                cur.next()
                break
            if not first:
                cur.expect(",")
            first = False
            items.append(_parse_val(cur, expr.arg, carrier))
        return fset(*items)
    if isinstance(expr, RFunctor):
        tok = cur.next()
        if tok.text == "d":
            return POINT
        if tok.text == "(":
            x = cur.next()
            cur.expect(",")
            y = cur.next()
            cur.expect(")")
            for t in (x, y):
                if t.text not in carrier:
                    raise ParseError(f"{t.text!r} is not a carrier element",
                                     t.line, t.col)
            if x.text == y.text:
                raise ParseError("R pair components must be distinct",
                                 x.line, x.col)
            return pair(x.text, y.text)
        raise ParseError(f"expected 'd' or a pair, found {tok.text!r}",
                         tok.line, tok.col)
    raise TypeError(f"unknown functor node {expr!r}")


# --- inputs ------------------------------------------------------------------------

# Carrier labels are names; "d" is also R's point and "p" also a constant atom.
CARRIERS = [Carrier(("a", "b")), Carrier(("a", "b", "c")), Carrier(("d", "p", "x1"))]
ATOM_SETS = {f"K{n}": Carrier(ATOMS[:n]) for n in (1, 2, 3)}
S = Carrier(ATOMS[:2])
FIXED = [Id(), RFunctor(), Const(S), PowFin(Id()), PowFin(PowFin(Id())),
         Exp(S, Exp(S, Id())), Exp(S, PowFin(Id())),
         PowFin(Exp(Carrier(("p",)), RFunctor())),
         Sum((Id(), RFunctor(), Const(S))), Prod((RFunctor(), Id(), Const(S))),
         PowFin(Sum((Prod((Id(), Const(S))), Const(S))))]
FOREIGN = ("zz", "in9", "in01", "q'", "7", "@")
KINDS = (Const, Id, Sum, Prod, Exp, PowFin, RFunctor)


def node_kinds(expr: FunctorExpr) -> set:
    inner = getattr(expr, "parts", None) or ([expr.arg] if hasattr(expr, "arg") else [])
    return {type(expr)}.union(*(node_kinds(p) for p in inner))


def cases(rng: random.Random, n_functors: int):
    """(functor, carrier, text) triples: renderings and their mutations."""
    functors = list(FIXED)
    while len(functors) < n_functors:
        expr = random_functor(rng, rng.randint(1, 2))
        if 0 < size_obj(expr, 3) <= 5_000:
            functors.append(expr)
    for expr in functors:
        carrier = rng.choice(CARRIERS)
        values = eval_obj(expr, carrier)
        for v in rng.sample(values, min(6, len(values))):
            text = render_value(expr, v)
            yield expr, carrier, text
            toks = _TOKEN_RE.findall(text)
            for _ in range(4):
                mutated = list(toks)
                i = rng.randrange(len(mutated))
                how = rng.choice(("delete", "duplicate", "swap", "foreign"))
                if how == "delete":
                    del mutated[i]
                elif how == "duplicate":
                    mutated.insert(i, mutated[i])
                elif how == "swap" and i + 1 < len(mutated):
                    mutated[i], mutated[i + 1] = mutated[i + 1], mutated[i]
                else:
                    mutated[i] = rng.choice(FOREIGN)
                yield expr, carrier, " ".join(mutated)


def row_document(expr: FunctorExpr, carrier: Carrier, text: str) -> str:
    """A document whose coalgebra C reads ``text`` as the row of each state."""
    names = {c: n for n, c in ATOM_SETS.items()}
    names[S] = "K2"
    names[carrier] = "A"
    header = "".join(f"carrier {n} = {' '.join(c)}\n" for n, c in ATOM_SETS.items())
    return (header + f"carrier A = {' '.join(carrier)}\n"
            f"functor = {render_functor(expr, names)}\n"
            "coalgebra C : A\n" + "".join(f"  {a} -> {text}\n" for a in carrier))


def outcome(parse, *args):
    try:
        return "ok", parse(*args)
    except ParseError as exc:
        return "error", str(exc).split(": ", 1)[1], exc.line, exc.col


def agree(got, want) -> bool:
    """Equal outcomes, except that the reference put a missing alphabet entry
    at column 1 and the reader puts it at the closing bracket."""
    if want[0] == "error" and want[1].startswith("missing alphabet entry"):
        return got[:3] == want[:3]
    return got == want


# --- tests -------------------------------------------------------------------------

def test_every_node_kind_is_covered():
    assert set().union(*(node_kinds(e) for e in FIXED)) == set(KINDS)


@pytest.mark.parametrize("seed", range(4))
def test_reader_agrees_with_the_reference(seed):
    rng = random.Random(seed)
    accepted = rejected = 0
    messages = set()
    for expr, carrier, row in cases(rng, 40):
        line, text = rng.randint(1, 40), row
        if rng.random() < 0.2:  # values may span lines and carry comments
            text = text.replace(" ", "\n  ", 1) + "  # note"
        want = outcome(reference_parse_value, expr, carrier, text, line)
        got = outcome(parse_value, expr, carrier, text, line)
        assert agree(got, want), (expr, text)
        if want[0] == "ok":
            coalg = parse_spec(row_document(expr, carrier, row)).the_coalgebra("C")
            assert coalg.supports == (check_value(expr, carrier, want[1]),) * len(carrier)
        accepted += want[0] == "ok"
        if want[0] == "error":
            rejected += 1
            messages.add(re.sub(r"'[^']*'", "_", want[1]))
    assert accepted > 100 and rejected > 300
    assert {"_ is not a carrier element", "expected _, found _",
            "unexpected end of input", "trailing input _",
            "expected an injection tag, found _", "_ is not in the alphabet",
            "_ is not a constant atom here"} <= messages


def test_rare_errors_agree_with_the_reference():
    carrier = CARRIERS[1]
    for expr, text in [(RFunctor(), "(a, a)"), (RFunctor(), "(a, zz)"),
                       (RFunctor(), "(zz, a"), (RFunctor(), "a"),
                       (Exp(S, Id()), "[p: a]"), (Exp(S, Id()), "[]"),
                       (Exp(S, Id()), "[p: a, p: b, q: c]"),
                       (Exp(S, Id()), "[q: b,\n p: a]"),
                       (Exp(S, Id()), "[p: a,\n\n]"),
                       (Sum((Id(), Id())), "in01 a"), (Sum((Id(), Id())), "in2 a"),
                       (PowFin(Id()), "{b, a, b}"), (PowFin(Id()), "{a,}"),
                       (PowFin(Id()), ""), (PowFin(Id()), "{a} }"),
                       (Prod(()), "()")]:
        for line in (1, 9):
            assert agree(outcome(parse_value, expr, carrier, text, line),
                         outcome(reference_parse_value, expr, carrier, text, line)), text
    assert outcome(parse_value, Exp(S, Id()), carrier, "[p: a\n  ]") == (
        "error", "missing alphabet entry 'q'", 2, 3)
    # a text that starts at column 5 shifts its first line only
    assert outcome(parse_functor, "X + Q +\n Z", {}, 3, 5) == (
        "error", "unknown carrier 'Q'", 3, 9)
    assert outcome(parse_functor, "X + X +\n Z", {}, 3, 5) == (
        "error", "unknown carrier 'Z'", 4, 2)


@pytest.mark.parametrize("seed", range(2))
def test_document_rows_report_line_columns(seed):
    """Inside a coalgebra row the reader reports the reference's column
    shifted by where the value starts; column 1 stays column 1."""
    rng = random.Random(100 + seed)
    checked = 0
    for expr, carrier, text in cases(rng, 30):
        row = f"  {carrier.elements[0]} ->"
        doc = row_document(expr, carrier, text)
        # the old parse_spec read the text after "->" and placed its columns there
        want = outcome(reference_parse_value, expr, carrier, " " + text, 7)
        got = outcome(lambda: parse_spec(doc).the_coalgebra("C").alpha(carrier.elements[0]))
        if want[0] == "error" and want[3] != 1:
            want = want[:3] + (want[3] + len(row),)
        assert agree(got, want), doc
        checked += 1
    assert checked > 300


@pytest.mark.parametrize("seed", range(2))
def test_functor_parser_agrees_with_the_reference(seed):
    rng = random.Random(200 + seed)
    names = {c: n for n, c in ATOM_SETS.items()}
    for _ in range(200):
        text = render_functor(random_functor(rng, 3), names)
        toks = _TOKEN_RE.findall(text)
        variants = [text]
        for _ in range(3):
            mutated = list(toks)
            i = rng.randrange(len(mutated))
            mutated[i:i + 1] = rng.choice(([], [toks[i]] * 2, ["K9"], ["^"], ["3"]))
            variants.append(" ".join(mutated))
        for variant in variants:
            line = rng.randint(1, 9)
            assert (outcome(parse_functor, variant, ATOM_SETS, line)
                    == outcome(reference_parse_functor, variant, ATOM_SETS, line)), variant
