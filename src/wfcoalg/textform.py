"""Plain-text front-end syntax: functors, values, and spec documents.

Functor expressions::

    X               identity
    R               the pair-or-point functor
    P(E)            finite powerset of E
    E ^ Name        functions from the named alphabet into E
    E * E, E + E    products and sums (usual precedence, parens allowed)
    3               a fresh 3-element constant {u0, u1, u2}
    Name            a named carrier as a constant

Values are written against the functor shape: carrier elements and
constant atoms by name, ``in0 v`` for sums, ``(v, w)`` for products,
``{v, w}`` for finite sets, ``[a: v, b: w]`` for exponents, and ``d`` or
``(x, y)`` for R.

A document holds one functor, named carriers, and named pointwise tables::

    functor = P(X)
    carrier A = a b c d
    coalgebra G : A
      a -> {b}
      b -> {}
      c -> {d}
      d -> {c}

Each table section builds one value reader for its functor and carrier, of
the ``reader`` closures of the functor's nodes (see ``functor``), and reads
its rows from one token stream.  Errors give the document's line and column;
a repeated table row or alphabet entry is an error, and each carrier element
is one token, so that a row names it as a value does.
"""

from __future__ import annotations

import gc
import re
from itertools import islice
from operator import length_hint
from typing import Any, Dict, List, Optional, Tuple

from ._record import Record
from .errors import MalformedValue, WfcoalgError
from .finset import Carrier
from .functor import (DEFAULT_ENUM_CAP, Const, Exp, FunctorExpr, Id, PowFin, Prod,
                      RFunctor, Sum, size_obj)
from .coalgebra import Algebra, Coalgebra, ParAlgebra


class ParseError(WfcoalgError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(r"[()\[\]{}^*+,:@=]|[A-Za-z_][A-Za-z_0-9']*+|\d++|->|\S")
_NAME_RE = re.compile(r"[A-Za-z_]")  # the first character of a name token


def _scan(text: str) -> List[str]:
    """The tokens of ``text`` as plain strings, ``#`` comments dropped."""
    if "#" in text:
        text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    return _TOKEN_RE.findall(text)


def _locate(text: str, line: int, col: int, k: int) -> Tuple[int, int]:
    """Line and column of the k-th token of ``text``, whose first character
    sits at (line, col) of the document; only error paths rescan."""
    for ln, body in enumerate(text.splitlines(), start=line):
        for m in _TOKEN_RE.finditer(body.split("#", 1)[0]):
            if not k:
                return ln, m.start() + (col if ln == line else 1)
            k -= 1
    return line, col


# --- functor expressions ------------------------------------------------------

MAX_NESTING = 100  # brackets and exponents around any part of a functor


def parse_functor(text: str, carriers: Dict[str, Carrier],
                  line: int = 1, col: int = 1) -> FunctorExpr:
    """Parse a functor expression that starts at (line, col) of a document.
    Each parser returns its expression and its nesting; a bracket is refused
    as it opens past ``MAX_NESTING`` and any nesting past it where it closes."""
    toks = _scan(text) + [None]  # None past the last token
    pos = level = 0

    def fail(message: str, k: int):
        raise ParseError(message, *_locate(text, line, col, k))

    def take() -> str:
        nonlocal pos
        if toks[pos] is None:
            raise ParseError("unexpected end of input",
                             _locate(text, line, col, pos - 1)[0], 1)
        pos += 1
        return toks[pos - 1]

    def expect(want: str) -> None:
        if take() != want:
            fail(f"expected {want!r}, found {toks[pos - 1]!r}", pos - 1)

    def nested(depth: int, k: int) -> int:
        if depth > MAX_NESTING:
            fail(f"functor nested more than {MAX_NESTING} deep", k)
        return depth

    def chain(op: str, operand, node):
        parts = [operand()]
        while toks[pos] == op:
            take()
            parts.append(operand())
        exprs, depths = zip(*parts)
        return (exprs[0] if len(exprs) == 1 else node(exprs)), max(depths)

    def sum_():  # a sum of products of exponents
        return chain("+", lambda: chain("*", exp, Prod), Sum)

    def exp():
        base, depth = atom()
        while toks[pos] == "^":
            take()
            tok = take()
            if not _NAME_RE.match(tok) or not carriers.get(tok):
                what = "empty" if tok in carriers else "unknown"
                fail(f"{what} alphabet {tok!r}", pos - 1)
            base, depth = Exp(carriers[tok], base), nested(depth + 1, pos - 2)
        return base, depth

    def atom():
        nonlocal level
        tok = take()
        if tok in ("X", "R"):
            return (Id() if tok == "X" else RFunctor()), 0
        if tok in ("P", "("):
            start = pos - 1
            if tok == "P":
                expect("(")
            level = nested(level + 1, start)
            inner, depth = sum_()
            level -= 1
            expect(")")
            return (PowFin(inner) if tok == "P" else inner), nested(depth + 1, start)
        if tok.isascii() and tok.isdigit():  # no int() of a huge or non-ASCII number
            digits = tok.lstrip("0") or "0"
            if len(digits) > len(str(DEFAULT_ENUM_CAP)) or int(digits) > DEFAULT_ENUM_CAP:
                fail(f"a constant of more than {DEFAULT_ENUM_CAP} atoms", pos - 1)
            return Const(Carrier(tuple(f"u{i}" for i in range(int(digits))))), 0
        if _NAME_RE.match(tok):
            if tok not in carriers:
                fail(f"unknown carrier {tok!r}", pos - 1)
            return Const(carriers[tok]), 0
        fail(f"unexpected {tok!r}", pos - 1)

    expr, _ = sum_()
    if toks[pos] is not None:
        fail(f"trailing input {toks[pos]!r}", pos)
    return expr


def render_functor(expr: FunctorExpr, carrier_names: Dict[Carrier, str]) -> str:
    def go(e: FunctorExpr, level: int) -> str:
        if isinstance(e, Id):
            return "X"
        if isinstance(e, RFunctor):
            return "R"
        if isinstance(e, PowFin):
            return f"P({go(e.arg, 0)})"
        if isinstance(e, Const):
            return carrier_names.get(e.values) or str(len(e.values))
        if isinstance(e, Exp):
            name = carrier_names.get(e.alphabet)
            if name is None:
                raise ValueError("exponent alphabet has no document name")
            return f"{go(e.arg, 3)}^{name}"
        if isinstance(e, Prod):
            body = " * ".join(go(p, 2) for p in e.parts)
            return f"({body})" if level >= 2 else body
        if isinstance(e, Sum):
            body = " + ".join(go(p, 1) for p in e.parts)
            return f"({body})" if level >= 1 else body
        raise TypeError(f"unknown functor node {e!r}")

    return go(expr, 0)


# --- values ---------------------------------------------------------------------

def parse_value(expr: FunctorExpr, carrier: Carrier, text: str,
                line: int = 1) -> Any:
    """Parse one value of F(carrier) that starts on the given line."""
    return _read(expr.reader({a: a for a in carrier}, [].append), text, line, 1)


def _read(reader, text: str, line: int, col: int) -> Any:
    toks = _scan(text)
    it = iter(toks)
    nxt = it.__next__
    try:
        value = reader(nxt(), nxt)
        if length_hint(it):
            raise MalformedValue(f"trailing input {toks[-length_hint(it)]!r}", back=-1)
    except StopIteration:
        raise ParseError("unexpected end of input",
                         _locate(text, line, col, len(toks) - 1)[0], 1) from None
    except MalformedValue as bad:
        k = len(toks) - length_hint(it) - 1 - bad.back
        raise ParseError(str(bad), *_locate(text, line, col, k)) from None
    return value


def render_value(expr: FunctorExpr, v: Any) -> str:
    """The text form of a value of F X, set members in ``sort_key`` order."""
    return expr.render(v)


# --- documents -------------------------------------------------------------------

class SpecDocument(Record):
    """A parsed document; each table maps a section's name to its object."""

    _fields = ("functor_text", "functor", "carriers", "coalgebras", "algebras",
               "paralgebras", "description")

    def __init__(self, functor_text: str, functor: FunctorExpr,
                 carriers: Optional[Dict[str, Carrier]] = None,
                 coalgebras: Optional[Dict[str, Coalgebra]] = None,
                 algebras: Optional[Dict[str, Algebra]] = None,
                 paralgebras: Optional[Dict[str, ParAlgebra]] = None,
                 description: str = ""):
        self.functor_text, self.functor = functor_text, functor
        self.carriers = {} if carriers is None else carriers
        self.coalgebras = {} if coalgebras is None else coalgebras
        self.algebras = {} if algebras is None else algebras
        self.paralgebras = {} if paralgebras is None else paralgebras
        self.description = description

    def the_coalgebra(self, name: Optional[str]) -> Coalgebra:
        return _pick(self.coalgebras, name, "coalgebra")

    def the_algebra(self, name: Optional[str]) -> Algebra:
        return _pick(self.algebras, name, "algebra")

    def the_paralgebra(self, name: Optional[str]):
        return _pick(self.paralgebras, name, "paralgebra")


def _pick(table: dict, name: Optional[str], what: str):
    if name is not None:
        if name not in table:
            raise WfcoalgError(f"no {what} named {name!r}")
        return table[name]
    if not table:
        raise WfcoalgError(f"document has no {what} section")
    if len(table) != 1:
        raise WfcoalgError(f"document has {len(table)} {what}s; name one")
    return next(iter(table.values()))


_HEADER_RE = re.compile(
    r"^(functor|carrier|coalgebra|algebra|paralgebra|description)\b")
_HEAD_RE = re.compile(r"\n(\S.*)")  # an unindented line starts a section
# row ends are tokens too; a token takes the spaces before it, which is faster
_ROW_RE = re.compile(rf" *+({_TOKEN_RE.pattern}|\n)")
# carrier elements: one token each, not '->' or '@' (row delimiters), '}' or ']'
_ELEMENTS_RE = re.compile(r"(?:(?:[A-Za-z_][A-Za-z_0-9']*+|\d++|[^\s@}\]])(?:\s++|$))*+")
_CHUNK = 1 << 14  # characters of whole rows tokenized at once


def parse_spec(text: str) -> SpecDocument:
    """Parse a document; raises ParseError with a location on bad input."""
    text = re.sub(r"#.*", "", "\n".join(text.splitlines()))
    heads = [(m.start(1) - 1, m.group(1).rstrip()) for m in _HEAD_RE.finditer("\n" + text)]
    stray = re.search(r"\S", text[:heads[0][0]] if heads else text)
    if stray:
        raise ParseError("indented line outside a section",
                         text.count("\n", 0, stray.start()) + 1, 1)
    sections: List[Tuple[str, int, str, Tuple[int, int]]] = []
    for (at, header), end in zip(heads, [h[0] for h in heads[1:]] + [len(text)]):
        m = _HEADER_RE.match(header)
        lineno = text.count("\n", 0, at) + 1
        if not m:
            raise ParseError(f"unknown section {header.split()[0]!r}", lineno, 1)
        sections.append((m.group(1), lineno, header, (at + len(header), end)))

    functor_text = None
    carriers: Dict[str, Carrier] = {}
    doc_description = []
    deferred = []  # non-carrier sections, handled after carriers are known

    for kind, lineno, header, body in sections:
        if kind == "carrier":
            m = re.fullmatch(r"carrier\s+(\w+)\s*=\s*(.*)", header)
            if not m:
                raise ParseError("expected 'carrier NAME = elements'", lineno, 1)
            name, elems = m.group(1), m.group(2).split()
            if name in carriers:
                raise ParseError(f"duplicate carrier {name!r}", lineno, 1)
            if len(set(elems)) != len(elems):
                raise ParseError(f"carrier {name!r} has duplicate elements",
                                 lineno, 1)
            if not _ELEMENTS_RE.fullmatch(m.group(2)):
                bad = next(e for e in re.finditer(r"\S+", header[m.start(2):])
                           if not _ELEMENTS_RE.fullmatch(e.group()))
                why = ("would end a set or exponent value" if bad.group() in ("}", "]")
                       else "is not one token other than '->' and '@'")
                raise ParseError(f"carrier element {bad.group()!r} {why}",
                                 lineno, m.start(2) + bad.start() + 1)
            carriers[name] = Carrier(tuple(elems))
        elif kind == "functor":
            m = re.fullmatch(r"functor\s*=\s*(.*)", header)
            if not m or not m.group(1).strip():
                raise ParseError("expected 'functor = expression'", lineno, 1)
            if functor_text is not None:
                raise ParseError("duplicate functor section", lineno, 1)
            functor_text = m.group(1).strip()
            functor_at = (lineno, m.start(1) + 1)
        elif kind == "description":
            doc_description.append(header.partition("description")[2].strip())
        else:
            deferred.append((kind, lineno, header, body))

    if functor_text is None:
        raise ParseError("document has no functor section", text.count("\n") + 1, 1)
    functor = parse_functor(functor_text, carriers, *functor_at)

    doc = SpecDocument(functor_text, functor, carriers,
                       description=" ".join(doc_description))

    for kind, lineno, header, body in deferred:
        shape = ((r"(\w+)\s*@\s*(\w+)", "TARGET @ SOURCE") if kind == "paralgebra"
                 else (r"(\w+)", "CARRIER"))
        m = re.fullmatch(rf"{kind}\s+(\w+)\s*:\s*{shape[0]}", header)
        if not m:
            raise ParseError(f"expected '{kind} NAME : {shape[1]}'", lineno, 1)
        name, *over = m.groups()
        if name in getattr(doc, kind + "s"):  # doc.coalgebras, .algebras, .paralgebras
            raise ParseError(f"duplicate {kind} {name!r}", lineno, 1)
        for n in over:
            if n not in carriers:
                raise ParseError(f"unknown carrier {n!r}", lineno, 1)
        target, source = carriers[over[0]], carriers[over[-1]]
        table, supports = _rows(kind, functor, target, source, text, *body)
        if kind == "coalgebra":
            missing = [a for a in target if a not in table]
            if missing:
                raise ParseError(
                    f"coalgebra {name!r} table misses {missing[0]!r}", lineno, 1)
            states = target.elements
            doc.coalgebras[name] = Coalgebra._parsed(functor, target, tuple(
                map(table.__getitem__, states)), tuple(map(supports.__getitem__, states)))
        elif kind == "algebra":
            try:
                doc.algebras[name] = Algebra._parsed(functor, target, table)
            except ValueError as exc:
                raise ParseError(f"algebra {name!r}: {exc}", lineno, 1) from exc
        else:  # the rows are distinct in F(target) x source: count up to len(table)
            if size_obj(functor, len(target), len(table)) * len(source) > len(table):
                raise ParseError(f"paralgebra {name!r} table is not total", lineno, 1)
            doc.paralgebras[name] = ParAlgebra(functor, target, source, table)

    return doc


def _rows(kind: str, functor: FunctorExpr, target: Carrier, source: Carrier,
          text: str, start: int, end: int):
    """A table section's rows, text[start:end], read from one token stream, a
    chunk of whole lines at a time: {key: value}, and each coalgebra row's
    least support.  A row the stream cannot take goes to ``_row_error``.

    The cyclic collector is paused meanwhile: the reader makes no reference
    cycle, and the collections its allocations would start cost more than
    the rows on a large section."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        sup: List[Any] = []
        read = functor.reader({a: a for a in target}, sup.append)
        targets, sources = frozenset(target), frozenset(source)
        table: Dict[Any, Any] = {}
        supports: Dict[Any, frozenset] = {}
        while start < end:
            stop = text.find("\n", start + _CHUNK, end) + 1 or end
            toks = _ROW_RE.findall(text, start, stop) + ["\n"]  # the last line may lack one
            it = iter(toks)
            nxt = it.__next__
            for tok in it:
                if tok == "\n":
                    continue
                row = len(toks) - length_hint(it) - 1  # the index of its first token
                sup.clear()
                try:
                    if kind == "coalgebra":
                        key, arrow, value = tok, nxt(), read(nxt(), nxt)
                        ok = key in targets and arrow == "->"
                        supports[key] = frozenset(sup)
                    elif kind == "algebra":
                        key, arrow, value = read(tok, nxt), nxt(), nxt()
                        ok = arrow == "->" and value in targets
                    else:
                        v, at, a, arrow, value = read(tok, nxt), nxt(), nxt(), nxt(), nxt()
                        key = (v, a)
                        ok = at == "@" and a in sources and arrow == "->" and value in targets
                    if not ok or nxt() != "\n" or key in table:
                        raise MalformedValue
                except (MalformedValue, StopIteration):
                    pos = next(islice(_ROW_RE.finditer(text, start, stop), row, None)).start(1)
                    _row_error(kind, read, target, source, text, pos)
                table[key] = value
            start = stop
        return table, supports
    finally:
        if enabled:
            gc.enable()


def _row_error(kind: str, read, target: Carrier, source: Carrier,
               text: str, pos: int) -> None:
    """Raise the error of the row at ``pos``.  Its fields, split at the first
    '->' and in a paralgebra at the last '@' before it, are read one at a
    time, so an element's error quotes its field and a value's error points
    at its token; a row whose fields all read repeats a key."""
    bl, end = text.count("\n", 0, pos) + 1, text.find("\n", pos)
    line = text[text.rfind("\n", 0, pos) + 1:end if end >= 0 else None].rstrip()
    lhs, arrow, rhs = line.partition("->")
    if not arrow:
        raise ParseError("expected 'lhs -> rhs'", bl, 1)
    if kind == "coalgebra":
        _element(lhs, target, "the carrier", bl)
        _read(read, rhs, bl, len(lhs) + 3)
    elif kind == "algebra":
        _read(read, lhs, bl, 1)
        _element(rhs, target, "the carrier", bl)
    else:
        if "@" not in lhs:
            raise ParseError("expected 'value @ element -> result'", bl, 1)
        vtext, _, atext = lhs.rpartition("@")
        _read(read, vtext, bl, 1)
        _element(atext, source, "the source carrier", bl)
        _element(rhs, target, "the target carrier", bl)
    raise ParseError(f"duplicate row for {lhs.strip()!r}", bl, 1)


def _element(text: str, carrier: Carrier, where: str, lineno: int) -> None:
    if text.strip() not in carrier:
        raise ParseError(f"{text.strip()!r} is not in {where}", lineno, 1)


def render_spec(doc: SpecDocument) -> str:
    """Render a document so that it reparses to an equal document.  Raises
    ValueError on what it cannot write back: a description that is not one
    line without '#' or outer spaces, a carrier label that a carrier line
    cannot hold as one element (no ``str``, or no single token the reader
    accepts), or a table over a carrier that ``doc.carriers`` does not name."""
    names = {c: n for n, c in doc.carriers.items()}

    def named(kind: str, name: str, carrier: Carrier) -> str:
        if carrier not in names:
            raise ValueError(f"{kind} {name!r} is over a carrier the document does not name")
        return names[carrier]
    d = doc.description
    if d and (d.splitlines() != [d] or d.strip() != d or "#" in d):
        raise ValueError(f"description {d!r} is not one line without '#' or outer spaces")
    out = [f"description {d}"] if d else []
    for name, carrier in doc.carriers.items():
        for x in carrier:
            if not (isinstance(x, str) and _scan(x) == [x] and _ELEMENTS_RE.fullmatch(x)):
                raise ValueError(f"carrier {name!r}: {x!r} is not one element of a carrier line")
        out.append(f"carrier {name} = " + " ".join(carrier))
    out.append(f"functor = {doc.functor_text}")
    for name, coalg in doc.coalgebras.items():
        out.append(f"coalgebra {name} : {named('coalgebra', name, coalg.carrier)}")
        for a in coalg.carrier:
            out.append(f"  {a} -> {render_value(doc.functor, coalg.alpha(a))}")
    for name, alg in doc.algebras.items():
        out.append(f"algebra {name} : {named('algebra', name, alg.carrier)}")
        for v in sorted(alg.table, key=doc.functor.sort_key):
            out.append(f"  {render_value(doc.functor, v)} -> {alg.table[v]}")
    for name, par in doc.paralgebras.items():
        out.append(f"paralgebra {name} : {named('paralgebra', name, par.target)} "
                   f"@ {named('paralgebra', name, par.source)}")
        for (v, a), x in sorted(par.table.items(),
                                key=lambda kv: (doc.functor.sort_key(kv[0][0]), str(kv[0][1]))):
            out.append(f"  {render_value(doc.functor, v)} @ {a} -> {x}")
    return "\n".join(out) + "\n"
