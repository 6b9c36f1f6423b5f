"""The benchmark's own model of functors and their values.

The answer key must not come from wfcoalg, so this module re-implements
the little of the theory the key needs, with its own representation:

    ("X",)                 identity
    ("R",)                 RX = {(x, y) : x != y} + {d}
    ("C", atoms)           a constant set, atoms in document order
    ("S", parts)           sum
    ("T", parts)           product
    ("E", letters, arg)    functions from a finite alphabet
    ("P", arg)             finite powerset

Values: ("x", a), ("c", atom), ("in", i, v), ("tup", items),
("fun", items) with one item per letter in alphabet order,
("set", frozenset), ("d",) and ("rp", a, b).
"""

from __future__ import annotations

import re
from itertools import product

X = ("X",)
R = ("R",)


def C(*atoms):
    return ("C", tuple(atoms))


def S(*parts):
    return ("S", tuple(parts))


def T(*parts):
    return ("T", tuple(parts))


def E(letters, arg):
    return ("E", tuple(letters), arg)


def P(arg):
    return ("P", arg)


def size(f, n):
    """|F X| for |X| = n."""
    tag = f[0]
    if tag == "X":
        return n
    if tag == "R":
        return n * (n - 1) + 1
    if tag == "C":
        return len(f[1])
    if tag == "S":
        return sum(size(p, n) for p in f[1])
    if tag == "T":
        total = 1
        for p in f[1]:
            total *= size(p, n)
        return total
    if tag == "E":
        return size(f[2], n) ** len(f[1])
    return 2 ** size(f[1], n)


def enum(f, xs):
    """All of F(xs) as a list, in no particular order."""
    tag = f[0]
    if tag == "X":
        return [("x", a) for a in xs]
    if tag == "R":
        return [("d",)] + [("rp", a, b) for a in xs for b in xs if a != b]
    if tag == "C":
        return [("c", a) for a in f[1]]
    if tag == "S":
        return [("in", i, v) for i, p in enumerate(f[1]) for v in enum(p, xs)]
    if tag == "T":
        return [("tup", combo) for combo in product(*(enum(p, xs) for p in f[1]))]
    if tag == "E":
        inner = enum(f[2], xs)
        return [("fun", combo) for combo in product(inner, repeat=len(f[1]))]
    inner = enum(f[1], xs)
    return [("set", frozenset(v for i, v in enumerate(inner) if mask >> i & 1))
            for mask in range(1 << len(inner))]


def fmap(f, h, v):
    """F h applied to v; h is a dict or a callable on carrier elements."""
    tag = f[0]
    if tag == "X":
        return ("x", h[v[1]])
    if tag == "R":
        if v[0] == "d":
            return v
        a, b = h[v[1]], h[v[2]]
        return ("d",) if a == b else ("rp", a, b)
    if tag == "C":
        return v
    if tag == "S":
        return ("in", v[1], fmap(f[1][v[1]], h, v[2]))
    if tag == "T":
        return ("tup", tuple(fmap(p, h, c) for p, c in zip(f[1], v[1])))
    if tag == "E":
        return ("fun", tuple(fmap(f[2], h, c) for c in v[1]))
    return ("set", frozenset(fmap(f[1], h, c) for c in v[1]))


def supp(f, v):
    """The carrier elements a value mentions (its least support)."""
    out = set()

    def go(f, v):
        tag = f[0]
        if tag == "X":
            out.add(v[1])
        elif tag == "R":
            if v[0] == "rp":
                out.update(v[1:])
        elif tag == "S":
            go(f[1][v[1]], v[2])
        elif tag == "T":
            for p, c in zip(f[1], v[1]):
                go(p, c)
        elif tag == "E":
            for c in v[1]:
                go(f[2], c)
        elif tag == "P":
            for c in v[1]:
                go(f[1], c)

    go(f, v)
    return out


def render(f, v):
    """A value in document syntax; set members in any order."""
    tag = f[0]
    if tag in ("X", "C"):
        return str(v[1])
    if tag == "R":
        return "d" if v[0] == "d" else f"({v[1]}, {v[2]})"
    if tag == "S":
        return f"in{v[1]} {render(f[1][v[1]], v[2])}"
    if tag == "T":
        return "(" + ", ".join(render(p, c) for p, c in zip(f[1], v[1])) + ")"
    if tag == "E":
        return "[" + ", ".join(f"{s}: {render(f[2], c)}"
                               for s, c in zip(f[1], v[1])) + "]"
    return "{" + ", ".join(sorted(render(f[1], c) for c in v[1])) + "}"


_TOKEN = re.compile(r"[A-Za-z_][A-Za-z_0-9']*|\d+|[()\[\]{},:]")


def parse(f, textual):
    """Read a value the program printed over the carrier {0, .., n-1}."""
    tokens = _TOKEN.findall(textual)
    pos = 0

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError(f"value {textual!r} ends early")
        tok = tokens[pos]
        pos += 1
        if expected is not None and tok != expected:
            raise ValueError(f"value {textual!r}: expected {expected!r}, got {tok!r}")
        return tok

    def items(close, item):
        out = []
        while tokens[pos:pos + 1] != [close]:
            if out:
                take(",")
            out.append(item())
        take(close)
        return out

    def go(f):
        tag = f[0]
        if tag == "X":
            return ("x", int(take()))
        if tag == "C":
            return ("c", take())
        if tag == "R":
            if take() == "d":
                return ("d",)
            a = int(take())
            take(",")
            b = int(take())
            take(")")
            return ("rp", a, b)
        if tag == "S":
            m = re.fullmatch(r"in(\d+)", take())
            if not m:
                raise ValueError(f"value {textual!r}: bad injection")
            i = int(m.group(1))
            return ("in", i, go(f[1][i]))
        if tag == "T":
            take("(")
            out = []
            for i, p in enumerate(f[1]):
                if i:
                    take(",")
                out.append(go(p))
            take(")")
            return ("tup", tuple(out))
        if tag == "E":
            take("[")

            def entry():
                letter = take()
                take(":")
                return letter, go(f[2])

            entries = dict(items("]", entry))
            return ("fun", tuple(entries[s] for s in f[1]))
        take("{")
        return ("set", frozenset(items("}", lambda: go(f[1]))))

    v = go(f)
    if pos != len(tokens):
        raise ValueError(f"value {textual!r} has trailing input")
    return v
