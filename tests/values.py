"""Builders of functor values for the tests, the one place that spells out
how an element of F X is represented (see ``wfcoalg.functor``)."""


def const(atom):
    return atom


def elem(x):
    return x


def inj(i, v):
    return i, v


def tup(*items):
    return tuple(items)


def fun(*entries):
    """An exponent value from its entries in alphabet order."""
    return tuple(entries)


def fset(*items):
    return frozenset(items)


POINT = None  # the point d of R


def pair(x, y):
    return x, y
