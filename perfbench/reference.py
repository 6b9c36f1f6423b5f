"""Expected CLI output, computed without wfcoalg.

Graph facts (ranks, the well-founded part) come from how the generator
built each document; the search answers come from small brute-force
references that decide the same questions by a different method than
the program's.
"""

from __future__ import annotations

import re
from itertools import product

from . import model


def fmt_set(names):
    return "{" + ", ".join(sorted(names)) + "}"


# --- graph-shaped commands -------------------------------------------------------

def ranks(order, succ, cyclic):
    """Rank of each state; None for states that reach a cycle.

    ``order`` lists the acyclic states with successors first, ``cyclic`` the
    states the generator put on cycles; the states that are not well-founded
    are found by reverse reachability from those cycles.
    """
    preds = {}
    for a, ss in succ.items():
        for b in ss:
            preds.setdefault(b, []).append(a)
    bad = set(cyclic)
    todo = list(cyclic)
    while todo:
        for a in preds.get(todo.pop(), ()):
            if a not in bad:
                bad.add(a)
                todo.append(a)
    rank = {a: None for a in bad}
    for a in order:
        if a not in bad:
            rank[a] = 1 + max((rank[b] for b in succ[a]), default=-1)
    return rank


def check_wf_text(rank):
    part = [a for a, r in rank.items() if r is not None]
    if len(part) == len(rank):
        return 0, "well-founded\n"
    return 1, f"not well-founded: well-founded part = {fmt_set(part)} != A\n"


def wf_part_text(rank):
    top = max((r for r in rank.values() if r is not None), default=-1)
    lines = []
    for i in range(top + 3):
        lines.append(f"step {i}: "
                     + fmt_set(a for a, r in rank.items() if r is not None and r < i))
    part = [a for a, r in rank.items() if r is not None]
    lines.append(f"part: {fmt_set(part)}")
    return 0, "\n".join(lines) + "\n"


def canonical_text(carrier, succ, dot):
    if dot:
        lines = ["digraph canonical {"]
        lines += [f'  "{a}" -> "{b}";' for a in carrier for b in sorted(succ[a])]
        lines.append("}")
    else:
        lines = [f"{a} -> {' '.join(sorted(succ[a]))}".rstrip() for a in carrier]
    return 0, "\n".join(lines) + "\n"


def table_text(carrier, h):
    return 0, "".join(f"{a} -> {h[a]}\n" for a in carrier)


# --- initial chain ----------------------------------------------------------------

def initial_chain_text(f, max_depth, cap):
    """(exit, text, capped): the chain of stage sizes |W_{i+1}| = |F W_i|.

    Every connecting map of the chain is injective for this grammar, so
    the chain stabilizes exactly where two stage sizes agree.
    """
    sizes = [0]
    capped = False
    for i in range(max_depth + 1):
        nxt = model.size(f, sizes[i])
        if nxt > cap:
            capped = True
            break
        sizes.append(nxt)
        if sizes[i] == nxt:
            lines = [f"W{j}: {s} elements" for j, s in enumerate(sizes)]
            lines.append(f"stabilized at index {i}; |mu F| = {nxt}")
            return 0, "\n".join(lines) + "\n", False
    lines = [f"W{j}: {s} elements" for j, s in enumerate(sizes)]
    lines.append("not stabilized within the depth bound")
    return 1, "\n".join(lines) + "\n", capped


# --- coalgebra-to-algebra morphisms ---------------------------------------------

def find_homs(f, carrier, alpha, codomain, table):
    """All h with h(a) = table[F h (alpha a)], in lexicographic table order.

    Backtracks over states in carrier order and checks each equation as
    soon as every state it mentions has a value.
    """
    index = {a: i for i, a in enumerate(carrier)}
    ready = [[] for _ in carrier]
    for a in carrier:
        last = max([index[a]] + [index[b] for b in model.supp(f, alpha[a])])
        ready[last].append(a)
    found = []
    h = {}

    def extend(i):
        if i == len(carrier):
            found.append(dict(h))
            return
        for x in codomain:
            h[carrier[i]] = x
            if all(table[model.fmap(f, h, alpha[a])] == h[a] for a in ready[i]):
                extend(i + 1)
        del h[carrier[i]]

    extend(0)
    return found


def find_homs_text(carrier, homs):
    lines = [f"found {len(homs)} morphisms"]
    for i, h in enumerate(homs):
        lines.append(f"  [{i}] " + ", ".join(f"{a} -> {h[a]}" for a in carrier))
    return 0, "\n".join(lines) + "\n"


# --- recursiveness oracles ---------------------------------------------------------

class Oracle:
    """Decides, size by size, whether every algebra has exactly one solution.

    The program scans every algebra table.  Here each candidate map h
    forces a partial table; every table has exactly one solution iff no
    two forced tables are compatible and together they cover the whole
    table space, which needs only the candidates, not the tables.
    """

    def __init__(self, f, carrier, alpha, parametric):
        self.f = f
        self.carrier = carrier
        self.alpha = alpha
        self.parametric = parametric

    def keys(self, n):
        fx = model.enum(self.f, list(range(n)))
        if self.parametric:
            return [(w, a) for w in fx for a in self.carrier]
        return fx

    def forced(self, n):
        """The partial table each consistent candidate forces."""
        out = []
        for values in product(range(n), repeat=len(self.carrier)):
            h = dict(zip(self.carrier, values))
            table = {}
            for a in self.carrier:
                w = model.fmap(self.f, h, self.alpha[a])
                k = (w, a) if self.parametric else w
                if table.setdefault(k, h[a]) != h[a]:
                    break
            else:
                out.append(table)
        return out

    def unique_everywhere(self, n):
        forced = self.forced(n)
        for i, s in enumerate(forced):
            for t in forced[i + 1:]:
                if all(t.get(k, v) == v for k, v in s.items()):
                    return False
        keys = len(self.keys(n))
        return sum(n ** (keys - len(s)) for s in forced) == n ** keys

    def solutions(self, n, table):
        return sum(all(table.get(k) == v for k, v in s.items())
                   for s in self.forced(n))

    def decide(self, max_carrier, cap):
        """(verdict, size, sizes passed, capped): the program's order of work.

        ``capped`` is the first size at which the program's enumeration caps
        bind; the verdict itself ignores the caps.
        """
        passed = []
        capped = None
        for n in range(max_carrier + 1):
            width = model.size(self.f, n)
            if n == 0:
                if width:
                    continue
                return "fail", 0, passed, capped
            keys = width * (len(self.carrier) if self.parametric else 1)
            if capped is None and (width > cap or n ** keys > cap):
                capped = n
            if not self.unique_everywhere(n):
                return "fail", n, passed, capped
            passed.append(n)
        return "pass", None, passed, capped

    def witness_ok(self, n, text):
        """Does the printed witness name a total table with a non-unique solution?"""
        m = re.match(r"fail at carrier size (\d+): (\d+) solutions\n", text)
        if not m or int(m.group(1)) != n:
            return False
        count = int(m.group(2))
        try:
            table = dict(self._entry(line) for line in text[m.end():].splitlines())
        except (ValueError, IndexError, KeyError):  # not a table line of this functor
            return False
        if n == 0:
            return count == 0 and not table
        keys = self.keys(n)
        if len(table) != len(keys) or set(table) != set(keys):
            return False
        return count != 1 and self.solutions(n, table) == count

    def _entry(self, line):
        lhs, _, x = line.strip().rpartition(" -> ")
        if self.parametric:
            lhs, _, a = lhs.rpartition(" @ ")
            return (model.parse(self.f, lhs), a), int(x)
        return model.parse(self.f, lhs), int(x)
