"""CLI output does not depend on PYTHONHASHSEED: a frozenset of strings
iterates in hash order, so every P value that reaches output is walked in
element_key order.  The commands run in two processes with different seeds."""

import os
import subprocess
import sys
from pathlib import Path

PAIRS = [(letter, x) for letter in "ab" for x in "eo"]
PLX_DOC = "\n".join(
    ["carrier L = a b", "carrier A = s0 s1 s2 s3 s4", "carrier T = e o",
     "functor = P(L * X)",
     "coalgebra C : A", "  s0 -> {}", "  s1 -> {(a, s0), (b, s0)}",
     "  s2 -> {(b, s0), (a, s1)}", "  s3 -> {(a, s2), (b, s1), (b, s0)}",
     "  s4 -> {(b, s3), (a, s3)}",
     "coalgebra D : A", "  s0 -> {(a, s1), (b, s0)}", "  s1 -> {(b, s2)}",
     "  s2 -> {}", "  s3 -> {(a, s4), (b, s4), (a, s0)}", "  s4 -> {(a, s3)}",
     "algebra E : T"] +
    ["  {%s} -> %s" % (", ".join("(%s, %s)" % p for i, p in enumerate(PAIRS) if mask >> i & 1),
                       "eo"[mask % 3 == 1]) for mask in range(16)]) + "\n"
DOCS = {
    "plx.txt": PLX_DOC,
    "px-loop.txt": "functor = P(X)\ncarrier A = s\ncoalgebra C : A\n  s -> {s}\n",
    "plx-loop.txt": "functor = P(L * X)\ncarrier L = a b\ncarrier A = s\n"
                    "coalgebra C : A\n  s -> {(a, s), (b, s)}\n",
}
COMMANDS = [
    ["find-homs", "plx.txt", "--coalgebra", "D"],
    ["hylo", "plx.txt", "--coalgebra", "C"],
    ["canonical-graph", "plx.txt", "--coalgebra", "D"],
    ["canonical-graph", "plx.txt", "--coalgebra", "C", "--dot"],
    ["oracle-recursive", "px-loop.txt"],
    ["oracle-recursive", "plx-loop.txt"],
    ["oracle-parametric", "plx-loop.txt", "--max-carrier", "1"],
    ["initial-chain", "px-loop.txt", "--max-depth", "3"],
]
SCRIPT = """
import io, sys
from wfcoalg.cli import main
for argv in {commands!r}:
    out = io.StringIO()
    code = main(argv, out=out)
    print(argv, code)
    print(out.getvalue())
"""


def run(seed, cwd):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", SCRIPT.format(commands=COMMANDS)],
                          cwd=cwd, env=env, capture_output=True, check=True).stdout


def test_output_is_the_same_under_two_hash_seeds(tmp_path):
    for name, text in DOCS.items():
        (tmp_path / name).write_text(text)
    first, second = run(0, tmp_path), run(12345, tmp_path)
    assert first == second
    text = first.decode()
    assert "found 2 morphisms" in text and "s3 -> s0 s4" in text
    assert "{(a, 0), (a, 1), (b, 0)} -> 0" in text  # a witness with string-bearing sets
    assert "W3: 4 elements" in text
