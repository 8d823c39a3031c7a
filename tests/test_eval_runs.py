"""`lt eval` on a seeded battery of argvs, against the exit status,
stdout and stderr pinned in tests/eval_runs.json.

The battery holds well-formed formulas with derived connectives
(`helpers.random_formula`), printed and under random `--assign` values
at n = 0..3 and 8, some variables left unbound; the same texts with one
piece inserted or cut off, which mostly makes a syntax error somewhere
after a variable; the benchmark's eval commands and its crash inputs 0,
1 and 3, drawn from bench/gen.py itself; and the orders in which errors
are reported: a syntax error wins over an unbound variable anywhere, the
first unbound variable in the text is the one named, an index too large
is a syntax error, and the algebra and the assignment are read before
the formula.

The pins were recorded from the tree-building evaluator, run from the
repository root as

    PYTHONPATH=src python tests/test_eval_runs.py --record
"""

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
from pathlib import Path

from helpers import random_formula
from lt.cli import main
from lt.syntax import format_formula

ROOT = Path(__file__).resolve().parent.parent
_FIXTURE = Path(__file__).with_name("eval_runs.json")
_SEED, _ROUNDS = 4848, 600
_SIZES = (0, 1, 2, 3, 8)
# Pieces inserted into a well-formed text: a syntax error at once or
# later, a variable that no --assign binds, or, by luck, neither.
_PIECES = (")", "(", "&", "i&", "|", "o*", "->", "!", "~", "x", "P9", "P09 &", "P9 ->", "#",
           "P" + "9" * 5000, "top", ",")

# The error orders, by hand: a syntax error after an unbound variable,
# two unbound variables, an index too large after an unbound variable,
# two spellings of one index, and the algebra and assignment read first.
_ORDERS = [
    ["eval", "--n", "1", "P7 & (P0"],
    ["eval", "--n", "1", "P7 & P0 )"],
    ["eval", "--n", "1", "P7 & P0 i& P1"],
    ["eval", "--n", "1", "!!P7 -> P0 ->"],
    ["eval", "--n", "1", "P7 & P2"],
    ["eval", "--n", "1", "--assign", "P7=[1]", "P7 & P2 | P3"],
    ["eval", "--n", "1", "box (P7 o* P2)"],
    ["eval", "--n", "1", "P7 & P" + "1" * 5000],
    ["eval", "--n", "1", "P" + "1" * 5000 + " & P7"],
    ["eval", "--n", "1", "P7 & " * 40 + "P" + "1" * 5000],
    ["eval", "--n", "1", "--assign", "P3=[1]", "P03 & P3"],
    ["eval", "--n", "1", "--assign", "P03=[0]", "P3 | P03"],
    ["eval", "--n", "1", "P03 | P3"],
    ["eval", "--n", "1", "P3 | P03 | P003"],
    ["eval", "--n", "1", "--assign", "P3=[1]", "--assign", "P03=[0]", "P3"],
    ["eval", "--n", "9", "P0 &"],
    ["eval", "--n", "9", "P0"],
    ["eval", "--n", "-1", "P0 & (P1"],
    ["eval", "--n", "1", "--assign", "P0=01", "P0 &"],
    ["eval", "--n", "1", "--assign", "Q0=[1]", "P0 &"],
    ["eval", "--n", "1", "--assign", "P0=[11]", "P0 )"],
    ["eval", "--n", "1", "--assign", "P0=[1]", "--assign", "P1=[]", "P0 & P1 & P2 & p3"],
    ["eval", "--n", "0", "--assign", 'P0=[""]', "P0 i| ~P0"],
    ["eval", "--n", "2", "--assign", "", "itop i& nb"],
    ["eval", "--n", "2", ""],
    ["eval", "--n", "2", "   "],
    ["eval", "--n", "2", "P0 P1"],
    ["eval", "--n", "2", "((P1)))"],
    ["eval", "--n", "2", "(" * 3000 + "P1 & P2" + ")" * 2999],
    ["eval", "--n", "2", "!" * 3000 + "P1 i& !" * 2 + "P2"],
]


def _assign(rng, n, variables):
    """--assign arguments for a random subset of `variables`, each a
    random set of the 2^n elements."""
    argv = []
    for v in variables:
        if rng.random() < 0.8:
            names = [format(a, f"0{n}b") if n else '""' for a in range(1 << n) if rng.random() < 0.5]
            argv += ["--assign", f"P{v}=[{','.join(names)}]"]
    return argv


def _mutated(rng, text):
    """The text with one piece inserted between two tokens, or cut short
    at a random place."""
    at = rng.choice([i for i in range(len(text) + 1)
                     if i in (0, len(text)) or " " in text[i - 1:i + 1] or "(" in text[i - 1:i + 1]])
    if rng.random() < 0.2:
        return text[:at]
    return f"{text[:at]} {rng.choice(_PIECES)} {text[at:]}"


def _battery(seed: int, rounds: int):
    rng = random.Random(seed)
    for r in range(rounds):
        n = _SIZES[r % len(_SIZES)]
        text = format_formula(random_formula(rng, rng.randint(0, 5), 4))
        assign = _assign(rng, n, range(4))
        yield ["eval", "--n", str(n), *assign, text]
        yield ["eval", "--n", str(n), *assign, _mutated(rng, text)]
    gen = importlib.import_module("gen")
    for i in range(rounds // 3):
        yield gen.k_eval(random.Random(f"eval/{seed}/{i}"), "eval", 1 + i % 8).argv
    for which in (0, 1, 3):
        for i in range(4):
            yield gen.k_crash(random.Random(f"crash/{seed}/{i}"), "crash", "", which).argv
    yield from _ORDERS


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _outcome(argv):
    """The exit status of `main`, and a digest of its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return [code, _digest(out.getvalue() + "\0" + err.getvalue())]


def _record():
    """Write `_FIXTURE` from the `lt` on the path, one argv a line."""
    sys.path.insert(0, str(ROOT / "bench"))
    rows = ",\n".join(json.dumps([_digest(json.dumps(argv)), *_outcome(argv)])
                      for argv in _battery(_SEED, _ROUNDS))
    _FIXTURE.write_text(f'{{"seed": {_SEED}, "rounds": {_ROUNDS}, "cases": [\n{rows}]}}\n')


def test_eval_prints_as_pinned(monkeypatch):
    """Every argv of the battery exits, and prints on stdout and stderr,
    as pinned."""
    pinned = json.loads(_FIXTURE.read_text())
    assert (pinned["seed"], pinned["rounds"]) == (_SEED, _ROUNDS)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    battery = list(_battery(_SEED, _ROUNDS))
    assert len(battery) == len(pinned["cases"])
    codes = {}
    for argv, (case, *want) in zip(battery, pinned["cases"]):
        assert _digest(json.dumps(argv)) == case
        assert _outcome(argv) == want, argv
        codes[want[0]] = codes.get(want[0], 0) + 1
    assert set(codes) == {0, 2} and min(codes.values()) > len(battery) // 5, codes


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    _record()
