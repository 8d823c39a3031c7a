"""Independent brute-force oracles used to pin expected values.

Denotations are modelled as frozensets of element integers and every
operator is computed directly from its defining comprehension, so these
stay independent of the bitset implementation they are used to check.
Only the formula and label syntax, and ParseError, are shared with the
workbench.  The lexer the parser used before the one-`findall` lexer,
and an expansion that builds every node anew, are kept here as oracles.
"""

from __future__ import annotations

import itertools
import re

from lt.errors import ParseError

from lt.syntax import (
    Derived,
    DerivedTag,
    ExtAnd,
    ExtBot,
    ExtNot,
    ExtOr,
    IntAnd,
    IntBot,
    IntNot,
    IntOr,
    LAnd,
    LAtom,
    LBot,
    LNot,
    LOr,
    Var,
    label_atoms,
)


def all_elements(n: int) -> frozenset[int]:
    return frozenset(range(1 << n))


def to_bits(members: frozenset[int]) -> int:
    bits = 0
    for a in members:
        bits |= 1 << a
    return bits


def from_bits(bits: int, n: int) -> frozenset[int]:
    return frozenset(a for a in range(1 << n) if bits >> a & 1)


def ext_not(x: frozenset[int], n: int) -> frozenset[int]:
    return all_elements(n) - x


def int_not(x: frozenset[int], n: int) -> frozenset[int]:
    top = (1 << n) - 1
    return frozenset(top ^ a for a in x)


def int_or(x: frozenset[int], y: frozenset[int]) -> frozenset[int]:
    return frozenset(a | b for a in x for b in y)


def int_and(x: frozenset[int], y: frozenset[int]) -> frozenset[int]:
    return frozenset(a & b for a in x for b in y)


def down_closure(x: frozenset[int], n: int) -> frozenset[int]:
    return frozenset(b for b in range(1 << n) if any(b & a == b for a in x))


def up_closure(x: frozenset[int], n: int) -> frozenset[int]:
    return frozenset(b for b in range(1 << n) if any(b & a == a for a in x))


def strict_neg(x: frozenset[int], n: int) -> frozenset[int]:
    return frozenset(b for b in range(1 << n) if all(b & a == 0 for a in x))


def principal_ideal(a: int, n: int) -> frozenset[int]:
    return frozenset(b for b in range(1 << n) if b & a == b)


def join_of(x: frozenset[int]) -> int:
    j = 0
    for a in x:
        j |= a
    return j


def is_principal_ideal(x: frozenset[int], n: int) -> bool:
    # nonempty, and equal to the set of submasks of its own join
    return bool(x) and x == principal_ideal(join_of(x), n)



def evaluate(formula, env: dict[int, frozenset[int]], n: int) -> frozenset[int]:
    """A formula's denotation, every connective (derived ones too)
    computed from its definition on frozensets."""
    ev = lambda f: evaluate(f, env, n)
    full = all_elements(n)
    f = formula
    if isinstance(f, Var):
        return env[f.index]
    if isinstance(f, ExtBot):
        return frozenset()
    if isinstance(f, IntBot):
        return frozenset({0})
    if isinstance(f, ExtNot):
        return ext_not(ev(f.child), n)
    if isinstance(f, IntNot):
        return int_not(ev(f.child), n)
    if isinstance(f, ExtOr):
        return ev(f.left) | ev(f.right)
    if isinstance(f, ExtAnd):
        return ev(f.left) & ev(f.right)
    if isinstance(f, IntOr):
        return int_or(ev(f.left), ev(f.right))
    if isinstance(f, IntAnd):
        return int_and(ev(f.left), ev(f.right))
    tag, args = f.tag, [ev(a) for a in f.args]
    nonzero = full - {0}
    if tag is DerivedTag.EXT_TOP:
        return full
    if tag is DerivedTag.INT_TOP:
        return frozenset({(1 << n) - 1})
    if tag is DerivedTag.NB:
        return nonzero
    if tag is DerivedTag.DOWN:
        return down_closure(args[0], n)
    if tag is DerivedTag.UP:
        return up_closure(args[0], n)
    if tag is DerivedTag.DIAMOND:
        return full if args[0] else frozenset()
    if tag is DerivedTag.BOX:
        return full if args[0] == full else frozenset()
    if tag is DerivedTag.STRICT_NOT:
        return strict_neg(args[0], n)
    if tag is DerivedTag.IMPLIES:
        return (full - args[0]) | args[1]
    assert tag is DerivedTag.CIRCLE_STAR
    return int_or(args[0] & nonzero, args[1] & nonzero)


def evaluate_label(label, lenv: dict[int, int], n: int) -> int:
    """A label's element, evaluated classically."""
    if isinstance(label, LAtom):
        return lenv[label.index]
    if isinstance(label, LBot):
        return 0
    if isinstance(label, LNot):
        return ((1 << n) - 1) ^ evaluate_label(label.child, lenv, n)
    x, y = evaluate_label(label.left, lenv, n), evaluate_label(label.right, lenv, n)
    return x | y if isinstance(label, LOr) else x & y


def _python_label(label) -> str:
    """A label as a Python boolean expression over names p<i>."""
    if isinstance(label, LAtom):
        return f"p{label.index}"
    if isinstance(label, LBot):
        return "False"
    if isinstance(label, LNot):
        return f"(not {_python_label(label.child)})"
    op = "or" if isinstance(label, LOr) else "and"
    return f"({_python_label(label.left)} {op} {_python_label(label.right)})"


def taut(hypotheses, target) -> bool:
    """Whether the conjunction of the hypotheses classically entails the
    target, row by row over the truth table of the occurring atoms: one
    Python function of the atoms, called once per row, all false first
    and all true last."""
    atoms = sorted(frozenset().union(*map(label_atoms, (*hypotheses, target))))
    params = ", ".join(f"p{a}" for a in atoms)
    premise = " and ".join(map(_python_label, hypotheses)) or "True"
    row_holds = eval(f"lambda {params}: not ({premise}) or {_python_label(target)}")
    return all(row_holds(*row) for row in itertools.product((False, True), repeat=len(atoms)))


# The lexer as the parser used it before the one-`findall` lexer: one
# match per token, whitespace before it included; a variable or label atom
# name is matched whole before the general `name`, which is then a keyword
# or an unknown word.  `eof` is the empty match at the end.
_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<arrow>->)
      | (?P<turnstile>\|-)
      | (?P<ibang>i!)
      | (?P<iamp>i&)
      | (?P<ipipe>i\|)
      | (?P<ostar>o\*)
      | (?P<var>P[0-9]+)
      | (?P<latom>p[0-9]+)
      | (?P<name>[A-Za-z]+[0-9]*)
      | (?P<bang>!)
      | (?P<amp>&)
      | (?P<pipe>\|)
      | (?P<tilde>~)
      | (?P<lpar>\()
      | (?P<rpar>\))
      | (?P<comma>,)
      | (?P<colon>:)
      | (?P<equals>=)
      | (?P<eof>\Z)
      | (?P<bad>.)
    )""",
    re.VERBOSE,
)
_KEYWORDS = {"bot", "ibot", "top", "itop", "nb", "box", "dia", "down", "up", "F"}


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) of every token, ending with `eof`; raises the
    ParseError of the first unknown word or unexpected character."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        word, pos = m.group(kind), m.start(kind)
        if kind == "name":
            if word not in _KEYWORDS:
                raise ParseError(f"unknown word {word!r}", pos)
            kind = word
        elif kind == "bad":
            raise ParseError(f"unexpected character {word!r}", pos)
        tokens.append((kind, word, pos))
        if kind == "eof":  # after trailing whitespace, `eof` would match twice
            break
    return tokens


_REBUILT = {ExtNot, IntNot, ExtOr, ExtAnd, IntOr, IntAnd, LNot, LOr, LAnd}


def expand_rebuilt(formula):
    """Every derived connective rewritten to core syntax, by the
    definitions in lt.syntax.expand, and every other node built anew."""
    kind = type(formula)
    if kind in _REBUILT:
        return kind(*(expand_rebuilt(getattr(formula, name)) for name in kind.__slots__))
    if kind is not Derived:
        return kind(*(getattr(formula, name) for name in kind.__slots__))
    args = [expand_rebuilt(a) for a in formula.args]
    top, nb = ExtNot(ExtBot()), ExtNot(IntBot())
    tag = formula.tag
    if tag is DerivedTag.EXT_TOP:
        return top
    if tag is DerivedTag.NB:
        return nb
    if tag is DerivedTag.INT_TOP:
        return IntNot(IntBot())
    if tag is DerivedTag.DOWN:
        return IntAnd(args[0], top)
    if tag is DerivedTag.UP:
        return IntOr(args[0], top)
    if tag is DerivedTag.DIAMOND:
        return IntOr(IntAnd(args[0], top), top)
    if tag is DerivedTag.BOX:
        return ExtNot(IntOr(IntAnd(ExtNot(args[0]), top), top))
    if tag is DerivedTag.IMPLIES:
        return ExtOr(ExtNot(args[0]), args[1])
    if tag is DerivedTag.STRICT_NOT:
        return ExtNot(IntOr(ExtAnd(IntAnd(args[0], top), nb), top))
    return IntOr(ExtAnd(args[0], nb), ExtAnd(args[1], nb))
