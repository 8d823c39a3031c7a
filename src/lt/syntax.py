"""Syntax of the logic of teams: formulas, labels, labelled formulas.

Formulas are built from external Boolean connectives (bot, !, |, &),
internal pointwise connectives (ibot, i!, i|, i&) and a family of derived
connectives (top, itop, nb, down, up, dia, box, ->, ~, o*) that are kept
as first-class AST nodes so they can be evaluated both natively and via
expansion.  Labels are classical propositional formulas over atoms p0,
p1, ...; a labelled formula pairs a label with a formula.

Concrete ASCII grammar (precedence high to low, parentheses always allowed):

    atoms:        bot  ibot  top  itop  nb  P<digits>
    unary:        !  i!  ~  box  dia  down  up           (prefix, tightest)
    conjunction:  &  i&                                   (left-assoc)
    disjunction:  |  i|  o*                               (left-assoc)
    implication:  ->                                      (right-assoc, loosest)

Mixing different operators of one precedence level ("P0 & P1 i& P2")
requires parentheses.  Labels use F (falsum), p<digits>, !, & and | with
the same conventions.  A labelled formula is "<label> : <formula>"; the
equality sugar "a = b" stands for (a <-> b) : itop with a <-> b spelled
(a | !b) & (!a | b).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, NamedTuple

from .errors import ParseError


# ---------------------------------------------------------------------------
# AST types


class Formula:
    """Base class for formula nodes."""

    __slots__ = ()


class DerivedTag(Enum):
    EXT_TOP = "top"
    INT_TOP = "itop"
    NB = "nb"
    DOWN = "down"
    UP = "up"
    DIAMOND = "dia"
    BOX = "box"
    IMPLIES = "->"
    STRICT_NOT = "~"
    CIRCLE_STAR = "o*"


ARITY = {
    DerivedTag.EXT_TOP: 0,
    DerivedTag.INT_TOP: 0,
    DerivedTag.NB: 0,
    DerivedTag.DOWN: 1,
    DerivedTag.UP: 1,
    DerivedTag.DIAMOND: 1,
    DerivedTag.BOX: 1,
    DerivedTag.STRICT_NOT: 1,
    DerivedTag.IMPLIES: 2,
    DerivedTag.CIRCLE_STAR: 2,
}


@dataclass(frozen=True)
class ExtBot(Formula):
    pass


@dataclass(frozen=True)
class IntBot(Formula):
    pass


@dataclass(frozen=True)
class Var(Formula):
    index: int


@dataclass(frozen=True)
class ExtNot(Formula):
    child: Formula


@dataclass(frozen=True)
class IntNot(Formula):
    child: Formula


@dataclass(frozen=True)
class ExtOr(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class ExtAnd(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class IntOr(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class IntAnd(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Derived(Formula):
    tag: DerivedTag
    args: tuple[Formula, ...] = ()

    def __post_init__(self):
        if len(self.args) != ARITY[self.tag]:
            raise ValueError(
                f"derived connective {self.tag.value} takes {ARITY[self.tag]} "
                f"argument(s), got {len(self.args)}"
            )


class Label:
    """Base class for label nodes (classical propositional formulas)."""

    __slots__ = ()


@dataclass(frozen=True)
class LBot(Label):
    pass


@dataclass(frozen=True)
class LAtom(Label):
    index: int


@dataclass(frozen=True)
class LNot(Label):
    child: Label


@dataclass(frozen=True)
class LOr(Label):
    left: Label
    right: Label


@dataclass(frozen=True)
class LAnd(Label):
    left: Label
    right: Label


@dataclass(frozen=True)
class LabelledFormula:
    label: Label
    formula: Formula


# Core spellings of the derived constants.
TOP_CORE = ExtNot(ExtBot())
NB_CORE = ExtNot(IntBot())
ITOP_CORE = IntNot(IntBot())


def equality_label(a: Label, b: Label) -> Label:
    """The label a <-> b, spelled (a | !b) & (!a | b)."""
    return LAnd(LOr(a, LNot(b)), LOr(LNot(a), b))


def equality(a: Label, b: Label) -> LabelledFormula:
    """The labelled formula a = b, i.e. (a <-> b) : itop in core syntax."""
    return LabelledFormula(equality_label(a, b), ITOP_CORE)


# ---------------------------------------------------------------------------
# Structural helpers


def free_vars(formula: Formula) -> frozenset[int]:
    """Indices of the propositional variables occurring in the formula."""
    return frozenset(f.index for f in postorder(formula) if isinstance(f, Var))


def label_atoms(label: Label) -> frozenset[int]:
    """Indices of the atomic labels occurring in the label."""
    return frozenset(a.index for a in postorder(label) if isinstance(a, LAtom))


def is_core(formula: Formula) -> bool:
    """True iff the formula contains no derived connectives."""
    return not any(isinstance(f, Derived) for f in postorder(formula))


_UNARY_NODES = frozenset((ExtNot, IntNot, LNot))
_BINARY_NODES = frozenset((ExtOr, ExtAnd, IntOr, IntAnd, LOr, LAnd))


def postorder(root):
    """The nodes of a formula or label, each after its children (left
    before right), listed without recursion."""
    order, todo = [], [root]
    while todo:  # node, right subtree, left subtree: reversed, children first
        order.append(node := todo.pop())
        kind = type(node)
        if kind in _BINARY_NODES:
            todo += (node.left, node.right)
        elif kind in _UNARY_NODES:
            todo.append(node.child)
        elif kind is Derived:
            todo += node.args
    order.reverse()
    return order


def expand(formula: Formula) -> Formula:
    """Rewrite every derived connective to core syntax.  Idempotent.

    top = !bot, nb = !ibot, itop = i!ibot, down x = x i& top,
    up x = x i| top, dia x = up(down x), box x = !dia !x,
    x -> y = !x | y, ~x = !up(down x & nb),
    x o* y = (x & nb) i| (y & nb).
    """
    out: list[Formula] = []
    for f in postorder(formula):
        kind = type(f)
        if kind in _BINARY_NODES:
            right = out.pop()
            out[-1] = kind(out[-1], right)
        elif kind in _UNARY_NODES:
            out[-1] = kind(out[-1])
        elif kind is not Derived:
            out.append(f)
        else:
            split = len(out) - len(f.args)
            args, out[split:] = out[split:], ()
            out.append(_expand_derived(f.tag, args))
    return out[0]


def _expand_derived(tag: DerivedTag, args: list[Formula]) -> Formula:
    """One derived connective over expanded arguments."""
    if tag is DerivedTag.EXT_TOP:
        return TOP_CORE
    if tag is DerivedTag.NB:
        return NB_CORE
    if tag is DerivedTag.INT_TOP:
        return ITOP_CORE
    if tag is DerivedTag.DOWN:
        return IntAnd(args[0], TOP_CORE)
    if tag is DerivedTag.UP:
        return IntOr(args[0], TOP_CORE)
    if tag is DerivedTag.DIAMOND:
        return IntOr(IntAnd(args[0], TOP_CORE), TOP_CORE)
    if tag is DerivedTag.BOX:
        return ExtNot(IntOr(IntAnd(ExtNot(args[0]), TOP_CORE), TOP_CORE))
    if tag is DerivedTag.IMPLIES:
        return ExtOr(ExtNot(args[0]), args[1])
    if tag is DerivedTag.STRICT_NOT:
        return ExtNot(IntOr(ExtAnd(IntAnd(args[0], TOP_CORE), NB_CORE), TOP_CORE))
    assert tag is DerivedTag.CIRCLE_STAR
    return IntOr(ExtAnd(args[0], NB_CORE), ExtAnd(args[1], NB_CORE))


def substitute(formula: Formula, mapping: Mapping[int, Formula]) -> Formula:
    """Homomorphic replacement of variables; unmapped variables are unchanged."""
    if isinstance(f := formula, Var):
        return mapping.get(f.index, f)
    if isinstance(f, (ExtBot, IntBot)):
        return f
    if isinstance(f, ExtNot):
        return ExtNot(substitute(f.child, mapping))
    if isinstance(f, IntNot):
        return IntNot(substitute(f.child, mapping))
    if isinstance(f, ExtOr):
        return ExtOr(substitute(f.left, mapping), substitute(f.right, mapping))
    if isinstance(f, ExtAnd):
        return ExtAnd(substitute(f.left, mapping), substitute(f.right, mapping))
    if isinstance(f, IntOr):
        return IntOr(substitute(f.left, mapping), substitute(f.right, mapping))
    if isinstance(f, IntAnd):
        return IntAnd(substitute(f.left, mapping), substitute(f.right, mapping))
    assert isinstance(f, Derived)
    return Derived(f.tag, tuple(substitute(a, mapping) for a in f.args))


# ---------------------------------------------------------------------------
# Lexer

_KEYWORDS = {"bot", "ibot", "top", "itop", "nb", "box", "dia", "down", "up", "F"}

# One match per token, whitespace before it included; a variable or label
# atom name is matched whole before the general `name`, which is then a
# keyword or an unknown word.  `eof` is the empty match at the end.
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


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        word, pos = m.group(kind), m.start(kind)
        if kind == "name":
            if word not in _KEYWORDS:
                raise ParseError(f"unknown word {word!r}", pos)
            kind = word
        elif kind == "bad":
            raise ParseError(f"unexpected character {word!r}", pos)
        tokens.append(_Token(kind, word, pos))
        if kind == "eof":  # after trailing whitespace, `eof` would match twice
            break
    return tokens


# ---------------------------------------------------------------------------
# Parser.  The grammar is read as recursive descent would read it, one token
# of lookahead, but nesting lives on an explicit stack of parenthesis levels,
# so that no input depth costs a Python frame.  One level of precedence holds
# operators of equal precedence and a chain must use a single operator,
# otherwise parentheses are required.


def _derived_unary(tag: DerivedTag):
    return lambda child: Derived(tag, (child,))


class _Grammar(NamedTuple):
    """One expression language: its prefix operators, atoms (with the
    expected set reported when no atom is found), conjunction-level and
    disjunction-level operators by token kind, and whether '->' exists."""

    prefix: dict
    atoms: dict
    atom_expect: tuple[str, ...]
    conj: dict
    disj: dict
    arrow: bool


_FORMULA = _Grammar(
    prefix={
        "bang": ExtNot,
        "ibang": IntNot,
        "tilde": _derived_unary(DerivedTag.STRICT_NOT),
        **{kind: _derived_unary(DerivedTag(kind)) for kind in ("box", "dia", "down", "up")},
    },
    atoms={
        "bot": lambda text: ExtBot(),
        "ibot": lambda text: IntBot(),
        "top": lambda text: Derived(DerivedTag.EXT_TOP),
        "itop": lambda text: Derived(DerivedTag.INT_TOP),
        "nb": lambda text: Derived(DerivedTag.NB),
        "var": lambda text: Var(int(text[1:])),
    },
    atom_expect=("bot", "ibot", "top", "itop", "nb", "P<digits>", "'('"),
    conj={"amp": ExtAnd, "iamp": IntAnd},
    disj={
        "pipe": ExtOr,
        "ipipe": IntOr,
        "ostar": lambda left, right: Derived(DerivedTag.CIRCLE_STAR, (left, right)),
    },
    arrow=True,
)
_LABEL = _Grammar(
    prefix={"bang": LNot},
    atoms={"F": lambda text: LBot(), "latom": lambda text: LAtom(int(text[1:]))},
    atom_expect=("F", "p<digits>", "'('"),
    conj={"amp": LAnd},
    disj={"pipe": LOr},
    arrow=False,
)


def _unexpected(tok: _Token, expected: tuple[str, ...]) -> ParseError:
    return ParseError(
        f"got {tok.text!r}" if tok.kind != "eof" else "unexpected end of input",
        tok.pos,
        expected,
    )


class _Level:
    """The open state of one parenthesis level: prefix operators waiting
    for their operand, the left side and operator of the open conjunction
    and disjunction chains, and the left operands of a '->' chain."""

    __slots__ = ("prefixes", "conj", "conj_kind", "disj", "disj_kind", "arrows")

    def __init__(self):
        self.prefixes: list = []
        self.conj = self.conj_kind = self.disj = self.disj_kind = None
        self.arrows: list = []


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, description: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise _unexpected(tok, (description,))
        return self.next()

    def formula(self) -> Formula:
        """formula := disj ['->' formula]; disj := conj (op conj)*;
        conj := unary (op unary)*; unary := prefix* (atom | '(' formula ')')."""
        return self._nested(_FORMULA)

    def label(self) -> Label:
        """label := conj ('|' conj)*; conj := unary ('&' unary)*;
        unary := '!'* (atom | '(' label ')')."""
        return self._nested(_LABEL)

    def _nested(self, grammar: _Grammar):
        """Read unary operands and hand each to `_close`.  A '(' opens a
        level; once a level's formula is complete, it takes its ')' and
        the formula is an operand of the level below.  The outermost
        level's formula is the result."""
        tokens, levels = self.tokens, [_Level()]
        while True:
            level = levels[-1]
            tok = tokens[self.i]
            while tok.kind in grammar.prefix:
                level.prefixes.append(grammar.prefix[tok.kind])
                self.i += 1
                tok = tokens[self.i]
            if tok.kind == "lpar":
                self.i += 1
                levels.append(_Level())
                continue
            make = grammar.atoms.get(tok.kind)
            if make is None:
                raise _unexpected(tok, grammar.atom_expect)
            self.i += 1
            value = self._close(grammar, level, make(tok.text))
            while value is not None:
                if len(levels) == 1:
                    return value
                levels.pop()
                self.expect("rpar", "')'")
                value = self._close(grammar, levels[-1], value)

    def _close(self, grammar: _Grammar, level: _Level, value):
        """Apply the level's pending prefixes to an operand and extend its
        chains: None while an operator asks for another operand, else the
        level's whole formula."""
        prefixes = level.prefixes
        while prefixes:
            value = prefixes.pop()(value)
        kind = self.tokens[self.i].kind
        if level.conj_kind is not None:
            value = grammar.conj[level.conj_kind](level.conj, value)
            if kind != level.conj_kind and kind in grammar.conj:
                raise self._mixing("conjunction")
        if kind in grammar.conj:
            level.conj, level.conj_kind = value, kind
            self.i += 1
            return None
        level.conj_kind = None
        if level.disj_kind is not None:
            value = grammar.disj[level.disj_kind](level.disj, value)
            if kind != level.disj_kind and kind in grammar.disj:
                raise self._mixing("disjunction")
        if kind in grammar.disj:
            level.disj, level.disj_kind = value, kind
            self.i += 1
            return None
        level.disj_kind = None
        if kind == "arrow" and grammar.arrow:  # right-associative: fold at the end
            level.arrows.append(value)
            self.i += 1
            return None
        arrows = level.arrows
        while arrows:
            value = Derived(DerivedTag.IMPLIES, (arrows.pop(), value))
        return value

    def _mixing(self, level_name: str) -> ParseError:
        nxt = self.tokens[self.i]
        return ParseError(
            f"mixing {nxt.text!r} with a different {level_name}-level operator "
            "requires parentheses",
            nxt.pos,
            (self.tokens[self.i - 2].text,),
        )

    # -- labelled formulas and queries

    def labelled(self) -> LabelledFormula:
        label = self.label()
        tok = self.peek()
        if tok.kind == "colon":
            self.next()
            return LabelledFormula(label, self.formula())
        if tok.kind == "equals":
            self.next()
            return equality(label, self.label())
        raise _unexpected(tok, ("':'", "'='"))

    def eof(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"trailing input {tok.text!r}", tok.pos, ("end of input",))


def parse_formula(text: str) -> Formula:
    p = _Parser(_tokenize(text))
    f = p.formula()
    p.eof()
    return f


def parse_label(text: str) -> Label:
    p = _Parser(_tokenize(text))
    a = p.label()
    p.eof()
    return a


def parse_labelled(text: str) -> LabelledFormula:
    p = _Parser(_tokenize(text))
    lf = p.labelled()
    p.eof()
    return lf


def parse_entailment_query(text: str) -> tuple[tuple[Formula, ...], Formula]:
    """Parse "phi1, phi2 |- psi" (premises may be empty: "|- psi")."""
    p = _Parser(_tokenize(text))
    premises: list[Formula] = []
    if p.peek().kind != "turnstile":
        premises.append(p.formula())
        while p.peek().kind == "comma":
            p.next()
            premises.append(p.formula())
    p.expect("turnstile", "'|-'")
    conclusion = p.formula()
    p.eof()
    return tuple(premises), conclusion


def parse_labelled_query(text: str) -> tuple[tuple[LabelledFormula, ...], LabelledFormula]:
    """Parse "a1:phi1, a2:phi2 |- b:psi" (premises may be empty)."""
    p = _Parser(_tokenize(text))
    premises: list[LabelledFormula] = []
    if p.peek().kind != "turnstile":
        premises.append(p.labelled())
        while p.peek().kind == "comma":
            p.next()
            premises.append(p.labelled())
    p.expect("turnstile", "'|-'")
    conclusion = p.labelled()
    p.eof()
    return tuple(premises), conclusion


# ---------------------------------------------------------------------------
# Printer.  Binary subformulas are parenthesised except along the
# associativity direction of the same operator, so mixed-level chains are
# always unambiguous and re-parse to the identical tree.

_BIN_OPS: dict[type, str] = {ExtAnd: "&", IntAnd: "i&", ExtOr: "|", IntOr: "i|"}


def _binop_symbol(f: Formula) -> str | None:
    sym = _BIN_OPS.get(type(f))
    if sym is not None:
        return sym
    if isinstance(f, Derived):
        if f.tag is DerivedTag.IMPLIES:
            return "->"
        if f.tag is DerivedTag.CIRCLE_STAR:
            return "o*"
    return None


def _paren(text: str, node: Formula, unless_op: str | None = None) -> str:
    """A subformula's text, parenthesised if it is a binary formula with an
    operator other than `unless_op`."""
    sym = _binop_symbol(node)
    return f"({text})" if sym is not None and sym != unless_op else text


def format_formula(f: Formula) -> str:
    """The formula's text, built children first without recursion."""
    out: list[str] = []
    for node in postorder(f):
        kind, sym = type(node), _binop_symbol(node)
        if sym is not None:
            left, right = node.args if kind is Derived else (node.left, node.right)
            right_text = out.pop()
            if sym == "->":  # right-associative
                out[-1] = f"{_paren(out[-1], left)} -> {_paren(right_text, right, sym)}"
            else:
                out[-1] = f"{_paren(out[-1], left, sym)} {sym} {_paren(right_text, right)}"
        elif kind is ExtNot or kind is IntNot:
            out[-1] = ("!" if kind is ExtNot else "i!") + _paren(out[-1], node.child)
        elif kind is ExtBot or kind is IntBot:
            out.append("bot" if kind is ExtBot else "ibot")
        elif kind is Var:
            out.append(f"P{node.index}")
        elif not node.args:
            out.append(node.tag.value)
        else:
            spaced = "" if node.tag is DerivedTag.STRICT_NOT else " "
            out[-1] = node.tag.value + spaced + _paren(out[-1], node.args[0])
    return out[0]


def format_label(a: Label) -> str:
    """The label's text, built children first without recursion.  A binary
    label is parenthesised under !, as a right operand, and as the left
    operand of the other connective."""
    out: list[str] = []
    for node in postorder(a):
        kind = type(node)
        if kind is LBot:
            out.append("F")
        elif kind is LAtom:
            out.append(f"p{node.index}")
        elif kind is LNot:
            out[-1] = "!" + (f"({out[-1]})" if type(node.child) in (LOr, LAnd) else out[-1])
        else:
            right = out.pop()
            left = out[-1]
            if type(node.left) is (LOr if kind is LAnd else LAnd):
                left = f"({left})"
            if type(node.right) in (LOr, LAnd):
                right = f"({right})"
            out[-1] = f"{left} {'&' if kind is LAnd else '|'} {right}"
    return out[0]


def formula_repr(root) -> str:
    """repr() of a formula or label, the dataclass repr, built children
    first without recursion, so that a deep formula prints too."""
    out: list[str] = []
    for node in postorder(root):
        kind = type(node)
        name = kind.__name__
        if kind in _BINARY_NODES:
            right = out.pop()
            out[-1] = f"{name}(left={out[-1]}, right={right})"
        elif kind in _UNARY_NODES:
            out[-1] = f"{name}(child={out[-1]})"
        elif kind is Derived:
            split = len(out) - len(node.args)
            args, out[split:] = out[split:], ()
            tail = "," if len(args) == 1 else ""
            out.append(f"Derived(tag={node.tag!r}, args=({', '.join(args)}{tail}))")
        elif kind is Var or kind is LAtom:
            out.append(f"{name}(index={node.index!r})")
        else:
            out.append(f"{name}()")
    return out[0]


def format_labelled(lf: LabelledFormula) -> str:
    return f"{format_label(lf.label)} : {format_formula(lf.formula)}"
