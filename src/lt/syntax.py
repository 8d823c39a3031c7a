"""Syntax of the logic of teams: formulas, labels, labelled formulas.

Formulas are built from external Boolean connectives (bot, !, |, &),
internal pointwise connectives (ibot, i!, i|, i&) and a family of derived
connectives (top, itop, nb, down, up, dia, box, ->, ~, o*) that are kept
as first-class AST nodes so they can be evaluated both natively and via
their core spelling.  Labels are classical propositional formulas over
atoms p0, p1, ...; a labelled formula pairs a label with a formula.

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

The front end is linear in the input.  One `findall` returns the token
texts, skipping whitespace, and a dict gives each token its kind; the
parser reads the list of kinds, keeps nesting on an explicit stack, and
builds each distinct atom once.  Only an error finds its offset, by
matching the tokens again.  `expand` and `substitute` keep every node
whose children come back unchanged, so a formula with nothing to
rewrite comes back as the identical object.  `fold` computes a formula
in one walk, spelling each derived connective as `expand` does, so
evaluation and the compiler build no expanded tree to walk again.  One
printer serves formulas and labels, as one parser does.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Mapping, NamedTuple

from .errors import ParseError


# ---------------------------------------------------------------------------
# AST types


class Node:
    """A node of a syntax tree: a formula, a label, a labelled formula, or
    a step of a derivation (`proofcheck`).

    A subclass names its fields in `__slots__`, in constructor order, and
    its `__init__` stores `_hash`: the hash of its class, its plain fields
    and its children's stored hashes.  So hashing is O(1), never recurses,
    and tells node classes apart.  The hash is stored
    once, so a field must not be reassigned after construction.  Equality
    is structural: the same class and hash, then every field pair, walked
    on an explicit stack.  repr is `Class(field=value, ...)`, built by
    `formula_repr`, also without recursion."""

    __slots__ = ("_hash",)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            for name in a.__slots__:
                x = getattr(a, name)
                y = getattr(b, name)
                if x is y:
                    continue
                if isinstance(x, Node):
                    todo.append((x, y))
                elif type(x) is tuple and x and isinstance(x[0], Node):  # Derived.args, Rule.premises
                    if type(y) is not tuple or len(x) != len(y):
                        return False
                    todo += zip(x, y)
                elif x != y:
                    return False
        return True

    def __repr__(self):
        return formula_repr(self)


def _nullary_init(self):
    self._hash = hash((self.__class__,))


def _index_init(self, index: int):
    self.index = index
    self._hash = hash((self.__class__, index))


def _unary_init(self, child):
    self.child = child
    self._hash = hash((self.__class__, child._hash))


def _binary_init(self, left, right):
    self.left = left
    self.right = right
    self._hash = hash((self.__class__, left._hash, right._hash))


class Formula(Node):
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

    # Members are singletons compared by identity, so the identity hash
    # serves, in C: Enum's own hashes the name in Python on every lookup.
    __hash__ = object.__hash__


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


class ExtBot(Formula):
    __slots__ = ()
    __init__ = _nullary_init


class IntBot(Formula):
    __slots__ = ()
    __init__ = _nullary_init


class Var(Formula):
    __slots__ = ("index",)
    __init__ = _index_init


class ExtNot(Formula):
    __slots__ = ("child",)
    __init__ = _unary_init


class IntNot(Formula):
    __slots__ = ("child",)
    __init__ = _unary_init


class ExtOr(Formula):
    __slots__ = ("left", "right")
    __init__ = _binary_init


class ExtAnd(Formula):
    __slots__ = ("left", "right")
    __init__ = _binary_init


class IntOr(Formula):
    __slots__ = ("left", "right")
    __init__ = _binary_init


class IntAnd(Formula):
    __slots__ = ("left", "right")
    __init__ = _binary_init


class Derived(Formula):
    __slots__ = ("tag", "args")

    def __init__(self, tag: DerivedTag, args: tuple[Formula, ...] = ()):
        if len(args) != ARITY[tag]:
            raise ValueError(
                f"derived connective {tag.value} takes {ARITY[tag]} "
                f"argument(s), got {len(args)}"
            )
        self.tag = tag
        self.args = args
        self._hash = hash((self.__class__, tag, args))  # each argument's stored hash


class Label(Node):
    """Base class for label nodes (classical propositional formulas)."""

    __slots__ = ()


class LBot(Label):
    __slots__ = ()
    __init__ = _nullary_init


class LAtom(Label):
    __slots__ = ("index",)
    __init__ = _index_init


class LNot(Label):
    __slots__ = ("child",)
    __init__ = _unary_init


class LOr(Label):
    __slots__ = ("left", "right")
    __init__ = _binary_init


class LAnd(Label):
    __slots__ = ("left", "right")
    __init__ = _binary_init


class LabelledFormula(Node):
    __slots__ = ("label", "formula")

    def __init__(self, label: Label, formula: Formula):
        self.label = label
        self.formula = formula
        self._hash = hash((self.__class__, label._hash, formula._hash))


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
            todo.append(node.left)
            todo.append(node.right)
        elif kind in _UNARY_NODES:
            todo.append(node.child)
        elif kind is Derived:
            todo += node.args
    order.reverse()
    return order


def expand(formula: Formula) -> Formula:
    """Rewrite every derived connective to core syntax, as
    `_expand_derived` spells it.  Idempotent."""
    return _rebuild(formula, {}, True)


def substitute(formula: Formula, mapping: Mapping[int, Formula]) -> Formula:
    """Homomorphic replacement of variables; unmapped variables are unchanged."""
    return _rebuild(formula, mapping, False)


def _rebuild(formula: Formula, mapping: Mapping[int, Formula], expanding: bool) -> Formula:
    """The formula rebuilt children first without recursion: each variable
    through the mapping, each derived connective expanded or kept.  A node
    whose rebuilt children are the identical objects is kept itself, so a
    formula with nothing to rewrite comes back as the same object, and
    only the paths above a rewritten node are built anew."""
    out: list[Formula] = []
    for f in postorder(formula):
        kind = type(f)
        if kind in _BINARY_NODES:
            right = out.pop()
            left = out[-1]
            out[-1] = f if left is f.left and right is f.right else kind(left, right)
        elif kind in _UNARY_NODES:
            child = out[-1]
            out[-1] = f if child is f.child else kind(child)
        elif kind is Var:
            out.append(mapping.get(f.index, f))
        elif kind is not Derived:
            out.append(f)
        else:
            split = len(out) - len(f.args)
            args, out[split:] = out[split:], ()
            if expanding:
                out.append(_expand_derived(f.tag, args, lambda kind, *c: kind(*c)))
            else:
                kept = all(a is b for a, b in zip(args, f.args))
                out.append(f if kept else Derived(f.tag, tuple(args)))
    return out[0]


def _expand_derived(tag: DerivedTag, args: list, build):
    """A derived connective over its arguments in core syntax, each node
    made by build(kind, *children): the one definition of them all.
    top = !bot, nb = !ibot, itop = i!ibot, down x = x i& top,
    up x = x i| top, dia x = up(down x), box x = !dia !x,
    x -> y = !x | y, ~x = !up(down x & nb), x o* y = (x & nb) i| (y & nb)."""
    if tag is DerivedTag.INT_TOP:
        return build(IntNot, build(IntBot))
    if tag is DerivedTag.NB:
        return build(ExtNot, build(IntBot))
    if tag is DerivedTag.IMPLIES:
        return build(ExtOr, build(ExtNot, args[0]), args[1])
    if tag is DerivedTag.CIRCLE_STAR:
        nb = build(ExtNot, build(IntBot))
        return build(IntOr, build(ExtAnd, args[0], nb), build(ExtAnd, args[1], nb))
    top = build(ExtNot, build(ExtBot))
    if tag is DerivedTag.EXT_TOP:
        return top
    if tag is DerivedTag.DOWN:
        return build(IntAnd, args[0], top)
    if tag is DerivedTag.UP:
        return build(IntOr, args[0], top)
    if tag is DerivedTag.DIAMOND:
        return build(IntOr, build(IntAnd, args[0], top), top)
    if tag is DerivedTag.BOX:
        return build(ExtNot, build(IntOr, build(IntAnd, build(ExtNot, args[0]), top), top))
    assert tag is DerivedTag.STRICT_NOT
    down = build(IntAnd, args[0], top)
    return build(ExtNot, build(IntOr, build(ExtAnd, down, build(ExtNot, build(IntBot))), top))


def fold(nodes: list, leaf, build, derived=_expand_derived):
    """The value of a formula or label from its `postorder` list, children
    first: leaf(node) for a variable or label atom, derived(tag, argument
    values, build) for a derived connective, else build(kind, *values)."""
    out: list = []
    for node in nodes:
        kind = type(node)
        if kind in _BINARY_NODES:
            right = out.pop()
            out[-1] = build(kind, out[-1], right)
        elif kind in _UNARY_NODES:
            out[-1] = build(kind, out[-1])
        elif kind is Var or kind is LAtom:
            out.append(leaf(node))
        elif kind is Derived:
            split = len(out) - len(node.args)
            args, out[split:] = out[split:], ()
            out.append(derived(node.tag, args, build))
        else:
            out.append(build(kind))
    return out[0]


# ---------------------------------------------------------------------------
# Lexer

# One match per token, tried in this order: a word is matched whole, so
# "P1x" is "P1" then "x", and any other character is a token of its own.
# `findall` skips the whitespace between tokens in C.
_LEXEME_RE = re.compile(r"->|\|-|i!|i&|i\||o\*|[A-Za-z]+[0-9]*|\S")
_KINDS = {
    "->": "arrow", "|-": "turnstile", "i!": "ibang", "i&": "iamp", "i|": "ipipe",
    "o*": "ostar", "!": "bang", "&": "amp", "|": "pipe", "~": "tilde", "(": "lpar",
    ")": "rpar", ",": "comma", ":": "colon", "=": "equals",
    **{word: word for word in ("bot", "ibot", "top", "itop", "nb", "box", "dia", "down", "up", "F")},
}
_ATOM_KINDS = {"P": "var", "p": "latom"}  # with digits after the letter


def _lex(text: str) -> tuple[list[str], list[str]]:
    """The token kinds and texts, each list ending with `eof`."""
    texts = _LEXEME_RE.findall(text)
    table = dict(_KINDS)  # and each other word, classified once: an atom or None
    for word in set(texts).difference(_KINDS):
        table[word] = _ATOM_KINDS.get(word[0]) if word[1:].isdigit() else None
    kinds = list(map(table.__getitem__, texts))
    if None in kinds:
        i = kinds.index(None)
        word = texts[i]
        what = "unknown word" if word.isascii() and word[0].isalpha() else "unexpected character"
        raise ParseError(f"{what} {word!r}", _offset(text, i))
    kinds.append("eof")
    texts.append("")
    return kinds, texts


def _offset(text: str, i: int) -> int:
    """The offset of token i, or of `eof` past the last token, found by
    matching the tokens again: only an error reports an offset."""
    starts = [match.start() for match in _LEXEME_RE.finditer(text)]
    return starts[i] if i < len(starts) else len(text)


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


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.kinds, self.texts = _lex(text)
        self.i = 0

    def error(self, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        """A ParseError at the current token."""
        return ParseError(message, _offset(self.text, self.i), expected)

    def unexpected(self, expected: tuple[str, ...]) -> ParseError:
        i = self.i
        if self.kinds[i] == "eof":
            return self.error("unexpected end of input", expected)
        return self.error(f"got {self.texts[i]!r}", expected)

    def peek(self) -> str:
        return self.kinds[self.i]

    def formula(self) -> Formula:
        """formula := disj ['->' formula]; disj := conj (op conj)*;
        conj := unary (op unary)*; unary := prefix* (atom | '(' formula ')')."""
        return self._nested(_FORMULA)

    def label(self) -> Label:
        """label := conj ('|' conj)*; conj := unary ('&' unary)*;
        unary := '!'* (atom | '(' label ')')."""
        return self._nested(_LABEL)

    def _nested(self, grammar: _Grammar):
        """Read unary operands, each completing the open chains of its
        level: its pending prefix operators, then the open conjunction,
        disjunction and '->' chains as far as the next token closes them.
        A '(' saves the level's state on the stack and opens a new one;
        once a level's formula is complete, it takes its ')' and is an
        operand of the level below.  The outermost level's formula is the
        result.  Equal atoms are built once and shared."""
        kinds, texts, i = self.kinds, self.texts, self.i
        prefix, atoms, conj, disj = grammar.prefix, grammar.atoms, grammar.conj, grammar.disj
        arrow = "arrow" if grammar.arrow else None
        stack: list[tuple] = []
        leaves: dict = {}
        prefixes: list = []
        arrows: list = []
        conj_left = conj_kind = disj_left = disj_kind = None
        while True:
            kind = kinds[i]
            while kind in prefix:
                prefixes.append(prefix[kind])
                i += 1
                kind = kinds[i]
            if kind == "lpar":  # a level with nothing open is saved as None
                if prefixes or arrows or conj_kind or disj_kind:
                    stack.append((prefixes, arrows, conj_left, conj_kind, disj_left, disj_kind))
                    prefixes, arrows, conj_kind, disj_kind = [], [], None, None
                else:
                    stack.append(None)
                i += 1
                continue
            value = leaves.get(texts[i])
            if value is None:
                make = atoms.get(kind)
                if make is None:
                    self.i = i
                    raise self.unexpected(grammar.atom_expect)
                try:
                    value = leaves[texts[i]] = make(texts[i])
                except ValueError:  # an index with more digits than int() reads
                    self.i, digits = i, len(texts[i]) - 1
                    message = f"index of {texts[i][0]}<{digits} digits> is too large"
                    raise self.error(message) from None
            i += 1
            while True:  # close the operand in its level, and each level it completes
                while prefixes:
                    value = prefixes.pop()(value)
                kind = kinds[i]
                if conj_kind is not None:
                    value = conj[conj_kind](conj_left, value)
                    if kind != conj_kind and kind in conj:
                        self.i = i
                        raise self._mixing("conjunction")
                if kind in conj:
                    conj_left, conj_kind = value, kind
                    break
                conj_kind = None
                if disj_kind is not None:
                    value = disj[disj_kind](disj_left, value)
                    if kind != disj_kind and kind in disj:
                        self.i = i
                        raise self._mixing("disjunction")
                if kind in disj:
                    disj_left, disj_kind = value, kind
                    break
                disj_kind = None
                if kind == arrow:  # right-associative: fold at the end
                    arrows.append(value)
                    break
                while arrows:
                    value = Derived(DerivedTag.IMPLIES, (arrows.pop(), value))
                if not stack:
                    self.i = i
                    return value
                if kinds[i] != "rpar":
                    self.i = i
                    raise self.unexpected(("')'",))
                i += 1
                saved = stack.pop()
                if saved is not None:  # else this level, now complete, has nothing open
                    prefixes, arrows, conj_left, conj_kind, disj_left, disj_kind = saved
            i += 1  # past the operator that asks for the next operand

    def _mixing(self, level_name: str) -> ParseError:
        return self.error(
            f"mixing {self.texts[self.i]!r} with a different {level_name}-level operator "
            "requires parentheses",
            (self.texts[self.i - 2],),
        )

    # -- labelled formulas and queries

    def labelled(self) -> LabelledFormula:
        label = self.label()
        kind = self.peek()
        if kind == "colon":
            self.i += 1
            return LabelledFormula(label, self.formula())
        if kind == "equals":
            self.i += 1
            return equality(label, self.label())
        raise self.unexpected(("':'", "'='"))

    def query(self, read) -> tuple[tuple, Node]:
        """query := [item (',' item)*] '|-' item, each item read by
        read(self): the premises and the conclusion."""
        premises = []
        if self.peek() != "turnstile":
            premises.append(read(self))
            while self.peek() == "comma":
                self.i += 1
                premises.append(read(self))
        if self.peek() != "turnstile":
            raise self.unexpected(("'|-'",))
        self.i += 1
        return tuple(premises), read(self)


def _parse(text: str, read):
    """read(parser) over the whole text, which it must use up."""
    p = _Parser(text)
    value = read(p)
    if p.peek() != "eof":
        raise p.error(f"trailing input {p.texts[p.i]!r}", ("end of input",))
    return value


def parse_formula(text: str) -> Formula:
    return _parse(text, _Parser.formula)


def parse_label(text: str) -> Label:
    return _parse(text, _Parser.label)


def parse_labelled(text: str) -> LabelledFormula:
    return _parse(text, _Parser.labelled)


def parse_lines(path, parse) -> list:
    """One item per non-empty line of a text file, read by `parse` from
    the line with its surrounding whitespace stripped."""
    with open(path, encoding="utf-8") as fh:
        return [parse(line) for line in map(str.strip, fh) if line]


def parse_entailment_query(text: str) -> tuple[tuple[Formula, ...], Formula]:
    """Parse "phi1, phi2 |- psi" (premises may be empty: "|- psi")."""
    return _parse(text, lambda p: p.query(_Parser.formula))


def parse_labelled_query(text: str) -> tuple[tuple[LabelledFormula, ...], LabelledFormula]:
    """Parse "a1:phi1, a2:phi2 |- b:psi" (premises may be empty)."""
    return _parse(text, lambda p: p.query(_Parser.labelled))


# ---------------------------------------------------------------------------
# Printer, one for formulas and labels.  Binary subformulas are
# parenthesised except along the associativity direction of the same
# operator, so mixed-level chains are always unambiguous and re-parse to
# the identical tree.

_INFIX: dict[type, str] = {ExtAnd: "&", IntAnd: "i&", ExtOr: "|", IntOr: "i|", LAnd: "&", LOr: "|"}
_PREFIX: dict[type, str] = {ExtNot: "!", IntNot: "i!", LNot: "!"}
_CONSTANTS: dict[type, str] = {ExtBot: "bot", IntBot: "ibot", LBot: "F"}
_ATOMS: dict[type, str] = {Var: "P", LAtom: "p"}


def _infix(node: Node) -> str | None:
    """The symbol of a binary node: '->' and 'o*' for derived ones."""
    sym = _INFIX.get(type(node))
    if sym is None and type(node) is Derived and len(node.args) == 2:
        return node.tag.value
    return sym


def _paren(text: str, node: Node, unless_op: str | None = None) -> str:
    """A subformula's text, parenthesised if it is a binary node with an
    operator other than `unless_op`."""
    sym = _infix(node)
    return f"({text})" if sym is not None and sym != unless_op else text


def format_formula(root: Node) -> str:
    """The text of a formula or a label, built children first without
    recursion.  A binary operand is parenthesised under a prefix
    operator, as a right operand, and as the left operand of another
    connective; for the right-associative '->' the sides swap."""
    out: list[str] = []
    for node in postorder(root):
        kind, sym = type(node), _infix(node)
        if sym is not None:
            left, right = node.args if kind is Derived else (node.left, node.right)
            right_text = out.pop()
            if sym == "->":  # right-associative
                out[-1] = f"{_paren(out[-1], left)} -> {_paren(right_text, right, sym)}"
            else:
                out[-1] = f"{_paren(out[-1], left, sym)} {sym} {_paren(right_text, right)}"
        elif kind in _PREFIX:
            out[-1] = _PREFIX[kind] + _paren(out[-1], node.child)
        elif kind in _ATOMS:
            out.append(f"{_ATOMS[kind]}{node.index}")
        elif kind in _CONSTANTS:
            out.append(_CONSTANTS[kind])
        elif not node.args:
            out.append(node.tag.value)
        else:
            spaced = "" if node.tag is DerivedTag.STRICT_NOT else " "
            out[-1] = node.tag.value + spaced + _paren(out[-1], node.args[0])
    return out[0]


format_label = format_formula


def formula_repr(root: Node) -> str:
    """repr() of a node, `Class(field=value, ...)` as a dataclass prints
    it, built children first without recursion, so that a deep tree
    prints too.  A field holding a node, or a tuple of nodes, is a child."""
    order, todo = [], [root]
    while todo:  # node, then its children last first: reversed, children first
        order.append(node := todo.pop())
        for name in node.__slots__:
            value = getattr(node, name)
            if isinstance(value, Node):
                todo.append(value)
            elif type(value) is tuple:
                todo += (v for v in value if isinstance(v, Node))
    out: list[str] = []
    for node in reversed(order):
        fields = []
        for name in reversed(node.__slots__):
            value = getattr(node, name)
            if isinstance(value, Node):
                text = out.pop()
            elif type(value) is tuple and value and isinstance(value[0], Node):
                split = len(out) - len(value)
                items, out[split:] = out[split:], ()
                text = f"({', '.join(items)}{',' if len(items) == 1 else ''})"
            else:
                text = repr(value)
            fields.append(f"{name}={text}")
        out.append(f"{type(node).__name__}({', '.join(reversed(fields))})")
    return out[0]


def format_labelled(lf: LabelledFormula) -> str:
    return f"{format_label(lf.label)} : {format_formula(lf.formula)}"
