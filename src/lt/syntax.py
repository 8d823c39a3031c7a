"""Syntax of the logic of teams: formulas, labels, labelled formulas.

Formulas are built from external Boolean connectives (bot, !, |, &),
internal pointwise connectives (ibot, i!, i|, i&) and a family of derived
connectives (top, itop, nb, down, up, dia, box, ->, ~, o*) that are kept
as first-class AST nodes, so a formula prints as it was written, and
computed through their one core spelling.  Labels are classical
propositional formulas over atoms p0, p1, ...; a labelled formula pairs
a label with a formula.

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

The front end is linear in the input, and it does its work per token,
not per character.  One `findall` returns the token texts, each with the
whitespace before it matched, ending with the `eof` token "": a run of
'(', ')' or '!' is one token.  A token's text is its kind: the parser
dispatches on it, applies a run in one step, keeps nesting on an
explicit stack, and makes the value of each distinct atom once.  Every
value is made by a constructor of the grammar the parser reads with, one
per token text, and a variable's by the constructor of its index that
each read passes in: so one parser builds a tree (`Var` or `LAtom`), or
computes a value as it reads, with no tree built, in a `value_grammar`
of operations (`fold_formula`, as `lt eval` folds its text).  Only an
error finds its offset: the start of its token's match, by matching the
tokens again, plus the characters of a run read before it.  A node
stores its hash on first use.
`expand` and `substitute` keep every node whose children come back
unchanged, so a formula with nothing to rewrite comes back as the
identical object.  `fold` computes a formula in one walk, spelling each
derived connective as `expand` does, so evaluation and the compiler
build no expanded tree to walk again.  One printer serves formulas and
labels, as one parser does.
"""

from __future__ import annotations

import itertools
import re
from enum import Enum
from typing import Callable, Mapping, NamedTuple

from .errors import ParseError


# ---------------------------------------------------------------------------
# AST types


class Node:
    """A node of a syntax tree: a formula, a label, a labelled formula, or
    a step of a derivation (`proofcheck`).

    A subclass names its fields in `__slots__`, in constructor order, and
    its `__init__` stores them and `_hash = None`.  The hash of a node is
    that of its class, its plain fields and its children's hashes (a
    tuple of children, as `Derived.args`, hashed as the tuple); it tells
    node classes apart.  The first `hash` of a node stores it, with that
    of every node below it that has none, children first, without
    recursion; then it is O(1).  A node that has its hash has one below
    it everywhere, so a shared subtree is hashed once.  As the hash is
    stored, a field must not be reassigned after construction.  Equality
    is structural: the same class, and the same hash where both nodes
    have one, then every field pair, walked on an explicit stack that
    skips identical children.  repr is `Class(field=value, ...)`, built
    by `formula_repr`, also without recursion."""

    __slots__ = ("_hash",)

    def __hash__(self):
        h = self._hash
        return _store_hashes(self) if h is None else h

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            kind = type(a)
            if kind is not type(b):
                return False
            x, y = a._hash, b._hash
            if x != y and x is not None and y is not None:  # no hash is computed here
                return False
            if kind in _BINARY_NODES:
                x, y = a.left, b.left
                if x is not y:
                    todo.append((x, y))
                x, y = a.right, b.right
                if x is not y:
                    todo.append((x, y))
            elif kind in _UNARY_NODES:
                x, y = a.child, b.child
                if x is not y:
                    todo.append((x, y))
            elif kind is Var or kind is LAtom:
                if a.index != b.index:
                    return False
            else:
                for name in kind.__slots__:
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


def _store_hashes(root: Node) -> int:
    """Store the hash of root and of every node below it that has none,
    children first, on an explicit stack: a node whose children all have
    their hashes is hashed, any other goes back on the stack under its
    children that have none.  A node that has its hash is not entered, so
    a shared subtree is hashed once; a node pushed by two parents before
    it is hashed is hashed twice, to the same value."""
    binary, unary = _BINARY_NODES, _UNARY_NODES
    todo = [root]
    push = todo.append
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind in binary:
            left, right = node.left, node.right
        elif kind is LabelledFormula:
            left, right = node.label, node.formula
        elif kind in unary:
            child = node.child
            a = child._hash
            if a is None:
                push(node)
                push(child)
            else:
                node._hash = hash((kind, a))
            continue
        elif kind is Var or kind is LAtom:
            node._hash = hash((kind, node.index))
            continue
        else:  # any other node: its plain fields, its nodes and tuples of nodes
            fields = [getattr(node, name) for name in kind.__slots__]
            missing = []
            for x in fields:
                if isinstance(x, Node):
                    if x._hash is None:
                        missing.append(x)
                elif type(x) is tuple and x and isinstance(x[0], Node):  # hashed as the tuple
                    missing += (c for c in x if c._hash is None)
            if missing:
                push(node)
                todo += missing
            else:
                node._hash = hash((kind, *(x._hash if isinstance(x, Node) else x for x in fields)))
            continue
        a = left._hash  # a node of two children
        b = right._hash
        if a is None or b is None:
            push(node)
            if a is None:
                push(left)
            if b is None:
                push(right)
        else:
            node._hash = hash((kind, a, b))
    return root._hash


def _nullary_init(self):
    self._hash = None


def _index_init(self, index: int):
    self.index = index
    self._hash = None


def _unary_init(self, child):
    self.child = child
    self._hash = None


def _binary_init(self, left, right):
    self.left = left
    self.right = right
    self._hash = None


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
        self._hash = None


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
        self._hash = None


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


def _spell(ops: dict):
    """A builder for `_expand_derived` over values: kind is ops[kind]."""
    return lambda kind, *values: ops[kind](*values)


def fold(nodes: list, leaf, ops):
    """The value of a formula or label from its `postorder` list, children
    first: leaf(node) for a variable or label atom, and for a core node
    of class kind its operation over its children's values, either
    ops[kind](*values), where ops is a dict of the operations by node
    class, or ops(kind, *values), where it is one function.  A derived
    connective is its core spelling over the argument values, built by
    `_expand_derived` through the same operations."""
    out: list = []
    build = None if type(ops) is dict else ops
    spell = build or _spell(ops)
    for node in nodes:
        kind = type(node)
        if kind in _BINARY_NODES:
            right = out.pop()
            out[-1] = ops[kind](out[-1], right) if build is None else build(kind, out[-1], right)
        elif kind in _UNARY_NODES:
            out[-1] = ops[kind](out[-1]) if build is None else build(kind, out[-1])
        elif kind is Var or kind is LAtom:
            out.append(leaf(node))
        elif kind is Derived:
            split = len(out) - len(node.args)
            args, out[split:] = out[split:], ()
            out.append(_expand_derived(node.tag, args, spell))
        else:
            out.append(ops[kind]() if build is None else build(kind))
    return out[0]


# ---------------------------------------------------------------------------
# Lexer

# One match per token, the whitespace before it included, tried in this
# order: a word is matched whole, so "P1x" is "P1" then "x"; a run of '(',
# ')' or '!' is one token; any other character is a token of its own; and
# the end of the text is the `eof` token "".  After trailing whitespace
# `findall` returns `eof` twice, and nothing reads the second.
_LEXEME_RE = re.compile(r"\s*(->|\|-|i!|i&|i\||o\*|[A-Za-z]+[0-9]*|\(+|\)+|!+|\S|\Z)")
_WORDS = frozenset((
    "->", "|-", "i!", "i&", "i|", "o*", "&", "|", "~", ",", ":", "=", "",
    "bot", "ibot", "top", "itop", "nb", "box", "dia", "down", "up", "F",
))
_RUN_CHARS = frozenset("()!")
_ATOM_LETTERS = frozenset("Pp")  # with digits after the letter


def _lex(text: str) -> list[str]:
    """The token texts, ending with `eof`, each text its own kind.  A text
    outside `_WORDS` must be a run or an atom, a letter with digits."""
    texts = _LEXEME_RE.findall(text)
    bad = [word for word in set(texts).difference(_WORDS) if word[0] not in _RUN_CHARS
           and not (word[0] in _ATOM_LETTERS and word[1:].isdigit())]
    if bad:
        i = min(map(texts.index, bad))
        word = texts[i]
        what = "unknown word" if word.isascii() and word[0].isalpha() else "unexpected character"
        raise ParseError(f"{what} {word!r}", _offset(text, i))
    return texts


def _offset(text: str, i: int, j: int = 0) -> int:
    """The offset of character j of token i, found by matching the tokens
    again: only an error reports an offset."""
    return next(itertools.islice(_LEXEME_RE.finditer(text), i, None)).start(1) + j


# ---------------------------------------------------------------------------
# Parser.  The grammar is read as recursive descent would read it, one token
# of lookahead, but nesting lives on an explicit stack of parenthesis levels,
# so that no input depth costs a Python frame.  One level of precedence holds
# operators of equal precedence and a chain must use a single operator,
# otherwise parentheses are required.


class _Grammar(NamedTuple):
    """One expression language, as the constructor of each of its token
    texts: its prefix operators, its constant atoms, the letter of its
    variables (an atom with digits, made by the constructor of its index
    that each read passes in), the expected set reported when no atom is
    found, its conjunction-level and disjunction-level operators, and
    '->', None where the language has no '->'.  A constructor makes a
    tree's node or a value, so one parser builds a tree or computes a
    value as the text is read."""

    prefix: dict
    atoms: dict
    letter: str
    atom_expect: tuple[str, ...]
    conj: dict
    disj: dict
    arrow: Callable | None


def _formula_grammar(core, derived) -> _Grammar:
    """The formula language, each core connective of node class kind made
    by core(kind), and each derived one by derived(tag)."""
    def make(connectives: dict) -> dict:
        return {word: derived(c) if type(c) is DerivedTag else core(c)
                for word, c in connectives.items()}

    tag = DerivedTag
    return _Grammar(
        prefix=make({"!": ExtNot, "i!": IntNot, "~": tag.STRICT_NOT,
                     **{word: tag(word) for word in ("box", "dia", "down", "up")}}),
        atoms=make({"bot": ExtBot, "ibot": IntBot,
                    **{word: tag(word) for word in ("top", "itop", "nb")}}),
        letter="P",
        atom_expect=("bot", "ibot", "top", "itop", "nb", "P<digits>", "'('"),
        conj=make({"&": ExtAnd, "i&": IntAnd}),
        disj=make({"|": ExtOr, "i|": IntOr, "o*": tag.CIRCLE_STAR}),
        arrow=derived(tag.IMPLIES),
    )


_FORMULA = _formula_grammar(lambda kind: kind, lambda tag: lambda *args: Derived(tag, args))
_LABEL = _Grammar(
    prefix={"!": LNot}, atoms={"F": LBot}, letter="p", atom_expect=("F", "p<digits>", "'('"),
    conj={"&": LAnd}, disj={"|": LOr}, arrow=None,
)


def value_grammar(ops: dict) -> _Grammar:
    """The formula language over values: each core connective of class
    kind is the operation ops[kind], and each derived one its core
    spelling through them, built by `_expand_derived`, as `fold`
    computes it.  Read by `fold_formula`."""
    spell = _spell(ops)
    return _formula_grammar(
        ops.__getitem__, lambda tag: lambda *args: _expand_derived(tag, args, spell))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.texts = _lex(text)
        self.i = 0
        self.j = 0  # the characters of token i read, inside a run of ')'

    def error(self, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        """A ParseError at the current token, or at the current character
        of a run."""
        return ParseError(message, _offset(self.text, self.i, self.j), expected)

    def current(self) -> str:
        """The text of the current token, one character of a run."""
        word = self.texts[self.i]
        return word[:1] if word[:1] in _RUN_CHARS else word

    def unexpected(self, expected: tuple[str, ...]) -> ParseError:
        if self.texts[self.i] == "":
            return self.error("unexpected end of input", expected)
        return self.error(f"got {self.current()!r}", expected)

    def peek(self) -> str:
        return self.texts[self.i]

    def formula(self) -> Formula:
        """formula := disj ['->' formula]; disj := conj (op conj)*;
        conj := unary (op unary)*; unary := prefix* (atom | '(' formula ')')."""
        return self._nested(_FORMULA, Var)

    def label(self) -> Label:
        """label := conj ('|' conj)*; conj := unary ('&' unary)*;
        unary := '!'* (atom | '(' label ')')."""
        return self._nested(_LABEL, LAtom)

    def _nested(self, grammar: _Grammar, var):
        """Read unary operands, each completing the open chains of its
        level: its pending prefix operators, then the open conjunction,
        disjunction and '->' chains as far as the next token closes them.
        A '(' saves the level's state on the stack and opens a new one;
        once a level's value is complete, it takes its ')' and is an
        operand of the level below.  The outermost level's value is the
        result.  Every value is made by a constructor of the grammar, and
        a variable's by var(index).  A run of '!' adds its operator once
        per character; a run of '(' saves at most one state, and the
        levels after it, which have nothing open, as one count that a run
        of ')' closes in one step.  The value of each distinct atom text is
        made once and shared."""
        texts, i, j = self.texts, self.i, 0
        prefix, atoms, conj, disj = grammar.prefix, grammar.atoms, grammar.conj, grammar.disj
        letter, implies = grammar.letter, grammar.arrow
        arrow = "->" if implies else None
        stack: list = []
        leaves: dict = {}
        prefixes: list = []
        arrows: list = []
        conj_left = conj_op = disj_left = disj_op = None
        while True:
            word = texts[i]
            op = prefix.get(word)
            if op is not None:
                prefixes.append(op)
                i += 1
                continue
            first = word[:1]
            if first == "!":
                prefixes += [prefix[first]] * len(word)
                i += 1
                continue
            if first == "(":
                depth = len(word)
                if prefixes or arrows or conj_op or disj_op:
                    stack.append((prefixes, arrows, conj_left, conj_op, disj_left, disj_op))
                    prefixes, arrows, conj_op, disj_op = [], [], None, None
                    depth -= 1
                if depth:  # levels with nothing open: one count
                    stack.append(depth)
                i += 1
                continue
            value = leaves.get(word)
            if value is None:
                make = atoms.get(word)
                if make is None and first != letter:  # the lexer puts digits after a letter
                    self.i, self.j = i, j
                    raise self.unexpected(grammar.atom_expect)
                try:
                    value = leaves[word] = make() if make else var(int(word[1:]))
                except ValueError:  # an index with more digits than int() reads
                    self.i, self.j, digits = i, j, len(word) - 1
                    raise self.error(f"index of {first}<{digits} digits> is too large") from None
            i += 1
            while True:  # close the operand in its level, and each level it completes
                if prefixes:
                    for op in reversed(prefixes):
                        value = op(value)
                    prefixes.clear()
                word = texts[i]
                if conj_op is not None:
                    value = conj[conj_op](conj_left, value)
                    if word != conj_op and word in conj:
                        self.i, self.j = i, j
                        raise self._mixing("conjunction", conj_op)
                if word in conj:
                    conj_left, conj_op = value, word
                    break
                conj_op = None
                if disj_op is not None:
                    value = disj[disj_op](disj_left, value)
                    if word != disj_op and word in disj:
                        self.i, self.j = i, j
                        raise self._mixing("disjunction", disj_op)
                if word in disj:
                    disj_left, disj_op = value, word
                    break
                disj_op = None
                if word == arrow:  # right-associative: fold at the end
                    arrows.append(value)
                    break
                while arrows:
                    value = implies(arrows.pop(), value)
                if not stack:
                    self.i, self.j = i, j
                    return value
                if word[:1] != ")":
                    self.i, self.j = i, j
                    raise self.unexpected(("')'",))
                saved = stack.pop()
                if type(saved) is tuple:
                    prefixes, arrows, conj_left, conj_op, disj_left, disj_op = saved
                    saved = 1
                j += saved  # one character of the run closes each level
                if j >= len(word):  # past the run: the levels it did not reach stay
                    if j > len(word):
                        stack.append(j - len(word))
                    i += 1
                    j = 0
            i += 1  # past the operator that asks for the next operand

    def _mixing(self, level_name: str, chain_op: str) -> ParseError:
        """The error at an operator that mixes with `chain_op`, the open
        chain's operator, which it expects."""
        return self.error(
            f"mixing {self.texts[self.i]!r} with a different {level_name}-level operator "
            "requires parentheses",
            (chain_op,),
        )

    # -- labelled formulas and queries

    def labelled(self) -> LabelledFormula:
        label = self.label()
        word = self.peek()
        if word == ":":
            self.i += 1
            return LabelledFormula(label, self.formula())
        if word == "=":
            self.i += 1
            return equality(label, self.label())
        raise self.unexpected(("':'", "'='"))

    def query(self, read) -> tuple[tuple, Node]:
        """query := [item (',' item)*] '|-' item, each item read by
        read(self): the premises and the conclusion."""
        premises = []
        if self.peek() != "|-":
            premises.append(read(self))
            while self.peek() == ",":
                self.i += 1
                premises.append(read(self))
        if self.peek() != "|-":
            raise self.unexpected(("'|-'",))
        self.i += 1
        return tuple(premises), read(self)


def _parse(text: str, read):
    """read(parser) over the whole text, which it must use up."""
    p = _Parser(text)
    value = read(p)
    if p.peek() != "":
        raise p.error(f"trailing input {p.current()!r}", ("end of input",))
    return value


def parse_formula(text: str) -> Formula:
    return _parse(text, _Parser.formula)


def fold_formula(text: str, grammar: _Grammar, var):
    """The value of the formula `text` in a `value_grammar`, each variable's
    made by var(index): computed as the text is read, with no tree
    built, and with the errors that `parse_formula` raises on the text."""
    return _parse(text, lambda p: p._nested(grammar, var))


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
