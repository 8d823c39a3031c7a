"""Entailment checking over finite algebras and countermodel search.

Entailment at a fixed algebra size quantifies over every assignment of
denotations to the free variables; a countermodel is an assignment plus
a witness element lying in the intersection of the premise denotations
but not in the conclusion's.

A query is compiled once, for every algebra size, into a `Program`: one
children-first instruction list in which each shared subterm is stored
once (hash-consing).  Each formula and label is walked once, a
`syntax.fold` into `Program.node`, and each derived connective compiles
as `expand` spells it, with no expanded tree built.  `!bot` folds to the full-carrier constant, and an
internal meet or join with it compiles to a closure opcode, since
int_and(x, full) = down_closure(x) and int_or(x, full) = up_closure(x).
Each instruction is tagged with the position of the last variable or
label atom it reads; constants get level -1 and are computed once per
algebra.  The instructions are grouped by level once per query
(`Program.plan`).  The kernel `_scan` enumerates the positions like an
odometer in canonical order (variables ascending, then label atoms, the
first most significant, values ascending) and, when digit p changes,
re-runs only the instructions of level >= p.  Premises are intersected
in order as soon as their level is reached, and an empty intersection
skips the rest of its level and every deeper digit, so the conclusion's
instructions run only while the premises known so far intersect.
`Program.run` computes every slot at one fixed assignment instead, with
the scan's kernels: the PT+ sweep of `verify_f_representation` runs the
enumerated formulas that way, compiled as one program.

The last digit, when it ranges over all denotations or those of at most
d elements (see Degree), runs as one column at every n: once per setting
of the earlier digits, each of its instructions computes one Python
integer holding a lane of max(8, 2^n) bits per value of the digit, 8 up
to n = 3 and 16 at n = 4, the values ascending.  An external connective
is one integer operation on it, a value of an earlier level broadcast to
every lane by a multiplication.  Every internal connective is a
pointwise image, so int_not, the closures, _ANY, and int_and or int_or
with one operand fixed distribute over union: f(x | y) = f(x) | f(y).
Such an f is known from its images of the bytes of a lane, and runs on
every lane at once through bytes.translate with 256-byte tables, one up
to n = 3 and four at n = 4 (Lamport, CACM 1975); below n = 3 a table is
padded with zeros past the 2^(2^n) denotations, which no lane exceeds.
op(x, y) is the union over the elements a of x of op({a}, y): for two
columns, int_and and int_or join, per a, the translation of y kept to
the lanes whose x holds a; for a value x, they read row x of a pair
table up to n = 3, and at n = 4 the tables of op({a}, y) joined over x.
A principal-ideal or label-atom last digit, at most 16 values, steps
through its values one at a time (see `_scan`).
A guard is empty when its integer is 0; a lane it empties is empty in
`bad`, which meets every guard, so the lowest set bit of `bad` is the
least violation: its lane gives the value and its offset the witness.

Up to n = 3 the other levels read int_not and the closures from the
same tables, and int_and and int_or from two pair tables built from
them, indexed by x << 8 | y; at n = 4 the algebra's kernels run there.
A scan binds the kernel of an opcode when an instruction first needs
it, so each table is built on first use, once per process and size.
The tables hold bytes only.  The scan runs in the calling process, and
the countermodel it reports is the least one, replayed through the
tree-walking evaluator first.
Searching all finite sizes is sound for refutation but cannot certify
full entailment: some non-validities need an infinite (non-complete)
algebra.

Symmetry.  A permutation of the n atoms is an automorphism of 2^n, and
it lifts to denotations; every connective, internal or external,
commutes with it, and it fixes the constants (the empty set, {bottom},
the full carrier).  It also maps each kind of domain onto itself: all
denotations, those of at most d elements, principal ideals, and the
singletons that label atoms take.
So the permutation of a countermodel, witness included, is again one,
and countermodels come in orbits.  The scan visits only lex-leaders,
the assignments least in canonical order within their orbit (Crawford,
Ginsberg, Luks and Roy, KR 1996): digit p takes only the values least in
their orbit under G_p, where G_0 is all n! permutations and G_{p+1} the
members of G_p that fix the value of digit p.  If the least
countermodel broke this at digit p, a member of G_p would give one
equal to it before p and smaller at p.  So it is visited, and as the
visited assignments keep their order it is the first hit; the witness
is then computed from it as before.  One variable at n = 4 takes 3,984
values instead of 65,536.  Every permutation fixes the bottom and the
top element, so the minima over all denotations are found by marking
orbits over the 2^(2^n - 2) denotations without those two bits: a
quarter of them.  The minima of a group, and the stabiliser of a value
in a group, are computed once per process.

Degree.  The violation set V, the premises' meet minus the conclusion,
is the meet of its factors: & splits on the positive side, | on the
negative one, and a complement flips the side.  A factor in which each
occurrence of variable P is under an odd number of complements is
antitone in P.  Any other needs a degree in P: P has degree 1 and a part
without P 0; i!, the closures and _ANY keep it; i&, i| and & add their
operands'; | takes the larger; a complement over a part that holds P
has none.  Every internal connective is a pointwise image, so a
factor F of degree d is monotone in P and each element of F(X) lies in
F(Y) for some Y within X of at most d elements.  Let D be the sum of the
degrees.  For a witness e of V(X), the union Y of those sets has at most
D elements and keeps e in each factor: with a degree, as it is
monotone; antitone, as Y lies within X.  A Y other than X is smaller as
an integer, so the least countermodel gives every P at most D elements
at once, and keeps its witness.  So a variable with D below 2^n ranges
over the denotations of at most D elements (kind `deg<D>`); principal
ideals and label atoms are unchanged.  The cap counts every homomorphism
of the full domains, so budget verdicts depend on neither reduction.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import sys
from array import array
from typing import Iterable, Mapping, Sequence

from .algebra import Algebra, algebra, iter_bits, same_fields
from .errors import BudgetExceededError, EvalError, ReplayError
from .semantics import Homomorphism, LabelValuation, evaluate, satisfies
from .syntax import (
    Derived,
    DerivedTag,
    ExtAnd,
    ExtBot,
    ExtNot,
    ExtOr,
    Formula,
    IntAnd,
    IntBot,
    IntOr,
    LabelledFormula,
    LAnd,
    LAtom,
    LBot,
    LOr,
    Var,
    fold,
    postorder,
)

DEFAULT_MAX_N = 3
DEFAULT_CAP = 1 << 22
MAX_N = 4

NOTE_FINITE_SCOPE = (
    "exhaustion of all algebras up to max_n does not certify entailment: "
    "some non-entailments are refutable only on an infinite (non-complete) "
    "Boolean algebra"
)


class Countermodel:
    """A replayable violation: the homomorphism, a witness element in the
    premise intersection but outside the conclusion, and, for labelled
    queries, the label valuation."""

    __slots__ = ("hom", "witness", "labels")

    def __init__(self, hom: Homomorphism, witness: int, labels: LabelValuation | None = None):
        self.hom = hom
        self.witness = witness
        self.labels = labels

    __eq__ = same_fields

    @property
    def algebra(self) -> Algebra:
        return self.hom.algebra

    def to_json_obj(self) -> dict:
        alg = self.algebra
        obj: dict = {
            "n": alg.n,
            "assignment": {
                f"P{v}": d.to_strings() for v, d in sorted(self.hom.assignment.items())
            },
            "witness": alg.format_element(self.witness),
        }
        if self.labels is not None:
            obj["label_assignment"] = {
                f"p{i}": alg.format_element(e)
                for i, e in sorted(self.labels.assignment.items())
            }
        return obj


class SearchReport:
    """Outcome of an iterative-deepening countermodel search: its status
    ("countermodel" | "exhausted" | "budget_exceeded"), the largest size
    fully scanned, the countermodel found and a note for the verdict."""

    __slots__ = ("status", "completed_n", "countermodel", "note")

    def __init__(self, status: str, completed_n: int,
                 countermodel: Countermodel | None = None, note: str | None = None):
        self.status = status
        self.completed_n = completed_n
        self.countermodel = countermodel
        self.note = note

    __eq__ = same_fields


def local_entails(hom: Homomorphism, premises: Iterable[Formula], conclusion: Formula) -> bool:
    """Intersection of the premise denotations contained in the conclusion's.
    An empty premise set intersects to the full carrier."""
    return local_counterexample(hom, premises, conclusion) is None


def local_counterexample(
    hom: Homomorphism, premises: Iterable[Formula], conclusion: Formula
) -> int | None:
    """Least witness element violating the local entailment, or None."""
    alg = hom.algebra
    inter = alg.full
    for p in premises:
        inter &= evaluate(hom, p).bits
        if inter == 0:
            return None
    bad = inter & ~evaluate(hom, conclusion).bits
    if bad == 0:
        return None
    return next(iter_bits(bad))


# -- the compiled program

# Opcodes.  An instruction (opcode, a, b) computes the value of its slot
# from the values of slots a and b; a unary operation repeats its operand.
# _ANY is the full carrier if its operand is non-empty, and empty
# otherwise.  _DOWN and _UP are the order closures, which is what x i& top
# and x i| top compute.  A label atom takes the singleton of its element
# as value, so labels compile to internal connectives.
_OR, _AND, _XOR, _IOR, _IAND, _INOT, _ANY, _DOWN, _UP = range(9)
_ZERO, _IBOT, _FULL = range(3)  # constants, in the slots after the positions
_COMMUTATIVE = frozenset((_OR, _AND, _XOR, _IOR, _IAND))
_EXTERNAL = (operator.or_, operator.and_, operator.xor)  # _OR, _AND, _XOR
_CLOSURES = {_IAND: _DOWN, _IOR: _UP}  # int_and(x, full), int_or(x, full)
# Up to this algebra size a scan reads the closures and int_not from
# tables over the whole domain of 2^(2^n) denotations, 256 entries at
# n = 3, and int_and and int_or from tables over every pair, 65,536
# entries at n = 3, each built on first use and kept for the process.
# At n = 4 a closure table holds 65,536 entries and a pair table 2^32, so
# shifts run outside the column, which reads a byte of a lane at a time.
_TABLE_MAX_N = 3
# The stabilisers kept per size, at most: one n = 4 variable reaches
# 3,984 (group, value) pairs, and every group and value of n <= 3 1,040.
_STABILISERS_MAX = 1 << 14
_BINARY = {ExtOr: _OR, ExtAnd: _AND, IntOr: _IOR, IntAnd: _IAND, LOr: _IOR, LAnd: _IAND}
_LEAVES = {ExtBot: _ZERO, LBot: _IBOT, IntBot: _IBOT}


class Program:
    """A query compiled, once for every algebra size, to straight-line code.

    Slot p < k holds position p, the next three slots the constants, and
    slot `base + i` instruction i; equal instructions share one slot
    (hash-consing).  `levels[slot]` is the last position the slot reads,
    -1 for none.  A guard slot holds the intersection of a prefix of the
    premises, and `bad` the premise intersection minus the conclusion."""

    def __init__(self, trees: Iterable[list], labelled: bool):
        leaves = {(type(f), f.index) for nodes in trees for f in nodes if type(f) in (Var, LAtom)}
        self.variables = tuple(sorted(i for kind, i in leaves if kind is Var))
        self.atoms = tuple(sorted(i for kind, i in leaves if kind is LAtom))
        self.labelled = labelled
        self.positions = {
            **{(Var, v): i for i, v in enumerate(self.variables)},
            **{(LAtom, a): i for i, a in enumerate(self.atoms, len(self.variables))},
        }
        self.constants = len(self.positions)
        self.base = self.constants + 3
        self.levels: list[int] = [*range(len(self.positions)), -1, -1, -1]
        self.code: list[tuple[int, int, int]] = []
        self.slots: dict[tuple[int, int, int], int] = {}
        self.guards: set[int] = set()
        self.inter: int | None = None  # the intersection of the premises so far
        self.bad = -1

    def emit(self, op: int, a: int, b: int) -> int:
        if op in _COMMUTATIVE and a > b:
            a, b = b, a
        slot = self.slots.get((op, a, b))
        if slot is None:
            slot = self.slots[op, a, b] = self.base + len(self.code)
            self.code.append((op, a, b))
            self.levels.append(max(self.levels[a], self.levels[b]))
        return slot

    def node(self, kind, *children: int) -> int:
        """The slot of a core formula or label node of class `kind` over
        its children's slots, the one place a class becomes an opcode:
        `!bot` folds to the full-carrier constant, and an internal meet or
        join with it to a closure.  A variable or label atom is a position."""
        zero, full = self.constants + _ZERO, self.constants + _FULL
        if kind in _BINARY:
            op, (left, right) = _BINARY[kind], children
            if op in _CLOSURES and full in children:
                x = right if left == full else left
                return self.emit(_CLOSURES[op], x, x)
            return self.emit(op, left, right)
        if kind in _LEAVES:
            return self.constants + _LEAVES[kind]
        (child,) = children
        if kind is ExtNot:
            return full if child == zero else self.emit(_XOR, full, child)
        return self.emit(_INOT, child, child)  # IntNot, LNot

    def term(self, nodes: list) -> int:
        """The slot of a formula or a label from its `postorder` list: one
        `fold` into the program, derived connectives as `expand` spells them."""
        return fold(nodes, lambda leaf: self.positions[type(leaf), leaf.index], self.node)

    def run(self, alg: Algebra, env: Mapping[int, int]) -> list[int]:
        """The value of every slot of a program without label atoms at one
        assignment of its variables, each instruction through the scalar
        kernel that a scan binds for it."""
        try:
            vals = [env[v] for v in self.variables]
        except KeyError as exc:
            raise EvalError(f"unbound variable P{exc.args[0]}") from None
        vals += 0, alg.int_bot(), alg.full
        kernel = _binder(functools.partial(_kernel, alg))
        for op, a, b in self.code:
            vals.append(kernel(op)(vals[a], vals[b]))
        return vals

    def premise(self, slot: int) -> None:
        """Intersect a premise into the guard chain; compile premises in
        order and the conclusion after them, so their instructions run
        in that order at each level.  Only an instruction's slot is tested
        as a guard, so a position or a constant is met with itself."""
        if self.inter is None:
            self.inter = slot if slot >= self.base else self.emit(_AND, slot, slot)
        else:
            self.inter = self.emit(_AND, self.inter, slot)
        self.guards.add(self.inter)

    def conclude(self, slot: int) -> "Program":
        self.bad = self.emit(_XOR, self.constants + _FULL, slot)
        if self.inter is not None:
            self.bad = self.emit(_AND, self.inter, self.bad)
        return self

    @functools.cached_property
    def degrees(self) -> tuple[int | None, ...]:
        """Per variable, the most elements the least countermodel gives it,
        or None for no bound, once per query (see "Degree" in the module
        docstring).  One pass keeps three masks of positions per slot, in
        one integer: those it reads under an even number of complements,
        under an odd number, and under a complement.  A variable
        that a factor reads with a degree, and none without, then takes a
        pass of its own for the degrees."""
        code, base, k = self.code, self.base, self.constants
        full, even = k + _FULL, (1 << k) - 1
        masks = [1 << p for p in range(k)] + [0, 0, 0]
        append = masks.append
        for op, a, b in code:
            if op == _XOR:  # a complement
                v = masks[b if a == full else a]
                held = (v | v >> k) & even
                append(v >> k & even | (v & even) << k | held << 2 * k)
            else:
                append(masks[a] | masks[b])
        # the factors of `bad` by side, negative then positive: & splits on
        # the positive side, | on the negative, and a complement flips it
        sides, stack = (set(), set()), [(self.bad, True)]
        while stack:
            slot, positive = stack.pop()
            if slot >= base:
                op, a, b = code[slot - base]
                if op == _XOR:
                    stack.append((b if a == full else a, not positive))
                    continue
                if op == (_AND if positive else _OR):
                    stack += (a, positive), (b, positive)
                    continue
            sides[positive].add(slot)
        negative, positive = sides
        bounded = unbounded = 0
        for slot in positive:
            bounded |= masks[slot]
            unbounded |= masks[slot] & masks[slot] >> 2 * k
        for slot in negative:  # a complement over what the slot reads
            unbounded |= masks[slot] >> k
        out: list[int | None] = []
        for p in range(len(self.variables)):
            if unbounded >> p & 1 or not bounded >> p & 1:
                out.append(None if unbounded >> p & 1 else 0)
                continue
            degree = [0] * base  # no complement reads p in a summed factor
            degree[p] = 1
            for op, a, b in code:
                x, y = degree[a], degree[b]
                degree.append(max(x, y) if op == _OR else 0 if op == _XOR else
                              x + y if op < _INOT else x)
            out.append(sum(degree[s] for s in positive if masks[s] >> p & 1))
        return tuple(out)

    @functools.cached_property
    def plan(self) -> list[list[tuple[list, int | None]]]:
        """The instructions grouped by level for the kernel, once per query:
        `plan[level + 1]` lists the level's segments (block, guard), the
        instructions (op, slot, a, b) that run before the guard slot is
        tested, the last segment with guard None.  In a binary instruction
        of the last level, an operand of an earlier level, if any, is a,
        so that a column kernel finds the single value first."""
        levels, last = self.levels, self.constants - 1
        plan: list[list] = [[([], None)] for _ in range(self.constants + 1)]
        for slot, (op, a, b) in enumerate(self.code, self.base):
            level = levels[slot]
            if level == last and levels[a] == last != levels[b]:
                a, b = b, a  # every binary opcode is commutative
            segments = plan[level + 1]
            segments[-1][0].append((op, slot, a, b))
            if slot in self.guards:
                segments[-1] = (segments[-1][0], slot)
                segments.append(([], None))
        return plan


def _compile_entailment(premises, conclusion, filters=()) -> Program:
    """Compile premises |- conclusion.  A filter acts as a premise that
    admits a homomorphism only where it denotes the full carrier: the
    complement of _ANY of its complement."""
    trees = [postorder(f) for f in (*filters, *premises, conclusion)]
    c = Program(trees, labelled=False)
    for i, nodes in enumerate(trees[:-1]):
        slot = c.term(nodes)
        if i < len(filters):
            gap = c.node(ExtNot, slot)
            slot = c.node(ExtNot, c.emit(_ANY, gap, gap))
        c.premise(slot)
    return c.conclude(c.term(trees[-1]))


def _compile_labelled(gamma, conclusion) -> Program:
    """Compile a labelled entailment: a premise a : phi holds where a's
    element lies in phi's denotation, and the conclusion b : psi fails at
    b's element when that lies outside psi's denotation."""
    query = [(postorder(lf.label), postorder(lf.formula)) for lf in (*gamma, conclusion)]
    c = Program(itertools.chain.from_iterable(query), labelled=True)
    *premises, (b, psi) = query
    for a, f in premises:
        meet = c.emit(_AND, c.term(f), c.term(a))
        c.premise(c.emit(_ANY, meet, meet))
    c.premise(c.term(b))
    return c.conclude(c.term(psi))


# -- symmetry: the atom permutations


class _Symmetry:
    """The n! permutations of the atoms of 2^n, acting on denotations.

    Permutation 0 is the identity, and a group is the ascending tuple of
    its members' indices.  `tables[i]` maps a denotation to its image
    under permutation i a byte at a time: the low byte through the first
    list, the high byte (at n = 4) through the second.  Lists, not
    arrays: indexing a list returns its stored int, where an array boxes
    a new one each time."""

    def __init__(self, n: int):
        self.denotations = 1 << (1 << n)
        self.top = self.denotations >> 1  # the bit of the top element
        self.moved = self.denotations - 1 ^ 1 ^ self.top  # the other elements' bits
        self.group = tuple(range(math.factorial(n)))
        self.tables: list[tuple[list[int], ...]] = []
        for perm in itertools.permutations(range(n)):
            moves = [0]  # the image of each element, built by doubling over the atoms
            for atom in perm:
                moves += [m | 1 << atom for m in moves]
            tables = []
            for chunk in (moves[:8], moves[8:]):
                table = [0]
                for m in chunk:
                    table += [t | 1 << m for t in table]
                tables.append(table)
            self.tables.append(tuple(tables))
        self._minima: dict[tuple[str, tuple[int, ...]], list[int]] = {}
        self._stabilisers: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}
        # per kind and group, a column digit's lanes and packed minima (_Column)
        self.columns: dict[tuple[str, tuple[int, ...]], tuple[_Lanes, int]] = {}

    def stabiliser(self, group: tuple[int, ...], value: int) -> tuple[int, ...]:
        """The members of the group that fix the value, computed once per
        group and value for the process; the memo is emptied when full.
        Every member fixes the bottom and the top element, so the memo
        keys the value without them."""
        if len(group) == 1:
            return group
        key = group, value & self.moved
        found = self._stabilisers.get(key)
        if found is None:
            if len(self._stabilisers) >= _STABILISERS_MAX:
                self._stabilisers.clear()
            tables = self.tables
            found = self._stabilisers[key] = tuple(
                i for i in group if tables[i][0][value & 255] | tables[i][1][value >> 8] == value
            )
        return found

    def minima(self, kind: str, domain: Sequence[int], group: tuple[int, ...]) -> Sequence[int]:
        """The values of the domain that are least in their orbit under the
        group, ascending; the domain itself when the group is trivial.
        Over all denotations, only those without the bottom and the top
        element are marked, and each minimum m among them gives m, m | 1,
        and the two with the top bit (see the module docstring)."""
        if len(group) == 1:
            return domain
        found = self._minima.get((kind, group))
        if found is None:
            moved = kind == "all"
            found, seen = [], bytearray(self.top if moved else self.denotations)
            tables = [self.tables[i] for i in group]
            # ascending, so the first of an orbit is its least
            for value in range(0, self.top, 2) if moved else domain:
                if not seen[value]:
                    found.append(value)
                    low, high = value & 255, value >> 8
                    for lows, highs in tables:
                        seen[lows[low] | highs[high]] = 1
            if moved:  # ascending still: the top bit is the highest
                found = [v for m in found for v in (m, m | 1)]
                found += [v | self.top for v in found]
            self._minima[kind, group] = found
        return found


@functools.cache
def _symmetry(n: int) -> _Symmetry:
    """Built on first use of each algebra size, then kept for the process."""
    return _Symmetry(n)


# -- the scan kernel and the deepening driver


def _domains(
    program: Program, alg: Algebra, class_restriction: str
) -> list[tuple[str, Sequence[int]]]:
    """The kind and the values of each position, ascending: `deg<d>`, the
    denotations of at most d elements, for a degree d below 2^n."""
    if class_restriction == "principal_variables":
        variable: Sequence[int] = sorted(alg.principal_ideal(a) for a in alg.elements())
        variables = [(class_restriction, variable)] * len(program.variables)
    elif class_restriction == "all":
        variables = [("all", range(alg.full + 1)) if d is None or d >= alg.size
                     else (f"deg{d}", _small_sets(alg.n, d)) for d in program.degrees]
    else:
        raise ValueError(f"unknown class restriction {class_restriction!r}")
    return variables + [("atoms", [1 << e for e in alg.elements()])] * len(program.atoms)


@functools.cache
def _small_sets(n: int, d: int) -> list[int]:
    """The denotations of at most d elements at size n, ascending."""
    singletons = [1 << e for e in range(1 << n)]
    return sorted(sum(c) for i in range(d + 1) for c in itertools.combinations(singletons, i))


def _binder(bind):
    """bind(*key), computed on the first call with each key and then kept."""
    bound: dict = {}
    return lambda *key: bound[key] if key in bound else bound.setdefault(key, bind(*key))


def _kernel(alg: Algebra, op: int):
    """The function f(x, y) that computes one value of the opcode; a unary
    one ignores y.  Up to n = 3, f reads int_not and the closures from
    their _column_tables, and int_and and int_or from _pair_tables."""
    if op <= _XOR:
        return _EXTERNAL[op]
    n, full = alg.n, alg.full
    if op == _ANY:
        return lambda x, _: full if x else 0
    if op == _IAND or op == _IOR:
        if n <= _TABLE_MAX_N:
            table = _pair_tables(n)[op == _IOR]
            return lambda x, y: table[x << 8 | y]
        return alg.int_or if op == _IOR else alg.int_and
    if n <= _TABLE_MAX_N:
        table = _column_tables(n, op)[0]
        return lambda x, _: table[x]
    f = alg.int_not if op == _INOT else alg.down_closure if op == _DOWN else alg.up_closure
    return lambda x, _: f(x)


# -- the column: the last digit's values as the lanes of one integer

_TYPECODES = {8: "B", 16: "H"}  # an array of lanes, per lane width


class _Lanes:
    """A column of `count` lanes, each holding a denotation of `size` =
    2^n bits in w = max(8, size) bits, lane i at bits w*i up: its byte
    length, and the constants its instructions broadcast and mask with.
    `full` is the full carrier in every lane, so a complement keeps each
    lane below 2^size.  Packing goes through little-endian bytes, so lane
    i is x >> w*i & (2^w - 1) on any host."""

    def __init__(self, count: int, size: int):
        self.w = w = max(8, size)
        self.length = count * w >> 3
        self.ones = ((1 << count * w) - 1) // ((1 << w) - 1)  # 1 in every lane
        self.full = self.ones * ((1 << size) - 1)
        self.low = self.ones * 255  # the low byte of every lane
        self.high = self.low << 8

    def pack(self, values: Iterable[int]) -> int:
        lanes = array(_TYPECODES[self.w], values)
        if sys.byteorder == "big":
            lanes.byteswap()
        return int.from_bytes(lanes, "little")

    def translate(self, x: int | bytes, tables: tuple[bytes, ...]) -> int:
        """f of every lane, for f read from its tables (see _lane_tables),
        of the column x or of its little-endian bytes."""
        data = x if type(x) is bytes else x.to_bytes(self.length, "little")
        if self.w == 8:
            return int.from_bytes(data.translate(tables[0]), "little")
        ll, lh, hl, hh = (int.from_bytes(data.translate(t), "little") for t in tables)
        low, high = self.low, self.high
        return ll & low | hh & high | (lh & low) << 8 | (hl & high) >> 8


def _lane_tables(f, w: int) -> tuple[bytes, ...]:
    """A function f on w-bit denotations with f(x | y) = f(x) | f(y), so
    f(0) = 0, as tables for bytes.translate: per byte k of the input, low
    first, and per byte j of the output, the table whose entry b is byte j
    of f(b << 8k).  f of a lane is the join of these.  Below w = 8 there
    is one table, of 2^w entries padded with zeros to the 256 that
    bytes.translate needs: a lane holds no value of 2^w or more."""
    tables = []
    for shift in range(0, w, 8):
        images = [0]
        for bit in range(shift, min(shift + 8, w)):
            image = f(1 << bit)
            images += [i | image for i in images]
        tables += [
            bytes(i >> out & 255 for i in images).ljust(256, b"\0") for out in range(0, w, 8)
        ]
    return tuple(tables)


@functools.cache
def _column_tables(n: int, op: int) -> tuple:
    """The lane tables of an opcode, built on first use: of its function,
    for a unary opcode, and for an internal binary one of y -> op({a}, y)
    for each element a, the one place where op({a}, y) is computed.  Each
    is a pointwise image, or for _ANY empty exactly on the empty set, so
    it distributes over union.  Up to n = 3 the first table of each maps
    a denotation to its image, and has 256 entries."""
    alg = algebra(n)
    if op in (_IAND, _IOR):
        f = alg.int_and if op == _IAND else alg.int_or
        return tuple(_lane_tables(functools.partial(f, 1 << a), alg.size) for a in alg.elements())
    ops = {_INOT: alg.int_not, _DOWN: alg.down_closure, _UP: alg.up_closure,
           _ANY: lambda x: alg.full if x else 0}
    return _lane_tables(ops[op], alg.size)


@functools.cache
def _pair_tables(n: int) -> tuple[bytes, bytes]:
    """int_and and int_or of every pair of denotations at n <= 3, as bytes
    indexed by x << 8 | y: each row has 256 entries, padded with zeros
    below n = 3, so that it is a table for bytes.translate.  Row x is row
    x ^ low, for the least member low of x, joined bytewise with the row
    of {low} from _column_tables: op(x, y) is op(x ^ low, y) |
    op({low}, y).  A row is kept as one integer whose byte y is op(x, y),
    so that one | joins two rows."""
    count = 1 << (1 << n)
    tables = []
    for op in (_IAND, _IOR):
        singles = [int.from_bytes(single[0], "little") for single in _column_tables(n, op)]
        rows = [0]
        for x in range(1, count):
            low = x & -x
            rows.append(rows[x ^ low] | singles[low.bit_length() - 1])
        tables.append(b"".join(row.to_bytes(256, "little") for row in rows))
    return tables[0], tables[1]


def _joined_tables(singles: tuple, x: int) -> tuple[bytes, ...]:
    """The lane tables of y -> op(x, y), from those of y -> op({a}, y):
    op(x, y) is their union over the elements a of x, table by table."""
    joined = [0] * len(singles[0])
    for a in iter_bits(x):
        for i, table in enumerate(singles[a]):
            joined[i] |= int.from_bytes(table, "little")
    return tuple(j.to_bytes(256, "little") for j in joined)


def _column_kernel(alg: Algebra, op: int, pair: bool):
    """The function f(a, b, lanes) that runs the opcode on a column: on
    one column, for a unary opcode; on two, for a pair; else on a value
    and a column.  An external opcode is one integer operation, with the
    value broadcast to every lane.  A unary opcode, or int_and or int_or
    of a value x and a column, translates the lanes through the tables of
    a function that distributes over union: for x, row x of the pair
    table up to n = 3, at n = 4 the joined tables.  int_and and int_or of
    two columns join, per element a, op({a}, y) in the lanes whose x
    holds a."""
    if op <= _XOR:
        f = _EXTERNAL[op]
        if pair:
            return lambda x, y, _: f(x, y)
        return lambda x, y, lanes: f(x * lanes.ones, y)
    if op >= _INOT:
        tables = _column_tables(alg.n, op)
        return lambda x, _, lanes: lanes.translate(x, tables)
    if alg.n <= _TABLE_MAX_N and not pair:
        table = _pair_tables(alg.n)[op == _IOR]
        return lambda x, y, lanes: lanes.translate(y, (table[x << 8 : x + 1 << 8],))
    singles = _column_tables(alg.n, op)
    if not pair:
        row = _binder(functools.partial(_joined_tables, singles))
        return lambda x, y, lanes: lanes.translate(y, row(x))
    lane = alg.full  # of one lane

    def columns(x, y, lanes):
        out, data = 0, y.to_bytes(lanes.length, "little")
        for a, tables in enumerate(singles):
            holds = x >> a & lanes.ones  # 1 in the lanes whose x holds a
            if holds:
                out |= lanes.translate(data, tables) & holds * lane
        return out

    return columns


class _Column:
    """The last digit's level, run once for all the digit's values: each
    slot of the level holds one integer with a lane of max(8, 2^n) bits
    per value, ascending (see _Lanes), and each instruction is a few
    C-level operations on it.  A column digit's values are the minima of
    its kind of domain under its group: they are packed once per process,
    kind and group, and kept in the algebra size's _Symmetry."""

    def __init__(self, alg: Algebra, segments, levels: list[int], p: int):
        self.size = alg.size
        kernel = _binder(functools.partial(_column_kernel, alg))
        self.segments = [
            ([(kernel(op, levels[a] == p), dst, a, b) for op, dst, a, b in block], guard)
            for block, guard in segments
        ]
        self._lanes = _symmetry(alg.n).columns

    def run(self, p: int, kind: str, values: Sequence[int], group, vals: list, bad: int) -> bool:
        """Run the level for all the values.  A guard is empty when its
        integer is 0; a lane it empties is empty in `bad` too, as `bad`
        is met with every guard.  The values ascend, so the lowest set
        bit of `bad` is the least violation: True there, with its value
        and its lane of `bad` left in the slots."""
        # the digit's values are the minima of its kind under the group
        found = self._lanes.get((kind, group))
        if found is None:
            lanes = _Lanes(len(values), self.size)
            found = self._lanes[kind, group] = lanes, lanes.pack(values)
        lanes, vals[p] = found
        for block, guard in self.segments:
            for kernel, dst, a, b in block:
                vals[dst] = kernel(vals[a], vals[b], lanes)
            if guard is not None and not vals[guard]:
                return False
        hits = vals[bad]
        if not hits:
            return False
        w = lanes.w
        lane = ((hits & -hits).bit_length() - 1) // w
        vals[p], vals[bad] = values[lane], hits >> lane * w & (1 << w) - 1
        return True


def _run(segments, vals: list[int]) -> bool:
    """Run one level's instructions; False as soon as a guard is empty."""
    for block, guard in segments:
        for op, dst, a, b in block:
            vals[dst] = op(vals[a], vals[b])
        if guard is not None and not vals[guard]:
            return False
    return True


def _scan(program: Program, alg: Algebra, domains: list[tuple[str, Sequence[int]]]):
    """The kernel.  Scan the lex-leader assignments of each position's
    domain in canonical order, and return the least violating one as
    (position values, witness element), or None."""
    plan, kernel = program.plan, _binder(functools.partial(_kernel, alg))
    # The last digit runs as one column when it ranges over all 2^(2^n)
    # denotations or those of at most d elements, at every n: a deg2 one
    # stepped value by value made a `proj` command 3 times slower.  A
    # principal-ideal or label-atom digit has at most 16 values and steps
    # through them one at a time.  As columns, timed warm against this
    # scan on the benchmark's commands (2 vCPUs, Python 3.11),
    # principal-ideal queries ran 8% slower in all, from 5% faster to 24%
    # slower per command, as each i& or i| of two columns runs 2^n
    # translations; label-atom columns made `lentail` searches to n = 3
    # 20-35% faster, but those that stop by n = 2 within 3% or 4-15% slower.
    column = len(domains) - 1 if domains and domains[-1][0].startswith(("all", "deg")) else -1
    levels: list = [
        [([(kernel(op), dst, a, b) for op, dst, a, b in block], guard) for block, guard in segments]
        for segments in (plan[:-1] if column >= 0 else plan)
    ]
    if column >= 0:
        levels.append(_Column(alg, plan[-1], program.levels, column))
    vals = [0] * len(domains) + [0, alg.int_bot(), alg.full] + [0] * len(program.code)
    sym = _symmetry(alg.n)
    state = (domains, sym, levels, vals, program.bad, column)
    if _run(levels[0], vals) and (_odometer(state) if domains else vals[program.bad]):
        bad = vals[program.bad]
        return tuple(vals[: len(domains)]), (bad & -bad).bit_length() - 1
    return None


def _odometer(state: tuple) -> bool:
    """Turn each digit through the orbit minima of its domain under the
    stabiliser of the digits before it, all n! permutations for digit 0,
    running a level whenever its digit changes; True at the first
    violation, with the assignment left in the position slots.  The
    digits in turn are a stack of (digit, values left, group)."""
    domains, sym, levels, vals, bad, column = state
    last, stack = len(domains) - 1, [(0, sym.minima(*domains[0], sym.group), sym.group)]
    while stack:
        p, values, group = stack.pop()
        if p == column:
            if levels[p + 1].run(p, domains[p][0], values, group, vals, bad):
                return True
            continue
        values, level = iter(values), levels[p + 1]
        for value in values:
            vals[p] = value
            if _run(level, vals):
                if p == last:
                    if vals[bad]:
                        return True
                else:
                    inner = sym.stabiliser(group, value)
                    stack += (p, values, group), (p + 1, sym.minima(*domains[p + 1], inner), inner)
                    break
    return False


def _decide(program: Program, n: int, class_restriction: str, cap: int):
    """The least countermodel at algebra size n, or None.  The cap counts
    every homomorphism, not only the lex-leaders that are scanned."""
    if not 0 <= n <= MAX_N:
        raise ValueError(f"algebra size must be in 0..{MAX_N}, got {n}")
    alg = algebra(n)
    domains = _domains(program, alg, class_restriction)
    total = math.prod(alg.full + 1 if kind[:3] == "deg" else len(v) for kind, v in domains)
    if total > cap:
        message = f"{total} homomorphisms to scan at n={n} exceeds the cap of {cap}"
        raise BudgetExceededError(message, total=total)
    hit = _scan(program, alg, domains)
    if hit is None:
        return None
    values, witness = hit
    hom = Homomorphism.from_bits(alg, dict(zip(program.variables, values)))
    elements = [v.bit_length() - 1 for v in values[len(program.variables) :]]
    labels = LabelValuation(alg, dict(zip(program.atoms, elements)))
    return Countermodel(hom, witness, labels if program.labelled else None)


def _deepen(program: Program, replays, max_n: int, class_restriction: str, cap: int):
    """Iterative deepening over algebra sizes 0..max_n; a countermodel is
    reported only after `replays` has re-checked it."""
    if not 0 <= max_n <= MAX_N:
        raise ValueError(f"max_n must be in 0..{MAX_N}, got {max_n}")
    for n in range(max_n + 1):
        try:
            cm = _decide(program, n, class_restriction, cap)
        except BudgetExceededError as exc:
            return SearchReport("budget_exceeded", n - 1, note=str(exc))
        if cm is not None:
            if not replays(cm):
                raise ReplayError(
                    f"internal error: the countermodel at n={n} does not replay: {cm.to_json_obj()}"
                )
            return SearchReport("countermodel", n, countermodel=cm)
    return SearchReport("exhausted", max_n, note=NOTE_FINITE_SCOPE)


def algebra_entails(
    n: int,
    premises: Sequence[Formula],
    conclusion: Formula,
    class_restriction: str = "all",
    *,
    cap: int = DEFAULT_CAP,
    jobs: int = 1,
) -> tuple[bool, Countermodel | None]:
    """Decide the entailment at algebra size n by exhaustive enumeration.

    Returns (True, None) or (False, least countermodel).  Variables range
    over all denotations, or only over principal ideals when
    class_restriction="principal_variables".  The scan runs in the
    calling process; `jobs` is accepted and does not change it.
    """
    cm = _decide(_compile_entailment(premises, conclusion), n, class_restriction, cap)
    return cm is None, cm


def labelled_entails(
    n: int,
    gamma: Sequence[LabelledFormula],
    conclusion: LabelledFormula,
    *,
    cap: int = DEFAULT_CAP,
    jobs: int = 1,
) -> tuple[bool, Countermodel | None]:
    """Decide a labelled entailment at algebra size n, quantifying over both
    the variable assignment and the label valuation, in the calling
    process; `jobs` is accepted and does not change the scan."""
    cm = _decide(_compile_labelled(gamma, conclusion), n, "all", cap)
    return cm is None, cm


def find_countermodel(
    premises: Sequence[Formula],
    conclusion: Formula,
    *,
    max_n: int = DEFAULT_MAX_N,
    class_restriction: str = "all",
    cap: int = DEFAULT_CAP,
    jobs: int = 1,
) -> SearchReport:
    """Search algebra sizes 0, 1, ..., max_n for a countermodel, in the
    calling process; `jobs` is accepted and does not change the scan."""
    program = _compile_entailment(premises, conclusion)
    replays = lambda cm: replay(cm, premises, conclusion)
    return _deepen(program, replays, max_n, class_restriction, cap)


def find_labelled_countermodel(
    gamma: Sequence[LabelledFormula],
    conclusion: LabelledFormula,
    *,
    max_n: int = DEFAULT_MAX_N,
    cap: int = DEFAULT_CAP,
    jobs: int = 1,
) -> SearchReport:
    """Search algebra sizes 0, 1, ..., max_n for a labelled countermodel,
    in the calling process; `jobs` is accepted and does not change the
    scan."""
    replays = lambda cm: replay_labelled(cm, gamma, conclusion)
    return _deepen(_compile_labelled(gamma, conclusion), replays, max_n, "all", cap)


def replay(cm: Countermodel, premises: Sequence[Formula], conclusion: Formula) -> bool:
    """Re-evaluate a countermodel: the witness must lie in every premise
    denotation and outside the conclusion's."""
    for p in premises:
        if cm.witness not in evaluate(cm.hom, p):
            return False
    return cm.witness not in evaluate(cm.hom, conclusion)


def replay_labelled(
    cm: Countermodel, gamma: Sequence[LabelledFormula], conclusion: LabelledFormula
) -> bool:
    if cm.labels is None:
        return False
    return all(satisfies(cm.labels, cm.hom, lf) for lf in gamma) and not satisfies(
        cm.labels, cm.hom, conclusion
    )


def pva_axioms(var_indices: Iterable[int]) -> list[Formula]:
    """The principal-variable axioms box(P_i i| ~P_i), one per variable,
    in index order.  Valid under H exactly when every listed variable's
    denotation is a principal ideal."""
    return [
        Derived(
            DerivedTag.BOX,
            (IntOr(Var(i), Derived(DerivedTag.STRICT_NOT, (Var(i),))),),
        )
        for i in sorted(set(var_indices))
    ]


def verify_box_internalisation(
    n: int,
    pi: Sequence[Formula],
    premises: Sequence[Formula],
    conclusion: Formula,
    *,
    cap: int = DEFAULT_CAP,
) -> bool:
    """Check, by double enumeration at size n, that prefixing box(pi) to the
    premises is equivalent to restricting to homomorphisms validating pi."""
    boxed = [Derived(DerivedTag.BOX, (f,)) for f in pi]
    boxed_side, _ = algebra_entails(n, boxed + list(premises), conclusion, cap=cap)
    restricted = _decide(_compile_entailment(premises, conclusion, pi), n, "all", cap)
    return boxed_side == (restricted is None)


def order_box(formula: Formula) -> Formula:
    """Necessity over the algebra's partial order: !down !phi."""
    return ExtNot(Derived(DerivedTag.DOWN, (ExtNot(formula),)))


def grz_formula(var_index: int = 0) -> Formula:
    """Grzegorczyk's formula over the order modality; valid on an algebra's
    order frame exactly when the algebra is finite."""
    p = Var(var_index)
    imp = lambda a, b: Derived(DerivedTag.IMPLIES, (a, b))
    return imp(order_box(imp(order_box(imp(p, order_box(p))), p)), p)


def default_max_n() -> int:
    """Default search depth, overridable with the LT_MAX_N environment variable."""
    raw = os.environ.get("LT_MAX_N")
    if raw is None:
        return DEFAULT_MAX_N
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"LT_MAX_N must be an integer, got {raw!r}") from exc
    if not 0 <= value <= MAX_N:
        raise ValueError(f"LT_MAX_N must be in 0..{MAX_N}, got {value}")
    return value
