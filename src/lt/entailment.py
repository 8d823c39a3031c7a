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
algebra.  The instructions are grouped by level once per query and
first digit of the column (`Program.plan`), and the plan is what runs:
each instruction reads its opcode's kernel from its form's table, so a
scan binds nothing.  The kernel `_scan`
enumerates the positions like an odometer in canonical order (variables
ascending, then label atoms, the first most significant, values
ascending) and, when digit p changes, re-runs only the instructions of
level >= p.  Premises are intersected
in order as soon as their level is reached, and an empty intersection
skips the rest of its level and every deeper digit, so the conclusion's
instructions run only while the premises known so far intersect.
`Program.run` computes every slot at one fixed assignment instead, with
the operations of the scan's levels: the PT+ sweep of
`verify_f_representation` runs the enumerated formulas that way,
compiled as one program.

The column.  The trailing digits run as one column: the longest run of
them whose domains, degree-reduced (see Degree) and before symmetry,
multiply to at most 2^16 (two variables over all denotations at n = 3,
one at n = 4), whatever premise guards sit at their levels.  Once per
setting of the digits before it, each instruction of its levels
computes one bit plane per element e of 2^n: bit j of plane e is set
when e lies in the denotation of lane j, one lane per lex-leader
assignment of the run, in canonical order (see Symmetry).  A guard
inside the column empties lanes where the odometer would skip inner
digits, so the lanes it keeps are the assignments the odometer would
visit, in its order, and the run stops once a guard has none.  An
operand that a digit before the column or a constant gives is broadcast
to every lane, its planes all ones or 0, in `_Column.run` alone, so
every kernel runs on columns.  The internal connectives are defined
element by element, so each kernel is index arithmetic over the planes
(`_COLUMN_KERNELS`): an external connective works plane by plane; i!
moves plane top ^ e to e; the closures OR each plane into those of its
neighbours below or above, one atom at a time (Knuth, TAOCP 4A, 7.1.3);
_ANY repeats the union of the planes; and i& or i| of two columns ORs
x's plane a AND y's plane b into plane a & b or a | b.  A guard is
empty when no plane is non-zero; a lane it empties is empty in `bad`,
which meets every guard, so the lowest set bit of the union of `bad`'s
planes is the least violation: in that lane the planes give every
digit's value, and `bad`'s denotation, whose least element is the
witness.

The levels before the column run one assignment at a time, each
instruction through the algebra's own operation, at every size.  So
each form has one kernel table, indexed by opcode: `_operations(n)` for
a value, the algebra's methods, and `_COLUMN_KERNELS` for planes.
The scan runs in the calling process, and the countermodel it reports is
the least.
Searching all finite sizes is sound for refutation but cannot certify
full entailment: some non-validities need an infinite (non-complete)
algebra.

Lifting.  Let h be an onto Boolean homomorphism, such as the map
2^(n+1) -> 2^n that drops atom n, and give each variable the preimage
of its denotation under h.  Every connective but ibot sends preimages to
preimages: an external one for any map; i!, as h(!c) = !h(c); the
closures and _ANY, by lifting a member x'' and taking c | x'' (c & x''
for up); and i&, by lifting members a'' and b'' and taking
a = c | a'' and b = c | (b'' & !(a'' & b'' & !c)), whose meet is c
(i| dually).  Labels lift too: a label atom takes a preimage of its
element, and h commutes with the Boolean operations, F included.  But
ibot denotes {bottom}, whose preimage is the kernel of h, and so do the
connectives spelled with it: itop, nb, ~ and o*.  So a countermodel of a
query without ibot at n lifts to one at n + 1, and such a query entailed
at n + 1 is entailed at n.  This holds over principal ideals too, as
h⁻¹(↓a) = ↓(a ∪ {n}): the preimage of a principal ideal is the ideal of
a with atom n added.  `Program.lifts` is set for such a query, and
`_deepen` takes its sizes in pairs (0, 1), (2, 3), ..., the larger
first: a clean scan at n + 1 clears n, so n is scanned only when n + 1
has a countermodel or is over the cap.  The
least size with a countermodel, and the first over the cap (the count of
homomorphisms grows with n), are reported as an upward scan reports
them.  Taking the top size first would clear an entailed query in one
scan, but a query refuted at n = 1 would pay for a scan at the top size;
in pairs it scans 1 and then 0, the work of an upward scan.

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
values instead of 65,536.  A permutation moves elements, so on a column
it reorders the planes: the minima are the lanes whose value no image
under the group undercuts, compared plane by plane from the top element
down.  Every permutation fixes the bottom and the top element, so over
all denotations only the quarter without those two bits is compared;
its planes are lane-index masks.  The lanes an image leaves equal give
the stabilisers; digits are packed bytes, transposed by 8 x 8 bit
blocks; each group's minima and lanes are kept for the process.

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

Replay.  A Program records the query it compiles, and `_decide`, the one
place a countermodel is made, replays each against it through the tree
walker (`replay` or `replay_labelled`): every countermodel the library
returns is checked.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterable, Mapping, Sequence

from .algebra import Algebra, algebra, same_fields
from .errors import BudgetExceededError, EvalError, ReplayError
from .semantics import Homomorphism, LabelValuation, evaluate, satisfies
from .syntax import (
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
                f"P{v}": alg.format_denotation(b) for v, b in sorted(self.hom.bits_env().items())
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
_CLOSURES = {_IAND: _DOWN, _IOR: _UP}  # int_and(x, full), int_or(x, full)
# The column covers the trailing digits whose degree-reduced domains
# multiply to at most this many assignments: two over all denotations at
# n = 3, one at n = 4.  The lanes kept per size, at most _LANES_MAX, take
# one bit in each of the 2^n planes of every digit and in `ones`, and 2^n
# bits a digit packed while built: at n = 4, 2 + 2 MB a digit and 128 KB.
_COLUMN_MAX = 1 << 16
_LANES_MAX = 1 << 20
_BINARY = {ExtOr: _OR, ExtAnd: _AND, IntOr: _IOR, IntAnd: _IAND, LOr: _IOR, LAnd: _IAND}
_LEAVES = {ExtBot: _ZERO, LBot: _IBOT, IntBot: _IBOT}


class Program:
    """A query compiled, once for every algebra size, to straight-line code.

    Slot p < k holds position p, the next three slots the constants, and
    slot `base + i` instruction i; equal instructions share one slot
    (hash-consing).  `levels[slot]` is the last position the slot reads,
    -1 for none.  A guard slot holds the intersection of a prefix of the
    premises, and `bad` the premise intersection minus the conclusion."""

    def __init__(self, trees: Iterable[list], labelled: bool, query: tuple = ()):
        leaves = {(type(f), f.index) for nodes in trees for f in nodes if type(f) in (Var, LAtom)}
        self.variables = tuple(sorted(i for kind, i in leaves if kind is Var))
        self.atoms = tuple(sorted(i for kind, i in leaves if kind is LAtom))
        self.labelled = labelled
        self.query = query  # what _decide replays a countermodel against
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
        self.lifts = True  # no ibot compiled: see "Lifting"
        self._plans: dict[int, list] = {}

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
        `!bot` folds to the full-carrier constant, an internal meet or join
        with it to a closure, and a closure over the other one to _ANY (a
        non-empty y holds a member).  A variable or label atom is a position.
        `ibot`, written or spelled by a derived connective, clears `lifts`."""
        zero, full = self.constants + _ZERO, self.constants + _FULL
        if kind in _BINARY:
            op, (left, right) = _BINARY[kind], children
            if op in _CLOSURES and full in children:
                op, x = _CLOSURES[op], right if left == full else left
                if x >= self.base and {op, self.code[x - self.base][0]} == {_DOWN, _UP}:
                    op, x = _ANY, self.code[x - self.base][1]  # up(down y) = down(up y) = _ANY y
                return self.emit(op, x, x)
            return self.emit(op, left, right)
        if kind in _LEAVES:
            if kind is IntBot:
                self.lifts = False
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
        assignment of its variables, each instruction through the algebra
        operation that a scan's levels run for it."""
        try:
            vals = [env[v] for v in self.variables]
        except KeyError as exc:
            raise EvalError(f"unbound variable P{exc.args[0]}") from None
        vals += 0, alg.int_bot(), alg.full
        operations = _operations(alg.n)
        for op, a, b in self.code:
            vals.append(operations[op](vals[a], vals[b]))
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

    def plan(self, start: int) -> list[list[tuple[list, int | None]]]:
        """The instructions that `bad` reads, by level, once per
        query and first digit of the column: `plan[level + 1]` lists a
        level's segments (block, guard), `plan[-1]` the column's; a block's
        instructions (op, pair, slot, a, b) run before the guard slot is
        tested.  In the column an earlier level's operand is a, pair false."""
        plan = self._plans.get(start)
        if plan is None:
            levels, live = self.levels, {self.bad}
            for slot in range(self.base + len(self.code) - 1, self.base - 1, -1):
                if slot in live:  # what `bad` reads: it meets every guard
                    live.update(self.code[slot - self.base][1:])
            plan = self._plans[start] = [[([], None)] for _ in range(start + 2)]
            for slot, (op, a, b) in enumerate(self.code, self.base):
                if slot not in live:
                    continue
                if levels[a] >= start > levels[b]:
                    a, b = b, a  # every binary opcode is commutative
                segments = plan[min(levels[slot], start) + 1]
                segments[-1][0].append((op, levels[a] >= start, slot, a, b))
                if slot in self.guards:
                    segments[-1] = (segments[-1][0], slot)
                    segments.append(([], None))
        return plan


def _compile_entailment(premises, conclusion) -> Program:
    """Compile premises |- conclusion.  To admit only the homomorphisms
    under which a formula pi denotes the full carrier, add the premise
    `box pi`: it is the full carrier there and empty elsewhere (the box
    internalisation), so that restriction needs no compile path of its own."""
    premises = tuple(premises)  # kept for the replay
    trees = [postorder(f) for f in (*premises, conclusion)]
    c = Program(trees, labelled=False, query=(premises, conclusion))
    for nodes in trees[:-1]:
        c.premise(c.term(nodes))
    return c.conclude(c.term(trees[-1]))


def _compile_labelled(gamma, conclusion) -> Program:
    """Compile a labelled entailment: a premise a : phi holds where a's
    element lies in phi's denotation, and the conclusion b : psi fails at
    b's element when that lies outside psi's denotation."""
    gamma = tuple(gamma)  # kept for the replay
    terms = [(postorder(lf.label), postorder(lf.formula)) for lf in (*gamma, conclusion)]
    c = Program(itertools.chain.from_iterable(terms), labelled=True, query=(gamma, conclusion))
    *premises, (b, psi) = terms
    for a, f in premises:
        meet = c.emit(_AND, c.term(f), c.term(a))
        c.premise(c.emit(_ANY, meet, meet))
    c.premise(c.term(b))
    return c.conclude(c.term(psi))


# -- symmetry: the atom permutations

# delta swaps (shift, mask) transposing 8 x 8 bit blocks (Knuth, TAOCP 4A, 7.1.3)
_SWAPS = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))


@functools.cache
def _setting(bit: int) -> bytes:
    """The `translate` table that sets the bit in every byte."""
    every = bit * int.from_bytes(b"\1" * 256, "little")
    return (int.from_bytes(bytes(range(256)), "little") | every).to_bytes(256, "little")


def _flags(mask: int, count: int) -> bytes:
    """The first `count` lanes of a mask, lowest first, as the bytes 0 and 1."""
    return format(mask, f"0{count}b")[::-1].translate({48: "\0", 49: "\1"}).encode()


class _Symmetry:
    """The n! permutations of the atoms of 2^n, each held as its map on
    the elements, which index the column's planes.  Permutation 0 is the
    identity, and a group is the ascending tuple of its members' indices.
    `sources[i][f]` is the element that permutation i moves to f: the
    image of a denotation v holds f where v holds sources[i][f], so on
    planes an image is the planes reordered, with no table."""

    def __init__(self, n: int):
        self.n, self.size, self.width = n, 1 << n, max(1, (1 << n) >> 3)  # bytes per denotation
        self.top = 1 << self.size - 1  # the bit of the top element
        self.group = tuple(range(math.factorial(n)))
        self.sources: list[list[int]] = []
        for perm in itertools.permutations(range(n)):
            sources = [0]  # built by doubling over the atoms of the inverse
            for atom in map(perm.index, range(n)):
                sources += [s | 1 << atom for s in sources]
            self.sources.append(sources)
        # per kind and group, the packed minima and the cached read of their stabilisers
        self._minima: dict[tuple[str, tuple[int, ...]], tuple] = {}
        # per kinds and group, a suffix's `ones` and the planes of each digit
        self.columns: dict[tuple[tuple[str, ...], tuple[int, ...]], tuple] = {}
        self.kept = 0  # the lanes of self.columns

    def minima(self, kind: str, domain: Sequence[int], group: tuple[int, ...], inner=False):
        """The values of the domain that are least in their orbit under the
        group, ascending and packed; with `inner`, each as an integer with
        its stabiliser, read on first use: a column's last digit never reads
        them.  Each value is a lane, compared on planes with its image
        under every member at the elements it moves, and the lanes left
        equal are the values the member fixes.  Over all denotations, only
        those without the bottom and the top element are compared, on
        `_quarter`'s planes (see `_all`)."""
        found = self._minima.get((kind, group))
        if found is None:
            moved, w = kind == "all" and self.n > 0, self.width
            count = self.top >> 1 if moved else len(domain)
            ones = (1 << count) - 1
            if group[1:]:  # the planes compared; a trivial group compares none
                p = self._quarter() if moved else self._planes(self._pack(domain))
            greater, masks = 0, [ones]  # the lanes some image undercuts; per member, those it fixes
            for g in group[1:]:  # group[0] is the identity
                sources, equal = self.sources[g], ones
                for f in range(self.size - 1, -1, -1):
                    if sources[f] != f:  # at a fixed element a value and its image agree
                        differ = equal & (p[f] ^ p[sources[f]])  # equal above f, differing at f
                        greater |= differ & p[f]
                        equal ^= differ
                masks.append(equal)
            values = self._all(greater) if moved else self._pack(  # none dropped: the domain
                itertools.compress(domain, _flags(ones & ~greater, count)) if greater else domain)

            @functools.cache
            def read() -> list[tuple[int, tuple[int, ...]]]:  # (minimum, stabiliser)
                dropped = int.from_bytes(_flags(greater, count), "little") << 1  # 2 per dropped lane
                rows = [(int.from_bytes(_flags(mask, count), "little") | dropped)
                        .to_bytes(count, "little").translate(None, b"\2\3") for mask in masks]
                found = [tuple(itertools.compress(group, fixes)) for fixes in zip(*rows)]
                found = [s for s in found for _ in (0, 1)] * 2 if moved else found
                return [(int.from_bytes(values[i * w : i * w + w], "little"), s)
                        for i, s in enumerate(found)]

            found = self._minima[kind, group] = values, read
        return found[1]() if inner else found[0]

    def suffix(self, kinds: tuple[str, ...], domains: list, group: tuple[int, ...]):
        """The lex-leader assignments of a suffix of digits, of these kinds
        and domains, under the group, in canonical order, as lanes: (`ones`,
        1 in every lane, and the planes of each digit), transposed once per
        process, kinds and group.  The memo is emptied when it would keep
        more than _LANES_MAX lanes."""
        key = kinds, group
        found = self.columns.get(key)
        if found is None:
            digits = self._leaders(domains, group)
            count = len(digits[0]) // self.width
            if self.kept + count > _LANES_MAX:
                self.columns.clear()
                self.kept = 0
            self.kept += count
            found = self.columns[key] = (1 << count) - 1, tuple(map(self._planes, digits))
        return found

    def _pack(self, values: Iterable[int]) -> bytes:
        """The values little-endian, `width` bytes each."""
        width, order = itertools.repeat(self.width), itertools.repeat("little")
        return b"".join(map(int.to_bytes, values, width, order))

    def _quarter(self) -> list[int]:
        """The planes of the lanes `range(0, top, 2)`, in closed form: lane j
        holds 2j, so plane e is the mask of the lanes whose index holds bit
        e - 1, and the bottom and top planes are 0 (Knuth, TAOCP 4A, 7.1.3)."""
        planes, count = [0] * self.size, self.top >> 1
        for e in range(1, self.size - 1):
            w = 1 << e - 1
            block, width = ((1 << w) - 1) << w, 2 * w
            while width < count:  # the block, doubled to every lane
                block, width = block | block << width, 2 * width
            planes[e] = block
        return planes

    def _all(self, greater: int) -> bytes:
        """The minima over all denotations, packed, from the quarter's lanes
        outside `greater`: lane j holds 2j, whose byte 0 (even) and byte 1
        (j >> 7, n = 4) lack the bottom's and top's bit, which marks the lanes
        dropped for `translate` to delete; each m gives m, m | 1, both with top."""
        w, count = self.width, self.top >> 1
        dropped = int.from_bytes(_flags(greater, count), "little")
        out = bytearray(2 * w * (count - greater.bit_count()))
        for b, bit in zip(range(w), (1, 128)):
            run = bytes(range(0, 256, 2)) * -(-count // 128) if b == 0 else b"".join(
                bytes((k,)) * 128 for k in range(count >> 7))
            run = (int.from_bytes(run[:count], "little") | dropped * bit).to_bytes(count, "little")
            out[b :: 2 * w] = out[w + b :: 2 * w] = run.translate(None, _setting(bit))
        out[w :: 2 * w] = out[w :: 2 * w].translate(_setting(1))
        out, h = out * 2, len(out)
        out[h + w - 1 :: w] = out[h + w - 1 :: w].translate(_setting(self.top >> 8 * w - 8))
        return bytes(out)

    def _planes(self, values: bytes) -> tuple[int, ...]:
        """A digit's packed values, one per lane, as planes: byte b of every
        value, padded to whole blocks of 8 lanes, is run b of one integer,
        whose 8 x 8 bit blocks the delta swaps transpose, so that plane 8b + i
        is every eighth byte of run b from byte i."""
        w = self.width
        count = -(-len(values) // w // 8) * 8  # the lanes, padded
        values += bytes(count * w - len(values))
        x = int.from_bytes(b"".join(values[b::w] for b in range(w)), "little")
        blocks = int.from_bytes(b"\1\0\0\0\0\0\0\0" * (count * w >> 3), "little")  # bit 0 of each
        for shift, mask in _SWAPS:
            t = (x ^ x >> shift) & mask * blocks
            x ^= t ^ t << shift
        runs = x.to_bytes(count * w, "little")
        return tuple(int.from_bytes(runs[(e >> 3) * count + (e & 7) : (e >> 3) * count + count : 8],
                                    "little") for e in range(self.size))

    def _leaders(self, domains: list, group: tuple[int, ...]) -> list[bytes]:
        """Per digit, packed, its value in each lex-leader assignment of the
        digits under the group, in canonical order: the groups each digit
        is reached under, digit by digit, then the assignments from each
        group, once, from the last digit back, by byte repetition."""
        w, steps, reached = self.width, [], {group}  # per digit but the last, by group
        for kind, domain in domains[:-1]:
            steps.append({g: self.minima(kind, domain, g, True) for g in reached})
            reached = {h for pairs in steps[-1].values() for _, h in pairs}
        tails = {g: [self.minima(*domains[-1], g)] for g in reached}
        for depth in range(len(steps) - 1, -1, -1):
            tails = {g: [b"".join(v.to_bytes(w, "little") * (len(tails[h][0]) // w)
                                  for v, h in pairs),
                         *map(b"".join, zip(*(tails[h] for _, h in pairs)))]
                     for g, pairs in steps[depth].items()}
        return tails[group]


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


@functools.cache
def _operations(n: int) -> tuple:
    """Per opcode, the algebra's operation f(x, y) at size n, a unary one
    ignoring y: the one place an opcode's meaning is said."""
    alg = algebra(n)
    full = alg.full
    return (operator.or_, operator.and_, operator.xor, alg.int_or, alg.int_and,
            lambda x, _: alg.int_not(x), lambda x, _: full if x else 0,
            lambda x, _: alg.down_closure(x), lambda x, _: alg.up_closure(x))


# -- the column: the trailing digits' assignments as the lanes of bit planes

# Per algebra size, the pairs (e without atom s, e) over each element e
# that holds atom s, atom by atom: the closures carry a plane along them,
# down from e and up to e, one atom at a time.
_COVERS = {1 << n: tuple((e ^ s, e) for s in (1 << i for i in range(n))
                        for e in range(1 << n) if e & s) for n in range(MAX_N + 1)}


def _down(x: list[int], _) -> list[int]:
    x = list(x)
    for low, high in _COVERS[len(x)]:
        x[low] |= x[high]
    return x


def _up(x: list[int], _) -> list[int]:
    x = list(x)
    for low, high in _COVERS[len(x)]:
        x[high] |= x[low]
    return x


def _pointwise(op, x: list[int], y: list[int]) -> list[int]:
    """int_and (op and_) or int_or (op or_) of two columns: the element
    op(a, b) lies in each lane where a lies in x and b in y."""
    out = [0] * len(x)
    ys = [(b, plane) for b, plane in enumerate(y) if plane]
    for a, plane in enumerate(x):
        if plane:
            for b, other in ys:
                out[op(a, b)] |= plane & other
    return out


# Per opcode, its kernel f(x, y) on the planes of two columns, or of the
# column x for a unary opcode: the one place where a column meets an
# opcode.  An external opcode works plane by plane; i! moves plane top ^ e
# to e, a reversal; _ANY, the full carrier in the lanes where x is
# non-empty, repeats the union of the planes.
_COLUMN_KERNELS = (
    lambda x, y: list(map(operator.or_, x, y)), lambda x, y: list(map(operator.and_, x, y)),
    lambda x, y: list(map(operator.xor, x, y)),
    functools.partial(_pointwise, operator.or_), functools.partial(_pointwise, operator.and_),
    lambda x, _: x[::-1], lambda x, _: [functools.reduce(operator.or_, x)] * len(x),
    _down, _up,
)


def _lane(planes: Sequence[int], j: int) -> int:
    """The denotation in lane j of a column."""
    return sum((plane >> j & 1) << e for e, plane in enumerate(planes))


class _Column:
    """The digits from `start` on, run once for all their lex-leader
    assignments (see "The column" in the module docstring): `segments` is
    the plan's column entry, run as it stands, each instruction through
    its opcode's entry of _COLUMN_KERNELS."""

    def __init__(self, sym: _Symmetry, segments, start: int, domains):
        self.sym, self.segments, self.start = sym, segments, start
        self.domains = domains[start:]
        self.kinds = tuple(kind for kind, _ in self.domains)
        self.singletons = [1 << e for e in range(sym.size)]

    def run(self, group, vals: list, bad: int) -> bool:
        """Run the levels for all the assignments under the group; True at
        the least violation, with its values and lane of `bad` in the slots.
        Without a pair, the operand a, a value of a digit before the column
        or a constant, is broadcast to every lane first: its planes are
        `ones` for its elements and 0 for the others."""
        start, kernels, singletons = self.start, _COLUMN_KERNELS, self.singletons
        ones, columns = self.sym.suffix(self.kinds, self.domains, group)
        vals[start : start + len(columns)] = columns
        for block, guard in self.segments:
            for op, pair, dst, a, b in block:
                x = vals[a]
                if not pair:
                    x = [x & s and ones for s in singletons]
                vals[dst] = kernels[op](x, vals[b])
            if guard is not None and not any(vals[guard]):
                return False
        if not any(vals[bad]):
            return False
        hits = functools.reduce(operator.or_, vals[bad])
        j = (hits & -hits).bit_length() - 1
        for p, planes in enumerate(columns, start):
            vals[p] = _lane(planes, j)
        vals[bad] = _lane(vals[bad], j)
        return True


def _run(segments, vals: list[int], operations) -> bool:
    """Run one level of the plan, each instruction through its opcode's
    entry of `operations`; False as soon as a guard is empty."""
    for block, guard in segments:
        for op, _, dst, a, b in block:
            vals[dst] = operations[op](vals[a], vals[b])
        if guard is not None and not vals[guard]:
            return False
    return True


def _suffix_start(domains: list) -> int:
    """The first digit of the column: the longest run of trailing digits
    whose domains, degree-reduced and before symmetry, multiply to at most
    _COLUMN_MAX, whatever premise guards sit at their levels."""
    start, count = len(domains) - 1, len(domains[-1][1])
    while start and count * len(domains[start - 1][1]) <= _COLUMN_MAX:
        start -= 1
        count *= len(domains[start][1])
    return start


def _scan(program: Program, alg: Algebra, domains: list[tuple[str, Sequence[int]]]):
    """The kernel.  Scan the lex-leader assignments of each position's
    domain in canonical order, and return the least violating one as
    (position values, witness element), or None."""
    start = _suffix_start(domains) if domains else 0
    plan, operations = program.plan(start), _operations(alg.n)
    vals = [0] * len(domains) + [0, alg.int_bot(), alg.full] + [0] * len(program.code)
    if domains:
        column = _Column(_symmetry(alg.n), plan[-1], start, domains)
    if _run(plan[0], vals, operations) and (
        _odometer(column, domains, plan, operations, vals, program.bad)
        if domains else vals[program.bad]
    ):
        bad = vals[program.bad]
        return tuple(vals[: len(domains)]), (bad & -bad).bit_length() - 1
    return None


def _odometer(column: _Column, domains: list, plan, operations, vals: list, bad: int) -> bool:
    """Turn each digit before the column through the orbit minima of its
    domain under the stabiliser of the digits before it, all n!
    permutations for digit 0, running a level whenever its digit changes,
    and run the column under the stabiliser of them all; True at the
    first violation, with the assignment left in the position slots.  The
    digits in turn are a stack of (digit, (value, stabiliser) pairs left)."""
    sym, start = column.sym, column.start
    if not start:
        return column.run(sym.group, vals, bad)
    stack = [(0, iter(sym.minima(*domains[0], sym.group, True)))]
    while stack:
        p, values = stack[-1]
        level = plan[p + 1]
        for value, inner in values:
            vals[p] = value
            if _run(level, vals, operations):
                if p + 1 < start:
                    stack.append((p + 1, iter(sym.minima(*domains[p + 1], inner, True))))
                    break
                if column.run(inner, vals, bad):
                    return True
        else:
            stack.pop()
    return False


def _decide(program: Program, n: int, class_restriction: str, cap: int):
    """The least countermodel at algebra size n, once it replays, or None.
    The cap counts every homomorphism, not only the lex-leaders scanned."""
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
    cm = Countermodel(hom, witness, labels if program.labelled else None)
    replays = (replay_labelled if program.labelled else replay)(cm, *program.query)
    if not replays:
        raise ReplayError(
            f"internal error: the countermodel at n={n} does not replay: {cm.to_json_obj()}"
        )
    return cm


def _deepen(program: Program, max_n: int, class_restriction: str, cap: int):
    """Iterative deepening over algebra sizes up to max_n: the least size
    with a countermodel, or the first over the cap.  A query that lifts
    takes the sizes in pairs, the larger first (see "Lifting"); any other
    query takes them upward."""
    if not 0 <= max_n <= MAX_N:
        raise ValueError(f"max_n must be in 0..{MAX_N}, got {max_n}")
    step = 2 if program.lifts else 1
    for low in range(0, max_n + 1, step):
        high = min(low + step - 1, max_n)
        report = _scan_size(program, high, class_restriction, cap)
        if report is not None:  # else the clean scan at high clears low
            if low < high:
                report = _scan_size(program, low, class_restriction, cap) or report
            return report
    return SearchReport("exhausted", max_n, note=NOTE_FINITE_SCOPE)


def _scan_size(program: Program, n: int, class_restriction: str, cap: int):
    """The report of the scan at n alone if it ends the search, a
    countermodel or the cap's note, or None for a clean scan."""
    try:
        cm = _decide(program, n, class_restriction, cap)
    except BudgetExceededError as exc:
        return SearchReport("budget_exceeded", n - 1, note=str(exc))
    return None if cm is None else SearchReport("countermodel", n, countermodel=cm)


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
    calling process and ignores `jobs`, which ROADMAP item 2 deletes
    after the benchmark change of item 1.
    """
    cm = _decide(_compile_entailment(premises, conclusion), n, class_restriction, cap)
    return cm is None, cm


def labelled_entails(
    n: int,
    gamma: Sequence[LabelledFormula],
    conclusion: LabelledFormula,
    *,
    cap: int = DEFAULT_CAP,
) -> tuple[bool, Countermodel | None]:
    """Decide a labelled entailment at algebra size n, quantifying over both
    the variable assignment and the label valuation."""
    cm = _decide(_compile_labelled(gamma, conclusion), n, "all", cap)
    return cm is None, cm


def find_countermodel(
    premises: Sequence[Formula],
    conclusion: Formula,
    *,
    max_n: int = DEFAULT_MAX_N,
    class_restriction: str = "all",
    cap: int = DEFAULT_CAP,
) -> SearchReport:
    """Search the algebra sizes up to max_n for the least one with a
    countermodel (see `_deepen` for the order they are scanned in)."""
    return _deepen(_compile_entailment(premises, conclusion), max_n, class_restriction, cap)


def find_labelled_countermodel(
    gamma: Sequence[LabelledFormula],
    conclusion: LabelledFormula,
    *,
    max_n: int = DEFAULT_MAX_N,
    cap: int = DEFAULT_CAP,
) -> SearchReport:
    """Search the algebra sizes up to max_n for the least one with a
    labelled countermodel (see `_deepen` for the order they are scanned in)."""
    return _deepen(_compile_labelled(gamma, conclusion), max_n, "all", cap)


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

