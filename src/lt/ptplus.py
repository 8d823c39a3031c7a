"""Valuational team semantics for the strong propositional team logic PT+.

A valuation over k variables is a k-bit integer; a team is a bitset over
the 2^k valuations; the denotation of a PT+ formula is a bitset over the
2^(2^k) teams.  The fragment allows variables, strict negation applied
to variables only, ibot, nb, the internal disjunction i| and the
external connectives & and | (plus o* as sugar).  Working over k
variables is faithful for entailment among formulas whose variables all
lie below k.  A valuation is element s of the k-atom algebra and a team
a set of its elements, so `algebra(k)` names both: `names[s]` and
`format_denotation(team)`.

The bridge back to the algebra semantics identifies a team over k
variables with an element of the algebra on 2^k atoms, indexed
identically; the valuation homomorphism sends each variable to the
principal ideal of its set of satisfying valuations, and any
principal-variable homomorphism over a powerset algebra is represented
inside the valuation model by the map `f_map`, a tuple of atom
valuations: per atom, the valuation that records which variable
denotations contain its singleton.  An element lifts to the team of its
atoms' valuations.  Every algebra in this workbench is already a
powerset algebra, so the embedding step of the general representation
argument is the identity and only this map is needed.
`verify_f_representation` checks it on every PT+ formula up to a depth:
the formulas compile, as `expand` spells them, into one `Program` of the
scan, which runs under H and under H_V.  `pt_eval` stays an independent
oracle for the algebra semantics.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import Denotation, algebra, iter_bits
from .entailment import Program
from .errors import FragmentError, PrincipalVariableError
from .semantics import Homomorphism
from .syntax import (
    Derived,
    DerivedTag,
    ExtAnd,
    ExtOr,
    Formula,
    IntBot,
    IntOr,
    Var,
    postorder,
)

MAX_K = 3
MAX_DEPTH = 3  # c_4 = c_3 + 3(c_3^2 - c_2^2) formulas: over a million even at k = 0


class PTDenotation:
    """A set of teams over k variables, as a bitset indexed by team."""

    __slots__ = ("k", "bits")

    def __init__(self, k: int, bits: int):
        self.k = k
        self.bits = bits

    def __contains__(self, team: int) -> bool:
        return self.bits >> team & 1 == 1


def _check_k(k: int) -> None:
    """Refuse a k outside 0..MAX_K before any team bitset is built."""
    if not 0 <= k <= MAX_K:
        raise ValueError(f"k must be in 0..{MAX_K}, got {k}")


def _in_fragment(nodes: list[Formula]) -> bool:
    """True iff every node of the list is allowed in PT+: variables,
    strict negation on variables only, ibot, nb, i|, &, | and the o* sugar."""
    for f in nodes:
        kind = type(f)
        if kind is Derived:
            if f.tag is DerivedTag.STRICT_NOT:
                if type(f.args[0]) is not Var:
                    return False
            elif f.tag is not DerivedTag.NB and f.tag is not DerivedTag.CIRCLE_STAR:
                return False
        elif kind not in (Var, IntBot, IntOr, ExtAnd, ExtOr):
            return False
    return True


def pt_eval(formula: Formula, k: int, cache: dict[Formula, int] | None = None) -> PTDenotation:
    """Denotation of a PT+ formula over teams of k-variable valuations.
    The optional cache (valid for this k only) is shared across calls and
    holds whole formulas: without one, no formula is hashed."""
    _check_k(k)
    nodes = postorder(formula)
    if not _in_fragment(nodes):
        raise FragmentError("formula is outside the PT+ fragment")
    high = [f.index for f in nodes if type(f) is Var and f.index >= k]
    if high:
        raise FragmentError(f"variable P{min(high)} needs k > {min(high)}")
    bits = None if cache is None else cache.get(formula)
    if bits is None:
        bits = _pt_bits(nodes, k)
        if cache is not None:
            cache[formula] = bits
    return PTDenotation(k, bits)


def _pt_bits(nodes: list[Formula], k: int) -> int:
    """The team bitset of a PT+ formula from its nodes in postorder."""
    valuations = (1 << (1 << k)) - 1  # the team of every valuation
    nb = (1 << valuations + 1) - 2  # every non-empty team
    out: list[int] = []
    for f in nodes:
        kind = type(f)
        if kind is Var:
            out.append(_subteams(_true_team(f.index, k), k))
        elif kind is IntBot:
            out.append(1)  # {empty team}
        elif kind is ExtAnd:
            right = out.pop()
            out[-1] &= right
        elif kind is ExtOr:
            right = out.pop()
            out[-1] |= right
        elif kind is IntOr:
            right = out.pop()
            out[-1] = _pair_unions(out[-1], right)
        elif f.tag is DerivedTag.NB:
            out.append(nb)
        elif f.tag is DerivedTag.STRICT_NOT:
            index = f.args[0].index  # type: ignore[attr-defined]
            out[-1] = _subteams(valuations ^ _true_team(index, k), k)
        else:  # o*
            right = out.pop()
            out[-1] = _pair_unions(out[-1] & nb, right & nb)
    return out[0]


@lru_cache(maxsize=None)
def _true_team(i: int, k: int) -> int:
    """The team of valuations that set variable i to 1."""
    return sum(1 << s for s in range(1 << k) if s >> i & 1)


@lru_cache(maxsize=None)
def _subteams(vmask: int, k: int) -> int:
    """Bitset of all teams over k variables contained in vmask: kept, as
    each variable's denotation and its strict negation's, once per k."""
    bits = 0
    for team in range(1 << (1 << k)):
        if team & vmask == team:
            bits |= 1 << team
    return bits


@lru_cache(maxsize=4096)
def _pair_unions(x: int, y: int) -> int:
    """{X ∪ Y | X in x, Y in y} over team bitsets: kept, as a sweep over
    the PT+ formulas meets each operand pair dozens of times."""
    ys = list(iter_bits(y))
    out = 0
    for team in {a | b for a in iter_bits(x) for b in ys}:
        out |= 1 << team
    return out


def pt_entails(
    premises: list[Formula] | tuple[Formula, ...], conclusion: Formula, k: int
) -> tuple[bool, int | None]:
    """Subset check over PT+ denotations; on failure also the least
    counter-team (a team bitset)."""
    _check_k(k)
    n_team = 1 << (1 << k)
    inter = (1 << n_team) - 1
    for p in premises:
        inter &= pt_eval(p, k).bits
    bad = inter & ~pt_eval(conclusion, k).bits
    if bad == 0:
        return True, None
    return False, next(iter_bits(bad))


def build_hv(k: int) -> Homomorphism:
    """The valuation homomorphism at truncation k: over the algebra whose
    atoms are the 2^k valuations, each variable goes to the principal
    ideal of the team of valuations satisfying it."""
    _check_k(k)
    alg = algebra(1 << k)
    assignment = {
        i: Denotation(alg, alg.principal_ideal(_true_team(i, k))) for i in range(k)
    }
    return Homomorphism(alg, assignment)


def has_principal_variables(hom: Homomorphism) -> bool:
    """True iff every assigned variable's denotation is a principal ideal."""
    return all(map(hom.algebra.is_principal_ideal, hom.bits_env().values()))


def f_map(hom: Homomorphism, k: int) -> tuple[int, ...]:
    """The representation map of a principal-variable homomorphism whose
    variables all lie below k, into the valuation model: per atom, the
    valuation recording which variable denotations contain its singleton."""
    _check_k(k)
    if any(v >= k for v in hom.assignment):
        raise ValueError("homomorphism assigns a variable at or above k")
    if not has_principal_variables(hom):
        raise PrincipalVariableError(
            "the representation map needs every variable denotation to be a principal ideal"
        )
    valuations = []
    for s in range(hom.algebra.n):
        singleton = 1 << s
        v = 0
        for i, d in hom.assignment.items():
            if singleton in d:
                v |= 1 << i
        valuations.append(v)
    return tuple(valuations)


@lru_cache(maxsize=None)
def _pt_dag(k: int, depth: int) -> tuple[tuple[Formula, ...], Program, tuple[int, ...]]:
    """All PT+ formulas over variables below k up to the given depth,
    children shared, compiled into one `Program`, and each formula's slot
    in it.  A leaf compiles from its `postorder` list, and each connective
    of the enumeration is one node over its operands' slots, so formulas
    equal up to the order of a connective's operands share a slot.  A
    depth combines only the pairs with an operand of the depth before."""
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in 1..{MAX_DEPTH}, got {depth}")
    formulas: list[Formula] = []
    for i in range(k):
        formulas += Var(i), Derived(DerivedTag.STRICT_NOT, (Var(i),))
    formulas += IntBot(), Derived(DerivedTag.NB)
    leaves = [postorder(leaf) for leaf in formulas]
    program = Program(leaves, labelled=False)
    slots = [program.term(nodes) for nodes in leaves]
    previous = 0
    for _ in range(depth - 1):
        fresh, previous = previous, len(formulas)  # the last depth is formulas[fresh:previous]
        for li in range(previous):
            for ri in range(0 if li >= fresh else fresh, previous):
                for kind in (IntOr, ExtAnd, ExtOr):
                    formulas.append(kind(formulas[li], formulas[ri]))
                    slots.append(program.node(kind, slots[li], slots[ri]))
    return tuple(formulas), program, tuple(slots)


def enumerate_pt_formulas(k: int, depth: int) -> tuple[Formula, ...]:
    """Every PT+ formula over variables below k up to the given connective
    depth, children shared, in dependency order (children before parents)."""
    return _pt_dag(k, depth)[0]


@lru_cache(maxsize=None)
def _hv_classes(k: int, depth: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The distinct slots of the PT+ formulas, grouped by value under H_V."""
    hv = build_hv(k)
    _, program, slots = _pt_dag(k, depth)
    values = program.run(hv.algebra, hv.bits_env())
    classes: dict[int, list[int]] = {}
    for slot in dict.fromkeys(slots):
        classes.setdefault(values[slot], []).append(slot)
    return tuple((bits, tuple(members)) for bits, members in classes.items())


def verify_f_representation(hom: Homomorphism, k: int, depth: int = 3,
                            valuations: tuple[int, ...] | None = None) -> bool:
    """Exhaustively check that membership transfers along the representation
    map: X in H(phi) iff lift(X) in H_V(phi), for every element X and every
    PT+ formula up to the given depth.  H and H_V run the one program of
    the formulas, and are compared at the formulas' slots only: the other
    slots, inside the expansion of ~, lie outside PT+.  `valuations` is
    the map `f_map(hom, k)`, computed here unless the caller holds it."""
    lifts = [0]  # per element, the union of its atoms' valuations: a team
    for v in f_map(hom, k) if valuations is None else valuations:  # doubling over the atoms
        lifts += [team | 1 << v for team in lifts]
    hom_values = _pt_dag(k, depth)[1].run(hom.algebra, hom.bits_env())
    for hvbits, slots in _hv_classes(k, depth):
        back = sum((hvbits >> lift & 1) << x for x, lift in enumerate(lifts))
        if any(hom_values[slot] != back for slot in slots):
            return False
    return True
