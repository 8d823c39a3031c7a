"""Evaluation of formulas under homomorphisms into powerset algebras.

A homomorphism fixes an algebra and a denotation for each propositional
variable; it then determines the value of every formula compositionally.
The default path expands derived connectives to core syntax first; the
native path computes them directly at the set level (closures, strict
negation, the two-case modal operators) and exists so the two can be
cross-checked.
"""

from __future__ import annotations

from typing import Mapping

from .algebra import Algebra, Denotation, same_fields
from .errors import AlgebraMismatchError, EvalError
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
    IntNot,
    IntOr,
    LAtom,
    Label,
    LabelledFormula,
    LBot,
    LNot,
    LOr,
    Var,
    expand,
    postorder,
)


class Homomorphism:
    """Assignment of a denotation to each variable, over a fixed algebra."""

    __slots__ = ("algebra", "assignment")

    def __init__(self, algebra: Algebra, assignment: Mapping[int, Denotation]):
        for v, d in assignment.items():
            if d.algebra != algebra:
                raise AlgebraMismatchError(f"assignment for P{v} targets a different algebra")
        self.algebra = algebra
        self.assignment = assignment

    __eq__ = same_fields

    @classmethod
    def from_bits(cls, algebra: Algebra, bits_by_var: Mapping[int, int]) -> "Homomorphism":
        return cls(algebra, {v: Denotation(algebra, b) for v, b in bits_by_var.items()})

    def bits_env(self) -> dict[int, int]:
        return {v: d.bits for v, d in self.assignment.items()}


class LabelValuation:
    """Assignment of an algebra element to each atomic label."""

    __slots__ = ("algebra", "assignment")

    def __init__(self, algebra: Algebra, assignment: Mapping[int, int]):
        self.algebra = algebra
        self.assignment = assignment

    __eq__ = same_fields


def eval_core_bits(algebra: Algebra, env: Mapping[int, int], formula: Formula) -> int:
    """Evaluate a core formula to a denotation bitset.  env maps variable
    indices to denotation bitsets; unbound variables are an error."""
    return _eval_bits(algebra, env, formula, False)


def _eval_bits(algebra: Algebra, env: Mapping[int, int], formula: Formula, native: bool) -> int:
    """The one tree walker, children first without recursion: derived
    connectives are computed directly at the set level when native is
    set, and are an error otherwise."""
    out: list[int] = []
    full = algebra.full
    for f in postorder(formula):
        kind = type(f)
        if kind is Var:
            try:
                out.append(env[f.index])
            except KeyError:
                raise EvalError(f"unbound variable P{f.index}") from None
        elif kind is ExtNot:
            out[-1] ^= full
        elif kind is ExtAnd:
            right = out.pop()
            out[-1] &= right
        elif kind is ExtOr:
            right = out.pop()
            out[-1] |= right
        elif kind is IntAnd:
            right = out.pop()
            out[-1] = algebra.int_and(out[-1], right)
        elif kind is IntOr:
            right = out.pop()
            out[-1] = algebra.int_or(out[-1], right)
        elif kind is IntNot:
            out[-1] = algebra.int_not(out[-1])
        elif kind is ExtBot:
            out.append(0)
        elif kind is IntBot:
            out.append(algebra.int_bot())
        else:
            assert kind is Derived
            if not native:
                raise EvalError(f"derived connective {f.tag.value} in core evaluation; expand first")
            split = len(out) - len(f.args)
            args, out[split:] = out[split:], ()
            out.append(_native(algebra, f.tag, args))
    return out[0]


def _native(algebra: Algebra, tag: DerivedTag, args: list[int]) -> int:
    """One derived connective at the set level, over evaluated arguments."""
    if tag is DerivedTag.EXT_TOP:
        return algebra.full
    if tag is DerivedTag.INT_TOP:
        return algebra.int_top()
    if tag is DerivedTag.NB:
        return algebra.ext_not(algebra.int_bot())
    if tag is DerivedTag.DOWN:
        return algebra.down_closure(args[0])
    if tag is DerivedTag.UP:
        return algebra.up_closure(args[0])
    if tag is DerivedTag.DIAMOND:
        return algebra.full if args[0] else 0
    if tag is DerivedTag.BOX:
        return algebra.full if args[0] == algebra.full else 0
    if tag is DerivedTag.STRICT_NOT:
        return algebra.strict_neg(args[0])
    if tag is DerivedTag.IMPLIES:
        return algebra.ext_not(args[0]) | args[1]
    assert tag is DerivedTag.CIRCLE_STAR
    nb = algebra.ext_not(algebra.int_bot())
    return algebra.int_or(args[0] & nb, args[1] & nb)


def evaluate(
    hom: Homomorphism,
    formula: Formula,
    *,
    native_derived: bool = False,
    cache: dict[Formula, Denotation] | None = None,
) -> Denotation:
    """The denotation of the formula under the homomorphism.

    By default derived connectives are expanded to core syntax first;
    with native_derived=True they are computed directly at the set level.
    An optional cache (valid for this homomorphism only) makes repeated
    evaluation over shared subformulas cheap.
    """
    if cache is not None:
        hit = cache.get(formula)
        if hit is not None:
            return hit
    tree = formula if native_derived else expand(formula)
    out = Denotation(hom.algebra, _eval_bits(hom.algebra, hom.bits_env(), tree, native_derived))
    if cache is not None:
        cache[formula] = out
    return out


def eval_label(valuation: LabelValuation, label: Label) -> int:
    """Classical evaluation of a label to an element of the algebra."""
    return label_bits(valuation.assignment, label, valuation.algebra.top)


def label_bits(env: Mapping[int, int], label: Label, top: int) -> int:
    """The one label walker, children first without recursion: a label
    evaluated in the Boolean algebra of the bitsets below `top`, each
    atom taking its value from env and ! complementing within top."""
    out: list[int] = []
    for a in postorder(label):
        kind = type(a)
        if kind is LAtom:
            try:
                out.append(env[a.index])
            except KeyError:
                raise EvalError(f"unbound label atom p{a.index}") from None
        elif kind is LBot:
            out.append(0)
        elif kind is LNot:
            out[-1] ^= top
        else:
            right = out.pop()
            out[-1] = out[-1] | right if kind is LOr else out[-1] & right
    return out[0]


def satisfies(valuation: LabelValuation, hom: Homomorphism, lf: LabelledFormula) -> bool:
    """True iff the label's value lies in the formula's denotation."""
    if valuation.algebra != hom.algebra:
        raise ValueError("label valuation and homomorphism target different algebras")
    element = eval_label(valuation, lf.label)
    return evaluate(hom, lf.formula).bits >> element & 1 == 1


def compose(hom: Homomorphism, sigma: Mapping[int, Formula]) -> Homomorphism:
    """The homomorphism H∘σ: each variable goes to H's value of its σ-image,
    so eval(compose(H, σ), φ) = eval(H, substitute(φ, σ)) for every formula."""
    domain = set(hom.assignment) | set(sigma)
    assignment = {v: evaluate(hom, sigma.get(v, Var(v))) for v in sorted(domain)}
    return Homomorphism(hom.algebra, assignment)
