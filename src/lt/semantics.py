"""Evaluation of formulas under homomorphisms into powerset algebras.

A homomorphism fixes an algebra and a denotation for each propositional
variable; it then determines the value of every formula compositionally,
in one `syntax.fold` into the algebra's operations.  The default path
computes each derived connective through its core spelling in that walk;
the native path computes them directly at the set level (closures, strict
negation, the two-case modal operators) and exists so the two can be
cross-checked.
"""

from __future__ import annotations

import operator
from functools import partial
from typing import Mapping

from .algebra import Algebra, Denotation, same_fields
from .errors import AlgebraMismatchError, EvalError
from .syntax import (
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
    LAnd,
    Label,
    LabelledFormula,
    LBot,
    LNot,
    LOr,
    Var,
    fold,
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
    """Evaluate a formula to a denotation bitset, each derived connective
    through its core spelling.  env maps variable indices to denotation
    bitsets; unbound variables are an error."""
    return _eval_bits(algebra, env, formula, False)


def _eval_bits(algebra: Algebra, env: Mapping[int, int], formula: Formula, native: bool) -> int:
    """One `fold` of the formula into the algebra's operations, each
    derived connective through its core spelling, or at the set level by
    `_native` when native is set."""
    ops = {
        ExtBot: lambda: 0, IntBot: algebra.int_bot, ExtNot: partial(operator.xor, algebra.full),
        ExtAnd: operator.and_, ExtOr: operator.or_, IntAnd: algebra.int_and,
        IntOr: algebra.int_or, IntNot: algebra.int_not,
    }
    build = lambda kind, *children: ops[kind](*children)
    variable = _lookup(env, "variable P")
    if native:
        return fold(postorder(formula), variable, build, lambda tag, args, _: _native(algebra, tag, args))
    return fold(postorder(formula), variable, build)


def _lookup(env: Mapping[int, int], unbound: str):
    """A fold's leaf: the value in env of a variable's or label atom's
    index, and an error naming it, after `unbound`, if it has none."""
    def leaf(node) -> int:
        try:
            return env[node.index]
        except KeyError:
            raise EvalError(f"unbound {unbound}{node.index}") from None

    return leaf


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

    By default each derived connective is computed through its core
    spelling, in the same walk; with native_derived=True it is computed
    directly at the set level.
    An optional cache (valid for this homomorphism only) keeps the
    denotation of each whole formula evaluated: evaluating it again is a
    lookup, but a miss walks every subformula again, shared ones included.
    """
    if cache is not None:
        hit = cache.get(formula)
        if hit is not None:
            return hit
    out = Denotation(hom.algebra, _eval_bits(hom.algebra, hom.bits_env(), formula, native_derived))
    if cache is not None:
        cache[formula] = out
    return out


def eval_label(valuation: LabelValuation, label: Label) -> int:
    """Classical evaluation of a label to an element of the algebra."""
    return label_bits(valuation.assignment, label, valuation.algebra.top)


def label_bits(env: Mapping[int, int], label: Label, top: int) -> int:
    """A label evaluated in the Boolean algebra of the bitsets below
    `top`, by one `fold`: each atom takes its value from env, and !
    complements within top."""
    ops = {LBot: lambda: 0, LNot: partial(operator.xor, top), LOr: operator.or_, LAnd: operator.and_}
    return fold(postorder(label), _lookup(env, "label atom p"), lambda kind, *c: ops[kind](*c))


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
