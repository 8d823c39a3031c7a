"""Evaluation of formulas under homomorphisms into powerset algebras.

A homomorphism fixes an algebra and a denotation for each propositional
variable; it then determines the value of every formula compositionally,
in one `syntax.fold` into the algebra's operations, each derived
connective through its core spelling in that walk.  As the semantics is
compositional, a formula given as text is evaluated as it is parsed: the
parser's value grammar applies the same operations, from one table per
algebra, and no tree is built (`eval_text_bits`, which `lt eval` runs).
The independent oracle in tests/reference.py computes every connective
from its definition at the set level, and the tests cross-check them.
"""

from __future__ import annotations

import operator
from functools import cache, partial
from typing import Mapping

from .algebra import Algebra, Denotation, same_fields
from .errors import AlgebraMismatchError, EvalError
from .syntax import (
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
    fold_formula,
    postorder,
    value_grammar,
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


@cache
def _operations(algebra: Algebra) -> dict:
    """The algebra's operation of each core formula class, built once per
    algebra for both evaluators: `fold` over a tree, and the parser over
    a text (`_value_grammar`)."""
    return {
        ExtBot: int, IntBot: algebra.int_bot, ExtNot: partial(operator.xor, algebra.full),
        ExtAnd: operator.and_, ExtOr: operator.or_, IntAnd: algebra.int_and,
        IntOr: algebra.int_or, IntNot: algebra.int_not,
    }


@cache
def _value_grammar(algebra: Algebra):
    return value_grammar(_operations(algebra))


def eval_core_bits(algebra: Algebra, env: Mapping[int, int], formula: Formula) -> int:
    """Evaluate a formula to a denotation bitset: one `fold` into the
    algebra's operations, each derived connective through its core
    spelling.  env maps variable indices to denotation bitsets; unbound
    variables are an error."""
    return fold(postorder(formula), _lookup(env, "variable P"), _operations(algebra))


def eval_text_bits(algebra: Algebra, env: Mapping[int, int], text: str) -> int:
    """The denotation bitset of the formula `text`, as eval_core_bits gives
    it for the parsed formula, computed as the text is parsed: no tree is
    built.  A syntax error anywhere in the text is raised first; then the
    first unbound variable in the text is an error."""
    unbound = []

    def var(index: int) -> int:
        value = env.get(index)
        if value is None:
            unbound.append(index)
            return 0
        return value

    bits = fold_formula(text, _value_grammar(algebra), var)
    if unbound:
        raise EvalError(f"unbound variable P{unbound[0]}")
    return bits


def _lookup(env: Mapping[int, int], unbound: str):
    """A fold's leaf: the value in env of a variable's or label atom's
    index, and an error naming it, after `unbound`, if it has none."""
    def leaf(node) -> int:
        try:
            return env[node.index]
        except KeyError:
            raise EvalError(f"unbound {unbound}{node.index}") from None

    return leaf


def evaluate(
    hom: Homomorphism, formula: Formula, *, cache: dict[Formula, Denotation] | None = None
) -> Denotation:
    """The denotation of the formula under the homomorphism, each derived
    connective computed through its core spelling in the same walk.
    An optional cache (valid for this homomorphism only) keeps the
    denotation of each whole formula evaluated: evaluating it again is a
    lookup, but a miss walks every subformula again, shared ones included.
    """
    if cache is not None:
        hit = cache.get(formula)
        if hit is not None:
            return hit
    out = Denotation(hom.algebra, eval_core_bits(hom.algebra, hom.bits_env(), formula))
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
    ops = {LBot: int, LNot: partial(operator.xor, top), LOr: operator.or_, LAnd: operator.and_}
    return fold(postorder(label), _lookup(env, "label atom p"), ops)


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
