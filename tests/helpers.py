"""Seeded random generators shared across the test modules, and the
paper's formulas and checks that only the tests use."""

from __future__ import annotations

import random
from typing import Iterable, Sequence

import reference as ref
from lt.algebra import Algebra, Denotation, algebra, iter_bits
from lt import entailment
from lt.entailment import (
    DEFAULT_CAP,
    NOTE_FINITE_SCOPE,
    Countermodel,
    SearchReport,
    algebra_entails,
)
from lt.errors import BudgetExceededError
from lt.semantics import Homomorphism, LabelValuation, evaluate
from lt.syntax import (
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
    LAnd,
    LAtom,
    Label,
    LBot,
    LNot,
    LOr,
    Var,
)

_UNARY_TAGS = (DerivedTag.DOWN, DerivedTag.UP, DerivedTag.DIAMOND, DerivedTag.BOX, DerivedTag.STRICT_NOT)
_NULLARY_TAGS = (DerivedTag.EXT_TOP, DerivedTag.INT_TOP, DerivedTag.NB)


def random_formula(rng: random.Random, depth: int, n_vars: int, derived: bool = True) -> Formula:
    if depth <= 0 or rng.random() < 0.2:
        choices = ["var", "bot", "ibot"]
        if derived:
            choices.append("const")
        kind = rng.choice(choices)
        if kind == "var" and n_vars > 0:
            return Var(rng.randrange(n_vars))
        if kind == "const":
            return Derived(rng.choice(_NULLARY_TAGS))
        return ExtBot() if kind == "bot" else IntBot()
    kinds = ["enot", "inot", "eor", "eand", "ior", "iand"]
    if derived:
        kinds += ["dunary", "implies", "ostar"]
    kind = rng.choice(kinds)
    if kind == "enot":
        return ExtNot(random_formula(rng, depth - 1, n_vars, derived))
    if kind == "inot":
        return IntNot(random_formula(rng, depth - 1, n_vars, derived))
    if kind == "dunary":
        return Derived(rng.choice(_UNARY_TAGS), (random_formula(rng, depth - 1, n_vars, derived),))
    left = random_formula(rng, depth - 1, n_vars, derived)
    right = random_formula(rng, depth - 1, n_vars, derived)
    if kind == "eor":
        return ExtOr(left, right)
    if kind == "eand":
        return ExtAnd(left, right)
    if kind == "ior":
        return IntOr(left, right)
    if kind == "iand":
        return IntAnd(left, right)
    if kind == "implies":
        return Derived(DerivedTag.IMPLIES, (left, right))
    return Derived(DerivedTag.CIRCLE_STAR, (left, right))


def random_label(rng: random.Random, depth: int, n_atoms: int) -> Label:
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.15:
            return LBot()
        return LAtom(rng.randrange(n_atoms))
    kind = rng.choice(["not", "or", "and"])
    if kind == "not":
        return LNot(random_label(rng, depth - 1, n_atoms))
    left = random_label(rng, depth - 1, n_atoms)
    right = random_label(rng, depth - 1, n_atoms)
    return LOr(left, right) if kind == "or" else LAnd(left, right)


def random_hom(rng: random.Random, algebra: Algebra, variables) -> Homomorphism:
    return Homomorphism(
        algebra,
        {v: Denotation(algebra, rng.randrange(algebra.full + 1)) for v in variables},
    )


def random_principal_hom(rng: random.Random, algebra: Algebra, variables) -> Homomorphism:
    return Homomorphism(
        algebra,
        {
            v: Denotation(algebra, algebra.principal_ideal(rng.randrange(algebra.size)))
            for v in variables
        },
    )


def local_counterexample(
    hom: Homomorphism, premises: Iterable[Formula], conclusion: Formula
) -> int | None:
    """Least witness element of the premise denotations' intersection
    (the full carrier for none) outside the conclusion's, or None."""
    inter = hom.algebra.full
    for p in premises:
        inter &= evaluate(hom, p).bits
    return next(iter_bits(inter & ~evaluate(hom, conclusion).bits), None)


def boxed(formulas: Iterable[Formula]) -> list[Formula]:
    """box phi for each formula: as a premise, it admits exactly the
    homomorphisms under which phi denotes the full carrier."""
    return [Derived(DerivedTag.BOX, (f,)) for f in formulas]


def pva_axioms(var_indices: Iterable[int]) -> list[Formula]:
    """The principal-variable axioms box(P_i i| ~P_i), one per variable,
    in index order.  Valid under H exactly when every listed variable's
    denotation is a principal ideal."""
    tilde = lambda f: Derived(DerivedTag.STRICT_NOT, (f,))
    return boxed(IntOr(Var(i), tilde(Var(i))) for i in sorted(set(var_indices)))


def verify_box_internalisation(
    n: int, pi: Sequence[Formula], premises: Sequence[Formula], conclusion: Formula
) -> bool:
    """Whether prefixing box(pi) to the premises decides as restricting to
    the homomorphisms that validate pi does, least countermodel included:
    the scan on the boxed side, the oracle's filters on the restricted one."""
    entailed, cm = algebra_entails(n, boxed(pi) + list(premises), conclusion)
    restricted = ref.brute(n, premises, conclusion, filters=pi)
    return (entailed, None if cm is None else cm.to_json_obj()) == restricted


def order_box(formula: Formula) -> Formula:
    """Necessity over the algebra's partial order: !down !phi."""
    return ExtNot(Derived(DerivedTag.DOWN, (ExtNot(formula),)))


def grz_formula(var_index: int = 0) -> Formula:
    """Grzegorczyk's formula over the order modality; valid on an algebra's
    order frame exactly when the algebra is finite."""
    p = Var(var_index)
    imp = lambda a, b: Derived(DerivedTag.IMPLIES, (a, b))
    return imp(order_box(imp(order_box(imp(p, order_box(p))), p)), p)


def lift(cm: Countermodel) -> Countermodel:
    """The countermodel at n lifted by preimage along the onto map
    2^(n+1) -> 2^n that drops atom n: each variable's denotation X goes to
    the elements whose atoms below n form a member of X, and the witness
    and each label atom's element to themselves, which lack atom n.  Every
    connective but ibot, and those spelled with it (itop, nb, ~ and o*),
    sends preimages to preimages, and the map commutes with the label
    operations, so for a query without them the lift is a countermodel."""
    half = cm.algebra.size  # element e with atom n added is e + half
    alg = algebra(cm.algebra.n + 1)
    hom = Homomorphism.from_bits(alg, {v: x | x << half for v, x in cm.hom.bits_env().items()})
    labels = None if cm.labels is None else LabelValuation(alg, dict(cm.labels.assignment))
    return Countermodel(hom, cm.witness, labels)


def scan_order(cm: Countermodel) -> tuple[int, ...]:
    """The countermodel's assignment as the scan orders assignments: the
    variables ascending, then the label atoms, each as its denotation (a
    label atom's element e as the singleton 1 << e)."""
    variables = tuple(x for _, x in sorted(cm.hom.bits_env().items()))
    atoms = () if cm.labels is None else sorted(cm.labels.assignment.items())
    return variables + tuple(1 << e for _, e in atoms)


def deepen_upward(entails, max_n: int, *query, cap: int = DEFAULT_CAP, **kwargs) -> SearchReport:
    """The report that `find_countermodel` (entails=`algebra_entails`) or
    `find_labelled_countermodel` (`labelled_entails`) gives, from one scan
    per size, n = 0, 1, ..., max_n in turn: the first size with a
    countermodel, or the first over the cap with its note."""
    for n in range(max_n + 1):
        try:
            entailed, cm = entails(n, *query, cap=cap, **kwargs)
        except BudgetExceededError as exc:
            return SearchReport("budget_exceeded", n - 1, note=str(exc))
        if not entailed:
            return SearchReport("countermodel", n, countermodel=cm)
    return SearchReport("exhausted", max_n, note=NOTE_FINITE_SCOPE)


def sizes_scanned(monkeypatch, search) -> tuple[list[int], object]:
    """The algebra sizes `_decide` scans during search(), in order, and
    what search() returns."""
    sizes, decide = [], entailment._decide

    def spy(program, n, *args):
        sizes.append(n)
        return decide(program, n, *args)

    monkeypatch.setattr(entailment, "_decide", spy)
    try:
        return sizes, search()
    finally:
        monkeypatch.setattr(entailment, "_decide", decide)
