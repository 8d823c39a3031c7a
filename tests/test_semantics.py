import random

import pytest

import reference as ref
from lt.algebra import Algebra, Denotation
from lt.errors import EvalError
from lt.semantics import (
    Homomorphism,
    LabelValuation,
    compose,
    eval_label,
    evaluate,
    satisfies,
)
from lt.syntax import (
    Derived,
    DerivedTag,
    IntBot,
    LabelledFormula,
    LAtom,
    LBot,
    Var,
    expand,
    parse_formula,
    parse_label,
    parse_labelled,
    substitute,
)

from helpers import random_formula, random_hom


def hom(n, **bits_by_var):
    alg = Algebra(n)
    return Homomorphism.from_bits(alg, {int(k[1:]): v for k, v in bits_by_var.items()})


class TestEvaluate:
    def test_int_bot_everywhere(self):
        for n in (0, 1, 2):
            h = hom(n)
            assert evaluate(h, IntBot()).bits == 1

    def test_double_strict_not_of_empty(self):
        h = hom(1, P0=0)
        assert h.algebra.format_denotation(evaluate(h, parse_formula("~ ~ P0")).bits) == ["0"]

    def test_box_dia_on_singleton_top(self):
        h = hom(1, P0=0b10)
        box = parse_formula("box P0")
        dia = parse_formula("dia P0")
        assert evaluate(h, box).bits == 0
        assert evaluate(h, dia).bits == h.algebra.full
        assert evaluate(h, box) == reference(h, box)
        assert evaluate(h, dia) == reference(h, dia)

    def test_constants(self):
        h = hom(2)
        assert evaluate(h, parse_formula("nb")).bits == h.algebra.full ^ 1
        assert h.algebra.format_denotation(evaluate(h, parse_formula("itop")).bits) == ["11"]
        assert evaluate(h, parse_formula("top")).bits == h.algebra.full

    def test_unbound_variable(self):
        with pytest.raises(EvalError, match="P3"):
            evaluate(hom(1), Var(3))

    def test_cache(self):
        h = hom(2, P0=0b0110)
        cache = {}
        f = parse_formula("~P0 i| ~ ~P0")
        assert evaluate(h, f, cache=cache) == evaluate(h, f)
        assert evaluate(h, f, cache=cache) == evaluate(h, f)


def reference(h, f):
    """The formula's denotation by the oracle in tests/reference.py, which
    computes each derived connective from its definition at the set level."""
    n = h.algebra.n
    env = {v: ref.from_bits(d.bits, n) for v, d in h.assignment.items()}
    return Denotation(h.algebra, ref.to_bits(ref.evaluate(f, env, n)))


def native(h, tag, *args):
    """A derived connective over the arguments by `evaluate`, checked
    against the oracle's set-level definition of it."""
    f = Derived(tag, args)
    got = evaluate(h, f)
    assert got == reference(h, f)
    return got


class TestNativeDerived:
    def test_strict_not(self):
        h = hom(1, P0=0b10)
        assert h.algebra.format_denotation(native(h, DerivedTag.STRICT_NOT, Var(0)).bits) == ["0"]

    def test_dia_of_empty(self):
        h = hom(1, P0=0)
        assert native(h, DerivedTag.DIAMOND, Var(0)).bits == 0

    def test_down_matches_expansion(self):
        h = hom(2, P0=1 << 0b11)
        native_down = native(h, DerivedTag.DOWN, Var(0))
        assert native_down.bits == h.algebra.full
        assert native_down == evaluate(h, parse_formula("P0 i& top"))

    def test_coherence_randomized(self, seed):
        # 500 seeded (formula, homomorphism) pairs at n <= 2
        rng = random.Random(seed + 41)
        algebras = {n: Algebra(n) for n in (0, 1, 2)}
        for _ in range(500):
            n = rng.choice((0, 1, 2))
            h = random_hom(rng, algebras[n], range(3))
            f = random_formula(rng, 4, 3)
            assert reference(h, f) == evaluate(h, f)


class TestEvalLabel:
    def test_bot(self):
        v = LabelValuation(Algebra(2), {})
        assert eval_label(v, LBot()) == 0

    def test_negation(self):
        v = LabelValuation(Algebra(1), {0: 1})
        assert eval_label(v, parse_label("!p0")) == 0

    def test_or(self):
        v = LabelValuation(Algebra(2), {0: 0b01, 1: 0b10})
        assert eval_label(v, parse_label("p0 | p1")) == 0b11

    def test_unbound_atom(self):
        with pytest.raises(EvalError, match="p2"):
            eval_label(LabelValuation(Algebra(1), {}), LAtom(2))


class TestSatisfies:
    def test_itop_means_top(self):
        alg = Algebra(2)
        h = hom(2)
        lf = parse_labelled("p0 : itop")
        for e in alg.elements():
            v = LabelValuation(alg, {0: e})
            assert satisfies(v, h, lf) == (e == alg.top)

    def test_f_ibot_always(self):
        h = hom(1, P0=0b01)
        v = LabelValuation(h.algebra, {})
        assert satisfies(v, h, LabelledFormula(LBot(), IntBot()))

    def test_false_case(self):
        h = hom(1, P0=0b10)
        v = LabelValuation(h.algebra, {0: 0})
        assert not satisfies(v, h, parse_labelled("p0 : P0"))


class TestCompose:
    def test_identity(self, seed):
        rng = random.Random(seed + 42)
        h = random_hom(rng, Algebra(2), range(3))
        composed = compose(h, {})
        for _ in range(50):
            f = random_formula(rng, 3, 3)
            assert evaluate(composed, f) == evaluate(h, f)

    def test_constant_substitution(self):
        h = hom(1, P0=0b11)
        composed = compose(h, {0: IntBot()})
        assert composed.assignment[0].bits == 1

    def test_substitution_law(self, seed):
        rng = random.Random(seed + 43)
        algebras = {n: Algebra(n) for n in (0, 1, 2)}
        for _ in range(200):
            n = rng.choice((0, 1, 2))
            h = random_hom(rng, algebras[n], range(3))
            sigma = {rng.randrange(3): random_formula(rng, 2, 3)}
            f = random_formula(rng, 3, 3)
            assert evaluate(h, substitute(f, sigma)) == evaluate(compose(h, sigma), f)


class TestExpandEvalAgreement:
    def test_explicit_expansion_path(self, seed):
        # evaluate() must agree with literally evaluating the expanded tree
        rng = random.Random(seed + 44)
        for _ in range(200):
            n = rng.choice((0, 1, 2))
            h = random_hom(rng, Algebra(n), range(2))
            f = random_formula(rng, 4, 2)
            assert evaluate(h, f) == evaluate(h, expand(f))
