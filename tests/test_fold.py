"""One fold over the syntax.  `evaluate`, `label_bits` and the compiler
each walk a formula or label once, with `syntax.fold`, and reach the
derived connectives through their one core spelling instead of an
expanded copy of the tree.  Each path is checked exhaustively at n <= 2
against the expanded tree and the independent oracle in
tests/reference.py."""

import itertools
import random

import pytest

import reference as ref
from lt import entailment, semantics, syntax
from lt.algebra import Algebra
from lt.entailment import Program
from lt.errors import EvalError
from lt.semantics import Homomorphism, eval_core_bits, evaluate, label_bits
from lt.syntax import (
    ARITY,
    Derived,
    DerivedTag,
    ExtAnd,
    LabelledFormula,
    LAtom,
    Var,
    expand,
    parse_formula,
    postorder,
)

from helpers import random_formula, random_label

N_VARS = 2


def formulas_with_every_tag(seed: int) -> list:
    """Seeded formulas over P0 and P1: each derived connective at the
    root of three, over random operands, and twenty random ones."""
    rng = random.Random(seed + 150)
    out = [
        Derived(tag, tuple(random_formula(rng, 2, N_VARS) for _ in range(ARITY[tag])))
        for tag in DerivedTag
        for _ in range(3)
    ]
    return out + [random_formula(rng, 4, N_VARS) for _ in range(20)]


def assignments():
    """Every assignment of P0 and P1 at n = 0, 1, 2, as (algebra, bits)."""
    for alg in map(Algebra, range(3)):
        for bits in itertools.product(range(alg.full + 1), repeat=N_VARS):
            yield alg, dict(enumerate(bits))


def test_every_tag_is_covered(seed):
    formulas = formulas_with_every_tag(seed)
    tags = {node.tag for f in formulas for node in postorder(f) if type(node) is Derived}
    assert tags == set(DerivedTag)


def test_evaluate_agrees_with_the_expanded_tree_and_the_reference(seed):
    formulas = formulas_with_every_tag(seed)
    cores = [expand(f) for f in formulas]
    for alg, env in assignments():
        hom = Homomorphism.from_bits(alg, env)
        sets = {v: ref.from_bits(b, alg.n) for v, b in env.items()}
        for f, core in zip(formulas, cores):
            got = evaluate(hom, f).bits
            assert got == eval_core_bits(alg, env, core), (env, f)
            assert got == ref.to_bits(ref.evaluate(f, sets, alg.n)), (env, f)


def test_programs_of_a_formula_and_of_its_expansion_agree(seed):
    formulas = formulas_with_every_tag(seed)
    compiled = []
    for f in formulas:
        roots = []
        for tree in (f, expand(f)):
            program = Program([postorder(tree)], labelled=False)
            roots.append((program, program.term(postorder(tree))))
        compiled.append(roots)
    for alg, env in assignments():
        for f, roots in zip(formulas, compiled):
            (p, slot), (q, core_slot) = roots
            got = p.run(alg, env)[slot]
            assert got == q.run(alg, env)[core_slot], (env, f)
            assert got == eval_core_bits(alg, env, f), (env, f)


def test_label_bits_agrees_with_the_reference(seed):
    rng = random.Random(seed + 151)
    for _ in range(100):
        n = rng.choice((0, 1, 2))
        label = random_label(rng, 4, 3)
        lenv = {a: rng.randrange(1 << n) for a in range(3)}
        got = label_bits(lenv, label, (1 << n) - 1)
        assert got == ref.evaluate_label(label, lenv, n), (label, lenv)


@pytest.fixture
def walks(monkeypatch):
    """The root of every `postorder` walk, made by any module."""
    roots = []
    real = syntax.postorder

    def spy(root):
        roots.append(root)
        return real(root)

    for module in (syntax, semantics, entailment):
        monkeypatch.setattr(module, "postorder", spy)
    return roots


def test_evaluate_walks_each_formula_once(walks):
    hom = Homomorphism.from_bits(Algebra(2), {0: 0b0110, 1: 0b1000})
    for text in ("box P0 -> ~ P1", "dia (P0 o* P1) i& nb", "P0 i| i! P1"):
        f = parse_formula(text)
        walks.clear()
        evaluate(hom, f)
        assert walks == [f]


def test_the_compilers_walk_each_formula_and_label_once(walks):
    premises = [parse_formula(t) for t in ("box (P0 i| ~P0)", "box P0", "P1 -> dia P0")]
    conclusion = parse_formula("~ ~ P1 o* top")
    entailment._compile_entailment(premises, conclusion)
    assert walks == [*premises, conclusion]
    gamma = [LabelledFormula(LAtom(0), premises[1]), LabelledFormula(LAtom(1), premises[2])]
    goal = LabelledFormula(LAtom(2), conclusion)
    walks.clear()
    entailment._compile_labelled(gamma, goal)
    assert walks == [x for lf in (*gamma, goal) for x in (lf.label, lf.formula)]


def test_unbound_messages_are_unchanged():
    hom = Homomorphism.from_bits(Algebra(1), {0: 1})
    for text in ("P0 & P3", "box (P0 i| P3)", "~ P3 -> P0"):
        with pytest.raises(EvalError, match=r"^unbound variable P3$"):
            evaluate(hom, parse_formula(text))
        with pytest.raises(EvalError, match=r"^unbound variable P3$"):
            eval_core_bits(hom.algebra, hom.bits_env(), expand(parse_formula(text)))
    with pytest.raises(EvalError, match=r"^unbound label atom p4$"):
        label_bits({0: 1}, syntax.parse_label("p0 & !p4"), 1)
    program = entailment._compile_entailment((), parse_formula("~ P0 -> P3"))
    with pytest.raises(EvalError, match=r"^unbound variable P3$"):
        program.run(hom.algebra, hom.bits_env())


@pytest.mark.parametrize("tag", [DerivedTag.STRICT_NOT, DerivedTag.BOX])
def test_deep_chains_evaluate_and_compile(tag):
    f = Var(0)
    for _ in range(5000):
        f = Derived(tag, (f,))
    f = ExtAnd(f, Var(1))
    alg = Algebra(2)
    env = {0: 0b0010, 1: alg.full}
    program = entailment._compile_entailment((), f)
    want = program.run(alg, env)[program.bad] ^ alg.full  # bad is the conclusion's complement
    assert evaluate(Homomorphism.from_bits(alg, env), f).bits == want
    assert eval_core_bits(alg, env, f) == want
