import random

import pytest

from lt.algebra import Algebra, Denotation
from lt.entailment import (
    NOTE_FINITE_SCOPE,
    algebra_entails,
    find_countermodel,
    labelled_entails,
    replay,
    replay_labelled,
)
from lt.errors import BudgetExceededError
from lt.semantics import Homomorphism, compose, evaluate
from lt.syntax import (
    Derived,
    DerivedTag,
    IntBot,
    IntNot,
    IntOr,
    Var,
    format_formula,
    parse_formula,
    parse_labelled,
    parse_labelled_query,
)

from helpers import (
    grz_formula,
    local_counterexample,
    pva_axioms,
    random_formula,
    verify_box_internalisation,
)


def hom(n, **bits_by_var):
    return Homomorphism.from_bits(Algebra(n), {int(k[1:]): v for k, v in bits_by_var.items()})


class TestLocalEntails:
    def test_top_conclusion(self):
        h = hom(1, P0=0b11)
        assert local_counterexample(h, [Var(0)], parse_formula("top")) is None

    def test_empty_premises_ibot(self):
        for n in (0, 1, 2):
            h = hom(n)
            assert (local_counterexample(h, [], IntBot()) is None) == (n == 0)

    def test_strict_double_negation_witness(self):
        h = hom(1, P0=0)
        assert local_counterexample(h, [parse_formula("~ ~ P0")], Var(0)) == 0


class TestAlgebraEntails:
    def test_ibot_not_inot_ibot(self):
        entailed, cm = algebra_entails(1, [IntBot()], IntNot(IntBot()))
        assert not entailed
        assert cm.witness == 0
        assert replay(cm, [IntBot()], IntNot(IntBot()))

    def test_canonicity_ibot(self):
        for n in (0, 1, 2, 3):
            entailed, _ = algebra_entails(n, [], IntBot())
            assert entailed == (n == 0)

    def test_canonicity_ibot_or_itop(self):
        f = parse_formula("ibot | itop")
        for n in (0, 1, 2, 3):
            entailed, _ = algebra_entails(n, [], f)
            assert entailed == (n in (0, 1))

    def test_principal_class_excluded_middle(self):
        f = parse_formula("P0 i| ~P0")
        entailed_pv, _ = algebra_entails(2, [], f, "principal_variables")
        assert entailed_pv
        entailed_all, cm = algebra_entails(2, [], f, "all")
        assert not entailed_all
        # {11} alone is not downward closed, so it also gives a countermodel
        h = hom(2, P0=1 << 0b11)
        assert local_counterexample(h, [], f) is not None

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            algebra_entails(2, [], parse_formula("P0 | P1"), cap=10)

    def test_size_four_supported(self):
        entailed, cm = algebra_entails(4, [], IntBot())
        assert not entailed and cm.witness == 1  # least element outside {bottom}

    def test_size_cap(self):
        with pytest.raises(ValueError):
            algebra_entails(5, [], IntBot())


class TestFindCountermodel:
    def test_strict_double_negation_elim(self):
        report = find_countermodel([], parse_formula("~ ~ P0 -> P0"), max_n=3)
        assert report.status == "countermodel"
        assert report.countermodel.algebra.n <= 1
        assert report.countermodel.hom.assignment[0].bits == 0

    def test_strict_double_negation_intro(self):
        report = find_countermodel([], parse_formula("P0 -> ~ ~ P0"), max_n=3)
        assert report.status == "exhausted"
        assert report.completed_n == 3

    def test_strict_negation_weak_excluded_middle(self):
        report = find_countermodel([], parse_formula("~P0 i| ~ ~ P0"), max_n=3)
        assert report.status == "exhausted"
        assert report.note == NOTE_FINITE_SCOPE

    def test_budget_report(self):
        report = find_countermodel([], parse_formula("P0 -> ~ ~ P0"), max_n=3, cap=100)
        assert report.status == "budget_exceeded"
        assert report.completed_n < 3


class TestLabelled:
    def test_reflexive(self):
        gamma, concl = parse_labelled_query("p0 : P0 |- p0 : P0")
        for n in (0, 1, 2):
            entailed, _ = labelled_entails(n, gamma, concl)
            assert entailed

    def test_internal_vs_external_conjunction(self):
        gamma, concl = parse_labelled_query("p0 : P0 i& P1 |- p0 : P0 & P1")
        entailed, cm = labelled_entails(2, gamma, concl)
        assert not entailed
        assert replay_labelled(cm, gamma, concl)

    def test_matches_unlabelled(self):
        # spot checks that plain entailment agrees with single-atom labelling
        cases = [
            ("ibot", "i!ibot"),
            ("P0", "P0 | P1"),
            ("P0 i& P1", "P0"),
            ("~ ~ P0", "P0"),
        ]
        for premise, conclusion in cases:
            for n in (0, 1, 2):
                plain, _ = algebra_entails(n, [parse_formula(premise)], parse_formula(conclusion))
                labelled, _ = labelled_entails(
                    n,
                    [parse_labelled(f"p0 : {premise}")],
                    parse_labelled(f"p0 : {conclusion}"),
                )
                assert plain == labelled, (premise, conclusion, n)


class TestPva:
    def test_singleton(self):
        (axiom,) = pva_axioms({0})
        assert axiom == Derived(
            DerivedTag.BOX,
            (IntOr(Var(0), Derived(DerivedTag.STRICT_NOT, (Var(0),))),),
        )
        assert format_formula(axiom) == "box (P0 i| ~P0)"

    def test_empty(self):
        assert pva_axioms(set()) == []

    def test_ordered(self):
        axioms = pva_axioms({1, 0})
        assert [format_formula(a) for a in axioms] == [
            "box (P0 i| ~P0)",
            "box (P1 i| ~P1)",
        ]


class TestPrincipalIdealLaw:
    def test_exhaustive(self):
        # local validity of P0 i| ~P0 holds exactly on principal ideals
        f = parse_formula("P0 i| ~P0")
        for n in (0, 1, 2):
            alg = Algebra(n)
            for bits in range(alg.full + 1):
                h = Homomorphism.from_bits(alg, {0: bits})
                assert (evaluate(h, f).bits == alg.full) == alg.is_principal_ideal(bits)


class TestBoxInternalisation:
    def test_pva_case(self):
        f = parse_formula("P0 i| ~P0")
        assert verify_box_internalisation(2, pva_axioms({0}), [], f)

    def test_trivial_class_case(self):
        assert verify_box_internalisation(1, [IntBot()], [], parse_formula("itop"))

    def test_empty_pi(self):
        assert verify_box_internalisation(1, [], [Var(0)], Var(0))

    def test_random(self, seed):
        rng = random.Random(seed + 51)
        for _ in range(30):
            pi = [random_formula(rng, 2, 2) for _ in range(rng.randrange(2))]
            premises = [random_formula(rng, 2, 2) for _ in range(rng.randrange(2))]
            conclusion = random_formula(rng, 2, 2)
            assert verify_box_internalisation(1, pi, premises, conclusion)


class TestBoxDesignatedValue:
    def test_law(self, seed):
        # box phi |- psi iff every homomorphism sending phi to the full
        # carrier also sends psi to the full carrier
        rng = random.Random(seed + 52)
        for _ in range(40):
            n = rng.choice((0, 1, 2))
            alg = Algebra(n)
            phi = random_formula(rng, 2, 2)
            psi = random_formula(rng, 2, 2)
            left, _ = algebra_entails(n, [Derived(DerivedTag.BOX, (phi,))], psi)
            variables = range(2)
            right = True
            for b0 in range(alg.full + 1):
                for b1 in range(alg.full + 1):
                    h = Homomorphism.from_bits(alg, {0: b0, 1: b1})
                    if evaluate(h, phi).bits == alg.full and evaluate(h, psi).bits != alg.full:
                        right = False
                        break
                if not right:
                    break
            assert left == right


class TestDeductionTheorem:
    def test_randomized_biconditional(self, seed):
        rng = random.Random(seed + 53)
        for _ in range(60):
            n = rng.choice((0, 1, 2))
            delta = [random_formula(rng, 2, 2) for _ in range(rng.randrange(3))]
            phi = random_formula(rng, 2, 2)
            psi = random_formula(rng, 2, 2)
            with_premise, _ = algebra_entails(n, delta + [phi], psi)
            with_arrow, _ = algebra_entails(
                n, delta, Derived(DerivedTag.IMPLIES, (phi, psi))
            )
            assert with_premise == with_arrow


class TestSubstitutionality:
    def test_contrapositive(self, seed):
        # a countermodel for the substituted entailment composes to a
        # countermodel of the original with the same witness
        rng = random.Random(seed + 54)
        from lt.syntax import substitute

        found = 0
        for _ in range(200):
            n = rng.choice((1, 2))
            delta = [random_formula(rng, 2, 2) for _ in range(rng.randrange(2))]
            psi = random_formula(rng, 2, 2)
            sigma = {v: random_formula(rng, 2, 2) for v in range(2)}
            entailed, cm = algebra_entails(
                n, [substitute(d, sigma) for d in delta], substitute(psi, sigma)
            )
            if entailed:
                continue
            found += 1
            # bind the sigma-image variables the countermodel never needed
            from lt.syntax import free_vars

            alg = cm.hom.algebra
            needed = frozenset().union(*(free_vars(g) for g in sigma.values()))
            extended = Homomorphism(
                alg,
                {
                    **{v: Denotation(alg, 0) for v in needed},
                    **cm.hom.assignment,
                },
            )
            pulled = compose(extended, sigma)
            inter = pulled.algebra.full
            for d in delta:
                inter &= evaluate(pulled, d).bits
            assert inter >> cm.witness & 1 == 1
            assert evaluate(pulled, psi).bits >> cm.witness & 1 == 0
        assert found >= 20


class TestS5:
    def test_axioms_valid(self):
        instances = [
            "box (P0 -> P1) -> (box P0 -> box P1)",  # K
            "box P0 -> P0",  # T
            "box P0 -> box box P0",  # 4
            "P0 -> box dia P0",  # B
            "dia P0 -> box dia P0",  # 5
        ]
        for text in instances:
            f = parse_formula(text)
            for n in (0, 1, 2):
                entailed, cm = algebra_entails(n, [], f)
                assert entailed, (text, n)


class TestGrz:
    def test_no_countermodel_small(self):
        f = grz_formula()
        for n in (1, 2):
            entailed, _ = algebra_entails(n, [], f)
            assert entailed


class TestDeterminism:
    def test_least_countermodel_parallel(self):
        premises = [parse_formula("P0 & P1"), parse_formula("P2")]
        conclusion = parse_formula("P3")
        seq = algebra_entails(2, premises, conclusion, jobs=1)
        par = algebra_entails(2, premises, conclusion, jobs=2)
        assert not seq[0] and not par[0]
        assert seq[1].hom.assignment == par[1].hom.assignment
        assert seq[1].witness == par[1].witness

    def test_repeat_runs_identical(self):
        report1 = find_countermodel([], parse_formula("~ ~ P0 -> P0"), max_n=2)
        report2 = find_countermodel([], parse_formula("~ ~ P0 -> P0"), max_n=2)
        assert report1 == report2


class TestReplaySoundness:
    def test_random_queries(self, seed):
        rng = random.Random(seed + 55)
        found = 0
        for _ in range(150):
            n = rng.choice((0, 1, 2))
            delta = [random_formula(rng, 2, 2) for _ in range(rng.randrange(3))]
            psi = random_formula(rng, 2, 2)
            entailed, cm = algebra_entails(n, delta, psi)
            if not entailed:
                found += 1
                assert replay(cm, delta, psi)
        assert found >= 30
