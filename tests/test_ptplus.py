import itertools
import random

import pytest

from lt.algebra import Algebra
from lt.entailment import local_counterexample, local_entails, pva_axioms, algebra_entails
from lt.errors import FragmentError, PrincipalVariableError
from lt.ptplus import (
        build_hv,
    enumerate_pt_formulas,
    f_map,
    format_team,
    has_principal_variables,
    is_pt_formula,
    pt_entails,
    pt_eval,
)
from lt.semantics import Homomorphism, eval_core_bits, evaluate
from lt.syntax import (
    Derived,
    DerivedTag,
    ExtAnd,
            IntOr,
                Var,
    expand,
    parse_formula,
)

from helpers import random_principal_hom


class TestFragment:
    def test_members(self):
        assert is_pt_formula(parse_formula("P0 i| ~P0"))
        assert is_pt_formula(parse_formula("ibot | (nb & P1)"))
        assert is_pt_formula(parse_formula("P0 o* P1"))

    def test_non_members(self):
        assert not is_pt_formula(parse_formula("~ ~ P0"))
        assert not is_pt_formula(parse_formula("box P0"))
        assert not is_pt_formula(parse_formula("!P0"))
        assert not is_pt_formula(parse_formula("P0 i& P1"))

    def test_eval_rejects(self):
        with pytest.raises(FragmentError):
            pt_eval(parse_formula("box P0"), 1)
        with pytest.raises(FragmentError):
            pt_eval(parse_formula("P2"), 1)


class TestPtEval:
    def test_variable(self):
        assert pt_eval(parse_formula("P0"), 1).to_lists() == [[], ["1"]]

    def test_ibot(self):
        assert pt_eval(parse_formula("ibot"), 1).to_lists() == [[]]

    def test_excluded_middle_splits_every_team(self):
        d = pt_eval(parse_formula("P0 i| ~P0"), 1)
        assert d.bits == (1 << 4) - 1  # all four teams

    def test_nb(self):
        d = pt_eval(parse_formula("nb"), 1)
        assert d.to_lists() == [["0"], ["1"], ["0", "1"]]

    def test_strict_literal(self):
        assert pt_eval(parse_formula("~P0"), 1).to_lists() == [[], ["0"]]

    def test_circle_star_sugar(self, seed):
        rng = random.Random(seed + 61)
        pool = enumerate_pt_formulas(2, 2)
        for _ in range(60):
            left = rng.choice(pool)
            right = rng.choice(pool)
            sugar = Derived(DerivedTag.CIRCLE_STAR, (left, right))
            spelled = IntOr(
                ExtAnd(left, Derived(DerivedTag.NB)), ExtAnd(right, Derived(DerivedTag.NB))
            )
            assert pt_eval(sugar, 2).bits == pt_eval(spelled, 2).bits


class TestScaleLimits:
    def test_k0(self):
        assert pt_eval(parse_formula("ibot"), 0).to_lists() == [[]]
        assert pt_eval(parse_formula("nb"), 0).to_lists() == [[""]]

    def test_k3_agreement(self):
        f = parse_formula("P0 i| ~P2")
        hv = build_hv(3)
        assert pt_eval(f, 3).bits == evaluate(hv, f).bits

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            pt_eval(parse_formula("P0"), 4)


class TestPtEntails:
    def test_excluded_middle(self):
        entailed, _ = pt_entails([], parse_formula("P0 i| ~P0"), 2)
        assert entailed

    def test_nb_conjunction_fails_on_empty_team(self):
        entailed, counter = pt_entails([parse_formula("P0")], parse_formula("P0 & nb"), 1)
        assert not entailed
        assert counter == 0  # the empty team
        assert format_team(counter, 1) == []

    def test_ibot_premise(self):
        entailed, _ = pt_entails([parse_formula("ibot")], parse_formula("P0"), 1)
        assert entailed


class TestBuildHv:
    def test_principal_variables(self):
        for k in (0, 1, 2):
            hv = build_hv(k)
            assert hv.algebra.n == 1 << k
            assert has_principal_variables(hv)

    def test_k1_assignment(self):
        hv = build_hv(1)
        assert hv.assignment[0].to_strings() == ["00", "10"]  # {empty, {1}}

    def test_nb_denotation(self):
        hv = build_hv(1)
        assert evaluate(hv, parse_formula("nb")).bits == hv.algebra.full ^ 1

    def test_agreement_small(self):
        # team-as-element identification makes the two evaluations literally equal
        for k in (1, 2):
            hv = build_hv(k)
            cache = {}
            for f in enumerate_pt_formulas(k, 2):
                assert pt_eval(f, k, cache).bits == evaluate(hv, f).bits


class TestAgreementWithEntailment:
    def test_desk_form(self, seed):
        # pt entailment matches local entailment under the valuation
        # homomorphism, on a seeded sample of small premise sets
        rng = random.Random(seed + 62)
        for k in (1, 2):
            hv = build_hv(k)
            pool = enumerate_pt_formulas(k, 2)
            for _ in range(120):
                delta = [rng.choice(pool) for _ in range(rng.randrange(3))]
                psi = rng.choice(pool)
                assert pt_entails(delta, psi, k)[0] == local_entails(hv, delta, psi)

    def test_refutation_transfers(self):
        # a pt counterexample is an LT countermodel in the principal class
        delta = [parse_formula("P0")]
        psi = parse_formula("P0 & nb")
        entailed, counter = pt_entails(delta, psi, 1)
        assert not entailed
        hv = build_hv(1)
        assert local_counterexample(hv, delta, psi) == counter
        assert has_principal_variables(hv)
        # and the axiomatised form also fails: PVA, delta |/- psi
        entailed_ax, cm = algebra_entails(2, pva_axioms({0}) + delta, psi)
        assert not entailed_ax


class TestFlatness:
    """Formulas from literals with & and i| lift the classical denotation:
    the team denotation is the powerset of the satisfying valuations."""

    def _classical(self, f, s):
        if isinstance(f, Var):
            return s >> f.index & 1 == 1
        if isinstance(f, Derived) and f.tag is DerivedTag.STRICT_NOT:
            return s >> f.args[0].index & 1 == 0
        if isinstance(f, IntOr):
            return self._classical(f.left, s) or self._classical(f.right, s)
        assert isinstance(f, ExtAnd)
        return self._classical(f.left, s) and self._classical(f.right, s)

    def _fragment(self, rng, depth, k):
        if depth == 0 or rng.random() < 0.3:
            v = Var(rng.randrange(k))
            return v if rng.random() < 0.5 else Derived(DerivedTag.STRICT_NOT, (v,))
        build = rng.choice((IntOr, ExtAnd))
        return build(self._fragment(rng, depth - 1, k), self._fragment(rng, depth - 1, k))

    def test_powerset_lift(self, seed):
        rng = random.Random(seed + 63)
        for _ in range(150):
            k = rng.choice((1, 2))
            f = self._fragment(rng, 3, k)
            satisfying = sum(1 << s for s in range(1 << k) if self._classical(f, s))
            alg = Algebra(1 << k)
            assert pt_eval(f, k).bits == alg.principal_ideal(satisfying)

    def test_principal(self, seed):
        rng = random.Random(seed + 64)
        for _ in range(100):
            k = rng.choice((1, 2))
            f = self._fragment(rng, 3, k)
            alg = Algebra(1 << k)
            assert alg.is_principal_ideal(pt_eval(f, k).bits)


class TestFMap:
    def test_identity_on_hv(self):
        for k in (1, 2):
            fmap = f_map(build_hv(k), k)
            assert fmap.valuations == tuple(range(1 << k))

    def test_two_atom_example(self):
        alg = Algebra(2)
        h = Homomorphism.from_bits(alg, {0: alg.principal_ideal(0b01)})
        fmap = f_map(h, 1)
        assert fmap.valuation_of(0) == 1  # atom 0's singleton lies in H(P0)
        assert fmap.valuation_of(1) == 0

    def test_lift_distributes_over_union(self, seed):
        rng = random.Random(seed + 65)
        alg = Algebra(3)
        h = random_principal_hom(rng, alg, range(2))
        fmap = f_map(h, 2)
        for _ in range(100):
            x = rng.randrange(alg.size)
            y = rng.randrange(alg.size)
            assert fmap.lift(x | y) == fmap.lift(x) | fmap.lift(y)

    def test_requires_principal_variables(self):
        alg = Algebra(2)
        h = Homomorphism.from_bits(alg, {0: 0b0110})  # {01, 10}: not an ideal
        with pytest.raises(PrincipalVariableError):
            f_map(h, 1)

    def test_requires_variables_below_k(self):
        alg = Algebra(1)
        h = Homomorphism.from_bits(alg, {3: alg.principal_ideal(0)})
        with pytest.raises(ValueError):
            f_map(h, 1)


class TestFRepresentation:
    def test_hv_is_represented_by_itself(self):
        assert pt_eval is not None
        from lt.ptplus import verify_f_representation

        assert verify_f_representation(build_hv(1), 1, depth=2)

    def test_random_principal_homs(self, seed):
        from lt.ptplus import verify_f_representation

        rng = random.Random(seed + 66)
        for _ in range(25):
            m = rng.choice((1, 2, 3))
            k = rng.choice((1, 2))
            h = random_principal_hom(rng, Algebra(m), range(k))
            assert verify_f_representation(h, k, depth=2)


def test_pair_unions_are_computed_once_per_operand_pair(monkeypatch):
    # the k = 2 criterion-9 sweep: the union of each distinct operand pair
    # is computed once, every later meeting is a cache hit
    from lt import ptplus

    cached = ptplus._pair_unions
    calls = []
    monkeypatch.setattr(ptplus, "_pair_unions", lambda x, y: calls.append((x, y)) or cached(x, y))
    cached.cache_clear()
    cache = {}
    for f in enumerate_pt_formulas(2, 3):
        pt_eval(f, 2, cache)
    info = cached.cache_info()
    assert len(calls) > 10 * len(set(calls))
    assert (info.misses, info.hits) == (len(set(calls)), len(calls) - len(set(calls)))


@pytest.mark.parametrize("k, depth", [(0, 2), (1, 2), (2, 2), (1, 3)])
def test_program_slots_match_the_tree_walker(seed, k, depth):
    # each enumerated formula's slot in the one compiled PT+ program, run
    # at a fixed assignment, against what `evaluate` computes for it: the
    # tree walk of its expansion.  Every homomorphism at m <= 2, seeded
    # ones at m = 3 that need not be principal, and H_V.
    from lt import ptplus

    formulas, program, slots = ptplus._pt_dag(k, depth)
    cores = [expand(f) for f in formulas]
    homs = [
        Homomorphism.from_bits(alg, dict(enumerate(bits)))
        for alg in map(Algebra, range(3))
        for bits in itertools.product(range(alg.full + 1), repeat=k)
    ]
    rng, alg = random.Random(seed + 11 * k + depth), Algebra(3)
    homs += [Homomorphism.from_bits(alg, {i: rng.randrange(alg.full + 1) for i in range(k)})
             for _ in range(4)]
    homs.append(build_hv(k))
    for hom in homs:
        env = hom.bits_env()
        values = program.run(hom.algebra, env)
        for f, core, slot in zip(formulas, cores, slots):
            assert values[slot] == eval_core_bits(hom.algebra, env, core), (env, f)
