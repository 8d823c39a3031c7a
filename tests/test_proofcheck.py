import json
import random
from pathlib import Path

import pytest

from lt.entailment import labelled_entails
from lt.errors import BudgetExceededError, LTError
from lt.proofcheck import (
    Assume,
    Rule,
    RuleName,
    check,
    conclusion_of,
    derivation_from_json,
    derivation_to_json,
    load_assumptions,
    load_derivation,
    open_assumptions,
    taut_oracle,
)
from lt.syntax import (
    ExtAnd,
    ExtBot,
    ExtNot,
    ExtOr,
    IntAnd,
    ITOP_CORE,
    LabelledFormula,
    LAnd,
    LAtom,
    LBot,
    LNot,
    LOr,
    Var,
    equality_label,
    parse_label,
    parse_labelled,
)

import reference as ref
from helpers import random_label

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

a, b, p, q = LAtom(0), LAtom(1), LAtom(1), LAtom(2)
P0, P1 = Var(0), Var(1)


def LF(label, formula):
    return LabelledFormula(label, formula)


class TestTautOracle:
    def test_excluded_middle_k0(self):
        assert taut_oracle([], parse_label("p0 | !p0"))

    def test_weakening(self):
        assert taut_oracle([parse_label("p0")], parse_label("p0 | p1"))

    def test_non_tautology(self):
        assert not taut_oracle([parse_label("p0 | p1")], parse_label("p0"))

    def test_budget(self):
        wide = parse_label(" | ".join(f"p{i}" for i in range(21)))
        with pytest.raises(BudgetExceededError) as info:
            taut_oracle([], wide)
        assert info.value.total == 2**21

    def test_agrees_with_the_row_loop_reference(self, seed):
        # seeded labels over up to 6 atoms; a target joined with one of
        # the hypotheses is entailed, so both verdicts occur
        rng = random.Random(seed + 71)
        verdicts = []
        for _ in range(300):
            hyps = [random_label(rng, 3, 6) for _ in range(rng.randrange(3))]
            target = random_label(rng, 4, 6)
            if hyps and rng.random() < 0.5:
                target = LOr(target, rng.choice(hyps))
            verdicts.append(ref.taut(hyps, target))
            assert taut_oracle(hyps, target) == verdicts[-1], (hyps, target)
        assert 50 < sum(verdicts) < 250

    @pytest.mark.parametrize("m", [1, 2, 5, 12, 20])
    def test_falsified_only_on_the_last_row(self, seed, m):
        # m atoms in a seeded order; the target fails only where every
        # atom is true, the last row, and the hypotheses hold there
        rng = random.Random(seed + 72 + m)
        atoms = [LAtom(i) for i in rng.sample(range(40), m)]
        every = atoms[0]
        for atom in atoms[1:]:
            every = LAnd(every, atom)
        hyps = rng.sample(atoms, rng.randrange(m + 1))
        target = LNot(every)
        assert not ref.taut(hyps, target) and not taut_oracle(hyps, target)
        valid = LOr(target, rng.choice(atoms))
        assert ref.taut(hyps, valid) and taut_oracle(hyps, valid)

    def test_no_atoms(self):
        F, T = LBot(), LNot(LBot())
        cases = [([], F), ([], T), ([F], F), ([T], F), ([T, T], T)]
        assert [taut_oracle(*case) for case in cases] == [False, True, True, False, True]
        assert [ref.taut(*case) for case in cases] == [False, True, True, False, True]


class TestCorpus:
    def _fixtures(self):
        return sorted(CORPUS.glob("*.json"))

    def test_corpus_is_large_enough(self):
        names = {f.stem for f in self._fixtures()}
        assert "fig1" in names and "freshness_violation" in names
        assert len(names - {"fig1", "freshness_violation"}) >= 10

    def test_all_accepted_check(self):
        for path in self._fixtures():
            if path.stem == "freshness_violation":
                continue
            result = check(load_derivation(path), load_assumptions(path.with_suffix(".assumptions")))
            assert result.ok, (path.stem, result)

    def test_freshness_fixture_rejected(self):
        path = CORPUS / "freshness_violation.json"
        result = check(load_derivation(path), load_assumptions(path.with_suffix(".assumptions")))
        assert not result.ok
        assert result.reason == "freshness"

    def test_soundness_cross_check(self):
        # every accepted (assumptions, conclusion) pair survives labelled
        # countermodel search at n <= 2
        for path in self._fixtures():
            if path.stem == "freshness_violation":
                continue
            d = load_derivation(path)
            gamma = load_assumptions(path.with_suffix(".assumptions"))
            concl = conclusion_of(d)
            for n in (0, 1, 2):
                entailed, _ = labelled_entails(n, gamma, concl)
                assert entailed, (path.stem, n)

    def test_provable_iff_refutable_pairs(self):
        # the paired fixtures encode Gamma |- a:phi alongside
        # Gamma, a:!phi |- a:bot; both sides must check
        for base in ("fig1", "and_comm", "or_comm", "inot_roundtrip"):
            for name in (base, f"{base}_pair"):
                path = CORPUS / f"{name}.json"
                result = check(load_derivation(path), load_assumptions(path.with_suffix(".assumptions")))
                assert result.ok, name

    def test_json_round_trip(self):
        for path in self._fixtures():
            d = load_derivation(path)
            assert derivation_from_json(derivation_to_json(d)) == d
        deep = derivation_from_json(_deep_derivation(1500))
        back = derivation_from_json(derivation_to_json(deep))
        assert back is not deep and back == deep and hash(back) == hash(deep)

    def test_determinism(self):
        path = CORPUS / "freshness_violation.json"
        d = load_derivation(path)
        gamma = load_assumptions(path.with_suffix(".assumptions"))
        assert check(d, gamma) == check(d, gamma)


class TestOpenAssumptions:
    def test_assume_leaf(self):
        leaf = Assume("u1", LF(a, P0))
        assert open_assumptions(leaf) == {("u1", LF(a, P0))}

    def test_above_or_elimination(self):
        major = Assume("g1", LF(a, ExtOr(P0, P1)))
        u1 = Assume("u1", LF(a, P0))
        u2 = Assume("u2", LF(a, P1))
        s1 = Rule(RuleName.OR_I_R, LF(a, ExtOr(P1, P0)), (u1,))
        s2 = Rule(RuleName.OR_I_L, LF(a, ExtOr(P1, P0)), (u2,))
        root = Rule(
            RuleName.OR_E, LF(a, ExtOr(P1, P0)), (major, s1, s2), ((), ("u1",), ("u2",))
        )
        assert open_assumptions(root) == {("g1", LF(a, ExtOr(P0, P1)))}

    def test_inside_internal_elimination(self):
        d = load_derivation(CORPUS / "iand_comm.json")
        opens = open_assumptions(d, (1,))  # the side premise subtree
        ids = {aid for aid, _ in opens}
        assert {"u_p", "u_q", "u_e"} <= ids

    def test_bad_path(self):
        with pytest.raises(LTError):
            open_assumptions(Assume("u1", LF(a, P0)), (0,))


class TestViolations:
    def test_open_assumption_not_in_gamma(self):
        leaf = Assume("u1", LF(a, P0))
        result = check(leaf, [])
        assert not result.ok
        assert result.reason == "open-assumption"

    def test_shape(self):
        bad = Rule(RuleName.AND_I, LF(a, ExtAnd(P0, P1)), (Assume("u1", LF(a, P0)),))
        result = check(bad, [LF(a, P0)])
        assert not result.ok
        assert result.reason == "shape"

    def test_label_mismatch_is_shape(self):
        bad = Rule(
            RuleName.AND_I,
            LF(a, ExtAnd(P0, P1)),
            (Assume("u1", LF(a, P0)), Assume("u2", LF(b, P1))),
        )
        result = check(bad, [LF(a, P0), LF(b, P1)])
        assert not result.ok and result.reason == "shape"

    def test_discharge_wrong_assumption(self):
        u1 = Assume("u1", LF(a, P1))  # NotI on !P0 cannot discharge a : P1
        not_e = Rule(RuleName.NOT_E, LF(a, ExtBot()), (u1, Assume("g", LF(a, ExtNot(P1)))))
        bad = Rule(RuleName.NOT_I, LF(a, ExtNot(P0)), (not_e,), (("u1",),))
        result = check(bad, [LF(a, ExtNot(P1))])
        assert not result.ok and result.reason == "discharge"

    def test_discharge_unknown_id(self):
        body = Assume("u1", LF(a, ExtBot()))
        bad = Rule(RuleName.NOT_I, LF(a, ExtNot(ExtBot())), (body,), (("nope",),))
        result = check(bad, [LF(a, ExtBot())])
        assert not result.ok and result.reason == "discharge"

    def test_vacuous_discharge_allowed(self):
        body = Assume("u1", LF(a, ExtBot()))
        d = Rule(RuleName.NOT_I, LF(a, ExtNot(P0)), (body,), ((),))
        assert check(d, [LF(a, ExtBot())]).ok

    def test_taut_condition(self):
        bad = Rule(
            RuleName.TAUT,
            LF(a, ITOP_CORE),
            (Assume("u1", LF(LOr(a, b), ITOP_CORE)),),
        )
        result = check(bad, [LF(LOr(a, b), ITOP_CORE)])
        assert not result.ok and result.reason == "taut"

    def test_taut_needs_itop(self):
        bad = Rule(RuleName.TAUT, LF(a, ITOP_CORE), (Assume("u1", LF(a, P0)),))
        result = check(bad, [LF(a, P0)])
        assert not result.ok and result.reason == "shape"

    def test_sub_orientation(self):
        # the equality must be (conclusion label <-> premise label) : itop
        eq_wrong = Assume("e", LF(equality_label(b, a), ITOP_CORE))
        base = Assume("g", LF(b, P0))
        bad = Rule(RuleName.SUB, LF(a, P0), (eq_wrong, base))
        result = check(bad, [eq_wrong.formula, base.formula])
        assert not result.ok and result.reason == "shape"
        eq_right = Assume("e", LF(equality_label(a, b), ITOP_CORE))
        good = Rule(RuleName.SUB, LF(a, P0), (eq_right, base))
        assert check(good, [eq_right.formula, base.formula]).ok

    def test_derived_connective_rejected(self):
        lf = parse_labelled("p0 : box P0")
        result = check(Assume("u1", lf), [lf])
        assert not result.ok and result.reason == "shape"

    def test_id_reuse_with_different_formula(self):
        d = Rule(
            RuleName.AND_I,
            LF(a, ExtAnd(P0, P1)),
            (Assume("u1", LF(a, P0)), Assume("u1", LF(a, P1))),
        )
        result = check(d, [LF(a, P0), LF(a, P1)])
        assert not result.ok and result.reason == "discharge"

    def test_violation_path_points_into_tree(self):
        with open(CORPUS / "and_comm.json", encoding="utf-8") as fh:
            obj = json.load(fh)
        obj["premises"][0]["conclusion"] = "p0 : P0"  # break the left AndE_R
        result = check(derivation_from_json(obj), load_assumptions(CORPUS / "and_comm.assumptions"))
        assert not result.ok
        assert result.path == (0,)


class TestFreshness:
    def _skeleton(self, fresh, p_label="p1", q_label="p2", extra_gamma=()):
        g1 = Assume("g1", parse_labelled("p0 : P0 i& P1"))
        u_p = Assume("u_p", parse_labelled(f"{p_label} : P0"))
        u_q = Assume("u_q", parse_labelled(f"{q_label} : P1"))
        u_e = Assume(
            "u_e",
            LF(
                equality_label(a, LAnd(parse_label(p_label), parse_label(q_label))),
                ITOP_CORE,
            ),
        )
        iand_i = Rule(
            RuleName.IAND_I,
            LF(
                LAnd(parse_label(q_label), parse_label(p_label)),
                IntAnd(P1, P0),
            ),
            (u_q, u_p),
        )
        taut = Rule(
            RuleName.TAUT,
            LF(
                equality_label(a, LAnd(parse_label(q_label), parse_label(p_label))),
                ITOP_CORE,
            ),
            (u_e,),
        )
        sub = Rule(RuleName.SUB, LF(a, IntAnd(P1, P0)), (taut, iand_i))
        root = Rule(
            RuleName.IAND_E,
            LF(a, IntAnd(P1, P0)),
            (g1, sub),
            ((), ("u_p", "u_q", "u_e")),
            fresh,
        )
        gamma = [g1.formula] + list(extra_gamma)
        return root, gamma

    def test_well_formed_passes(self):
        root, gamma = self._skeleton((1, 2))
        assert check(root, gamma).ok

    def test_duplicate_atom(self):
        # mirror of the corpus pseudo-derivation: one atom for both slots
        path = CORPUS / "freshness_violation.json"
        result = check(load_derivation(path), load_assumptions(path.with_suffix(".assumptions")))
        assert result.reason == "freshness"

    def test_atom_in_rule_labels(self):
        # declared atom equal to the conclusion/major label p0
        g1 = Assume("g1", parse_labelled("p0 : P0 i& P1"))
        u_p = Assume("u_p", parse_labelled("p0 : P0"))
        u_q = Assume("u_q", parse_labelled("p2 : P1"))
        u_e = Assume("u_e", LF(equality_label(a, LAnd(LAtom(0), LAtom(2))), ITOP_CORE))
        body = Rule(
            RuleName.SUB,
            LF(a, P0),
            (
                Rule(RuleName.TAUT, LF(equality_label(a, a), ITOP_CORE), ()),
                u_p,
            ),
        )
        root = Rule(
            RuleName.IAND_E,
            LF(a, P0),
            (g1, body),
            ((), ("u_p",)),
            (0, 2),
        )
        result = check(root, [g1.formula])
        assert not result.ok and result.reason == "freshness"

    def test_atom_in_uncancelled_assumption(self):
        # an undischarged assumption whose label mentions a declared atom
        # blocks the instance: here 'stray' (p3 : bot) stays open
        g1 = Assume("g1", parse_labelled("p0 : P0 i& P1"))
        stray = Assume("stray", parse_labelled("p3 : bot"))
        u_p = Assume("u_p", parse_labelled("p3 : P0"))
        u_e = Assume("u_e", LF(equality_label(a, LAnd(LAtom(3), LAtom(4))), ITOP_CORE))
        via_bot = Rule(RuleName.BOT_E, parse_labelled("p4 : P1"), (stray,))
        iand_i = Rule(
            RuleName.IAND_I,
            LF(LAnd(LAtom(3), LAtom(4)), IntAnd(P0, P1)),
            (u_p, via_bot),
        )
        taut = Rule(
            RuleName.TAUT,
            LF(equality_label(a, LAnd(LAtom(3), LAtom(4))), ITOP_CORE),
            (u_e,),
        )
        sub = Rule(RuleName.SUB, LF(a, IntAnd(P0, P1)), (taut, iand_i))
        root = Rule(
            RuleName.IAND_E,
            LF(a, IntAnd(P0, P1)),
            (g1, sub),
            ((), ("u_p", "u_e")),
            (3, 4),
        )
        result = check(root, [g1.formula, stray.formula])
        assert not result.ok and result.reason == "freshness"


class TestJsonShape:
    def _and_comm(self):
        return json.loads((CORPUS / "and_comm.json").read_text())

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["premises"][1].update(conclusion=["p0 : P0"]),
             "$.premises[1].conclusion: must be a string, got an array"),
            (lambda d: d["premises"][0]["premises"][0].update(id=None),
             "$.premises[0].premises[0].id: an assumption id must be a string, got null"),
            (lambda d: d.update(discharges=[[], [{}]]),
             "$.discharges[1][0]: an assumption id must be a string, got an object"),
            (lambda d: d.update(discharges="g1"), "$.discharges: must be an array, got a string"),
            (lambda d: d["premises"].append(7), "$.premises[2]: a derivation node must be a JSON object"),
        ],
    )
    def test_bad_field_names_its_path(self, edit, message):
        obj = self._and_comm()
        edit(obj)
        with pytest.raises(LTError) as exc:
            derivation_from_json(obj)
        assert str(exc.value) == message

    def test_integer_ids_still_read_as_text(self):
        obj = self._and_comm()
        for leaf in (obj["premises"][0]["premises"][0], obj["premises"][1]["premises"][0]):
            leaf["id"] = 7
        d = derivation_from_json(obj)
        assert d.premises[0].premises[0].id == "7"
        assert check(d, load_assumptions(CORPUS / "and_comm.assumptions")).ok

    def test_deep_derivation_checked_without_recursion(self):
        # 1,500 nested AndE_L over one assumption, more than the recursion
        # limit allows: the conclusions do not match, and the violation at
        # the innermost rule is reported
        node = {"assume": "p0 : P0 & P0", "id": "u"}
        for _ in range(1500):
            node = {"rule": "AndE_L", "conclusion": "p0 : P1", "premises": [node]}
        result = check(derivation_from_json(node), [])
        assert not result.ok and result.reason == "shape" and result.path == (0,) * 1499

    def test_deep_derivation_hash_equality_and_repr(self):
        d, again = (derivation_from_json(_deep_derivation(1500)) for _ in range(2))
        other = derivation_from_json(_deep_derivation(1500, leaf_id="v"))
        assert hash(d) == hash(again) and d == again
        assert d != other and hash(d) != hash(other)
        text = repr(d)
        assert text.count("Rule(name=<RuleName.AND_E_L: 'AndE_L'>, conclusion=LabelledFormula(") == 1500
        assert text.count("Assume(id='u', formula=") == 1

    def test_deep_derivation_to_json_without_recursion(self):
        node = {"assume": "p0 : P0 & P0", "id": "u"}
        for _ in range(1500):
            node = {"rule": "AndE_L", "conclusion": "p0 : P1", "premises": [node]}
        obj = derivation_to_json(derivation_from_json(node))
        for _ in range(1500):  # `==` on the whole object would recurse
            assert obj.keys() == {"rule", "conclusion", "premises"}
            assert (obj["rule"], obj["conclusion"], len(obj["premises"])) == ("AndE_L", "p0 : P1", 1)
            obj = obj["premises"][0]
        assert obj == {"assume": "p0 : P0 & P0", "id": "u"}


def _deep_derivation(depth: int, leaf_id: str = "u") -> dict:
    """`depth` nested AndE_L over one assumption, as JSON."""
    node = {"assume": "p0 : P0 & P0", "id": leaf_id}
    for _ in range(depth):
        node = {"rule": "AndE_L", "conclusion": "p0 : P1", "premises": [node]}
    return node
