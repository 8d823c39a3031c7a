"""The natural-deduction rules as one table (`proofcheck._RULES`): every
rule has one row, every pattern is a core labelled formula, README lists
the rules in the table's order, a derivation is walked once, and the
verdicts on a fixed battery of mutated corpus derivations are those the
hand-written rule branches gave."""

import copy
import hashlib
import json
import random
import re
from pathlib import Path

import pytest

from lt import proofcheck
from lt.errors import LTError
from lt.proofcheck import (
    _RULES,
    Assume,
    Rule,
    RuleName,
    _rules,
    check,
    derivation_from_json,
    load_assumptions,
)
from lt.syntax import LAtom, Var, is_core, parse_labelled, postorder

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

RULE_NAMES = ("AndI", "AndE_L", "AndE_R", "OrI_L", "OrI_R", "OrE", "NotI", "NotE", "RAA",
              "BotE", "IAndI", "IAndE", "IOrI", "IOrE", "INotI", "INotE", "Taut", "Sub")
MUTANTS_PER_FIXTURE = 100


def _nodes(obj) -> list[dict]:
    """Every node of a JSON derivation, root first."""
    order, todo = [], [obj]
    while todo:
        order.append(node := todo.pop())
        todo += node.get("premises", [])
    return order


def _mutate(rng: random.Random, obj: dict) -> None:
    """One seeded edit of a rule node: its name, its conclusion (taken from
    another node), its premises (dropped, duplicated or reversed), its
    discharge lists or its fresh atoms; or an assumption's formula."""
    nodes = _nodes(obj)
    rules = [n for n in nodes if "rule" in n]
    leaves = [n for n in nodes if "assume" in n]
    formulas = [n.get("conclusion", n.get("assume")) for n in nodes]
    ids = sorted({n["id"] for n in leaves}) + ["zz"]
    kind = rng.randrange(9)
    if kind == 8 and leaves:
        rng.choice(leaves)["assume"] = rng.choice(formulas)
        return
    node = rng.choice(rules)
    premises = node["premises"]
    if kind == 0:
        node["rule"] = rng.choice(RULE_NAMES)
    elif kind == 1:
        node["conclusion"] = rng.choice(formulas)
    elif kind == 2 and premises:
        del premises[rng.randrange(len(premises))]
    elif kind == 3 and premises:
        premises.insert(rng.randrange(len(premises) + 1), copy.deepcopy(rng.choice(premises)))
    elif kind == 4:
        premises.reverse()
    elif kind == 5:
        count = len(premises) + rng.choice((0, 0, 0, -1, 1))
        node["discharges"] = [rng.sample(ids, rng.randrange(min(3, len(ids)) + 1))
                              for _ in range(max(count, 0))]
    elif kind == 6:
        node["fresh"] = [f"p{rng.randrange(8)}" for _ in range(rng.choice((0, 1, 2, 2, 2, 3)))]
    else:  # swap the conclusions of two nodes, or of a node with itself
        other = rng.choice(nodes)
        key = "conclusion" if "conclusion" in other else "assume"
        node["conclusion"], other[key] = other[key], node["conclusion"]


def mutation_battery() -> list:
    """The verdict of `check` on each of MUTANTS_PER_FIXTURE seeded
    mutants of every corpus derivation, each made by one or two edits,
    as [fixture, mutant, ok, path, reason, message]."""
    results = []
    for path in sorted(CORPUS.glob("*.json")):
        original = json.loads(path.read_text())
        gamma = load_assumptions(path.with_suffix(".assumptions"))
        rng = random.Random(f"rules:{path.stem}")
        for i in range(MUTANTS_PER_FIXTURE):
            obj = copy.deepcopy(original)
            for _ in range(1 + (rng.random() < 0.3)):
                _mutate(rng, obj)
            try:
                result = check(derivation_from_json(obj), gamma)
            except LTError as exc:
                results.append([path.stem, i, "load", str(exc)])
                continue
            path_list = None if result.path is None else list(result.path)
            results.append([path.stem, i, result.ok, path_list, result.reason, result.message])
    return results


def battery_hash(results: list) -> str:
    return hashlib.sha256(json.dumps(results).encode()).hexdigest()


# Recorded by running `mutation_battery` against the hand-written rule
# branches that `_RULES` replaced (the same corpus, seeds and edits).
BATTERY_SHA256 = "3907a16f56b2a8f6ebe3ae39744a956542245ad8e10cfa55d99067addcb09a70"


def test_mutation_battery_verdicts_are_unchanged():
    results = mutation_battery()
    assert len(results) == MUTANTS_PER_FIXTURE * len(list(CORPUS.glob("*.json")))
    verdicts = {r[2] for r in results}
    assert {True, False} <= verdicts  # the battery is not all one verdict
    assert battery_hash(results) == BATTERY_SHA256


def test_every_rule_has_exactly_one_row_in_enum_order():
    assert [row[0] for row in _RULES] == list(RuleName)
    assert [name.value for name in RuleName] == list(RULE_NAMES)


def _patterns(row):
    name, arity, checks, *shapes = row
    return ([text for _, *pairs in checks for _, text in pairs],
            [text for texts in shapes for text in texts])


def _metavariables(lf) -> set:
    return {type(node).__name__ + str(node.index)
            for node in postorder(lf.label) + postorder(lf.formula) if isinstance(node, (Var, LAtom))}


@pytest.mark.parametrize("row", _RULES, ids=lambda row: row[0].value)
def test_every_pattern_parses_to_a_core_formula(row):
    checked, discharged = _patterns(row)
    for text in checked + discharged:
        assert is_core(parse_labelled(text).formula), text
    # the checks, or the fresh atoms, bind every metavariable of a
    # discharge shape, so matching a shape binds nothing
    bound = set().union(*(_metavariables(parse_labelled(t)) for t in checked)) | {"LAtom8", "LAtom9"}
    for text in discharged:
        assert _metavariables(parse_labelled(text)) <= bound, text


def test_exactly_the_internal_eliminations_declare_fresh_atoms():
    fresh = {name for name, (_, _, _, count) in _rules().items() if count}
    assert fresh == {RuleName.IAND_E, RuleName.IOR_E}
    assert all(count in (0, 2) for _, _, _, count in _rules().values())


def _readme_rules() -> list[tuple[str, str]]:
    """The (rule, schema) cells of README's rule table, in order."""
    rows = []
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        cells = [cell.strip().replace("\\|", "|") for cell in re.split(r"(?<!\\)\|", line)]
        if len(cells) == 5 and re.fullmatch(r"`\w+`", cells[1]):
            rows.append((cells[1].strip("`"), cells[2], cells[3]))
    return rows


def test_readme_lists_the_table_rules_in_order():
    assert [name for name, _, _ in _readme_rules()] == [row[0].value for row in _RULES]


def test_readme_schemas_without_discharges_check():
    # each such schema, read with its metavariables as atoms, is a rule
    # instance the checker accepts from its premises as assumptions
    tried = 0
    for name, schema, discharges in _readme_rules():
        if discharges or "…" in schema:
            continue
        premises, conclusion = schema.split(" ⟹ ")
        gamma = [parse_labelled(p.strip("`")) for p in premises.split(", ")]
        leaves = tuple(Assume(f"u{i}", lf) for i, lf in enumerate(gamma))
        d = Rule(RuleName(name), parse_labelled(conclusion.strip("`")), leaves)
        assert check(d, gamma).ok, name
        tried += 1
    assert tried == 12


def _rule(name, conclusion, *premises, fresh=(), discharges=None):
    """A rule node over assumption leaves, as JSON, with its assumptions."""
    node = {"rule": name, "conclusion": conclusion,
            "premises": [{"assume": p, "id": f"u{i}"} for i, p in enumerate(premises)]}
    if fresh:
        node["fresh"] = list(fresh)
    if discharges is not None:
        node["discharges"] = discharges
    return derivation_from_json(node), [parse_labelled(p) for p in premises]


@pytest.mark.parametrize(
    "node, message",
    [
        (_rule("AndE_L", "p1 : P1", "p0 : P0"), "AndE_L needs a : phi & psi"),
        (_rule("AndE_R", "p1 : P1", "p0 : P0"), "AndE_R needs a : phi & psi"),
        (_rule("OrI_L", "p1 : P1", "p0 : P0"), "OrI_L concludes a : phi | psi"),
        (_rule("OrI_R", "p1 : P1", "p0 : P0"), "OrI_R concludes a : phi | psi"),
        (_rule("OrE", "p1 : P3", "p0 : P0", "p0 : P1", "p0 : P2"), "OrE needs a major premise a : phi | psi"),
        (_rule("NotI", "p1 : P1", "p0 : P0"), "NotI needs a premise concluding b : bot"),
        (_rule("INotE", "p1 : P1", "p0 : P0"), "INotE needs a premise a : i!phi"),
        (_rule("IAndE", "p0 : P2", "p0 : P0", "p0 : P1", fresh=["p1", "p2"]),
         "IAndE needs a major premise with the matching internal connective"),
        (_rule("IOrE", "p0 : P2", "p0 : P0", "p0 : P1", fresh=["p1", "p2"]),
         "IOrE needs a major premise with the matching internal connective"),
        (_rule("Taut", "p0 : P0", "p0 : P0"), "every Taut premise must be of the form a : i!ibot"),
        (_rule("Sub", "p0 : P2", "p0 : P0", "p1 : P1"),
         "Sub needs the equality a = b, oriented with the conclusion label first"),
        # the fresh atoms, the arity and an unwanted discharge come first
        (_rule("Sub", "p0 : P2", "p0 : P0", fresh=["p1", "p2"]), "Sub declares no fresh atoms"),
        (_rule("IOrE", "p0 : P2", "p0 : P0"), "IOrE declares exactly two fresh atoms"),
        (_rule("AndI", "p0 : P0", "p0 : P0", discharges=[["u0"]]), "AndI takes 2 premise(s), got 1"),
        (_rule("AndI", "p0 : P0", "p0 : P0", "p0 : P1", discharges=[["u0"], []]),
         "this rule discharges no assumptions"),
    ],
)
def test_a_node_failing_every_check_reports_the_first(node, message):
    d, gamma = node
    result = check(d, gamma)
    assert (result.ok, result.path, result.message) == (False, (), message)


def test_or_introductions_take_their_own_disjunct():
    for name, premise, ok in [("OrI_L", "p0 : P0", True), ("OrI_L", "p0 : P1", False),
                              ("OrI_R", "p0 : P1", True), ("OrI_R", "p0 : P0", False)]:
        assert check(*_rule(name, "p0 : P0 | P1", premise)).ok is ok, (name, premise)


@pytest.mark.parametrize("rule, op, other", [("IAndE", "&", "|"), ("IOrE", "|", "&")])
def test_internal_eliminations_discharge_their_own_label_equation(rule, op, other):
    # the side premise uses the equation only through Taut, so its shape
    # alone decides whether the rule may discharge it
    major = f"p0 : P0 i{op} P1"
    for equation, ok in [(f"p0 = p1 {op} p2", True), (f"p0 = p1 {other} p2", False)]:
        sub = {"rule": "Sub", "conclusion": "p3 : P3", "premises": [
            {"rule": "Taut", "conclusion": "p3 = p3", "premises": [{"assume": equation, "id": "e"}]},
            {"assume": "p3 : P3", "id": "g"}]}
        clash = {"rule": "NotE", "conclusion": "p3 : bot", "premises": [sub, {"assume": "p3 : !P3", "id": "h"}]}
        side = {"rule": "BotE", "conclusion": "p3 : P2", "premises": [clash]}
        node = {"rule": rule, "conclusion": "p3 : P2", "fresh": ["p1", "p2"], "discharges": [[], ["e"]],
                "premises": [{"assume": major, "id": "m"}, side]}
        gamma = [parse_labelled(t) for t in (major, "p3 : P3", "p3 : !P3")]
        result = check(derivation_from_json(node), gamma)
        want = (True, None, None) if ok else (False, "discharge", ())
        assert (result.ok, result.reason, result.path) == want, (rule, equation)


def _vacuous_spine(spine: int, depth: int) -> tuple[dict, list]:
    """`spine` RAA nodes over an OrE tree of the given depth, each RAA
    discharging the id "u", which every OrE already closes: a vacuous
    discharge at every node of the spine."""
    node = {"rule": "NotE", "conclusion": "p0 : bot",
            "premises": [{"assume": "p0 : P0", "id": "u"}, {"assume": "p0 : !P0", "id": "g"}]}
    for _ in range(depth):
        node = {"rule": "OrE", "conclusion": "p0 : bot", "discharges": [[], ["u"], ["u"]],
                "premises": [{"assume": "p0 : P0 | P0", "id": "m"}, node, copy.deepcopy(node)]}
    for _ in range(spine):
        node = {"rule": "RAA", "conclusion": "p0 : bot", "discharges": [["u"]], "premises": [node]}
    return node, [parse_labelled("p0 : P0 | P0"), parse_labelled("p0 : !P0")]


def test_one_check_walks_the_derivation_once(monkeypatch):
    walks = []
    real = proofcheck._postorder

    def spy(root, path):
        walks.append(path)
        return real(root, path)

    monkeypatch.setattr(proofcheck, "_postorder", spy)
    obj, gamma = _vacuous_spine(60, 4)
    assert check(derivation_from_json(obj), gamma).ok
    assert walks == [()]
    walks.clear()
    obj["discharges"] = [["zz"]]  # an id that occurs nowhere, at the root
    result = check(derivation_from_json(obj), gamma)
    assert (result.ok, result.path, result.reason, result.message) == (
        False, (), "discharge", "discharged id 'zz' does not occur in the premise subtree")
    assert walks == [()]
