"""Checker for the labelled natural-deduction system.

The rules are the table `_RULES`: each rule is one schema written in the
workbench's own syntax, with P<i> standing for any formula and p<i> for
any label, and one matcher checks every rule instance against its row.
A derivation is a tree of rule applications over assumption leaves; each
assumption carries an id, and rules that close assumptions name the ids
they discharge, one id list per premise subtree.  Labels are compared
syntactically everywhere except where a schema builds them (the internal
introduction rules compose labels; Sub consumes an equality labelled
formula oriented as (conclusion-label <-> premise-label) : itop).  All
semantic label reasoning must go through Taut and Sub.  Formulas in
derivations must be in core syntax; derived connectives are expanded
before a proof is written down.

The freshness side condition of the internal elimination rules is read
strictly: the two declared atoms must be distinct and must not occur in
the instance's major-premise or conclusion labels, in any assumption
open at the root, or in any assumption opened in a premise subtree and
not discharged by the node itself.
"""

from __future__ import annotations

import functools
from enum import Enum
from pathlib import Path
from typing import Iterable, Union

from .algebra import same_fields
from .errors import BudgetExceededError, LTError, load_json
from .semantics import label_bits
from .syntax import (
    LabelledFormula,
    LAtom,
    Label,
    Node,
    Var,
    fold,
    format_labelled,
    is_core,
    label_atoms,
    parse_labelled,
    parse_lines,
    postorder,
)

TAUT_ATOM_BUDGET = 20


class RuleName(Enum):
    AND_I = "AndI"
    AND_E_L = "AndE_L"
    AND_E_R = "AndE_R"
    OR_I_L = "OrI_L"
    OR_I_R = "OrI_R"
    OR_E = "OrE"
    NOT_I = "NotI"
    NOT_E = "NotE"
    RAA = "RAA"
    BOT_E = "BotE"
    IAND_I = "IAndI"
    IAND_E = "IAndE"
    IOR_I = "IOrI"
    IOR_E = "IOrE"
    INOT_I = "INotI"
    INOT_E = "INotE"
    TAUT = "Taut"
    SUB = "Sub"


class Assume(Node):
    __slots__ = ("id", "formula")

    def __init__(self, id: str, formula: LabelledFormula):
        self.id = id
        self.formula = formula
        self._hash = hash((self.__class__, id, formula._hash))


class Rule(Node):
    __slots__ = ("name", "conclusion", "premises", "discharges", "fresh")

    def __init__(
        self,
        name: RuleName,
        conclusion: LabelledFormula,
        premises: tuple[Derivation, ...],
        discharges: tuple[tuple[str, ...], ...] = (),
        fresh: tuple[int, ...] = (),
    ):
        self.name = name
        self.conclusion = conclusion
        self.premises = premises
        self.discharges = discharges
        self.fresh = fresh
        self._hash = hash((self.__class__, name, conclusion._hash, premises, discharges, fresh))


Derivation = Union[Assume, Rule]


def conclusion_of(d: Derivation) -> LabelledFormula:
    return d.formula if isinstance(d, Assume) else d.conclusion


class CheckResult:
    """The verdict of `check`: ok, or the path of the first bad node, the
    kind of fault (shape | discharge | freshness | taut | open-assumption)
    and a message."""

    __slots__ = ("ok", "path", "reason", "message")

    def __init__(self, ok: bool, path: tuple[int, ...] | None = None,
                 reason: str | None = None, message: str | None = None):
        self.ok = ok
        self.path = path
        self.reason = reason
        self.message = message

    __eq__ = same_fields


class _Violation(Exception):
    def __init__(self, path: tuple[int, ...], reason: str, message: str):
        self.path = path
        self.reason = reason
        self.message = message
        super().__init__(message)


# ---------------------------------------------------------------------------
# Classical tautology oracle for labels


def taut_oracle(hypotheses: Iterable[Label], target: Label) -> bool:
    """True iff the conjunction of the hypotheses classically entails the
    target, decided by truth table over the occurring atoms (at most 20).
    The table over m atoms is the Boolean algebra of 2^m-bit sets, one
    bit per row: atom j denotes the rows whose bit j is set, 2^j clear
    rows then 2^j set ones, repeated, and each label is evaluated once."""
    hyps = list(hypotheses)
    atoms = sorted(frozenset().union(*(label_atoms(h) for h in hyps), label_atoms(target)))
    if len(atoms) > TAUT_ATOM_BUDGET:
        raise BudgetExceededError(
            f"{len(atoms)} label atoms exceed the tautology budget of {TAUT_ATOM_BUDGET}",
            total=1 << len(atoms),
        )
    rows = 1 << len(atoms)
    env = {}
    for j, atom in enumerate(atoms):
        mask = ((1 << (1 << j)) - 1) << (1 << j)
        while mask.bit_length() < rows:
            mask |= mask << mask.bit_length()
        env[atom] = mask
    top = meet = (1 << rows) - 1
    for h in hyps:
        meet &= label_bits(env, h, top)
    return meet & ~label_bits(env, target, top) == 0


# ---------------------------------------------------------------------------
# Checker


class _State:
    """What a walk collects for the checks made at the root: the formula
    of each assumption id, and per internal elimination (path, fresh
    atoms, labels of the instance, opens not discharged there)."""

    __slots__ = ("ids", "freshness")

    def __init__(self):
        self.ids: dict[str, LabelledFormula] = {}
        self.freshness: list[
            tuple[tuple[int, ...], tuple[int, int], tuple[Label, Label], dict[str, LabelledFormula]]
        ] = []


def check(d: Derivation, gamma: Iterable[LabelledFormula]) -> CheckResult:
    """Validate every rule instance, the discharge bookkeeping, the taut
    conditions and the freshness side conditions; all assumptions open at
    the root must belong to gamma."""
    gamma_set = frozenset(gamma)
    state = _State()
    try:
        open_at_root = _walk(d, (), state)
        for aid, lf in sorted(open_at_root.items()):
            if lf not in gamma_set:
                raise _Violation(
                    (),
                    "open-assumption",
                    f"open assumption [{aid}] {format_labelled(lf)} is not among the given assumptions",
                )
        for path, (p, q), (a_label, b_label), opens in state.freshness:
            if p == q:
                raise _Violation(
                    path, "freshness", f"declared fresh atoms must be distinct, got p{p} twice"
                )
            blocked = label_atoms(a_label) | label_atoms(b_label)
            for lf in opens.values():
                blocked |= label_atoms(lf.label)
            for lf in open_at_root.values():
                blocked |= label_atoms(lf.label)
            for atom in (p, q):
                if atom in blocked:
                    raise _Violation(
                        path,
                        "freshness",
                        f"fresh atom p{atom} occurs in an uncancelled assumption or in the rule's labels",
                    )
    except _Violation as v:
        return CheckResult(False, v.path, v.reason, v.message)
    return CheckResult(True)


def open_assumptions(d: Derivation, path: tuple[int, ...] = ()) -> set[tuple[str, LabelledFormula]]:
    """The assumptions of the subtree at the given path that are not
    discharged within that subtree."""
    node = d
    for step in path:
        if not isinstance(node, Rule) or not 0 <= step < len(node.premises):
            raise LTError(f"bad path {path}")
        node = node.premises[step]
    opens = _walk(node, path, _State())
    return {(aid, lf) for aid, lf in opens.items()}


def _postorder(root: Derivation, path: tuple[int, ...]) -> list[tuple[Derivation, tuple[int, ...]]]:
    """The nodes of a derivation with their paths, each after its premises
    (in premise order), listed without recursion."""
    order, todo = [], [(root, path)]
    while todo:  # node, then its premises last first: reversed, children first
        order.append(item := todo.pop())
        node, at = item
        if isinstance(node, Rule):
            todo += ((p, at + (i,)) for i, p in enumerate(node.premises))
    order.reverse()
    return order


def _walk(root: Derivation, root_path: tuple[int, ...], state: _State) -> dict[str, LabelledFormula]:
    """Check every node, premises first, and return the assumptions open
    at the root.  Each subtree hands up its open map and the ids of every
    assumption in it, for the vacuous discharges above it."""
    opens_below: list[dict[str, LabelledFormula]] = []
    ids_below: list[set[str]] = []
    for node, path in _postorder(root, root_path):
        if not is_core(conclusion_of(node).formula):
            raise _Violation(path, "shape", "derived connective in a proof formula; proofs use core syntax")
        if isinstance(node, Assume):
            seen = state.ids.get(node.id)
            if seen is None:
                state.ids[node.id] = node.formula
            elif seen != node.formula:
                raise _Violation(
                    path, "discharge", f"assumption id {node.id!r} is reused with a different formula"
                )
            opens_below.append({node.id: node.formula})
            ids_below.append({node.id})
            continue

        split = len(opens_below) - len(node.premises)
        opens, opens_below[split:] = opens_below[split:], ()
        ids, ids_below[split:] = ids_below[split:], ()

        discharges = node.discharges if node.discharges else ((),) * len(node.premises)
        if len(discharges) != len(node.premises):
            raise _Violation(path, "discharge", "one discharge id list is required per premise")

        _check_rule(node, path, opens, ids, discharges, state)
        opens_below.append(_union(opens, {}))
        ids_below.append(_union(ids, set()))
    return opens_below[0]


def _union(parts: list, empty):
    """The union of the premises' open maps, or of their id sets, made in
    the largest of them, so that a chain of rules costs O(1) a node."""
    into = max(parts, key=len, default=empty)
    for part in parts:
        if part is not into:
            into |= part
    return into


def _check_rule(node: Rule, path, opens, ids, discharges, state: _State) -> None:
    """Check one rule instance against its row of `_RULES`: the fresh atoms,
    the arity, the checks in order, Taut's oracle, then the discharges,
    premise by premise."""
    name = node.name
    arity, checks, shapes, fresh = _rules()[name]
    premises = node.premises
    if len(node.fresh) != fresh:
        raise _Violation(path, "shape", f"{name.value} declares {'exactly two' if fresh else 'no'} fresh atoms")
    if arity is not None and len(premises) != arity:
        raise _Violation(path, "shape", f"{name.value} takes {arity} premise(s), got {len(premises)}")
    if not shapes and any(discharges):
        raise _Violation(path, "discharge", "this rule discharges no assumptions")

    targets = [*map(conclusion_of, premises), node.conclusion]  # the conclusion last: _C
    env = dict(zip(_FRESH, map(LAtom, node.fresh))) if node.fresh else {}
    for message, pairs in checks:
        for where, match in pairs:
            if where is _EACH:
                ok = all(match(lf, {}) for lf in targets[:-1])
            else:
                ok = match(targets[where], env)
            if not ok:
                raise _Violation(path, "shape", message)
    if name is RuleName.TAUT and not taut_oracle([lf.label for lf in targets[:-1]], node.conclusion.label):
        raise _Violation(path, "taut", "the premise labels do not classically entail the conclusion label")

    # close the listed ids in each premise's open map: an open id's formula
    # must match one of the premise's shapes, whose metavariables the
    # checks have all bound, and an id no longer open is a vacuous
    # discharge if it occurs in the premise subtree
    for i, own in enumerate(shapes):
        if discharges[i] and not own:
            raise _Violation(path, "discharge", f"{name.value} discharges nothing in the major premise")
        for aid in discharges[i]:
            lf = opens[i].pop(aid, None)
            if lf is None and aid not in ids[i]:
                raise _Violation(path, "discharge",
                                 f"discharged id {aid!r} does not occur in the premise subtree")
            if lf is not None and not any(match(lf, env) for match in own):
                raise _Violation(path, "discharge", f"assumption [{aid}] {format_labelled(lf)} "
                                 "does not match the rule's dischargeable shapes")
    if fresh:
        remaining = {**opens[0], **opens[1]}
        state.freshness.append((path, node.fresh, (targets[0].label, node.conclusion.label), remaining))


# ---------------------------------------------------------------------------
# The rules, as data


_C, _EACH = -1, None  # targets: the conclusion, after the premises; every premise
_FRESH = ("p8", "p9")  # the names bound beforehand to a rule's declared fresh atoms

# One row per rule, in the workbench's own syntax: the rule, its premise
# count (None: any), its checks in order, each a message and the (target,
# pattern) pairs it covers, then per premise the assumption shapes it may
# discharge (none listed: it discharges nothing).  A target is a premise
# index, _C or _EACH.  In a pattern P<i> stands for any formula and p<i>
# for any label, each bound where it is first matched and compared with
# == after that; _EACH matches every premise with bindings of its own.
# p8 and p9 are bound beforehand to the rule's fresh atoms, and a rule
# declares fresh atoms iff its shapes use them.  The checks bind every
# metavariable of a shape, so a shape is matched against those bindings.
_RULES = (
    (RuleName.AND_I, 2, [
        ("AndI concludes a : phi & psi from a : phi and a : psi",
         (0, "p0 : P0"), (1, "p0 : P1"), (_C, "p0 : P0 & P1"))]),
    (RuleName.AND_E_L, 1, [
        ("AndE_L needs a : phi & psi", (0, "p0 : P0 & P1")),
        ("AndE_L concludes the matching conjunct under the same label", (_C, "p0 : P0"))]),
    (RuleName.AND_E_R, 1, [
        ("AndE_R needs a : phi & psi", (0, "p0 : P0 & P1")),
        ("AndE_R concludes the matching conjunct under the same label", (_C, "p0 : P1"))]),
    (RuleName.OR_I_L, 1, [
        ("OrI_L concludes a : phi | psi", (_C, "p0 : P0 | P1")),
        ("OrI_L needs the matching disjunct under the conclusion's label", (0, "p0 : P0"))]),
    (RuleName.OR_I_R, 1, [
        ("OrI_R concludes a : phi | psi", (_C, "p0 : P0 | P1")),
        ("OrI_R needs the matching disjunct under the conclusion's label", (0, "p0 : P1"))]),
    (RuleName.OR_E, 3, [
        ("OrE needs a major premise a : phi | psi", (0, "p0 : P0 | P1")),
        ("both OrE side premises must conclude the rule's conclusion",
         (_C, "p1 : P2"), (1, "p1 : P2"), (2, "p1 : P2"))],
     [], ["p0 : P0"], ["p0 : P1"]),
    (RuleName.NOT_I, 1, [
        ("NotI needs a premise concluding b : bot", (0, "p0 : bot")),
        ("NotI concludes a : !phi", (_C, "p1 : !P0"))], ["p1 : P0"]),
    (RuleName.NOT_E, 2, [
        ("NotE concludes a : bot from a : phi and a : !phi",
         (0, "p0 : P0"), (1, "p0 : !P0"), (_C, "p0 : bot"))]),
    (RuleName.RAA, 1, [
        ("RAA needs a premise concluding b : bot", (0, "p0 : bot"), (_C, "p1 : P0"))], ["p1 : !P0"]),
    (RuleName.BOT_E, 1, [("BotE needs a premise a : bot", (0, "p0 : bot"))]),
    (RuleName.IAND_I, 2, [
        ("IAndI concludes a & b : phi i& psi from a : phi and b : psi",
         (0, "p0 : P0"), (1, "p1 : P1"), (_C, "p0 & p1 : P0 i& P1"))]),
    (RuleName.IAND_E, 2, [
        ("IAndE needs a major premise with the matching internal connective", (0, "p0 : P0 i& P1")),
        ("the side premise must conclude the rule's conclusion", (1, "p1 : P2"), (_C, "p1 : P2"))],
     [], ["p8 : P0", "p9 : P1", "p0 = p8 & p9"]),
    (RuleName.IOR_I, 2, [
        ("IOrI concludes a | b : phi i| psi from a : phi and b : psi",
         (0, "p0 : P0"), (1, "p1 : P1"), (_C, "p0 | p1 : P0 i| P1"))]),
    (RuleName.IOR_E, 2, [
        ("IOrE needs a major premise with the matching internal connective", (0, "p0 : P0 i| P1")),
        ("the side premise must conclude the rule's conclusion", (1, "p1 : P2"), (_C, "p1 : P2"))],
     [], ["p8 : P0", "p9 : P1", "p0 = p8 | p9"]),
    (RuleName.INOT_I, 1, [("INotI concludes !a : i!phi from a : phi", (0, "p0 : P0"), (_C, "!p0 : i!P0"))]),
    (RuleName.INOT_E, 1, [
        ("INotE needs a premise a : i!phi", (0, "p0 : i!P0")),
        ("INotE concludes !a : phi from a : i!phi", (_C, "!p0 : P0"))]),
    (RuleName.TAUT, None, [
        ("every Taut premise must be of the form a : i!ibot", (_EACH, "p0 : i!ibot")),
        ("Taut concludes b : i!ibot", (_C, "p0 : i!ibot"))]),
    (RuleName.SUB, 2, [
        ("Sub needs the equality a = b, oriented with the conclusion label first",
         (0, "p0 = p1"), (_C, "p0 : P0"), (1, "p1 : P1")),
        ("Sub transports the premise formula to the conclusion label", (1, "p1 : P0"))]),
)

_PARSED: dict = {}


def _rules() -> dict:
    """The rows of `_RULES` by rule name, each pattern parsed into its
    matcher on first use: (arity, [(message, [(target, matcher)])], per
    premise [matcher], the number of fresh atoms)."""
    if not _PARSED:
        for name, arity, checks, *shapes in _RULES:
            checks = [(message, [(where, _matcher(parse_labelled(text))) for where, text in pairs])
                      for message, *pairs in checks]
            fresh = 2 if any(_FRESH[0] in text.split() for texts in shapes for text in texts) else 0
            shapes = [[_matcher(parse_labelled(text)) for text in texts] for texts in shapes]
            _PARSED[name] = (arity, checks, shapes, fresh)
    return _PARSED


def _matcher(pattern: LabelledFormula):
    """The pattern as a function of (target, env): whether the target is
    an instance of the pattern, binding in env each metavariable (a Var
    or LAtom of the pattern) where it is first matched, and comparing it
    with == after that.  Built by one fold of each side of the pattern."""
    label = fold(postorder(pattern.label), _metavar, _node_matcher)
    formula = fold(postorder(pattern.formula), _metavar, _node_matcher)
    return lambda target, env: label(target.label, env) and formula(target.formula, env)


def _metavar(pattern: Node):
    name = f"{'P' if type(pattern) is Var else 'p'}{pattern.index}"  # as written

    def match(node, env) -> bool:
        bound = env.setdefault(name, node)
        return bound is node or bound == node
    return match


def _node_matcher(kind, *children):
    if not children:
        return lambda node, env: type(node) is kind
    if len(children) == 1:
        (child,) = children
        return lambda node, env: type(node) is kind and child(node.child, env)
    left, right = children
    return lambda node, env: type(node) is kind and left(node.left, env) and right(node.right, env)


# ---------------------------------------------------------------------------
# JSON encoding


def derivation_from_json(obj) -> Derivation:
    """Build a derivation from its JSON form without recursion.  A node of
    the wrong shape raises LTError naming its JSON path, as in
    `$.premises[0].conclusion`."""
    order, todo = [], [(obj, "$")]
    while todo:  # node, then its premises last first: reversed, children first
        order.append(item := todo.pop())
        node, where = item
        if not isinstance(node, dict):
            raise LTError(f"{where}: a derivation node must be a JSON object")
        if "assume" not in node:
            premises = _json_list(node.get("premises", []), f"{where}.premises")
            todo += ((p, f"{where}.premises[{i}]") for i, p in enumerate(premises))
    built: list[Derivation] = []
    parse = functools.cache(parse_labelled)  # each distinct text once: equal is identical
    for node, where in reversed(order):
        if "assume" in node:
            if "id" not in node:
                raise LTError(f"{where}: an assumption needs an 'id'")
            formula = parse(_json_string(node["assume"], f"{where}.assume"))
            built.append(Assume(_json_id(node["id"], f"{where}.id"), formula))
            continue
        try:
            name = RuleName(node["rule"])
        except (KeyError, ValueError) as exc:
            raise LTError(f"{where}: bad or missing rule name: {node.get('rule')!r}") from exc
        if "conclusion" not in node:
            raise LTError(f"{where}: a rule needs a 'conclusion'")
        conclusion = parse(_json_string(node["conclusion"], f"{where}.conclusion"))
        discharges = _json_list(node.get("discharges", []), f"{where}.discharges")
        discharges = tuple(
            tuple(
                _json_id(aid, f"{where}.discharges[{i}][{j}]")
                for j, aid in enumerate(_json_list(ids, f"{where}.discharges[{i}]"))
            )
            for i, ids in enumerate(discharges)
        )
        fresh = tuple(
            _parse_fresh_atom(_json_string(atom, f"{where}.fresh[{i}]"))
            for i, atom in enumerate(_json_list(node.get("fresh", []), f"{where}.fresh"))
        )
        split = len(built) - len(node.get("premises", []))
        premises, built[split:] = tuple(built[split:]), ()
        built.append(Rule(name, conclusion, premises, discharges, fresh))
    return built[0]


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               int: "a number", float: "a number", type(None): "null"}


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _json_string(value, where: str) -> str:
    if not isinstance(value, str):
        raise LTError(f"{where}: must be a string, got {_json_type(value)}")
    return value


def _json_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise LTError(f"{where}: must be an array, got {_json_type(value)}")
    return value


def _json_id(value, where: str) -> str:
    """An assumption id: a string, or an integer taken as its decimal text."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise LTError(f"{where}: an assumption id must be a string, got {_json_type(value)}")
    return str(value)


def _parse_fresh_atom(text: str) -> int:
    from .syntax import parse_label

    atom = parse_label(text)
    if not isinstance(atom, LAtom):
        raise LTError(f"fresh entries must be atomic labels, got {text!r}")
    return atom.index


def derivation_to_json(d: Derivation):
    """The JSON object of a derivation, built premises first without
    recursion."""
    out: list[dict] = []
    for node, _ in _postorder(d, ()):
        if isinstance(node, Assume):
            out.append({"assume": format_labelled(node.formula), "id": node.id})
            continue
        split = len(out) - len(node.premises)
        obj = {
            "rule": node.name.value,
            "conclusion": format_labelled(node.conclusion),
            "premises": out[split:],
        }
        del out[split:]
        if any(node.discharges):
            obj["discharges"] = [list(ids) for ids in node.discharges]
        if node.fresh:
            obj["fresh"] = [f"p{i}" for i in node.fresh]
        out.append(obj)
    return out[0]


def load_derivation(path: str | Path) -> Derivation:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return derivation_from_json(load_json(text, str(path)))


def load_assumptions(path: str | Path) -> list[LabelledFormula]:
    """One labelled formula per non-empty line."""
    return parse_lines(path, parse_labelled)
