"""Checker for the labelled natural-deduction system.

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

from enum import Enum
from pathlib import Path
from typing import Iterable, Union

from .algebra import same_fields
from .errors import BudgetExceededError, LTError, load_json
from .semantics import label_bits
from .syntax import (
    ExtAnd,
    ExtBot,
    ExtNot,
    ExtOr,
    IntAnd,
    IntNot,
    IntOr,
    ITOP_CORE,
    LabelledFormula,
    LAnd,
    LAtom,
    Label,
    LNot,
    LOr,
    Node,
    equality_label,
    format_labelled,
    is_core,
    label_atoms,
    parse_labelled,
    parse_lines,
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
    KIND = 17

    def __init__(self, id: str, formula: LabelledFormula):
        self.id = id
        self.formula = formula
        self._hash = hash((self.KIND, id, formula._hash))


class Rule(Node):
    __slots__ = ("name", "conclusion", "premises", "discharges", "fresh")
    KIND = 18

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
        self._hash = hash((self.KIND, name, conclusion._hash, premises, discharges, fresh))


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
    at the root."""
    results: list[dict[str, LabelledFormula]] = []
    for node, path in _postorder(root, root_path):
        if isinstance(node, Assume):
            if not is_core(node.formula.formula):
                raise _Violation(path, "shape", "derived connective in a proof formula; proofs use core syntax")
            seen = state.ids.get(node.id)
            if seen is None:
                state.ids[node.id] = node.formula
            elif seen != node.formula:
                raise _Violation(
                    path, "discharge", f"assumption id {node.id!r} is reused with a different formula"
                )
            results.append({node.id: node.formula})
            continue

        split = len(results) - len(node.premises)
        opens, results[split:] = results[split:], ()
        if not is_core(node.conclusion.formula):
            raise _Violation(path, "shape", "derived connective in a proof formula; proofs use core syntax")

        discharges = node.discharges if node.discharges else ((),) * len(node.premises)
        if len(discharges) != len(node.premises):
            raise _Violation(path, "discharge", "one discharge id list is required per premise")

        _check_rule(node, path, opens, discharges, state)

        merged: dict[str, LabelledFormula] = {}
        for sub in opens:
            merged.update(sub)
        results.append(merged)
    return results[0]


def _premise_conclusions(node: Rule) -> list[LabelledFormula]:
    return [conclusion_of(p) for p in node.premises]


def _need_arity(node: Rule, path, n: int) -> None:
    if len(node.premises) != n:
        raise _Violation(
            path, "shape", f"{node.name.value} takes {n} premise(s), got {len(node.premises)}"
        )


def _need(cond: bool, path, reason: str, message: str) -> None:
    if not cond:
        raise _Violation(path, reason, message)


def _subtree_ids(node: Derivation) -> set[str]:
    return {d.id for d, _ in _postorder(node, ()) if isinstance(d, Assume)}


def _discharge(
    premise: Derivation,
    opens: dict[str, LabelledFormula],
    ids: tuple[str, ...],
    allowed: list[LabelledFormula],
    path,
) -> None:
    """Close the listed ids in one premise's open set.  Each id must occur
    in that premise subtree; an id no longer open there is a vacuous
    discharge.  An open id's formula must match one of the schema's
    assumption shapes."""
    for aid in ids:
        lf = opens.get(aid)
        if lf is None:
            if aid not in _subtree_ids(premise):
                raise _Violation(
                    path, "discharge", f"discharged id {aid!r} does not occur in the premise subtree"
                )
            continue  # vacuous: already closed deeper in the subtree
        if lf not in allowed:
            raise _Violation(
                path,
                "discharge",
                f"assumption [{aid}] {format_labelled(lf)} does not match the rule's dischargeable shapes",
            )
        del opens[aid]


def _no_discharges(discharges, path) -> None:
    for ids in discharges:
        _need(not ids, path, "discharge", "this rule discharges no assumptions")


def _check_rule(node: Rule, path, opens, discharges, state: _State) -> None:
    name = node.name
    concl = node.conclusion

    if name in (RuleName.IAND_E, RuleName.IOR_E):
        _need(
            len(node.fresh) == 2,
            path,
            "shape",
            f"{name.value} declares exactly two fresh atoms",
        )
    else:
        _need(not node.fresh, path, "shape", f"{name.value} declares no fresh atoms")

    if name is RuleName.AND_I:
        _need_arity(node, path, 2)
        p1, p2 = _premise_conclusions(node)
        _no_discharges(discharges, path)
        _need(
            concl.formula == ExtAnd(p1.formula, p2.formula)
            and concl.label == p1.label == p2.label,
            path,
            "shape",
            "AndI concludes a : phi & psi from a : phi and a : psi",
        )

    elif name in (RuleName.AND_E_L, RuleName.AND_E_R):
        _need_arity(node, path, 1)
        (p,) = _premise_conclusions(node)
        _no_discharges(discharges, path)
        _need(isinstance(p.formula, ExtAnd), path, "shape", f"{name.value} needs a : phi & psi")
        part = p.formula.left if name is RuleName.AND_E_L else p.formula.right
        _need(
            concl == LabelledFormula(p.label, part),
            path,
            "shape",
            f"{name.value} concludes the matching conjunct under the same label",
        )

    elif name in (RuleName.OR_I_L, RuleName.OR_I_R):
        _need_arity(node, path, 1)
        (p,) = _premise_conclusions(node)
        _no_discharges(discharges, path)
        _need(isinstance(concl.formula, ExtOr), path, "shape", f"{name.value} concludes a : phi | psi")
        part = concl.formula.left if name is RuleName.OR_I_L else concl.formula.right
        _need(
            p == LabelledFormula(concl.label, part),
            path,
            "shape",
            f"{name.value} needs the matching disjunct under the conclusion's label",
        )

    elif name is RuleName.OR_E:
        _need_arity(node, path, 3)
        major, s1, s2 = _premise_conclusions(node)
        _need(isinstance(major.formula, ExtOr), path, "shape", "OrE needs a major premise a : phi | psi")
        _need(
            s1 == concl and s2 == concl,
            path,
            "shape",
            "both OrE side premises must conclude the rule's conclusion",
        )
        _need(not discharges[0], path, "discharge", "OrE discharges nothing in the major premise")
        a = major.label
        _discharge(node.premises[1], opens[1], discharges[1], [LabelledFormula(a, major.formula.left)], path)
        _discharge(node.premises[2], opens[2], discharges[2], [LabelledFormula(a, major.formula.right)], path)

    elif name is RuleName.NOT_I:
        _need_arity(node, path, 1)
        (p,) = _premise_conclusions(node)
        _need(isinstance(p.formula, ExtBot), path, "shape", "NotI needs a premise concluding b : bot")
        _need(isinstance(concl.formula, ExtNot), path, "shape", "NotI concludes a : !phi")
        _discharge(
            node.premises[0],
            opens[0],
            discharges[0],
            [LabelledFormula(concl.label, concl.formula.child)],
            path,
        )

    elif name is RuleName.NOT_E:
        _need_arity(node, path, 2)
        p1, p2 = _premise_conclusions(node)
        _no_discharges(discharges, path)
        _need(
            p1.label == p2.label == concl.label
            and p2.formula == ExtNot(p1.formula)
            and isinstance(concl.formula, ExtBot),
            path,
            "shape",
            "NotE concludes a : bot from a : phi and a : !phi",
        )

    elif name is RuleName.RAA:
        _need_arity(node, path, 1)
        (p,) = _premise_conclusions(node)
        _need(isinstance(p.formula, ExtBot), path, "shape", "RAA needs a premise concluding b : bot")
        _discharge(
            node.premises[0],
            opens[0],
            discharges[0],
            [LabelledFormula(concl.label, ExtNot(concl.formula))],
            path,
        )

    elif name is RuleName.BOT_E:
        _need_arity(node, path, 1)
        (p,) = _premise_conclusions(node)
        _no_discharges(discharges, path)
        _need(isinstance(p.formula, ExtBot), path, "shape", "BotE needs a premise a : bot")

    elif name is RuleName.IAND_I or name is RuleName.IOR_I:
        _need_arity(node, path, 2)
        p1, p2 = _premise_conclusions(node)
        _no_discharges(discharges, path)
        if name is RuleName.IAND_I:
            want = LabelledFormula(LAnd(p1.label, p2.label), IntAnd(p1.formula, p2.formula))
            msg = "IAndI concludes a & b : phi i& psi from a : phi and b : psi"
        else:
            want = LabelledFormula(LOr(p1.label, p2.label), IntOr(p1.formula, p2.formula))
            msg = "IOrI concludes a | b : phi i| psi from a : phi and b : psi"
        _need(concl == want, path, "shape", msg)

    elif name is RuleName.IAND_E or name is RuleName.IOR_E:
        _need_arity(node, path, 2)
        major, sub = _premise_conclusions(node)
        shape = IntAnd if name is RuleName.IAND_E else IntOr
        comb = LAnd if name is RuleName.IAND_E else LOr
        _need(
            isinstance(major.formula, shape),
            path,
            "shape",
            f"{name.value} needs a major premise with the matching internal connective",
        )
        _need(sub == concl, path, "shape", "the side premise must conclude the rule's conclusion")
        _need(not discharges[0], path, "discharge", f"{name.value} discharges nothing in the major premise")
        p_atom, q_atom = node.fresh
        allowed = [
            LabelledFormula(LAtom(p_atom), major.formula.left),
            LabelledFormula(LAtom(q_atom), major.formula.right),
            LabelledFormula(
                equality_label(major.label, comb(LAtom(p_atom), LAtom(q_atom))), ITOP_CORE
            ),
        ]
        _discharge(node.premises[1], opens[1], discharges[1], allowed, path)
        remaining = dict(opens[0])
        remaining.update(opens[1])
        state.freshness.append(
            (path, (p_atom, q_atom), (major.label, concl.label), remaining)
        )

    elif name is RuleName.INOT_I:
        _need_arity(node, path, 1)
        (p,) = _premise_conclusions(node)
        _no_discharges(discharges, path)
        _need(
            concl == LabelledFormula(LNot(p.label), IntNot(p.formula)),
            path,
            "shape",
            "INotI concludes !a : i!phi from a : phi",
        )

    elif name is RuleName.INOT_E:
        _need_arity(node, path, 1)
        (p,) = _premise_conclusions(node)
        _no_discharges(discharges, path)
        _need(isinstance(p.formula, IntNot), path, "shape", "INotE needs a premise a : i!phi")
        _need(
            concl == LabelledFormula(LNot(p.label), p.formula.child),
            path,
            "shape",
            "INotE concludes !a : phi from a : i!phi",
        )

    elif name is RuleName.TAUT:
        _no_discharges(discharges, path)
        prems = _premise_conclusions(node)
        for p in prems:
            _need(p.formula == ITOP_CORE, path, "shape", "every Taut premise must be of the form a : i!ibot")
        _need(concl.formula == ITOP_CORE, path, "shape", "Taut concludes b : i!ibot")
        if not taut_oracle([p.label for p in prems], concl.label):
            raise _Violation(
                path,
                "taut",
                "the premise labels do not classically entail the conclusion label",
            )

    elif name is RuleName.SUB:
        _need_arity(node, path, 2)
        eq, p = _premise_conclusions(node)
        _no_discharges(discharges, path)
        _need(
            eq == LabelledFormula(equality_label(concl.label, p.label), ITOP_CORE),
            path,
            "shape",
            "Sub needs the equality a = b, oriented with the conclusion label first",
        )
        _need(
            concl.formula == p.formula,
            path,
            "shape",
            "Sub transports the premise formula to the conclusion label",
        )

    else:  # pragma: no cover
        raise _Violation(path, "shape", f"unknown rule {name}")


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
    for node, where in reversed(order):
        if "assume" in node:
            if "id" not in node:
                raise LTError(f"{where}: an assumption needs an 'id'")
            formula = parse_labelled(_json_string(node["assume"], f"{where}.assume"))
            built.append(Assume(_json_id(node["id"], f"{where}.id"), formula))
            continue
        try:
            name = RuleName(node["rule"])
        except (KeyError, ValueError) as exc:
            raise LTError(f"{where}: bad or missing rule name: {node.get('rule')!r}") from exc
        if "conclusion" not in node:
            raise LTError(f"{where}: a rule needs a 'conclusion'")
        conclusion = parse_labelled(_json_string(node["conclusion"], f"{where}.conclusion"))
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
