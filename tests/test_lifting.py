"""Countermodels lift to the next algebra size by preimage (`helpers.lift`),
which checks the scan where the brute-force reference is too slow, and
the search order that relies on it.

A query without ibot, itop, nb, ~ or o* that is refuted at n is refuted at
n + 1: the lifted countermodel replays there, so the scan at n + 1 must
find a countermodel, and, since the scan reports the least one, its
assignment is no larger in the scan's order than the lifted one.  Put the
other way, such a query entailed at n + 1 is entailed at n, which is what
`_deepen` relies on to take the sizes in pairs, the larger first.  The
lifting batteries get their countermodels from one scan per size, not
through `_deepen`, and the order battery compares `_deepen` with such a
scan.  The queries are drawn from fixed seeds."""

import random

import pytest

from lt import entailment
from lt.entailment import (
    DEFAULT_CAP,
    algebra_entails,
    find_countermodel,
    find_labelled_countermodel,
    labelled_entails,
    replay,
    replay_labelled,
)
from lt.syntax import (
    Derived,
    DerivedTag,
    ExtOr,
    IntBot,
    IntOr,
    LabelledFormula,
    parse_entailment_query,
    parse_labelled_query,
    postorder,
)

from helpers import (
    boxed,
    deepen_upward,
    lift,
    random_formula,
    random_label,
    scan_order,
    sizes_scanned,
)

SEED = 7
QUERIES = 1500
# the derived connectives spelled with ibot
_WITH_IBOT = (DerivedTag.INT_TOP, DerivedTag.NB, DerivedTag.STRICT_NOT, DerivedTag.CIRCLE_STAR)


def _formula(rng: random.Random, n_vars: int):
    """A formula of depth at most 3 over n_vars variables, drawn again
    until it holds no ibot, whether written or spelled by a connective."""
    while True:
        f = random_formula(rng, 3, n_vars)
        if all(type(g) is not IntBot and not (type(g) is Derived and g.tag in _WITH_IBOT)
               for g in postorder(f)):
            return f


def _check_lifts(entails, replays, *query) -> bool:
    """One scan per size, n = 0..3: a query entailed at n + 1 is entailed at
    n, and from the least size that refutes it, the least countermodel at
    each size lifts to one that replays one size up, where the scan's
    assignment is no larger than the lifted one.  True if refuted at n <= 2."""
    cms = [entails(n, *query)[1] for n in range(4)]
    refuted = [cm is not None for cm in cms]
    assert refuted == sorted(refuted), (query, refuted)
    for cm, above in zip(cms, cms[1:]):
        if cm is not None:
            up = lift(cm)
            assert replays(up, *query), (query, cm.to_json_obj())
            assert scan_order(above) <= scan_order(up), (query, above.to_json_obj(), up.to_json_obj())
    return refuted[2]


@pytest.mark.parametrize("filters, refuted", [(False, 703), (True, 445)], ids=["plain", "filters"])
def test_countermodels_lift_to_every_larger_size(filters, refuted):
    # 1-2 variables and 0-2 premises, each query refuted at n <= 2 lifted
    # to n = 3.  As filters, 1-2 premises box phi admit only the assignments
    # under which phi is the full carrier, so the least countermodels are
    # seldom the empty or the full set, whose orbits are single
    rng, lifted = random.Random(SEED), 0
    for _ in range(QUERIES):
        n_vars = rng.choice((1, 2))
        premises = [_formula(rng, n_vars) for _ in range(rng.randrange(filters, 3))]
        premises = boxed(premises) if filters else premises
        conclusion = _formula(rng, n_vars)
        lifted += _check_lifts(algebra_entails, replay, premises, conclusion)
    assert lifted == refuted  # of the draws at this seed


def test_labelled_countermodels_lift_to_every_larger_size():
    # as above, each formula under a label of depth at most 2 over 1-2 atoms
    rng, lifted = random.Random(SEED), 0
    for _ in range(QUERIES):
        n_vars, n_atoms = rng.choice((1, 2)), rng.choice((1, 2))
        gamma = [LabelledFormula(random_label(rng, 2, n_atoms), _formula(rng, n_vars))
                 for _ in range(rng.randrange(3))]
        conclusion = LabelledFormula(random_label(rng, 2, n_atoms), _formula(rng, n_vars))
        lifted += _check_lifts(labelled_entails, replay_labelled, gamma, conclusion)
    assert lifted == 756


# -- the order of `_deepen` against one scan per size, upward

ORDER_SEED = 11
ORDER_QUERIES = 300


def _totals(program) -> list[int]:
    """The homomorphisms the cap counts at n = 0..3 over all denotations."""
    return [(1 << (1 << n)) ** len(program.variables) * (1 << n) ** len(program.atoms)
            for n in range(4)]


@pytest.mark.parametrize("text, klass, sizes, status, n", [
    ("|- dia nb", "all", [0], "countermodel", 0),  # refuted at n = 0 alone
    ("|- P0", "all", [1, 0], "countermodel", 0),  # refuted at n = 0 and 1
    ("P0 i| P1 |- P0 | P1", "all", [1, 3, 2], "countermodel", 2),  # valid on chains
    ("P0 & P1 |- P0 i& P1", "all", [1, 3], "exhausted", 3),
    ("|- (P0 i| P1) i& P2 -> (P0 i& P2) i| (P1 i& P2)", "all", [1, 3, 2], "budget_exceeded", 2),
    ("P0 i& P1 |- P1 i& P0", "principal_variables", [0, 1, 2, 3], "exhausted", 3),
    ("|- P0", "principal_variables", [0, 1], "countermodel", 1),
])
def test_deepen_takes_lifting_sizes_in_pairs(monkeypatch, text, klass, sizes, status, n):
    query = parse_entailment_query(text)
    scanned, report = sizes_scanned(monkeypatch, lambda: find_countermodel(
        *query, max_n=3, class_restriction=klass))
    assert (scanned, report.status, report.completed_n) == (sizes, status, n)
    assert report == deepen_upward(algebra_entails, 3, *query, class_restriction=klass)


def test_deepen_pairs_with_labels_an_even_max_n_and_caps(monkeypatch):
    query = parse_labelled_query("p0 : P0 i& P1 |- p0 : P0 & P1")
    scanned, report = sizes_scanned(monkeypatch, lambda: find_labelled_countermodel(*query))
    assert (scanned, report.completed_n) == ([1, 0], 1)
    assert report == deepen_upward(labelled_entails, 3, *query)
    # the join of three elements is the join of two of them on at most two
    # atoms: refuted only from n = 3, both with labels and with variables
    for search, entails, query, cap in (
        (find_labelled_countermodel, labelled_entails, parse_labelled_query(
            "(p0 | p1) : P0, (p1 | p2) : P0, (p0 | p2) : P0 |- (p0 | p1 | p2) : P0"), DEFAULT_CAP),
        (find_countermodel, algebra_entails, parse_entailment_query(
            "(P0 i| P1) i| P2 |- (P0 i| P1) | (P1 i| P2) | (P0 i| P2)"), 1 << 24),
    ):
        scanned, report = sizes_scanned(monkeypatch, lambda: search(*query, cap=cap))
        assert (scanned, report.status, report.completed_n) == ([1, 3, 2], "countermodel", 3)
        assert report == deepen_upward(entails, 3, *query, cap=cap)
    query = parse_entailment_query("P0 & P1 |- P0 i& P1")
    scanned, report = sizes_scanned(monkeypatch, lambda: find_countermodel(*query, max_n=2))
    assert (scanned, report.status) == ([1, 2], "exhausted")
    # a cut at the larger size of a pair scans the smaller alone: 16
    # homomorphisms at n = 1, 2^16 at n = 3
    for cap, sizes, n in ((15, [1, 0], 0), ((1 << 16) - 1, [1, 3, 2], 2)):
        scanned, report = sizes_scanned(monkeypatch, lambda: find_countermodel(*query, cap=cap))
        assert (scanned, report.status, report.completed_n) == (sizes, "budget_exceeded", n)


def test_deepen_reports_as_one_scan_per_size_upward():
    # plain queries with and without ibot (written, or spelled by itop, nb,
    # ~ or o*), with box filters, labelled, and X i| Y |- X | Y, which
    # holds on chains, so some are refuted only from n = 2; every max_n,
    # and caps that cut at each size up to it or at none
    rng, seen = random.Random(ORDER_SEED), set()
    for i in range(ORDER_QUERIES):
        shape, n_vars = i % 4, rng.choice((1, 2))
        draw = (lambda: _formula(rng, n_vars)) if rng.random() < 0.5 else (
            lambda: random_formula(rng, 3, n_vars))
        if shape == 2:
            n_atoms = rng.choice((1, 2))
            gamma = [LabelledFormula(random_label(rng, 2, n_atoms), draw())
                     for _ in range(rng.randrange(3))]
            query = gamma, LabelledFormula(random_label(rng, 2, n_atoms), draw())
            program, entails = entailment._compile_labelled(*query), labelled_entails
            search = find_labelled_countermodel
        else:
            if shape == 3:
                x, y = draw(), draw()
                query = [IntOr(x, y)], ExtOr(x, y)
            else:
                premises = [draw() for _ in range(rng.randrange(shape, 3))]
                query = (boxed(premises) if shape else premises), draw()
            program, entails = entailment._compile_entailment(*query), algebra_entails
            search = find_countermodel
        totals = _totals(program)
        for max_n in range(4):
            for cut in range(max_n + 2):
                cap = totals[cut] - 1 if cut <= max_n else DEFAULT_CAP
                report = search(*query, max_n=max_n, cap=cap)
                assert report == deepen_upward(entails, max_n, *query, cap=cap), (query, max_n, cap)
                seen.add((program.lifts, report.status, report.completed_n))
    # every outcome, with the pair order and without, but a countermodel at
    # n = 3 alone, which none of these draws has (see the pinned queries)
    outcomes = {("budget_exceeded", n) for n in range(-1, 3)} | {("countermodel", n) for n in range(3)}
    outcomes |= {("exhausted", n) for n in range(4)}
    assert {(lifts, *outcome) for lifts in (True, False) for outcome in outcomes} <= seen
