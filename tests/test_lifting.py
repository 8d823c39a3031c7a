"""Countermodels lift to the next algebra size by preimage (`helpers.lift`),
which checks the scan where the brute-force reference is too slow.

A query without ibot, itop, nb, ~ or o* that is refuted at n is refuted at
n + 1: the lifted countermodel replays there, so the scan at n + 1 must
find a countermodel, and, since the scan reports the least one, its
assignment is no larger in the scan's order than the lifted one.  The
queries are drawn from a fixed seed."""

import random

import pytest

from lt.entailment import (
    algebra_entails,
    find_countermodel,
    find_labelled_countermodel,
    labelled_entails,
    replay,
    replay_labelled,
)
from lt.syntax import Derived, DerivedTag, IntBot, LabelledFormula, postorder

from helpers import boxed, lift, random_formula, random_label, scan_order

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


def _check_lifts(cm, entails, replays, *query):
    """From the size of the countermodel up to n = 3: the least countermodel
    at each size lifts to one that replays one size up, and the scan there
    refutes the query with an assignment no larger than the lifted one."""
    while cm.algebra.n < 3:
        up = lift(cm)
        assert replays(up, *query), (query, cm.to_json_obj())
        entailed, cm = entails(up.algebra.n, *query)
        assert not entailed, (query, up.to_json_obj())
        assert scan_order(cm) <= scan_order(up), (query, cm.to_json_obj(), up.to_json_obj())


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
        report = find_countermodel(premises, conclusion, max_n=2)
        if report.status == "countermodel":
            _check_lifts(report.countermodel, algebra_entails, replay, premises, conclusion)
            lifted += 1
    assert lifted == refuted  # of the draws at this seed


def test_labelled_countermodels_lift_to_every_larger_size():
    # as above, each formula under a label of depth at most 2 over 1-2 atoms
    rng, lifted = random.Random(SEED), 0
    for _ in range(QUERIES):
        n_vars, n_atoms = rng.choice((1, 2)), rng.choice((1, 2))
        gamma = [LabelledFormula(random_label(rng, 2, n_atoms), _formula(rng, n_vars))
                 for _ in range(rng.randrange(3))]
        conclusion = LabelledFormula(random_label(rng, 2, n_atoms), _formula(rng, n_vars))
        report = find_labelled_countermodel(gamma, conclusion, max_n=2)
        if report.status == "countermodel":
            _check_lifts(report.countermodel, labelled_entails, replay_labelled, gamma, conclusion)
            lifted += 1
    assert lifted == 756
