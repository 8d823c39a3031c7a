"""Workbench for the logic of teams.

Evaluate formulas over finite powerset Boolean algebras, search for
countermodels to entailments, check labelled natural-deduction proofs,
and bridge to the valuational team semantics of PT+.
"""

from .algebra import Algebra, Denotation
from .entailment import (
    Countermodel,
    SearchReport,
    algebra_entails,
    find_countermodel,
    find_labelled_countermodel,
    labelled_entails,
)
from .errors import (
    AlgebraMismatchError,
    BudgetExceededError,
    EvalError,
    FragmentError,
    LTError,
    ParseError,
    PrincipalVariableError,
    ReplayError,
)
from .proofcheck import Assume, CheckResult, Derivation, Rule, RuleName, check, taut_oracle
from .ptplus import (
    build_hv,
    f_map,
    pt_entails,
    pt_eval,
    verify_f_representation,
)
from .semantics import Homomorphism, LabelValuation, compose, eval_label, evaluate, satisfies
from .syntax import (
    Formula,
    Label,
    LabelledFormula,
    expand,
    format_formula,
    format_label,
    format_labelled,
    free_vars,
    label_atoms,
    parse_entailment_query,
    parse_formula,
    parse_label,
    parse_labelled,
    parse_labelled_query,
    substitute,
)

__version__ = "0.1.0"
