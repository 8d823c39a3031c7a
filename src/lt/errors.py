"""Exception types shared across the workbench, and the reader of JSON
input, which turns malformed or too deeply nested JSON into one of them."""

from __future__ import annotations

import json


class LTError(Exception):
    """Base class for all workbench errors."""


class ParseError(LTError):
    """Syntax error with a byte offset and the set of tokens that were expected."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = tuple(expected)
        detail = f"syntax error at offset {offset}: {message}"
        if self.expected:
            detail += " (expected: " + ", ".join(self.expected) + ")"
        super().__init__(detail)


class EvalError(LTError):
    """Evaluation failed, e.g. a variable or label atom has no binding."""


class AlgebraMismatchError(LTError):
    """Two denotations from different algebras were combined."""


class BudgetExceededError(LTError):
    """An enumeration or decision procedure exceeded its configured budget."""

    def __init__(self, message: str, total: int | None = None):
        self.total = total
        super().__init__(message)


class FragmentError(LTError):
    """A formula falls outside the syntactic fragment an operation requires."""


class PrincipalVariableError(LTError):
    """A homomorphism was required to have principal variables but does not."""


class ReplayError(LTError):
    """A countermodel reported by the search failed its independent
    re-evaluation: an internal fault, never a logical verdict."""


def load_json(text: str, source: str, object_pairs_hook=None):
    """JSON text from outside the program as Python objects (an object by
    `object_pairs_hook` from its pairs, if given); malformed text, or a
    nesting too deep for the decoder, raises LTError."""
    try:
        return json.loads(text, object_pairs_hook=object_pairs_hook)
    except json.JSONDecodeError as exc:
        raise LTError(f"{source}: not valid JSON: {exc}") from None
    except RecursionError:
        raise LTError(f"{source}: the JSON is nested too deeply to load") from None
