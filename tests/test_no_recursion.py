"""No function in `src/lt` calls itself by name.  Every walk over a
formula, a label, a derivation or the scan's digits is a loop over
`postorder` or an explicit stack, so no input depth costs a Python frame
and none can exhaust the recursion limit.  The allowlist is empty."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lt"
ALLOWED: frozenset[str] = frozenset()


def self_calls(source: str) -> list[str]:
    """The functions that call themselves by name, as 'name:line': by a
    plain call in a function, by self.name(...) or cls.name(...) in a
    method."""
    tree = ast.parse(source)
    methods = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if id(fn) in methods:
                hit = (isinstance(f, ast.Attribute) and f.attr == fn.name
                       and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls"))
            else:
                hit = isinstance(f, ast.Name) and f.id == fn.name
            if hit:
                found.append(f"{fn.name}:{call.lineno}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    calls = [c for c in self_calls(path.read_text()) if c.split(":")[0] not in ALLOWED]
    assert calls == [], f"{path.name}: self-recursive {calls}"


def test_the_check_finds_recursion():
    source = '''
def walk(node):
    return [walk(c) for c in node.children]

def helper(x):
    return other.helper(x) + self.helper(x)

class Tree:
    def depth(self):
        return 1 + max(self.depth(), 0)

    def size(self):
        return self.algebra.size() + size(self)

    @classmethod
    def build(cls, n):
        def inner(k):
            return inner(k - 1)
        return cls.build(n - 1)
'''
    assert self_calls(source) == ["walk:3", "depth:10", "build:19", "inner:18"]
