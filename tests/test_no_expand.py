"""No module in `src/lt` but `syntax`, and `cli`'s `expand` command, calls
`expand`.  Evaluation and the compiler reach the derived connectives
through `syntax.fold`, which spells each in core syntax as it walks, so
an expanded copy of a formula, walked again, is never needed there."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lt"
ALLOWED = {"cli.py": {"_cmd_expand"}}


def expand_calls(source: str) -> list[str]:
    """Every call of a function named `expand`, plain or as an attribute,
    as 'enclosing function:line' ('-' at module level)."""
    found = []
    todo = [(ast.parse(source), "-")]
    while todo:
        node, where = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "expand":
                found.append(f"{where}:{node.lineno}")
        todo += ((child, where) for child in ast.iter_child_nodes(node))
    return sorted(found, key=lambda hit: int(hit.split(":")[1]))


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "syntax.py"), ids=lambda p: p.name
)
def test_only_syntax_and_the_expand_command_call_expand(path):
    allowed = ALLOWED.get(path.name, set())
    hits = [hit for hit in expand_calls(path.read_text()) if hit.split(":")[0] not in allowed]
    assert hits == [], f"{path.name}: calls expand at {hits}"


def test_the_check_finds_calls():
    source = '''
from .syntax import expand
from . import syntax

x = expand(f)

def compile(f):
    return syntax.expand(f), expanded(f), f.expand

def _cmd_expand(args):
    def inner():
        return expand(args)
'''
    assert expand_calls(source) == ["-:5", "compile:8", "inner:12"]
