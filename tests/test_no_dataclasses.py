"""No module in `src/lt` imports `dataclasses`.  Every `lt` command
imports the package, and defining a dataclass costs about a millisecond
of start-up; the node and value classes are plain `__slots__` classes
instead."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lt"


def imported_modules(source: str) -> list[str]:
    """The top-level name of every module the source imports, as
    'name:line', wherever the import statement stands."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"{alias.name.split('.')[0]}:{node.lineno}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.append(f"{node.module.split('.')[0]}:{node.lineno}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    hits = [m for m in imported_modules(path.read_text()) if m.split(":")[0] == "dataclasses"]
    assert hits == [], f"{path.name}: imports dataclasses at {hits}"


def test_the_check_finds_imports():
    source = '''
import dataclasses
import os.path, dataclasses as dc
from dataclasses import dataclass
from . import syntax
from .dataclasses import x

def late():
    from dataclasses import field
'''
    assert imported_modules(source) == [
        "dataclasses:2", "os:3", "dataclasses:3", "dataclasses:4", "dataclasses:9"]
