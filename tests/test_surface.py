"""The library surface: every public module-level function of `src/lt`
has a caller that is not a test.

A caller is a use in `src/lt` (another module, or the function's own
module outside its own body), in `bench/` (not its tests), in `scripts/`
or in pyproject.toml's entry points.  `lt/__init__.py` only re-exports,
so its imports are not uses.  A name imported from `lt` is a use, and so is
an attribute `x.name`, unless a class of `src/lt` has a method of that
name, as `Algebra.int_bot` is not a use of a function `int_bot`.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lt"

# What only the tests call, kept for the library and the paper: module,
# function and the reason.
ALLOWED = {
    ("semantics", "compose"): "the paper's substitutionality: evaluate(H∘σ, φ) = evaluate(H, φσ)",
    ("syntax", "substitute"): "the paper's substitutionality, the syntactic side of compose",
    ("entailment", "labelled_entails"): "a labelled query at one size, as algebra_entails is for a plain one",
    ("proofcheck", "open_assumptions"): "the open assumptions of a subderivation, for emitted proofs",
}


def _trees() -> dict[Path, ast.Module]:
    files = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    files += [p for p in (ROOT / "bench").rglob("*.py") if "tests" not in p.relative_to(ROOT).parts]
    files += (ROOT / "scripts").rglob("*.py")
    return {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(files)}


def _public_functions(trees) -> dict[tuple[str, str], ast.FunctionDef]:
    return {
        (path.stem, node.name): node
        for path, tree in trees.items()
        if path.parent == SRC
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


def _method_names(trees) -> set[str]:
    return {
        node.name
        for path, tree in trees.items()
        if path.parent == SRC
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in ast.walk(cls)
        if isinstance(node, ast.FunctionDef)
    }


def _unused(trees) -> set[tuple[str, str]]:
    """The public functions with no caller that is not a test."""
    functions = _public_functions(trees)
    methods = _method_names(trees)
    used = set(re.findall(r"\blt\.(\w+):(\w+)", (ROOT / "pyproject.toml").read_text()))
    for path, tree in trees.items():
        own = path.stem if path.parent == SRC else None
        # the lines of each function's own body in this module
        bodies = {node.name: range(node.lineno, node.end_lineno + 1)
                  for (module, _), node in functions.items() if module == own}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "lt"):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Attribute) and node.attr not in methods:
                names = [node.attr]
            elif isinstance(node, ast.Name) and own is not None and node.lineno not in bodies.get(node.id, ()):
                used.add((own, node.id))
                continue
            else:
                continue
            used.update((module, name) for module, name in functions if name in names and module != own)
    return set(functions) - used


def test_every_public_function_has_a_caller_outside_the_tests():
    unused = _unused(_trees())
    assert unused <= set(ALLOWED), sorted(unused - set(ALLOWED))


def test_the_allow_list_names_only_what_needs_it():
    trees = _trees()
    assert set(ALLOWED) <= set(_public_functions(trees))
    assert set(ALLOWED) <= _unused(trees)
