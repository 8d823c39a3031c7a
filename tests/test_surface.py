"""The library surface: every public module-level function of `src/lt`,
and every public method of its classes, has a caller that is not a test.

A caller is a use in `src/lt` (another module, or the function's own
module outside its own body), in `bench/` (not its tests), in `scripts/`
or in pyproject.toml's entry points.  `lt/__init__.py` only re-exports,
so its imports are not uses.  A name imported from `lt` is a use, and so is
an attribute `x.name`, unless a class of `src/lt` has a method of that
name, as `Algebra.int_bot` is not a use of a function `int_bot`.

A method is a function defined in a class body, or a public name bound
there to a function (`name = function`); dunders and properties are
exempt.  Its use is an attribute `x.name` outside the tests (one use
covers every class with a method of that name), or a string constant
equal to its name in a module of `bench/` or `scripts/` that calls
`getattr`, as `bench/layers.py` reaches the `Algebra` kernels by name.
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


def _public_methods(trees) -> set[tuple[str, str, str]]:
    """(module, class, name) of each public method of a class of src/lt."""
    out = set()
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    decorators = {ast.unparse(d).rsplit(".", 1)[-1] for d in node.decorator_list}
                    if not decorators & {"property", "cached_property"}:
                        out.add((path.stem, cls.name, node.name))
                elif isinstance(node, ast.Assign) and isinstance(node.value, (ast.Name, ast.Tuple)):
                    targets = [t for target in node.targets
                               for t in (target.elts if isinstance(target, ast.Tuple) else [target])]
                    out.update((path.stem, cls.name, t.id) for t in targets if isinstance(t, ast.Name))
    return {key for key in out if not key[2].startswith("_")}


def _unused_methods(trees) -> set[tuple[str, str, str]]:
    used = set()
    for path, tree in trees.items():
        nodes = list(ast.walk(tree))
        by_name = path.parent != SRC and any(
            isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "getattr"
            for n in nodes)
        for node in nodes:
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif by_name and isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return {key for key in _public_methods(trees) if key[2] not in used}


def test_every_public_function_has_a_caller_outside_the_tests():
    unused = _unused(_trees())
    assert unused <= set(ALLOWED), sorted(unused - set(ALLOWED))


def test_the_allow_list_names_only_what_needs_it():
    trees = _trees()
    assert set(ALLOWED) <= set(_public_functions(trees))
    assert set(ALLOWED) <= _unused(trees)


def test_every_public_method_has_a_caller_outside_the_tests():
    trees = _trees()
    assert ("algebra", "Algebra", "int_not") in _public_methods(trees)
    assert ("algebra", "Algebra", "names") not in _public_methods(trees)  # a property
    assert _unused_methods(trees) == set()


def test_a_method_without_a_caller_is_found():
    # a method that only a test would call, and one that bench/ reaches by
    # a name it passes to getattr
    trees = _trees()
    extra = ast.parse("class Spare:\n    def spare_method(self):\n        pass\n")
    trees[SRC / "spare.py"] = extra
    assert _unused_methods(trees) == {("spare", "Spare", "spare_method")}
    trees[ROOT / "bench" / "spare.py"] = ast.parse('getattr(object(), "spare_method")')
    assert _unused_methods(trees) == set()
