"""Every module in `src/lt` parses as the oldest Python that
`pyproject.toml` admits (`requires-python`).  This checks syntax only,
through `ast.parse(..., feature_version=...)`: a standard-library
function, class or argument added after that version is not caught,
and neither is any grammar change that `feature_version` does not
track.  The regular expressions of `src/lt` are checked apart, as the
parser of `re` reads them: none may use syntax newer than Python 3.10,
a possessive quantifier or an atomic group."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lt"


def oldest_python() -> tuple[int, int]:
    """The (major, minor) of `requires-python = ">=X.Y"` in pyproject.toml."""
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"',
                      (ROOT / "pyproject.toml").read_text(), re.M)
    assert found, "pyproject.toml states no requires-python lower bound"
    return int(found[1]), int(found[2])


def test_oldest_python_is_3_10():
    assert oldest_python() == (3, 10)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_parses_as_the_oldest_python(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=oldest_python())


def test_the_check_rejects_newer_syntax():
    # except* came in Python 3.11
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))


try:  # the parser of `re`: `re._parser` from Python 3.11, `sre_parse` before
    from re import _parser as re_parser
except ImportError:
    import sre_parse as re_parser

_RE_FUNCTIONS = {"compile", "match", "fullmatch", "search", "findall", "finditer", "sub",
                 "subn", "split"}
_NEWER_THAN_3_10 = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}  # *+ ++ ?+ {m,n}+ and (?>...)


def regex_patterns(source: str) -> list[str]:
    """The string patterns passed to a function of `re` in the source."""
    return [call.args[0].value for call in ast.walk(ast.parse(source))
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name) and call.func.value.id == "re"
            and call.func.attr in _RE_FUNCTIONS and call.args
            and isinstance(call.args[0], ast.Constant) and isinstance(call.args[0].value, str)]


def newer_regex_syntax(pattern: str) -> list[str]:
    """The opcodes of the parsed pattern that Python 3.10 lacks; a pattern
    that this Python's `re` cannot parse is reported whole."""
    try:
        todo = [re_parser.parse(pattern)]
    except re.error as exc:
        return [f"unparsed: {exc}"]
    found = []
    while todo:
        item = todo.pop()
        if isinstance(item, re_parser.SubPattern):
            todo += item.data
        elif isinstance(item, (tuple, list)):
            found += [str(x) for x in item[:1] if str(x) in _NEWER_THAN_3_10]
            todo += item
    return found


def test_src_has_regex_patterns_to_check():
    assert regex_patterns((SRC / "syntax.py").read_text())


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_regex_patterns_use_no_syntax_newer_than_3_10(path):
    for pattern in regex_patterns(path.read_text()):
        assert newer_regex_syntax(pattern) == [], pattern


def test_the_regex_check_rejects_possessive_and_atomic_syntax():
    assert regex_patterns('import re\nX = re.compile(r"\\s*+(a|b)")') == [r"\s*+(a|b)"]
    for pattern in (r"\s*+(a|b)", r"a++", r"(?>a|ab)c", r"x{1,3}+"):
        assert newer_regex_syntax(pattern), pattern
    for pattern in (r"\s*(a|b)", r"a+?", r"\(+|\)+|!+|\S|\Z", r"[*+]+", r"\++"):
        assert newer_regex_syntax(pattern) == [], pattern
