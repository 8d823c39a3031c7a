"""Every module in `src/lt` parses as the oldest Python that
`pyproject.toml` admits (`requires-python`).  This checks syntax only,
through `ast.parse(..., feature_version=...)`: a standard-library
function, class or argument added after that version is not caught,
and neither is any grammar change that `feature_version` does not
track."""

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
