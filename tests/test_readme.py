"""The README's library example runs as printed: each statement of the
```python block under "## Library" is executed in order, and a statement
whose trailing comment is a Python literal must evaluate to it."""

import ast
import io
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```\n", start)]


def expected_values(source: str) -> dict[int, object]:
    """Per line number, the value of a trailing comment that is a Python
    literal, such as `# ['00']` (not `# replayable witness`)."""
    values = {}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            try:
                values[token.start[0]] = ast.literal_eval(token.string[1:].strip())
            except (ValueError, SyntaxError):
                pass
    return values


def test_the_library_example_prints_what_its_comments_say():
    source = library_example()
    expected = expected_values(source)
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr) and stmt.end_lineno in expected:
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert value == expected[stmt.end_lineno], ast.get_source_segment(source, stmt)
            checked.append(stmt.end_lineno)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked == sorted(expected) and len(checked) >= 2
