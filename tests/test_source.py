"""Properties of the library source itself."""

import ast
from pathlib import Path

import longhop

SOURCES = sorted(Path(longhop.__file__).parent.glob("*.py"))


def test_library_has_no_bare_asserts():
    # `python -O` strips assert statements, so checks must raise instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert found == []
