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


def test_all_matches_the_package_imports():
    # A deleted function must not leave a stale export behind: every name
    # in __all__ resolves, and every public name __init__ imports is listed.
    exported = longhop.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(longhop, name)] == []
    init = Path(longhop.__file__)
    imported = {
        alias.asname or alias.name
        for node in ast.parse(init.read_text(), filename=str(init)).body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert public - set(exported) == set()


def _calls(path, name):
    """Line numbers in path that call `name`, bare or as an attribute."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_spanning_is_checked_only_where_a_generator_set_is_built():
    # GeneratorSet refuses hops that do not span, so no engine asks again:
    # DisconnectedGraph is raised and `spans` is called in graph.py alone.
    found = [
        f"{path.name}:{line} {name}"
        for path in SOURCES
        if path.name != "graph.py"
        for name in ("DisconnectedGraph", "spans")
        for line in _calls(path, name)
    ]
    assert found == []
    graph = next(path for path in SOURCES if path.name == "graph.py")
    assert len(_calls(graph, "DisconnectedGraph")) == len(_calls(graph, "spans")) == 1
