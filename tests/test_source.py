"""Properties of the library source itself."""

import ast
import importlib.util
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


def _exists(module, name):
    """Whether `from .module import name` (`from . import name` when
    module is None) works inside the package."""
    if module is None:
        return importlib.util.find_spec(f"longhop.{name}") is not None
    if importlib.util.find_spec(f"longhop.{module}") is None:
        return False
    return hasattr(importlib.import_module(f"longhop.{module}"), name)


def test_lazy_imports_resolve():
    # Commands import their modules inside their cmd_* functions, so a
    # misspelt module or name there would fail only when someone runs that
    # command; here it fails the tests.
    imports = [
        (f"{path.name}:{node.lineno}", node.module, alias.name)
        for path in SOURCES
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert any(where.startswith("cli.py:") for where, *_ in imports)
    missing = [f"{w} from .{m or ''} import {n}" for w, m, n in imports if not _exists(m, n)]
    assert missing == []


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


BENCH = Path(__file__).resolve().parent.parent / "bench"


def _resolve(module, qualname):
    obj = importlib.import_module(f"longhop.{module}")
    for attr in qualname.split("."):
        obj = getattr(obj, attr, None)
    return obj


def test_names_the_bench_uses_resolve():
    # The bench wraps and calls library names from outside the package, so
    # deleting one breaks only a bench run; here it breaks the tests.
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    wrapped = [(module, qualname) for module, qualname, *_ in layers.LAYERS]
    run = BENCH / "run.py"
    tree = ast.parse(run.read_text(), filename=str(run))
    # ("", "ecc") for `from longhop import ecc`, ("graph", "load_hops")
    # for `from longhop.graph import load_hops`.
    imported = [
        (node.module.partition(".")[2], alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("longhop")
        for alias in node.names
    ]
    modules = {name for sub, name in imported if not sub}
    read = [
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ]
    names = wrapped + [(sub, name) for sub, name in imported if sub] + read
    assert wrapped
    assert modules >= {"bisection", "cli", "constructions", "ecc", "gf2", "graph", "soldb"}
    assert [f"{sub}.{name}" for sub, name in names if _resolve(sub, name) is None] == []


def _references(path):
    """Every name a file reads: bare, as an attribute, imported, or spelt
    out as a whole string (the bench names the layers it wraps that way)."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from node.value.split(".")


def test_every_library_function_has_a_caller_outside_the_tests():
    # A function that only tests call belongs with the tests (oracle.py
    # holds the referees), not in the library.
    readers = SOURCES + sorted(BENCH.glob("*.py"))
    used = {name for path in readers for name in _references(path)}
    unused = [
        f"{path.name}:{node.name}"
        for path in SOURCES
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.FunctionDef) and node.name not in used
    ]
    assert unused == []
