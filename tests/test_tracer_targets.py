"""The benchmark's tracer patches package functions by name; each must exist.

``bench/tracer.py`` is read as text and its two target tables are
evaluated as literals, so the test neither imports nor changes it.  Some
traced names have no caller inside the package, so deleting one would
otherwise break only traced benchmark runs.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _literal(name):
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER}")


def test_traced_functions_exist():
    missing = [
        f"{module}.{func}"
        for module, funcs in _literal("TARGETS").items()
        for func in funcs
        if not callable(getattr(importlib.import_module(f"shellings.{module}"), func, None))
    ]
    assert missing == []


def test_traced_methods_exist():
    targets = _literal("METHOD_TARGETS")
    assert targets
    for module, cls, method in targets:
        owner = getattr(importlib.import_module(f"shellings.{module}"), cls)
        assert callable(owner.__dict__.get(method)), f"{module}.{cls}.{method}"
