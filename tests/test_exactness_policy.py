"""Exact division is decided in one place: outside ``bigmath`` no module of
the package calls ``divmod`` or raises ``ExactnessError``; every checked
division goes through ``bigmath.exact_div``."""

import ast
from pathlib import Path

import shellings

PACKAGE = Path(shellings.__file__).resolve().parent


def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _exactness_sites(source: str) -> list[tuple[str, int]]:
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _name(node) == "divmod":
            sites.append(("divmod", node.lineno))
        elif isinstance(node, ast.Raise) and node.exc is not None and _name(node.exc) == "ExactnessError":
            sites.append(("raise ExactnessError", node.lineno))
    return sorted(sites, key=lambda site: site[1])


def test_scan_finds_both_kinds_of_site():
    source = "q, r = divmod(a, b)\nif r:\n    raise ExactnessError('x')\nraise errors.ExactnessError\n"
    assert _exactness_sites(source) == [
        ("divmod", 1), ("raise ExactnessError", 3), ("raise ExactnessError", 4)]


def test_divmod_and_exactness_errors_only_in_bigmath():
    sites = {p.name: _exactness_sites(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {kind for kind, _ in sites.pop("bigmath.py")} == {"divmod", "raise ExactnessError"}
    assert {name: found for name, found in sites.items() if found} == {}
