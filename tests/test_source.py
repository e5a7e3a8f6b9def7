"""Rules that hold for the package source as a whole."""

import ast
from pathlib import Path

import gottlieb


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so invariants must be explicit checks.
    root = Path(gottlieb.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []
