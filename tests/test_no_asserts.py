"""No correctness check in the package may be an `assert`: `python -O` strips them."""

import ast
from pathlib import Path

import sutwist

PACKAGE = Path(sutwist.__file__).parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
