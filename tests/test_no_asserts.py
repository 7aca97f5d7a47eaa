"""Library self-checks are explicit raises: ``python -O`` strips assert
statements, which would silently drop a check."""
import ast
from pathlib import Path

import setpack

SOURCES = sorted(Path(setpack.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    assert SOURCES
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        asserts = [node for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        found += [f"{path.name}:{node.lineno}" for node in asserts]
    assert not found, f"assert statements in setpack: {found}"
