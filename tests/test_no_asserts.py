"""Library self-checks are explicit raises: ``python -O`` strips assert
statements, which would silently drop a check.  The exact modules count in
integers and rationals only, so no rounding can change a result."""
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


# bounds.py evaluates the entropy bounds in floating point and cli.py
# formats floats for output, both on purpose; every other module is exact
EXACT_MODULES = ["setcore", "invert", "kappa", "pack", "qcube"]


def test_exact_modules_use_no_floats():
    found = []
    for name in EXACT_MODULES:
        path = Path(setpack.__file__).parent / f"{name}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
                or isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
                or isinstance(node, ast.Name) and node.id == "float"
                or isinstance(node, ast.Attribute) and node.attr.startswith("float")
            ):
                found.append(f"{name}.py:{node.lineno}")
    assert not found, f"floats in the exact modules: {found}"
