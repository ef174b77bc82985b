"""Source guards for the package.

Invariant checks must survive `python -O`, which strips `assert`
statements: the package raises its own errors instead, never an
`assert` and never a bare `AssertionError`.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "iepoly"


def _raised_name(node: ast.Raise):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_no_assert_in_package():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Raise) and _raised_name(node) == "AssertionError"
            ):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert list(PACKAGE.glob("*.py")), PACKAGE
    assert found == []
