"""Source guards for the package.

Invariant checks must survive `python -O`, which strips `assert`
statements: the package raises its own errors instead, never an
`assert` and never a bare `AssertionError`.

Strided views alias tables that one identity bundle shares across all its
checks, so a write through any view would corrupt every later check: each
`as_strided` call passes `writeable=False`, and each `ndarray` built over a
buffer gets that buffer as a `.toreadonly()` memoryview.
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


def _name(call: ast.Call):
    f = call.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def _views(tree):
    """(line, read-only) for each strided view a tree builds."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        kw = {k.arg: k.value for k in node.keywords}
        if _name(node) == "as_strided":
            flag = kw.get("writeable")
            yield node.lineno, isinstance(flag, ast.Constant) and flag.value is False
        elif _name(node) == "ndarray":
            buf = node.args[2] if len(node.args) > 2 else kw.get("buffer")
            if buf is not None:  # without a buffer, ndarray allocates its own
                yield node.lineno, isinstance(buf, ast.Call) and _name(buf) == "toreadonly"


def test_views_guard_tells_readonly_from_writable():
    src = """
as_strided(a, (2,), (8,), writeable=False)
np.lib.stride_tricks.as_strided(a, shape=(2,))
as_strided(a, writeable=True)
np.ndarray((2,), a.dtype, memoryview(a).toreadonly(), 0, (8,))
np.ndarray((2,), a.dtype, buffer=memoryview(a).toreadonly())
np.ndarray((2,), a.dtype, a, 0, (8,))
np.ndarray(shape=(2,), dtype=a.dtype, buffer=a)
np.ndarray((2,), a.dtype)
"""
    assert [ok for _, ok in _views(ast.parse(src))] == [True, False, False, True, True, False, False]


def test_strided_views_are_readonly():
    views, writable = 0, []
    for path in sorted(PACKAGE.rglob("*.py")):
        for line, ok in _views(ast.parse(path.read_text(), filename=str(path))):
            views += 1
            if not ok:
                writable.append(f"{path.relative_to(PACKAGE)}:{line}")
    assert views >= 1  # the exhaustive oracles build their views here
    assert writable == []
