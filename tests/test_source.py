"""Source guards for the package.

Invariant checks must survive `python -O`, which strips `assert`
statements: the package raises its own errors instead, never an
`assert` and never a bare `AssertionError`.

Strided views alias tables that one identity bundle shares across all its
checks, so a write through any view would corrupt every later check: each
`as_strided` call passes `writeable=False`, and each `ndarray` built over a
buffer gets that buffer as a `.toreadonly()` memoryview.

Every size decision rests on one setting, the degree cap, and one gate,
`represent.require_under_cap`: the environment is read, and
`DegreeCapExceeded` constructed, only inside it, and no function takes a
`cap` parameter that could set the limit another way.  So the cap only
refuses sizes; it never chooses an algorithm.

The import graph has no cycle to dodge: no module imports inside a
function or class body, and `represent`, which the engines build on,
imports nothing from `engine`.

The two coefficient engines check each other only while they share no
code: past the degree, the size gate and the vector they return, the
names that `coeffs_series` and `coeffs_window` reach in `engine.py` are
disjoint.
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


def _setting_breaches(tree, module: str):
    """(line, what) for each environment read outside
    represent.require_under_cap and each function parameter named cap."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
            found.extend((node.lineno, "cap parameter") for x in params if x.arg == "cap")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if where != "represent.require_under_cap":
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                found.append((node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found.extend((node.lineno, x.name) for x in node.names
                             if x.name in ("environ", "getenv"))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, module)
    return found


def test_settings_guard_tells_one_setting_from_others():
    ok = """
import os
def require_under_cap(n):
    return os.environ.get("IEPOLY_DEGREE_CAP")
"""
    assert _setting_breaches(ast.parse(ok), "represent") == []
    assert _setting_breaches(ast.parse(ok), "height") == [(4, "environ")]
    bad = """
import os
from os import getenv
def height(t, cap=None):
    return os.getenv("X")
class Engine:
    def require_under_cap(self, *, cap):
        return os.environ["X"]
limit = lambda cap: cap
"""
    assert _setting_breaches(ast.parse(bad), "represent") == [
        (3, "getenv"), (4, "cap parameter"), (5, "getenv"),
        (7, "cap parameter"), (8, "environ"), (9, "cap parameter"),
    ]


def test_degree_cap_is_the_one_setting():
    breaches = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        breaches += [f"{path.relative_to(PACKAGE)}:{line} {what}"
                     for line, what in _setting_breaches(tree, module)]
    assert breaches == []


def _cap_constructions(tree, module: str) -> list:
    """Lines that construct DegreeCapExceeded outside represent.require_under_cap."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if (isinstance(node, ast.Call) and _name(node) == "DegreeCapExceeded"
                and where != "represent.require_under_cap"):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, module)
    return found


def test_cap_guard_finds_constructions_outside_the_gate():
    src = """
from .errors import DegreeCapExceeded
def require_under_cap(n, what="degree"):
    raise DegreeCapExceeded(n, 0, what)
def coeffs(t):
    raise DegreeCapExceeded(5, 0)
class Reader:
    def require_under_cap(self):
        return errors.DegreeCapExceeded(1, 0)
refuse = lambda: DegreeCapExceeded(1, 0)
try:
    pass
except DegreeCapExceeded:
    pass
"""
    assert _cap_constructions(ast.parse(src), "represent") == [6, 9, 10]
    assert _cap_constructions(ast.parse(src), "serialize") == [4, 6, 9, 10]


def test_degree_cap_is_refused_in_one_place():
    found, gate = [], 0
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        found += [f"{path.relative_to(PACKAGE)}:{line}"
                  for line in _cap_constructions(tree, module)]
        if module == "represent":  # read as another module, it shows the gate's own
            gate = len(_cap_constructions(tree, "elsewhere"))
    assert gate == 1  # the gate itself, so the guard has something to find
    assert found == []


def _import_breaches(tree, module: str) -> list:
    """(line, what) for each import inside a function or class body and,
    in represent, each import from engine."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += [(n.lineno, "nested import") for n in ast.walk(node)
                      if isinstance(n, (ast.Import, ast.ImportFrom))]
        if module == "represent" and isinstance(node, ast.ImportFrom) and (
            node.module in ("engine", "iepoly.engine")
            or node.module is None and any(a.name == "engine" for a in node.names)
        ):
            found.append((node.lineno, "engine import"))
    return sorted(set(found))  # an import in a nested body is found once per body


def test_import_guard_finds_nested_and_engine_imports():
    src = """
from .errors import DegreeCapExceeded
from .engine import degree
from . import engine
import numpy as np
def gate(n):
    from .engine import require_under_cap
    return n
class Reader:
    def read(self):
        import json
"""
    assert _import_breaches(ast.parse(src), "height") == [(7, "nested import"), (11, "nested import")]
    assert _import_breaches(ast.parse(src), "represent") == [
        (3, "engine import"), (4, "engine import"), (7, "engine import"),
        (7, "nested import"), (11, "nested import"),
    ]


def test_imports_have_no_cycle_to_dodge():
    breaches = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        breaches += [f"{path.relative_to(PACKAGE)}:{line} {what}"
                     for line, what in _import_breaches(tree, module)]
    assert (PACKAGE / "represent.py").exists()
    assert breaches == []


ENGINE_SHARED = {"degree", "require_under_cap", "CoefficientVector"}


def _reached(tree, root: str) -> set:
    """Module names that the top-level function root reaches in tree: the
    names its body reads and, through each module-level function among
    them, that function's body in turn, stopping at ENGINE_SHARED.  Plain
    `import`s (numpy, os) are not package code; signatures are not read."""
    defs = {n.name: n for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    names = set(defs)
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))

    def used(fn):
        return {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and n.id in names}

    seen, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        if name not in ENGINE_SHARED and isinstance(defs.get(name), ast.FunctionDef):
            todo.extend(used(defs[name]))
    return seen - {root}


def _shared_engine_names(tree) -> set:
    return (_reached(tree, "coeffs_series") & _reached(tree, "coeffs_window")) - ENGINE_SHARED


def test_engine_guard_finds_shared_code():
    src = """
import numpy as np
from .represent import Triple, helper
_STEP = 4
def degree(t: Triple) -> int:
    return _STEP
def _pass(c):
    return helper(c, _STEP)
def coeffs_series(t: Triple) -> Vec:
    return _pass(np.zeros(degree(t)))
def coeffs_window(t: Triple) -> Vec:
    return np.ones(degree(t))
"""
    assert _shared_engine_names(ast.parse(src)) == set()
    shared = src.replace("np.ones(degree(t))", "_pass(degree(t))")
    assert _shared_engine_names(ast.parse(shared)) == {"_pass", "helper", "_STEP"}
    direct = src.replace("np.ones(degree(t))", "helper(_STEP)")
    assert _shared_engine_names(ast.parse(direct)) == {"helper", "_STEP"}


def test_engines_share_no_code():
    tree = ast.parse((PACKAGE / "engine.py").read_text())
    assert {"indicator_range", "_multiply_factor"} <= (
        _reached(tree, "coeffs_window") | _reached(tree, "coeffs_series")
    )
    assert _shared_engine_names(tree) == set()
