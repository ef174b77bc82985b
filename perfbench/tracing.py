"""Span recording around iepoly's public functions, from outside the package.

`Tracer.install()` replaces each traced function at every module binding
that holds it (the defining module, every `iepoly.*` module that imported
it, and the package namespace), plus the identity-check registry and the
exhaustive workspace's cached tables.  `Tracer.restore()` puts every
original back.  Spans are kept in memory as
[name, start, end, parent, op, counts] and written as JSON lines at the end.

Counts labelled `.computed` are derived from array sizes, not measured:
they describe the minimal work of each kernel as the package writes it
and repeat exactly for the same inputs.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

CHECK_MODES = ("exhaustive", "sampled")
SERIALIZE_KINDS = (
    ("bin", "write"), ("bin", "read"), ("text", "write"),
    ("csv", "write"), ("csv", "read"), ("json", "write"), ("json", "read"),
)
_WORKSPACE_TABLES = ("ind", "prefix", "ext")


def _coeffs_series_name(args, kwargs):
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "full")
    return f"engine.coeffs_series.{mode}"


def _series_counts(args, kwargs, vec):
    """Eight strided passes: each updated element reads two values and
    writes one."""
    t = vec.triple
    n = len(vec.coeffs)
    steps = (t.p, t.q, t.r, t.p * t.q * t.r, 1, t.p * t.q, t.q * t.r, t.r * t.p)
    ops = sum(max(n - a, 0) for a in steps)
    return {
        "coeffs_out": n,
        "series_ops": ops,
        "series_bytes": 3 * vec.coeffs.itemsize * ops,
    }


def _window_counts(args, kwargs, vec):
    """Prefix sum (one op per position, uint8 in, int64 out) and the
    combine: four window differences and three sums, eight prefix reads
    and one result write per coefficient."""
    n = len(vec.coeffs)
    size = vec.coeffs.itemsize
    return {
        "coeffs_out": n,
        "window_ops": 8 * n,
        "window_bytes": n * (1 + 8) + 9 * size * n,
    }


def _indicator_counts(args, kwargs, result):
    """Three residue-table lookups per position; the positions are read
    once and one byte per position is written."""
    n = len(result)
    return {"elements": n, "indicator_ops": 3 * n, "indicator_bytes": 9 * n}


def _check_counts(args, kwargs, result):
    return {"checked": int(result[1])}


def _cli_counts(args, kwargs, code):
    return {"exit_nonzero": int(code != 0)}


def _sweep_counts(args, kwargs, summary, prefix):
    return {
        "keys": summary.written,
        "skipped": summary.skipped,
        "errors": summary.errors,
        "sweep_bytes_written": os.path.getsize(summary.path) - prefix,
    }


def _file_size(fp) -> int:
    try:
        fp.flush()
        return os.fstat(fp.fileno()).st_size
    except (AttributeError, OSError, ValueError):
        return 0


def _sweep_prefix(task) -> int:
    """Bytes of complete lines a resumed sweep keeps from its resume file."""
    if task.resume_from is None or not os.path.exists(task.resume_from):
        return 0
    with open(task.resume_from, "rb") as fh:
        return fh.read().rfind(b"\n") + 1


class Tracer:
    """In-memory span recorder; `op` tags spans with the running op id."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []
        self._restore: list = []

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, name, counts=None, before=None):
        """`name` is a string or a function of (args, kwargs); `counts`
        maps (args, kwargs, result[, before-value]) to the span's counts."""
        name_of = name if callable(name) else (lambda a, k, _n=name: _n)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = (before(args, kwargs),) if before else ()
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name_of(args, kwargs), 0.0, 0.0, parent, self.op, None])
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid][1:3] = [start, end]
            if counts is not None:
                self.spans[sid][5] = counts(args, kwargs, result, *extra)
            return result

        return traced

    def _patch_everywhere(self, module: str, attr: str, wrapper_of) -> None:
        original = getattr(importlib.import_module(module), attr)
        wrapper = wrapper_of(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "iepoly" or mod_name.startswith("iepoly.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        """Wrap every traced function; call restore() to undo."""
        w = self._wrap

        def serialize_io(fmt, direction):
            name = f"serialize.{fmt}.{direction}"
            if direction == "write":
                return lambda f: w(
                    f, name,
                    lambda a, k, r, size0: {"ser_bytes_written": _file_size(a[1]) - size0},
                    lambda a, k: _file_size(a[1]),
                )
            return lambda f: w(f, name, lambda a, k, r: {"ser_bytes_read": _file_size(a[0])})

        plain = [
            ("iepoly.engine", "coeffs_series",
             lambda f: w(f, _coeffs_series_name, _series_counts)),
            ("iepoly.engine", "coeffs_window",
             lambda f: w(f, "engine.coeffs_window", _window_counts)),
            ("iepoly.represent", "indicator_range",
             lambda f: w(f, "represent.indicator_range")),
            ("iepoly.represent", "indicator_many",
             lambda f: w(f, "represent.indicator_many", _indicator_counts)),
            ("iepoly.height", "height", lambda f: w(f, "height.height")),
            ("iepoly.checks", "recursive_bound_sweep",
             lambda f: w(f, "checks.recursive_bound_sweep")),
            ("iepoly.checks", "bounded_height_sup",
             lambda f: w(f, "checks.bounded_height_sup")),
            ("iepoly.search", "sweep_heights",
             lambda f: w(f, "search.sweep_heights", _sweep_counts,
                         lambda a, k: _sweep_prefix(a[0]))),
            ("iepoly.cli", "main", lambda f: w(f, "cli.main", _cli_counts)),
        ]
        for fmt, direction in SERIALIZE_KINDS:
            attr = f"{direction}_{'binary' if fmt == 'bin' else fmt}"
            plain.append(("iepoly.serialize", attr, serialize_io(fmt, direction)))
        for module, attr, wrapper_of in plain:
            self._patch_everywhere(module, attr, wrapper_of)

        identities = importlib.import_module("iepoly.identities")
        registry = identities.IDENTITY_CHECKS
        for cid, fn in list(registry.items()):
            self._restore.append((registry, cid, fn))
            registry[cid] = w(fn, lambda a, k, _c=cid: f"identities.{_c}.{a[4]}", _check_counts)
        ws_cls = identities._Workspace
        for table in _WORKSPACE_TABLES:
            prop = ws_cls.__dict__[table]
            traced = functools.cached_property(w(prop.func, "identities.workspace"))
            traced.__set_name__(ws_cls, table)
            self._restore.append((ws_cls, table, prop))
            setattr(ws_cls, table, traced)

    def restore(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, counts) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "op": op}
                if counts:
                    rec["counts"] = counts
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


# -- aggregation -----------------------------------------------------------


def layer_metrics(spans: list, check_ids) -> tuple[dict, dict]:
    """Per-layer metric values from one traced pass, and calls per span name."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    totals: dict[str, int] = {}
    sampled_elements = 0
    workspace_s = 0.0

    def ancestors(i):
        p = spans[i][3]
        while p is not None:
            yield spans[p][0]
            p = spans[p][3]

    for i, (name, start, end, parent, _, counts) in enumerate(spans):
        busy[name] = busy.get(name, 0.0) + (end - start) - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        for key, value in (counts or {}).items():
            totals[key] = totals.get(key, 0) + value
            if key == "checked" and name.endswith(".sampled"):
                totals["sampled_positions"] = totals.get("sampled_positions", 0) + value
        if name == "represent.indicator_many" and any(
            a.startswith("identities.") and a.endswith(".sampled") for a in ancestors(i)
        ):
            sampled_elements += counts["elements"]
        if name == "identities.workspace" and not any(
            a == "identities.workspace" for a in ancestors(i)
        ):
            workspace_s += end - start

    def b(name):
        return busy.get(name, 0.0)

    def n_calls(prefix):
        return sum(c for name, c in calls.items() if name.startswith(prefix))

    def t(key):
        return totals.get(key, 0)

    m = {
        "engine.coeffs_series.full.busy_s": b("engine.coeffs_series.full"),
        "engine.coeffs_series.half.busy_s": b("engine.coeffs_series.half"),
        "engine.coeffs_window.busy_s": b("engine.coeffs_window"),
        "engine.calls": n_calls("engine."),
        "engine.coeffs_out": t("coeffs_out"),
        "engine.bytes_moved.computed": t("series_bytes") + t("window_bytes"),
        "engine.series_passes.elem_ops.computed": t("series_ops"),
        "engine.series_passes.bytes_moved.computed": t("series_bytes"),
        "engine.window_combine.elem_ops.computed": t("window_ops"),
        "engine.window_combine.bytes_moved.computed": t("window_bytes"),
        "represent.indicator_range.busy_s": b("represent.indicator_range"),
        "represent.indicator_many.busy_s": b("represent.indicator_many"),
        "represent.calls": n_calls("represent."),
        "represent.elements": t("elements"),
        "represent.elements_per_sample": (
            sampled_elements / t("sampled_positions") if t("sampled_positions") else 0.0
        ),
        "represent.indicator_build.elem_ops.computed": t("indicator_ops"),
        "represent.indicator_build.bytes_moved.computed": t("indicator_bytes"),
        "height.height.busy_s": b("height.height"),
        "height.calls": n_calls("height."),
    }
    for cid in check_ids:
        for mode in CHECK_MODES:
            m[f"identities.{cid}.{mode}.busy_s"] = b(f"identities.{cid}.{mode}")
    m["identities.positions_checked"] = t("checked")
    m["identities.workspace_s"] = workspace_s
    m["checks.recursive_bound_sweep.busy_s"] = b("checks.recursive_bound_sweep")
    m["checks.bounded_height_sup.busy_s"] = b("checks.bounded_height_sup")
    m["checks.calls"] = n_calls("checks.")
    for fmt, direction in SERIALIZE_KINDS:
        m[f"serialize.{fmt}.{direction}.busy_s"] = b(f"serialize.{fmt}.{direction}")
    m["serialize.bytes_written"] = t("ser_bytes_written")
    m["serialize.bytes_read"] = t("ser_bytes_read")
    m["search.sweep_heights.busy_s"] = b("search.sweep_heights")
    m["search.keys"] = t("keys")
    m["search.resume.skipped_keys"] = t("skipped")
    m["search.bytes_written"] = t("sweep_bytes_written")
    m["search.errors"] = t("errors")
    m["cli.main.busy_s"] = b("cli.main")
    m["cli.exit_nonzero"] = t("exit_nonzero")
    return m, calls
