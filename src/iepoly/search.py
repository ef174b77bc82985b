"""Parameter searches: coprime-triple enumeration, height sweeps with
resumable JSONL persistence, and hunts for pairs where the height bounds
are attained exactly.

Determinism contract: a task's result file is a pure function of the task —
independent of worker count, interruption, and resume pattern.  Workers may
compute out of order; a single ordered writer owns the file.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from math import gcd
from typing import Iterator

from ._version import __version__
from .arith import enumerate_coprime_pairs
from .checks import bounded_height_sup
from .errors import IEPolyError, InvalidParameters, PersistenceError
from .height import height
from .represent import Triple

SEARCH_KINDS = ("height-sweep", "flat-hunt", "bound-attained", "sharp-step")

# Offsets whose true pairwise supremum is pinned by published computations.
KNOWN_SUP = {1: 0, 2: 1, 3: 2, 4: 3, 5: 3}

MANIFEST_SUFFIX = ".manifest.json"


@dataclass(frozen=True)
class SearchTask:
    kind: str
    ranges: tuple[tuple[int, int], ...]
    s: int | None = None
    resume_from: str | None = None

    def __post_init__(self):
        if self.kind not in SEARCH_KINDS:
            raise InvalidParameters(f"unknown search kind {self.kind!r}")
        ranges = tuple((int(lo), int(hi)) for lo, hi in self.ranges)
        object.__setattr__(self, "ranges", ranges)
        want = 2 if self.kind in ("bound-attained", "sharp-step") else 3
        if len(ranges) != want:
            raise InvalidParameters(f"{self.kind} needs {want} parameter ranges")
        for lo, hi in ranges:
            if lo > hi:
                raise InvalidParameters(f"empty range ({lo}, {hi})")
            if lo < 3:
                raise InvalidParameters("range lower bounds must be at least 3")
        if self.kind in ("bound-attained", "sharp-step"):
            if self.s is None or self.s < 1:
                raise InvalidParameters(f"{self.kind} requires an offset s >= 1")

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "ranges": [list(r) for r in self.ranges],
            "s": self.s,
        }


def enumerate_coprime_triples(
    ranges: tuple[tuple[int, int], ...],
) -> Iterator[Triple]:
    """All pairwise-coprime p < q < r within inclusive per-slot bounds,
    in lexicographic order."""
    (p_lo, p_hi), (q_lo, q_hi), (r_lo, r_hi) = ranges
    for p, q in enumerate_coprime_pairs(p_hi, q_hi, p_min=max(p_lo, 3)):
        if q < q_lo:
            continue
        for r in range(max(r_lo, q + 1), r_hi + 1):
            if gcd(r, p) == 1 and gcd(r, q) == 1:
                yield Triple(p, q, r)


# ---------------------------------------------------------------------------
# record computation (top-level for process-pool pickling)
# ---------------------------------------------------------------------------


def _record(kind: str, key: tuple, s: int | None = None, target: int | None = None) -> dict:
    """The record of one key: the height record of the triple `key`, or for
    a pair task the height at (p, q, p*q + s) against the target height."""
    head = {"task": kind, "key": list(key)}
    try:
        if s is None:
            return {**head, **height(Triple(*key)).to_dict()}
        r = key[0] * key[1] + s
        h = height(Triple(*key, r)).height
        return {
            **head, "s": s, "r": r, "height": h, "target": target, "solution": h == target
        }
    except IEPolyError as exc:
        return {**head, "error": type(exc).__name__, "detail": str(exc)}


def _task_items(task: SearchTask) -> tuple[list[tuple], object]:
    """Ordered keys plus the per-key record function for a task."""
    if task.kind in ("height-sweep", "flat-hunt"):
        triples = enumerate_coprime_triples(task.ranges)
        if task.kind == "flat-hunt":
            keys = [
                t.as_tuple()
                for t in triples
                if t.r % (t.p * t.q) in (1, t.p * t.q - 1)
            ]
        else:
            keys = [t.as_tuple() for t in triples]
        return keys, partial(_record, task.kind)
    (p_lo, p_hi), (q_lo, q_hi) = task.ranges
    keys = [
        (p, q)
        for p, q in enumerate_coprime_pairs(p_hi, q_hi, coprime_to=task.s, p_min=p_lo)
        if q >= q_lo
    ]
    if task.kind == "bound-attained":
        target = task.s
    else:
        sup, _ = bounded_height_sup(task.s, max(p_hi, q_hi))
        target = sup + 1
    return keys, partial(_record, task.kind, s=task.s, target=target)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _encode(record: dict) -> bytes:
    return json.dumps(record, separators=(",", ":")).encode() + b"\n"


def _read_complete_lines(path: str) -> tuple[list[dict], int]:
    """Parsed records of every newline-terminated line, plus the byte offset
    where the last complete line ends (a trailing partial line is ignored)."""
    records = []
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise PersistenceError(f"cannot read {path}: {exc}") from exc
    end = data.rfind(b"\n") + 1
    for line in data[:end].splitlines():
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise PersistenceError(f"malformed line in {path}: {exc}") from exc
    return records, end


def read_results(path: str) -> list[dict]:
    """All complete records of a result file."""
    return _read_complete_lines(path)[0]


@dataclass
class SweepSummary:
    path: str
    total: int
    written: int
    skipped: int
    errors: int
    solutions: list = field(default_factory=list)


def _manifest(task: SearchTask) -> dict:
    return {
        "format": "iepoly-sweep",
        "version": 1,
        "task": task.describe(),
        "seed": None,
        "package_version": __version__,
    }


def _write_manifest(task: SearchTask, out: str) -> None:
    """Write the manifest beside `out` atomically: a kill leaves the old or
    the new one, never a torn file."""
    tmp = out + MANIFEST_SUFFIX + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(_manifest(task), fh, indent=2, sort_keys=False)
        fh.write("\n")
    os.replace(tmp, out + MANIFEST_SUFFIX)


def _check_manifest(task: SearchTask, path: str) -> None:
    """A manifest beside a resume file must be this task's.  Without one,
    only the key-prefix check in sweep_heights guards the resume."""
    try:
        with open(path + MANIFEST_SUFFIX) as fh:
            found = json.load(fh)
    except FileNotFoundError:
        return
    except (OSError, ValueError) as exc:
        raise PersistenceError(f"unreadable manifest beside {path}: {exc}") from exc
    if found != _manifest(task):
        raise PersistenceError(f"{path}: its manifest records another task or package version")


def sweep_heights(task: SearchTask, out: str, workers: int = 1) -> SweepSummary:
    """Run a search task, appending one JSON line per key to `out`.

    With task.resume_from set (it must name `out`), complete lines of `out`
    are trusted, verified to be the exact prefix of this task's key sequence
    (and, when a manifest sits beside it, to come from this very task), and
    not recomputed; a trailing partial line is truncated away.  The final
    file is byte-identical to an uninterrupted single-worker run.
    """
    if task.resume_from not in (None, out):
        raise InvalidParameters(f"a sweep resumes its own output {out}, not {task.resume_from}")
    keys, compute = _task_items(task)
    done = 0
    if task.resume_from is not None and os.path.exists(out):
        _check_manifest(task, out)
        prior, offset = _read_complete_lines(out)
        for i, rec in enumerate(prior):
            if i >= len(keys) or tuple(rec.get("key", ())) != keys[i]:
                raise PersistenceError(f"{out} does not match this task at line {i + 1}")
        done = len(prior)
        with open(out, "rb+") as fh:
            fh.truncate(offset)
    else:
        open(out, "wb").close()

    _write_manifest(task, out)
    pending = keys[done:]
    written = errors = 0
    solutions = []

    def consume(fh, record):
        nonlocal written, errors
        fh.write(_encode(record))
        fh.flush()
        written += 1
        if "error" in record:
            errors += 1
        elif record.get("solution"):
            solutions.append(tuple(record["key"]))

    with open(out, "ab") as fh:
        if workers > 1 and len(pending) > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for record in pool.map(compute, pending, chunksize=16):
                    consume(fh, record)
        else:
            for key in pending:
                consume(fh, compute(key))
    return SweepSummary(
        path=out,
        total=len(keys),
        written=written,
        skipped=done,
        errors=errors,
        solutions=solutions,
    )


# ---------------------------------------------------------------------------
# direct searches (no persistence)
# ---------------------------------------------------------------------------


def _scan_pairs(s: int, p_max: int, target: int) -> dict:
    """Height at p*q + s for every coprime pair 3 <= p < q <= p_max coprime
    to s, and the pairs where it equals target."""
    records = []
    pairs = []
    for p, q in enumerate_coprime_pairs(p_max, p_max, coprime_to=s):
        val = height(Triple(p, q, p * q + s)).height
        records.append({"p": p, "q": q, "r": p * q + s, "height": val})
        if val == target:
            pairs.append((p, q))
    return {"pairs": pairs, "checked": len(records), "records": records}


def find_bound_attained_pairs(s: int, p_max: int) -> dict:
    """Coprime pairs with the height at p*q + s exactly equal to s."""
    if s < 1:
        raise InvalidParameters("offset must be at least 1")
    return {"s": s, **_scan_pairs(s, p_max, target=s)}


def find_sharp_step_pairs(s: int, p_max: int) -> dict:
    """Coprime pairs whose height at p*q + s steps one above the bounded
    pairwise supremum for s.  Exact when that supremum is pinned by the
    known table; otherwise flagged conditional on the searched bound."""
    if s < 1:
        raise InvalidParameters("offset must be at least 1")
    sup, attained = bounded_height_sup(s, p_max)
    exact = s in KNOWN_SUP and sup == KNOWN_SUP[s]
    target = sup + 1
    return {
        "s": s,
        "sup_lower_bound": sup,
        "sup_attained_at": attained,
        "target": target,
        "conditional": not exact,
        **_scan_pairs(s, p_max, target),
    }
