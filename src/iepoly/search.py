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
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice
from math import gcd
from typing import Iterator

from ._version import __version__
from .arith import enumerate_coprime_pairs
from .checks import KNOWN_SUP, bounded_height_sup
from .errors import IEPolyError, InvalidParameters, PersistenceError
from .height import height
from .represent import Triple

SEARCH_KINDS = ("height-sweep", "flat-hunt", "bound-attained", "sharp-step")

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
        pair = self.kind in ("bound-attained", "sharp-step")
        want = 2 if pair else 3
        if len(ranges) != want:
            raise InvalidParameters(f"{self.kind} needs {want} parameter ranges")
        for lo, hi in ranges:
            if lo > hi:
                raise InvalidParameters(f"empty range ({lo}, {hi})")
            if lo < 3:
                raise InvalidParameters("range lower bounds must be at least 3")
        if pair and (self.s is None or self.s < 1):
            raise InvalidParameters(f"{self.kind} requires an offset s >= 1")
        if not pair and self.s is not None:
            raise InvalidParameters(f"{self.kind} takes no offset s, got {self.s}")

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
    if s is None:
        return {**head, **height(Triple(*key)).to_dict()}
    r = key[0] * key[1] + s
    h = height(Triple(*key, r)).height
    return {**head, "s": s, "r": r, "height": h, "target": target, "solution": h == target}


def _guarded(kind: str, record, key: tuple) -> dict:
    """record(key), or an error record when it raises an IEPolyError, so one
    failing key does not end a sweep."""
    try:
        return record(key)
    except IEPolyError as exc:
        return {"task": kind, "key": list(key), "error": type(exc).__name__, "detail": str(exc)}


def _pooled(compute, keys: Iterator[tuple], workers: int) -> Iterator[dict]:
    """compute(key) for each key, on a pool of processes, in key order.
    Executor.map submits its whole input at once, so the pool gets batches
    of 512 keys per worker, two in flight: the next batch is queued while
    one is written, so no worker idles at a batch boundary.  (A window of
    single chunks, refilled one at a time, cost more in submissions.)"""
    batches = iter(lambda: list(islice(keys, 512 * workers)), [])
    with ProcessPoolExecutor(max_workers=workers) as pool:
        submit = partial(pool.map, compute, chunksize=16)
        window = deque(map(submit, islice(batches, 2)))
        while window:
            yield from window.popleft()
            window.extend(map(submit, islice(batches, 1)))


def _task_items(task: SearchTask) -> tuple[Iterator[tuple], object, dict]:
    """Ordered keys (a generator), the per-key record function, and for a
    sharp-step task the fields its target rests on (empty otherwise)."""
    if task.kind in ("height-sweep", "flat-hunt"):
        keys = (  # a flat hunt keeps the offset-one triples, r = +-1 mod p*q
            t.as_tuple() for t in enumerate_coprime_triples(task.ranges)
            if task.kind == "height-sweep" or t.r % (t.p * t.q) in (1, t.p * t.q - 1)
        )
        return keys, partial(_record, task.kind), {}
    (p_lo, p_hi), (q_lo, q_hi) = task.ranges
    keys = (
        (p, q)
        for p, q in enumerate_coprime_pairs(p_hi, q_hi, coprime_to=task.s, p_min=p_lo)
        if q >= q_lo
    )
    basis = {}
    if task.kind == "sharp-step":  # conditional unless the known table pins this sup
        sup, attained = bounded_height_sup(task.s, max(p_hi, q_hi))
        basis = {"sup_lower_bound": sup, "sup_attained_at": attained, "target": sup + 1,
                 "conditional": KNOWN_SUP.get(task.s) != sup}
    target = basis.get("target", task.s)
    return keys, partial(_record, task.kind, s=task.s, target=target), basis


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _encode(record: dict) -> bytes:
    return json.dumps(record, separators=(",", ":")).encode() + b"\n"


def _read_complete_lines(path: str) -> tuple[list[dict], int]:
    """The record on every newline-terminated line, plus the byte offset
    where the last complete line ends (a trailing partial line is ignored).
    A complete line that is not a JSON object in the compact encoding a
    sweep writes, a blank line included, raises PersistenceError."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise PersistenceError(f"cannot read {path}: {exc}") from exc
    end = data.rfind(b"\n") + 1
    records = []
    for i, line in enumerate(data[:end].split(b"\n")[:-1], 1):
        try:
            records.append(json.loads(line))
        except ValueError as exc:  # also undecodable bytes
            raise PersistenceError(f"malformed line {i} in {path}: {exc}") from exc
        # a resumed file keeps these bytes, so a "\r\n" or a space would stay
        if not isinstance(records[-1], dict) or _encode(records[-1]) != line + b"\n":
            raise PersistenceError(f"line {i} of {path} is not a record as a sweep writes it")
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
    if workers < 1:
        raise InvalidParameters(f"workers must be at least 1, got {workers}")
    if task.resume_from not in (None, out):
        raise InvalidParameters(f"a sweep resumes its own output {out}, not {task.resume_from}")
    keys, record, _ = _task_items(task)
    compute = partial(_guarded, task.kind, record)
    done = 0
    if task.resume_from is not None and os.path.exists(out):
        _check_manifest(task, out)
        prior, offset = _read_complete_lines(out)
        for i, rec in enumerate(prior):
            key = next(keys, None)  # compared as JSON text, where 3.0 is not 3
            if key is None or json.dumps(rec.get("key")) != json.dumps(list(key)):
                raise PersistenceError(f"{out} does not match this task at line {i + 1}")
        done = len(prior)
        with open(out, "rb+") as fh:
            fh.truncate(offset)
    else:
        open(out, "wb").close()

    _write_manifest(task, out)
    head = list(islice(keys, 2 if workers > 1 else 0))  # one pending key needs no pool
    keys = chain(head, keys)
    records = _pooled(compute, keys, workers) if len(head) > 1 else map(compute, keys)
    written = errors = 0
    solutions = []
    with open(out, "ab") as fh:
        for record in records:
            fh.write(_encode(record))
            fh.flush()
            written += 1
            if "error" in record:
                errors += 1
            elif record.get("solution"):
                solutions.append(tuple(record["key"]))
    return SweepSummary(
        path=out,
        total=done + written,
        written=written,
        skipped=done,
        errors=errors,
        solutions=solutions,
    )


# ---------------------------------------------------------------------------
# direct searches (no persistence)
# ---------------------------------------------------------------------------


def _pair_search(kind: str, s: int, p_max: int) -> dict:
    """A pair task over 3 <= p < q <= p_max, run in memory: its target basis,
    the pairs that hit the target, and each pair's height at p*q + s."""
    keys, record, basis = _task_items(SearchTask(kind, ((3, p_max), (3, p_max)), s=s))
    records, pairs = [], []
    for key in keys:
        rec = record(key)
        records.append({"p": key[0], "q": key[1], "r": rec["r"], "height": rec["height"]})
        if rec["solution"]:
            pairs.append(key)
    return {"s": s, **basis, "pairs": pairs, "checked": len(records), "records": records}


def find_bound_attained_pairs(s: int, p_max: int) -> dict:
    """Coprime pairs with the height at p*q + s exactly equal to s."""
    return _pair_search("bound-attained", s, p_max)


def find_sharp_step_pairs(s: int, p_max: int) -> dict:
    """Coprime pairs whose height at p*q + s steps one above the bounded
    pairwise supremum for s.  Exact when that supremum is pinned by the
    known table; otherwise flagged conditional on the searched bound."""
    return _pair_search("sharp-step", s, p_max)
