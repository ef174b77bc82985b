"""The three benchmark workloads and the output check of every op.

An op is one user-level call: its `run` part is timed, its `check` part is
not.  `check` returns (keys, coeffs) delivered, or raises CheckFailed.
Keys are triples whose height record the op prints, returns or persists;
coeffs are the degree+1 coefficients of each polynomial whose vector or
height record the op delivers.

Every workload draws its inputs from one seeded generator inside fixed
size bands, so the total work of a cycle varies little between seeds.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import shutil
from dataclasses import dataclass
from math import gcd
from typing import Callable

import numpy as np

import iepoly
from iepoly import cli, serialize
from iepoly.identities import GENERIC_CHECKS, OFFSET_CHECKS
from iepoly.search import KNOWN_SUP
from tracing import SERIALIZE_KINDS

GENERIC_IDS = tuple(GENERIC_CHECKS) + ("representative-residue",)
ALL_IDS = GENERIC_IDS + tuple(OFFSET_CHECKS)
KNOWN_HEIGHTS = {tuple(sorted(k)): h for k, h in iepoly.KNOWN_HEIGHTS}


class CheckFailed(Exception):
    """An op's output is wrong."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[int, int]]


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _degree(p: int, q: int, r: int) -> int:
    return (p - 1) * (q - 1) * (r - 1)


def _coprime(p: int, q: int, r: int) -> bool:
    return gcd(p, q) == gcd(p, r) == gcd(q, r) == 1


def _triple_in_band(rng, lo: int, hi: int, p_max: int, q_max: int) -> tuple[int, int, int]:
    """Seeded ascending coprime triple with lo <= degree <= hi."""
    while True:
        p = int(rng.integers(3, p_max))
        q = int(rng.integers(p + 1, q_max))
        base = (p - 1) * (q - 1)
        r_lo, r_hi = max(lo // base + 1, q + 1), hi // base + 1
        if r_lo > r_hi:
            continue
        r = int(rng.integers(r_lo, r_hi + 1))
        if _coprime(p, q, r) and lo <= _degree(p, q, r) <= hi:
            return p, q, r


def _cli(argv: list) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _check_vector(coeffs: np.ndarray, deg: int) -> int:
    """Structural invariants of a full coefficient vector (explicit checks,
    unlike CoefficientVector.validate, survive python -O); returns the
    largest |coefficient|."""
    _require(len(coeffs) == deg + 1, "vector length is not degree + 1")
    _require(coeffs[0] == 1 and coeffs[-1] == 1, "end coefficients are not 1")
    _require(int(coeffs.sum()) == 1, "coefficients do not sum to 1")
    _require(np.array_equal(coeffs, coeffs[::-1]), "vector is not palindromic")
    lo, hi = int(coeffs.min()), int(coeffs.max())
    _require(bool(np.all(np.bincount(coeffs - lo) > 0)), "coefficient values skip an integer")
    return max(-lo, hi)


class Workload:
    name = ""
    # fixed tail percentile over the distinct ops, at least ten beyond it,
    # so the metric means the same thing on every commit
    tail_percentile = 90.0
    # span names a traced pass must record, so a rename cannot zero a layer
    required_spans: tuple[str, ...] = ()
    distinct_cycles = 1

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.tiny = tiny
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def warmup(self) -> Op:
        raise NotImplementedError

    def cycle(self) -> list[Op]:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        """The run's distinct ops; a run repeats this list in whole passes."""
        return [op for _ in range(1 if self.tiny else self.distinct_cycles)
                for op in self.cycle()]


# ---------------------------------------------------------------------------
# large: few big polynomials through the CLI, sampled checks, serialization
# ---------------------------------------------------------------------------


class Large(Workload):
    """Arrays of 8-160 MB, far beyond the L2 cache: bandwidth-bound engine,
    indicator, serialize and sampled-gather work; no exhaustive identities
    and no search."""

    name = "large"
    tail_percentile = 85.0  # 82 distinct ops: twelve beyond it
    required_spans = (
        "cli.main", "engine.coeffs_series.full", "engine.coeffs_series.half",
        "engine.coeffs_window", "represent.indicator_range", "represent.indicator_many",
        "height.height",
        *(f"serialize.{f}.{d}" for f, d in SERIALIZE_KINDS),
        *(f"identities.{cid}.sampled" for cid in ALL_IDS),
    )

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        rng = self.rng
        if tiny:
            self.instances = [(13, 43, 564),
                              _triple_in_band(rng, 10_000, 12_000, 20, 60),
                              _triple_in_band(rng, 40_000, 44_000, 20, 60)]
            self.medium = _triple_in_band(rng, 9_500, 10_500, 20, 60)
            self.height_triples = [_triple_in_band(rng, 9_800, 10_200, 20, 60)
                                   for _ in range(4)]
            self.samples = 500
            p_band, s_band = (7, 11), (2, 6)
        else:
            self.instances = [(13, 43, 564), (101, 103, 997), (211, 409, 233),
                              _triple_in_band(rng, 1_000_000, 1_200_000, 60, 400),
                              _triple_in_band(rng, 4_000_000, 4_400_000, 60, 400)]
            self.medium = _triple_in_band(rng, 950_000, 1_050_000, 60, 400)
            # one homogeneous group of mid-cost ops, so that the median op
            # falls inside it rather than between unlike ops
            self.height_triples = [_triple_in_band(rng, 980_000, 1_020_000, 60, 400)
                                   for _ in range(24)]
            self.samples = 10_000
            p_band, s_band = (100, 111), (4, 8)
        # the acceptance gate's large shape: (p, q, pq + s) with a small offset
        self.offset_triples = []
        while len(self.offset_triples) < 3:
            p = int(rng.integers(*p_band))
            q = int(rng.integers(p + 1, 2 * p))
            s = int(rng.integers(*s_band))
            if gcd(p, q) == gcd(p, s) == gcd(q, s) == 1:
                self.offset_triples.append((p, q, p * q + s))
        self.verify_seed = int(rng.integers(0, 2**31))
        self.medium_coeffs = iepoly.coeffs_series(iepoly.Triple(*self.medium)).coeffs
        self._max_abs: dict = {}
        self._window_height: dict = {}

    def _instance_ops(self, triple) -> list[Op]:
        p, q, r = triple
        deg = _degree(p, q, r)
        out = self.path(f"q-{p}-{q}-{r}.bin")

        def check_coeffs(res):
            code, _, err = res
            _require(code == 0, f"coeffs --engine both exited {code}: {err.strip()}")
            return 0, deg + 1

        def read_back():
            with open(out, "rb") as fh:
                return serialize.read_binary(fh)

        def check_read(vec):
            _require(vec.triple.as_tuple() == triple and not vec.half, "wrong bin header")
            self._max_abs[triple] = _check_vector(vec.coeffs, deg)
            os.remove(out)
            return 0, deg + 1

        def check_height(res):
            code, stdout, err = res
            _require(code == 0, f"height exited {code}: {err.strip()}")
            rec = json.loads(stdout)
            want = self._max_abs.pop(triple, None)
            _require(rec["height"] == rec["literal_max"] == want,
                     f"height {rec['height']} != max |coefficient| {want}")
            known = KNOWN_HEIGHTS.get(tuple(sorted(triple)))
            _require(known is None or rec["height"] == known,
                     f"height {rec['height']} != published {known}")
            return 1, deg + 1

        return [
            Op(f"coeffs {triple}", lambda: _cli(
                ["coeffs", p, q, r, "--engine", "both", "--format", "bin", "--out", out]),
               check_coeffs),
            Op(f"read-bin {triple}", read_back, check_read),
            Op(f"height {triple}", lambda: _cli(["height", p, q, r, "--json"]), check_height),
        ]

    def _verify_ops(self, triple) -> list[Op]:
        p, q, r = triple
        ops = []
        for cid in ALL_IDS:
            def check(res, cid=cid):
                code, stdout, err = res
                _require(code == 0, f"verify {cid} exited {code}: {stdout.strip()} {err.strip()}")
                rep = json.loads(stdout)
                _require(rep["passed"] and rep["mode"] == "sampled" and rep["checked"] > 0,
                         f"verify {cid} report {rep}")
                return 0, 0

            ops.append(Op(f"verify {cid} {triple}", lambda cid=cid: _cli(
                ["verify", cid, p, q, r, "--mode", "sampled", "--samples", self.samples,
                 "--seed", self.verify_seed, "--json"]), check))
        return ops

    def _serialize_ops(self) -> list[Op]:
        p, q, r = self.medium
        deg = _degree(p, q, r)
        ops = []
        for fmt in ("bin", "text", "csv", "json"):
            out = self.path(f"medium.{fmt}")

            def check_write(res, fmt=fmt, out=out):
                code, _, err = res
                _require(code == 0, f"coeffs --format {fmt} exited {code}: {err.strip()}")
                if fmt == "text":
                    with open(out, "rb") as fh:
                        head = fh.readline()
                        lines = 1 + sum(chunk.count(b"\n") for chunk in iter(
                            lambda: fh.read(1 << 20), b""))
                    _require(head.startswith(b"# iepoly-coeffs") and lines == deg + 2,
                             "malformed text listing")
                    os.remove(out)
                return 0, deg + 1

            ops.append(Op(f"write-{fmt} medium", lambda fmt=fmt, out=out: _cli(
                ["coeffs", p, q, r, "--format", fmt, "--out", out]), check_write))
        for fmt, reader, mode in (("bin", "read_binary", "rb"), ("csv", "read_csv", "r"),
                                  ("json", "read_json", "r")):
            out = self.path(f"medium.{fmt}")

            def read_back(out=out, reader=reader, mode=mode):
                with open(out, mode) as fh:
                    return getattr(serialize, reader)(fh)

            def check_read(vec, fmt=fmt, out=out):
                _require(vec.triple.as_tuple() == self.medium and vec.degree == deg,
                         f"{fmt} header mismatch")
                _require(np.array_equal(vec.coeffs, self.medium_coeffs),
                         f"{fmt} read-back differs from the written vector")
                os.remove(out)
                return 0, deg + 1

            ops.append(Op(f"read-{fmt} medium", read_back, check_read))
        return ops

    def _height_op(self, triple) -> Op:
        p, q, r = triple

        def check(res):
            code, stdout, err = res
            _require(code == 0, f"height exited {code}: {err.strip()}")
            rec = json.loads(stdout)
            if triple not in self._window_height:  # the other engine, once
                coeffs = iepoly.coeffs_window(iepoly.Triple(p, q, r)).coeffs
                self._window_height[triple] = _check_vector(coeffs, _degree(p, q, r))
            want = self._window_height[triple]
            _require(rec["height"] == rec["literal_max"] == want,
                     f"height {rec['height']} != window-engine max |coefficient| {want}")
            return 1, _degree(p, q, r) + 1

        return Op(f"height {triple}", lambda: _cli(["height", p, q, r, "--json"]), check)

    def warmup(self) -> Op:
        return self._instance_ops(self.instances[0])[0]

    def cycle(self) -> list[Op]:
        ops = []
        for triple in self.instances:
            ops += self._instance_ops(triple)
        for triple in self.offset_triples:
            ops += self._verify_ops(triple)
        ops += [self._height_op(triple) for triple in self.height_triples]
        return ops + self._serialize_ops()


# ---------------------------------------------------------------------------
# small: exhaustive identity bundles on the acceptance gate's domain
# ---------------------------------------------------------------------------


def gate_domain(cap: int) -> list[tuple[int, int, int]]:
    """Ascending pairwise-coprime triples with p >= 3 and p*q*r <= cap."""
    out = []
    p = 3
    while p * (p + 1) * (p + 2) <= cap:
        for q in range(p + 1, cap // (p * (p + 1)) + 1):
            if gcd(p, q) != 1:
                continue
            for r in range(q + 1, cap // (p * q) + 1):
                if gcd(p, r) == 1 and gcd(q, r) == 1:
                    out.append((p, q, r))
        p += 1
    return out


class Small(Workload):
    """Arrays of at most 20k elements, so per-call overhead dominates: the
    shape of the gate's exhaustive pass; large-array engine work and
    serialize stay out of the way."""

    name = "small"
    required_spans = (
        "engine.coeffs_series.full", "engine.coeffs_window", "represent.indicator_range",
        "represent.indicator_many", "height.height", "identities.workspace",
        *(f"identities.{cid}.exhaustive" for cid in ALL_IDS),
    )

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        # offset-family triples first, each family by product, so that a
        # systematic sample has the domain's mix and cost for every seed
        self.domain = sorted(gate_domain(2_000 if tiny else 20_000),
                             key=lambda t: (t[2] > t[0] * t[1], t[0] * t[1] * t[2], t))
        per_cycle = 12 if tiny else 200
        stride = len(self.domain) // per_cycle
        start = int(self.rng.integers(stride))
        self.picks = self.domain[start::stride][:per_cycle]

    def _op(self, triple) -> Op:
        p, q, r = triple
        t = iepoly.Triple(p, q, r)
        ids = GENERIC_IDS + (tuple(OFFSET_CHECKS) if r > p * q else ())

        def run():
            reports = iepoly.verify_identity_bundle(t, ids, mode="exhaustive")
            series = iepoly.coeffs_series(t)
            window = iepoly.coeffs_window(t)
            agree = np.array_equal(series.coeffs, window.coeffs)
            return reports, series.coeffs, agree, iepoly.height(t)

        def check(res):
            reports, coeffs, agree, rec = res
            bad = [rep for rep in reports if not rep.passed or rep.mode != "exhaustive"]
            _require(not bad and len(reports) == len(ids), f"{triple}: {bad[:1]}")
            _require(agree, f"{triple}: series and window engines disagree")
            _require(rec.height == _check_vector(coeffs, _degree(p, q, r)),
                     f"{triple}: height {rec.height} != max |coefficient|")
            return 1, len(coeffs)

        return Op(f"triple {triple}", run, check)

    def warmup(self) -> Op:
        return self._op(self.domain[-1])

    def cycle(self) -> list[Op]:
        """Every stride-th triple from a seeded start."""
        return [self._op(t) for t in self.picks]


# ---------------------------------------------------------------------------
# sweep: persisted, resumed searches and the whole-polynomial bound checks
# ---------------------------------------------------------------------------


def _count_keys(kind: str, ranges) -> int:
    return sum(1 for t in iepoly.enumerate_coprime_triples(ranges)
               if kind == "height-sweep" or t.r % (t.p * t.q) in (1, t.p * t.q - 1))


@functools.lru_cache(maxsize=None)
def _ranges_for(kind: str, p0: int, q0: int, r0: int, keys: int):
    """Slot ranges starting at (p0, q0, r0) whose task has about `keys` keys."""
    lo, hi = r0, r0 + 1
    while _count_keys(kind, ((p0, p0 + 1), (q0, q0 + 2), (r0, hi))) < keys:
        lo, hi = hi, 2 * hi - r0
    while hi - lo > 1:  # smallest r bound reaching the key count
        mid = (lo + hi) // 2
        if _count_keys(kind, ((p0, p0 + 1), (q0, q0 + 2), (r0, mid))) < keys:
            lo = mid
        else:
            hi = mid
    return ((p0, p0 + 1), (q0, q0 + 2), (r0, hi))


class Sweep(Workload):
    """Writes beside reads: many mid-size height calls through half-series
    vectors, per-record JSON encoding and flushing, resume from a file cut
    mid-record; bypasses identities and serialize.  Three cheap checks per
    round sit below the four sweeps, so the median op is a mid-size sweep
    rather than a run of tiny, interpreter-bound polynomials."""

    name = "sweep"
    distinct_cycles = 12
    tail_percentile = 85.0  # 84 distinct ops: thirteen beyond it
    required_spans = (
        "engine.coeffs_series.half", "height.height", "search.sweep_heights",
        "checks.recursive_bound_sweep", "checks.bounded_height_sup",
    )

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.keys = 8 if tiny else 40
        self.runs = 0
        self.cycles = 0  # rotates the small discrete parameters

    def _sweep_ops(self, kind: str, ranges) -> list[Op]:
        self.runs += 1
        full = self.path(f"{kind}-{self.runs}.jsonl")
        resumed = self.path(f"{kind}-{self.runs}-resumed.jsonl")
        task = iepoly.SearchTask(kind, ranges)
        state = {}

        def check_full(summary):
            records = iepoly.read_results(full)
            _require(summary.written == summary.total == len(records) > 0,
                     f"{kind}: {summary.written} written of {summary.total}")
            keys = [tuple(rec["key"]) for rec in records]
            _require(keys == sorted(set(keys)), f"{kind}: keys out of order")
            coeffs = 0
            for rec in records:
                _require("error" not in rec, f"{kind}: error record {rec}")
                _require(rec["height"] == max(-rec["a_minus"], rec["a_plus"]),
                         f"{kind}: inconsistent record {rec}")
                _require(kind != "flat-hunt" or rec["flat"], f"offset-one triple not flat: {rec}")
                coeffs += _degree(*rec["key"]) + 1
            data = open(full, "rb").read()
            with open(resumed, "wb") as fh:  # cut mid-record, a third in
                fh.write(data[: len(data) // 3 + 7])
            state.update(expected=data, coeffs_per_key=coeffs / len(records))
            return len(records), coeffs

        def check_resumed(summary):
            _require(open(resumed, "rb").read() == state.get("expected"),
                     f"{kind}: resumed file differs from the full run")
            _require(summary.skipped > 0 and summary.errors == 0,
                     f"{kind}: resume skipped {summary.skipped}")
            for path in (full, resumed):
                os.remove(path)
                os.remove(path + ".manifest.json")
            return summary.written, round(summary.written * state["coeffs_per_key"])

        resume_task = iepoly.SearchTask(kind, ranges, resume_from=resumed)
        return [
            Op(f"{kind} {ranges}", lambda: iepoly.sweep_heights(task, full, workers=1),
               check_full),
            Op(f"{kind} resume", lambda: iepoly.sweep_heights(resume_task, resumed, workers=1),
               check_resumed),
        ]

    def _recursive_op(self) -> Op:
        q_max = (6 if self.tiny else 10) + self.cycles % 2
        p_min = q_max - 3

        def check(res):
            reports, tally = res
            _require(tally["failed"] == 0 and all(rep.passed for rep in reports),
                     f"recursive bound failed: {tally}")
            _require(tally["equal"] + tally["plus-one"] == tally["instances"] > 0,
                     f"recursive bound tally {tally}")
            return 0, 0

        return Op(f"recursive-bound {q_max}",
                  lambda: iepoly.checks.recursive_bound_sweep(q_max=q_max, p_min=p_min), check)

    def _attained_op(self) -> Op:
        s = 2 + self.cycles % 4
        p_max = (7 if self.tiny else 11) + self.cycles // 4 % 2

        def check(res):
            recs = res["records"]
            _require(res["checked"] == len(recs) > 0, "bound-attained record count")
            _require(res["pairs"] == [(rec["p"], rec["q"]) for rec in recs
                                      if rec["height"] == s], "bound-attained pairs")
            for rec in recs:  # the absolute bound, where its hypothesis holds
                if rec["q"] > s:
                    _require(rec["height"] < s if s >= 5 else rec["height"] <= s,
                             f"height above offset: {rec}")
            return 0, 0

        return Op(f"bound-attained {s} {p_max}",
                  lambda: iepoly.find_bound_attained_pairs(s, p_max), check)

    def _sup_op(self) -> Op:
        s = 3 + self.cycles % 3
        p_max = (6 if self.tiny else 9) + self.cycles // 3 % 2

        def check(res):
            value, attained = res
            _require(attained and 1 <= value <= KNOWN_SUP[s],
                     f"bounded sup {value} for s={s} vs known {KNOWN_SUP[s]}")
            return 0, 0

        return Op(f"sup {s} {p_max}", lambda: iepoly.bounded_height_sup(s, p_max), check)

    def _height_ranges(self):
        rng = self.rng
        if self.tiny:
            p0, q0, r0 = int(rng.integers(3, 5)), int(rng.integers(5, 8)), int(rng.integers(9, 20))
        else:
            p0, q0, r0 = (int(rng.integers(12, 14)), int(rng.integers(19, 21)),
                          int(rng.integers(380, 420)))
        return _ranges_for("height-sweep", p0, q0, r0, self.keys)

    def _flat_ranges(self):
        if self.tiny:
            p0, q0 = 3 + self.cycles % 3, 7 + self.cycles // 3 % 3
        else:  # mid-size like the height sweep, not a run of tiny polynomials
            p0, q0 = 12 + self.cycles % 2, 19 + self.cycles // 2 % 2
        return _ranges_for("flat-hunt", p0, q0, q0 + 3, self.keys // 2)

    def warmup(self) -> Op:
        return self._sup_op()

    def cycle(self) -> list[Op]:
        self.cycles += 1
        return (self._sweep_ops("height-sweep", self._height_ranges())
                + self._sweep_ops("flat-hunt", self._flat_ranges())
                + [self._recursive_op(), self._attained_op(), self._sup_op()])

    def parallel_task(self):
        """A height sweep large enough to time at one and two workers."""
        rng = self.rng
        p0, q0, r0 = int(rng.integers(12, 14)), int(rng.integers(19, 21)), 380
        return iepoly.SearchTask(
            "height-sweep", _ranges_for("height-sweep", p0, q0, r0, 10 * self.keys))


WORKLOADS = {w.name: w for w in (Large, Small, Sweep)}


def make(name: str, seed: int, tiny: bool, workdir: str) -> Workload:
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    return WORKLOADS[name](seed, tiny, workdir)
