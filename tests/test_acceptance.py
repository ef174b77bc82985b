"""Release acceptance gate.

One test per shipping criterion, in checklist order.  Every check is exact
integer arithmetic; the wall-clock guards are the generous per-item budgets
the checklist allows on commodity hardware, not performance targets.

The exhaustive identity-validator pass (criterion 7) walks every ascending
pairwise-coprime triple with product up to ``IEPOLY_CHECK_PRODUCT_CAP``
(default 20000, chosen so the whole gate stays desk-scale on one core).
Raise the cap via the environment variable to widen the net; the validators
themselves have no such limit.
"""

import itertools
import os
import time
from functools import lru_cache
from math import ceil, gcd

import numpy as np
import pytest

from iepoly.checks import (
    recursive_bound_sweep,
    survey_residue_classes,
    verify_known_values,
)
from iepoly.engine import coeffs_series, coeffs_window
from iepoly.height import is_flat
from iepoly.identities import GENERIC_CHECKS, OFFSET_CHECKS, verify_identity_bundle
from iepoly.represent import Triple
from iepoly.search import (
    SearchTask,
    find_bound_attained_pairs,
    read_results,
    sweep_heights,
)

GENERIC_IDS = tuple(GENERIC_CHECKS) + ("representative-residue",)
ALL_IDS = GENERIC_IDS + tuple(OFFSET_CHECKS)

PRODUCT_CAP = int(os.environ.get("IEPOLY_CHECK_PRODUCT_CAP", "20000"))


_TERMINAL = None


@pytest.fixture(autouse=True)
def _grab_terminal(request):
    # the terminal reporter writes to the pre-capture stream, so the
    # per-criterion lines survive pytest's default fd-level capture
    global _TERMINAL
    _TERMINAL = request.config.pluginmanager.get_plugin("terminalreporter")
    yield


def _report(tag: str, elapsed: float, budget: float | None, stats: str) -> None:
    line = f"PASS  [{tag}] {stats} ({elapsed:.1f}s)"
    if _TERMINAL is not None:
        _TERMINAL.ensure_newline()
        _TERMINAL.write_line(line)
    else:
        print(line)
    if budget is not None:
        assert elapsed < budget, f"{tag} exceeded {budget}s budget: {elapsed:.1f}s"


def _coprime_pairs(lo: int, hi: int):
    for q in range(lo + 1, hi + 1):
        for p in range(lo, q):
            if gcd(p, q) == 1:
                yield p, q


def _step_instances(q_max: int):
    # both companion offsets of every admissible (p, q, s)
    for p, q in _coprime_pairs(3, q_max):
        for s in range(1, q):
            if gcd(s, p) == 1 and gcd(s, q) == 1:
                yield p, q, s, p * q + s
                yield p, q, s, p * q - s


@lru_cache(maxsize=1)
def _step_sweep():
    return recursive_bound_sweep(q_max=25)


@lru_cache(maxsize=1)
def _sweep_engine_pass():
    """Both engines over every distinct triple of the step sweep.

    Returns (heights by triple, number of elementwise disagreements); the
    heights are reused by the small-parameter bound check so the vectors are
    only computed once.
    """
    triples = sorted({(p, q, r) for p, q, s, r in _step_instances(25)})
    heights = {}
    disagreements = 0
    for p, q, r in triples:
        t = Triple(p, q, r)
        a = coeffs_series(t)
        b = coeffs_window(t)
        if not np.array_equal(a.coeffs, b.coeffs):
            disagreements += 1
        heights[(p, q, r)] = int(np.abs(a.coeffs).max())
    return heights, disagreements


def test_criterion_01_reference_heights():
    t0 = time.monotonic()
    reports = verify_known_values()
    failed = [r for r in reports if not r.passed]
    assert not failed, failed
    _report("1 reference values", time.monotonic() - t0, 5.0,
            f"{len(reports)} published values reproduced exactly")


def test_criterion_02_flat_neighbours():
    t0 = time.monotonic()
    checked = 0
    for p, q in _coprime_pairs(3, 20):
        for r in (p * q - 1, p * q + 1, 2 * p * q - 1, 2 * p * q + 1):
            assert is_flat(Triple(p, q, r)), (p, q, r)
            checked += 1
    _report("2 flat neighbours", time.monotonic() - t0, 30.0,
            f"{checked} offset-one vectors all flat")


def test_criterion_03_step_bound_sweep():
    t0 = time.monotonic()
    reports, tally = _step_sweep()
    failed = [r for r in reports if not r.passed]
    assert not failed, failed[:3]
    assert tally["failed"] == 0
    # both outcomes must actually occur, not just be permitted
    assert tally["equal"] > 0 and tally["plus-one"] > 0, tally
    assert tally["equal"] + tally["plus-one"] == tally["instances"]
    _report("3 step bound sweep", time.monotonic() - t0, 600.0,
            f"{tally['instances']} instances, equal {tally['equal']}, "
            f"plus-one {tally['plus-one']}")


def test_criterion_04_residue_class_transfer():
    t0 = time.monotonic()
    pairs = reports = 0
    for p, q in _coprime_pairs(3, 15):
        pairs += 1
        for rep in survey_residue_classes(p, q):
            assert rep.passed, (p, q, rep)
            assert rep.checked > 0
            reports += 1
    _report("4 residue-class transfer", time.monotonic() - t0, 300.0,
            f"{pairs} pairs, {reports} grouped height/set reports")


def test_criterion_05_engine_equivalence():
    t0 = time.monotonic()
    heights, disagreements = _sweep_engine_pass()
    assert disagreements == 0

    # plus a seeded spread of larger instances, degree between 1e6 and 4e6
    rng = np.random.default_rng(20260813)
    picked = []
    while len(picked) < 20:
        p = int(rng.integers(3, 40))
        q = int(rng.integers(p + 1, 300))
        r = int(rng.integers(q + 1, 3000))
        if gcd(p, q) == gcd(p, r) == gcd(q, r) == 1:
            d = (p - 1) * (q - 1) * (r - 1)
            if 1_000_000 < d <= 4_000_000:
                picked.append((p, q, r))
    for c in picked:
        t = Triple(*c)
        assert np.array_equal(coeffs_series(t).coeffs, coeffs_window(t).coeffs), c
    _report("5 engine equivalence", time.monotonic() - t0, 600.0,
            f"{len(heights)} sweep triples + {len(picked)} large seeded triples agree")


def test_criterion_06_structural_invariants():
    t0 = time.monotonic()
    sampled = [(3, 5, 7), (3, 4, 5), (4, 9, 35), (5, 7, 11), (3, 5, 16),
               (3, 5, 17), (5, 6, 31), (7, 9, 10), (3, 7, 25), (5, 7, 38)]
    assert len(sampled) == 10
    for base in sampled:
        want = coeffs_series(Triple(*base)).coeffs
        for perm in itertools.permutations(base):
            for engine in (coeffs_series, coeffs_window):
                vec = engine(Triple(*perm))
                vec.validate()  # degree, ends, reciprocity, sum, consecutive set
                assert np.array_equal(vec.coeffs, want), (perm, engine.__name__)
    _report("6 structural invariants", time.monotonic() - t0, None,
            f"{len(sampled)} triples x 6 orders x 2 engines validated")


def test_criterion_07_identity_validators():
    t0 = time.monotonic()
    combos = 0
    p = 3
    while p * (p + 1) * (p + 2) <= PRODUCT_CAP:
        q = p + 1
        while p * q * (q + 1) <= PRODUCT_CAP:
            if gcd(p, q) == 1:
                r = q + 1
                while p * q * r <= PRODUCT_CAP:
                    if gcd(p, r) == 1 and gcd(q, r) == 1:
                        ids = GENERIC_IDS + (
                            tuple(OFFSET_CHECKS) if r - p * q >= 1 else ()
                        )
                        for rep in verify_identity_bundle(
                            Triple(p, q, r), ids, mode="exhaustive"
                        ):
                            assert rep.passed, ((p, q, r), rep)
                        combos += 1
                    r += 1
            q += 1
        p += 1

    large = [(23, 29, 671), (41, 53, 2179), (59, 64, 3779), (101, 103, 10408),
             (127, 130, 16519), (211, 409, 86303), (331, 337, 111550),
             (503, 510, 256537), (617, 1009, 622565), (647, 1231, 797458)]
    for c in large:
        for rep in verify_identity_bundle(
            Triple(*c), ALL_IDS, samples=10_000, seed=7, mode="sampled"
        ):
            assert rep.passed, (c, rep)
            assert rep.checked >= 10_000 or rep.mode == "exhaustive", (c, rep)
    _report("7 identity validators", time.monotonic() - t0, 300.0,
            f"{combos} exhaustive combos (product <= {PRODUCT_CAP}) "
            f"+ {len(large)} sampled at 10k draws")


def test_criterion_08_small_parameter_bound():
    t0 = time.monotonic()
    heights, _ = _sweep_engine_pass()
    for (p, q, r), h in heights.items():
        m = min(p, q, r)
        assert h <= m - ceil(m / 4), (p, q, r, h)
    _report("8 small-parameter bound", time.monotonic() - t0, None,
            f"height <= m - ceil(m/4) on {len(heights)} sweep triples")


def test_criterion_09_extremal_searches():
    t0 = time.monotonic()
    r1 = find_bound_attained_pairs(1, 10)
    assert r1["checked"] == 18 and len(r1["pairs"]) == r1["checked"]
    r2 = find_bound_attained_pairs(2, 30)
    assert (3, 5) in {tuple(x) for x in r2["pairs"]}
    r3 = find_bound_attained_pairs(3, 30)
    assert (7, 16) in {tuple(x) for x in r3["pairs"]}
    r4 = find_bound_attained_pairs(4, 30)
    assert r4["pairs"] == []
    _report("9 extremal searches", time.monotonic() - t0, 600.0,
            f"s=1 all {r1['checked']} solve; s=2 hits (3,5); "
            f"s=3 hits (7,16); s=4 empty at 30")


def test_criterion_10_deterministic_sweeps(tmp_path):
    t0 = time.monotonic()
    task = SearchTask("height-sweep", ((3, 6), (4, 9), (5, 40)))
    first = tmp_path / "a.jsonl"
    sweep_heights(task, str(first))
    baseline = first.read_bytes()
    assert read_results(str(first))  # non-trivial run

    rerun = tmp_path / "b.jsonl"
    sweep_heights(task, str(rerun))
    assert rerun.read_bytes() == baseline

    parallel = tmp_path / "c.jsonl"
    sweep_heights(task, str(parallel), workers=2)
    assert parallel.read_bytes() == baseline

    # interrupt mid-record, then resume
    resumed = tmp_path / "d.jsonl"
    resumed.write_bytes(baseline[: len(baseline) * 2 // 3 + 7])
    sweep_heights(
        SearchTask("height-sweep", ((3, 6), (4, 9), (5, 40)),
                   resume_from=str(resumed)),
        str(resumed),
    )
    assert resumed.read_bytes() == baseline
    _report("10 deterministic sweeps", time.monotonic() - t0, None,
            "rerun, two workers, and interrupted resume all byte-identical")
