import itertools
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import iepoly
from iepoly import engine, represent
from iepoly.engine import (
    CoefficientVector,
    coefficient_at,
    coeffs_series,
    coeffs_window,
    degree,
)
from iepoly.errors import (
    DegreeCapExceeded,
    DomainExceeded,
    InvalidParameters,
    InvalidTriple,
    InvariantViolated,
)
from iepoly.represent import Triple, require_under_cap

from helpers import coprime_triples, div_binomial, mul_binomial, reference_coeffs

ORACLE_TRIPLES = [
    (3, 5, 7),
    (3, 4, 5),
    (3, 5, 8),
    (3, 5, 16),
    (3, 5, 17),
    (2, 3, 5),
    (5, 7, 3),   # unsorted roles
    (3, 4, 1),   # degenerate slot
    (5, 7, 2),
    (4, 5, 21),
    (7, 16, 115),
]


@pytest.mark.parametrize("p,q,r", ORACLE_TRIPLES)
def test_series_matches_long_division(p, q, r):
    vec = coeffs_series(Triple(p, q, r))
    assert vec.coeffs.tolist() == reference_coeffs(p, q, r)
    vec.validate()


@pytest.mark.parametrize("p,q,r", [t for t in ORACLE_TRIPLES if min(t) >= 3])
def test_window_matches_long_division(p, q, r):
    vec = coeffs_window(Triple(p, q, r))
    assert vec.coeffs.tolist() == reference_coeffs(p, q, r)
    vec.validate()


def test_window_rejects_degenerate():
    # the indicator machinery is only wired up for elements >= 3; anything
    # smaller must go through the series engine
    for t in [(3, 5, 1), (3, 5, 2), (2, 3, 5)]:
        with pytest.raises(InvalidTriple):
            coeffs_window(Triple(*t))
        with pytest.raises(InvalidTriple):
            coefficient_at(Triple(*t), 0)


def test_engines_agree_on_small_sweep():
    # every pairwise-coprime triple with modest product, both engines
    for p, q, r in coprime_triples(3000):
        t = Triple(p, q, r)
        s = coeffs_series(t)
        w = coeffs_window(t)
        assert np.array_equal(s.coeffs, w.coeffs), (p, q, r)


def test_half_mode_is_prefix():
    t = Triple(5, 7, 11)
    full = coeffs_series(t)
    half = coeffs_series(t, mode="half")
    n = degree(t) // 2 + 1
    assert half.half and len(half.coeffs) == n
    assert np.array_equal(half.coeffs, full.coeffs[:n])
    assert np.array_equal(half.coefficient(np.arange(half.degree + 1)), full.coeffs)


@pytest.mark.parametrize("triple", [(3, 5, 7), (4, 5, 21), (5, 7, 11)])  # even and odd
@pytest.mark.parametrize("mode", ["full", "half"])
def test_coefficient_reads_ints_and_arrays(triple, mode):
    vec = coeffs_series(Triple(*triple), mode=mode)
    d = vec.degree
    full = coeffs_series(Triple(*triple)).coeffs.tolist()
    ms = np.arange(-5, d + 6)
    expect = [full[m] if 0 <= m <= d else 0 for m in ms.tolist()]
    got = vec.coefficient(ms)
    assert got.dtype == np.int64 and got.shape == ms.shape
    assert got.tolist() == expect
    for m in ms.tolist():
        a = vec.coefficient(m)
        assert type(a) is int and a == expect[m + 5], m
    assert vec.coefficient(np.array([], dtype=np.int64)).shape == (0,)
    if mode == "full":  # never mirrored: the upper half is read where stored
        vec.coeffs[d - 1] += 7
        assert vec.coefficient(d - 1) == full[d - 1] + 7
        assert vec.coefficient(np.array([1, d - 1])).tolist() == [full[1], full[d - 1] + 7]


@pytest.mark.parametrize(  # composite and unsorted triples among them
    "p,q,r", [(3, 5, 7), (5, 7, 11), (7, 5, 3), (9, 10, 91), (8, 15, 121), (25, 16, 27), (14, 9, 5)]
)
def test_coefficient_at_matches_vector(p, q, r):
    t = Triple(p, q, r)
    vec = np.array(reference_coeffs(p, q, r), dtype=np.int64)
    d = degree(t)
    for m in [-p * q * r + 1, -1, 0, 1, d // 2, d, d + 1, p * q * r - 1]:
        expect = int(vec[m]) if 0 <= m <= d else 0
        assert coefficient_at(t, m) == expect, m
    ms = np.arange(-p * q * r + 1, p * q * r)
    expect = np.where((ms >= 0) & (ms <= d), vec[np.clip(ms, 0, d)], 0)
    assert np.array_equal(coefficient_at(t, ms), expect)
    with pytest.raises(DomainExceeded):
        coefficient_at(t, p * q * r)
    with pytest.raises(DomainExceeded, match=f"m={-p * q * r} is outside"):
        coefficient_at(t, np.array([0, -p * q * r]))


@pytest.mark.parametrize("u,v", [(3, 4), (3, 5), (4, 9), (8, 15), (9, 10), (16, 25), (7, 16)])
def test_binary_table_matches_long_division(u, v):
    # Q_uv = (1 - z^uv)(1 - z) / ((1 - z^u)(1 - z^v)), padded to uv entries
    q = [1]
    for a in (u * v, 1):
        q = mul_binomial(q, a)
    for b in (u, v):
        q = div_binomial(q, b)
    b = engine._binary_table(u, v)
    assert b.dtype == np.int8
    assert b.tolist() == q + [0] * (u * v - len(q))


def test_coefficient_at_refuses_its_table_past_the_cap(monkeypatch):
    t = Triple(9, 10, 91)  # uv = 90
    expect = coefficient_at(t, 40)
    monkeypatch.setenv("IEPOLY_DEGREE_CAP", "89")
    with pytest.raises(DegreeCapExceeded, match="binary table length 90 exceeds"):
        coefficient_at(t, 40)
    monkeypatch.setenv("IEPOLY_DEGREE_CAP", "90")
    assert coefficient_at(t, 40) == expect


def test_coefficient_at_answers_past_the_cap_when_its_table_fits(monkeypatch):
    # r = 1001 and the degree are past the cap; only the uv = 40 entries of
    # the binary table are sized by the triple
    monkeypatch.setenv("IEPOLY_DEGREE_CAP", "100")
    t = Triple(5, 8, 1001)
    ms = np.arange(t.product)
    vec = reference_coeffs(5, 8, 1001)
    assert coefficient_at(t, ms).tolist() == vec + [0] * (t.product - len(vec))


@pytest.mark.parametrize("triple", [(9, 10, 91), (14, 9, 5), (101, 103, 997)])
def test_coefficient_at_wide_residues_match(monkeypatch, triple):
    # below uv the residue products take the exact path of Python ints
    t = Triple(*triple)
    ms = np.random.default_rng(5).integers(-t.product + 1, t.product, size=3000)
    expect = coefficient_at(t, ms)
    monkeypatch.setattr(represent, "_INT64_SQRT", 7)
    assert coefficient_at(t, ms).tolist() == expect.tolist()
    assert [coefficient_at(t, m) for m in ms[:50].tolist()] == expect[:50].tolist()


def test_permutation_invariance():
    for base in [(3, 5, 7), (3, 4, 5), (5, 7, 11), (2, 3, 5)]:
        ref = None
        for perm in itertools.permutations(base):
            c = coeffs_series(Triple(*perm)).coeffs
            if ref is None:
                ref = c
            assert np.array_equal(ref, c), perm


def test_structural_invariants():
    t = Triple(7, 11, 13)
    vec = coeffs_series(t)
    c = vec.coeffs
    assert vec.degree == 6 * 10 * 12 == len(c) - 1
    assert c[0] == 1 and c[-1] == 1
    assert int(c.sum()) == 1
    assert np.array_equal(c, c[::-1])  # reciprocal
    vec.validate()


def test_validate_catches_corruption():
    vec = coeffs_series(Triple(3, 5, 7))
    vec.coeffs[3] += 1
    with pytest.raises(InvariantViolated):
        vec.validate()


def test_validate_survives_optimize_flag():
    # explicit raises, so python -O keeps the self-checks and the reader checks
    code = (
        "import io\n"
        "from iepoly import InvariantViolated, PersistenceError, Triple, coeffs_series\n"
        "from iepoly.serialize import read_json, write_json\n"
        "vec = coeffs_series(Triple(3, 5, 7))\n"
        "buf = io.StringIO()\nwrite_json(vec, buf)\n"
        "bad = io.StringIO(buf.getvalue().replace('\"r\":7', '\"r\":11'))\n"
        "try:\n    read_json(bad)\nexcept PersistenceError:\n    pass\n"
        "else:\n    raise SystemExit(2)\n"
        "vec.coeffs[3] += 1\n"
        "try:\n    vec.validate()\nexcept InvariantViolated:\n    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = str(pathlib.Path(iepoly.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-O", "-c", code], env=env).returncode == 0


def test_degree_cap(monkeypatch):
    monkeypatch.setenv("IEPOLY_DEGREE_CAP", "1000")
    for engine_fn in (coeffs_series, coeffs_window):
        with pytest.raises(DegreeCapExceeded) as err:
            engine_fn(Triple(101, 103, 997))
        assert err.value.required > err.value.cap == 1000


def test_degree_cap_env(monkeypatch):
    monkeypatch.setenv("IEPOLY_DEGREE_CAP", "50")
    require_under_cap(50)
    with pytest.raises(DegreeCapExceeded) as err:
        require_under_cap(51)
    assert err.value.cap == 50
    with pytest.raises(DegreeCapExceeded):
        coeffs_series(Triple(3, 5, 17))
    for bad in ("not-a-number", "-5"):
        monkeypatch.setenv("IEPOLY_DEGREE_CAP", bad)
        with pytest.raises(InvalidParameters):
            require_under_cap(0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-6, 6) | st.integers(-(2**40), 2**40), min_size=1, max_size=30))
@example([0] * engine._BLOCK + [2])  # the gap shows only in the second block
def test_value_run_matches_set_difference(vals):
    lo, hi = min(vals), max(vals)
    # the smallest integer missing above lo is one past some value held
    first_missing = min({v + 1 for v in vals} - set(vals))
    want = (lo, hi, first_missing if first_missing <= hi else None)
    assert engine.value_run(np.array(vals, dtype=np.int64)) == want


@settings(max_examples=30, deadline=None)
@given(st.integers(0, len(coprime_triples(4000)) - 1))
def test_engines_agree_property(idx):
    p, q, r = coprime_triples(4000)[idx]
    t = Triple(p, q, r)
    assert np.array_equal(coeffs_series(t).coeffs, coeffs_window(t).coeffs)


def test_coefficient_vector_repr_compact():
    vec = coeffs_series(Triple(3, 5, 7))
    assert "coeffs" not in repr(vec)  # the array itself stays out of repr
    assert len(vec) == vec.degree + 1


def test_engines_agree_across_blocks():
    # lengths straddle several 2^16-entry blocks, one of them by one entry
    assert engine._BLOCK == 1 << 16
    for p, q, r in [(5, 7, 8193), (11, 13, 1201), (13, 43, 564)]:
        t = Triple(p, q, r)
        full = coeffs_series(t)
        half = coeffs_series(t, mode="half")
        window = coeffs_window(t)
        assert len(full) > 2 * engine._BLOCK
        assert np.array_equal(full.coeffs, window.coeffs), (p, q, r)
        assert np.array_equal(half.coeffs, window.coeffs[: len(half)]), (p, q, r)
        window.validate()
    # 3 * 2^16 + 1 entries, against the long-division oracle
    assert coeffs_series(Triple(5, 7, 8193)).coeffs.tolist() == reference_coeffs(5, 7, 8193)


def test_series_bound_is_structural(monkeypatch):
    # sweep-shaped triples (height-sweep and offset-one flat-hunt), two large
    # ones and triples with an element 1 or 2, in mixed element orders
    triples = [(12, 19, 401), (13, 20, 387), (12, 19, 229), (13, 21, 272),
               (13, 43, 564), (211, 409, 233), (2, 3, 5), (5, 7, 2), (3, 4, 1), (1, 4, 3)]
    for p, q, r in triples:
        t = Triple(p, q, r)
        u, v, w = t.sorted()
        passes = [("multiply", w), ("divide", v * w), ("divide", w * u)]
        for mode in ("full", "half"):
            # an int64 shadow run: the series of 1/Q_uv, one period being +1
            # at [0, u) and -1 at [v, v + u), then the three passes, with the
            # bound checked after each step
            n = CoefficientVector.stored_length(degree(t), mode == "half")
            i = np.arange(n) % (u * v)
            c = (i < u).astype(np.int64) - ((v <= i) & (i < v + u))
            assert int(np.abs(c).max()) <= 1, (t, mode)
            for kind, k in passes:
                getattr(engine, f"_{kind}_factor")(c, k)
                assert int(np.abs(c).max()) <= 2 * u * v, (t, mode, kind, k)
            assert np.array_equal(c, coeffs_series(t, mode=mode).coeffs), (t, mode)
    # the engine runs exactly those passes, in that order
    run = []
    for kind in ("multiply", "divide"):
        step = getattr(engine, f"_{kind}_factor")
        monkeypatch.setattr(
            engine, f"_{kind}_factor",
            lambda c, k, _kind=kind, _step=step: run.append((_kind, k)) or _step(c, k),
        )
    coeffs_series(Triple(7, 3, 5))
    assert run == [("multiply", 7), ("divide", 35), ("divide", 21)]
    # uv <= product^(2/3) <= 2^40 at the Triple product limit, so 2uv fits int64
    assert (1 << 40) ** 3 == represent._PRODUCT_LIMIT ** 2
    assert 2 * (1 << 40) < 1 << 63


def test_series_first_stage_matches_long_division():
    # the written series of 1/Q_uv, through the whole engine, against the
    # independent oracle: every element order of triples with an element 1
    # or 2, and seeded random triples, full and half
    triples = {perm for base in [(1, 3, 4), (1, 5, 7), (2, 3, 5), (2, 5, 7), (2, 3, 7)]
               for perm in itertools.permutations(base)}
    rng = np.random.default_rng(11)
    while len(triples) < 80:
        p, q, r = rng.integers(1, 30, size=3).tolist()
        try:
            if Triple(p, q, r).product <= 4000:
                triples.add((p, q, r))
        except InvalidTriple:
            pass
    shapes = set()
    for p, q, r in sorted(triples):
        u, v, _ = sorted((p, q, r))
        ref = reference_coeffs(p, q, r)
        for mode in ("full", "half"):
            c = coeffs_series(Triple(p, q, r), mode=mode).coeffs
            assert c.tolist() == ref[: len(c)], (p, q, r, mode)
            if len(c) < v:
                shapes.add("-1 block cut off")
            if len(c) < u * v:
                shapes.add("cut last period only")
            elif len(c) % (u * v):
                shapes.add("ends mid-period")
    assert shapes == {"-1 block cut off", "cut last period only", "ends mid-period"}


def _peak_ratio(build):
    tracemalloc.start()
    try:
        vec = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / vec.coeffs.nbytes


@pytest.mark.parametrize(
    "build, ceiling",
    [
        (lambda t: coeffs_series(t), 1.25),
        (lambda t: coeffs_series(t, mode="half"), 1.25),
        (lambda t: coeffs_window(t), 1.25),
    ],
    ids=["series-full", "series-half", "window"],
)
def test_working_memory_ceiling(build, ceiling):
    t = Triple(61, 67, 257)  # degree 1013760
    assert _peak_ratio(lambda: build(t)) <= ceiling
