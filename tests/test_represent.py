import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iepoly import represent
from iepoly.errors import (
    DegreeCapExceeded, DomainExceeded, IEPolyError, InvalidParameters, InvalidTriple,
    InvariantViolated,
)
from iepoly.represent import (
    Triple,
    decompose,
    indicator_many,
    indicator_range,
    is_representable,
    is_representable_via_threshold,
    semigroup_representative,
    window_count,
)

from helpers import brute_indicator, brute_decompose, brute_representative

SMALL = [(3, 5, 7), (3, 4, 5), (5, 7, 11), (3, 5, 17), (2, 3, 5), (4, 9, 35)]


class TestTriple:
    def test_valid(self):
        t = Triple(3, 5, 7)
        assert t.product == 105
        assert t.sorted() == (3, 5, 7)
        assert t.others(5) == (3, 7)
        with pytest.raises(InvalidParameters, match="pivot 4 is not an element"):
            t.others(4)
        assert str(t) == "{3,5,7}"

    def test_degenerate_slot_allowed_once(self):
        assert Triple(3, 5, 1).is_ternary() is False
        assert Triple(3, 5, 2).is_ternary() is False
        assert Triple(2, 3, 5).is_ternary() is False  # conventions apply below 3
        assert Triple(3, 4, 5).is_ternary() is True
        with pytest.raises(InvalidTriple):
            Triple(1, 2, 5)

    # the last: 2^61 - 1 is prime, so only the product past 2^60 is wrong
    @pytest.mark.parametrize("bad", [(3, 5, 10), (4, 6, 7), (3, 3, 5), (0, 3, 5), (3, -5, 7),
                                     (2**61 - 1, 3, 5)])
    def test_invalid(self, bad):
        with pytest.raises(InvalidTriple):
            Triple(*bad)

    def test_order_preserved(self):
        t = Triple(7, 5, 3)
        assert t.as_tuple() == (7, 5, 3)
        assert t.sorted() == (3, 5, 7)


@pytest.mark.parametrize("p,q,r", SMALL)
def test_decompose_matches_brute(p, q, r):
    t = Triple(p, q, r)
    for n in list(range(0, 2 * p * q)) + [p * q * r - 1, -3, -p * q]:
        x, y, z, d = brute_decompose(n, p, q, r)
        got = decompose(n, t)
        assert (got.x, got.y, got.z, got.delta) == (x, y, z, d), n


def test_decompose_failed_reconstruction_raises_invariant(monkeypatch):
    # a wrong cofactor inverse leaves a remainder; the check is an explicit
    # raise of a package error (exit code 2 from the CLI), not an assert
    real = represent._cofactor_inverse
    monkeypatch.setattr(
        represent, "_cofactor_inverse", lambda m, t: (real(m, t) + 1) % m if m > 1 else 0
    )
    with pytest.raises(InvariantViolated, match="reconstruction failed for n=1") as info:
        decompose(1, Triple(3, 5, 7))
    assert isinstance(info.value, IEPolyError)


@given(st.integers(-10**6, 10**6))
def test_decompose_reconstructs(n):
    t = Triple(7, 11, 13)
    rep = decompose(n, t)
    assert 0 <= rep.x < 7 and 0 <= rep.y < 11 and 0 <= rep.z < 13
    assert rep.x * 143 + rep.y * 91 + rep.z * 77 + rep.delta * 1001 == n


def test_decompose_builds_no_tables(monkeypatch):
    def refuse(t):
        raise AssertionError(f"decompose built lookup tables for {t}")

    monkeypatch.setattr(represent, "_residue_tables", refuse)
    for t in (Triple(3, 5, 7), Triple(4294967311, 3, 5)):  # the latter: 32 GiB of tables
        p, q, r = t.as_tuple()
        for n in (0, 1, t.product - 1, t.product + 12345, -(7 ** 20)):
            x, y, z, delta = decompose(n, t)
            assert 0 <= x < p and 0 <= y < q and 0 <= z < r
            assert x * q * r + y * r * p + z * p * q + delta * t.product == n


def test_residue_tables_respect_the_degree_cap(monkeypatch):
    t = Triple(3, 5, 7)
    assert is_representable(15, t)  # tables built and cached under the default cap
    monkeypatch.setenv("IEPOLY_DEGREE_CAP", "6")
    with pytest.raises(DegreeCapExceeded, match="residue table length 7 exceeds"):
        is_representable(15, t)  # refused although cached
    with pytest.raises(DegreeCapExceeded, match="residue table length 7 exceeds"):
        indicator_many(np.arange(10), t)
    assert decompose(15, t) == (0, 0, 1, 0)  # builds no table, so needs no cap
    monkeypatch.setenv("IEPOLY_DEGREE_CAP", "7")
    assert is_representable(15, t)


def test_residue_tables_held_for_two_triples_at_most():
    # each cached entry holds p + q + r int64s: after eight distinct triples
    # the cache keeps no more than a triple and its companion
    rs = range(200_001, 200_081, 10)  # ending in 1, so coprime to 5 and 8
    table_bytes = 8 * (5 + 8 + max(rs))
    represent._residue_tables.cache_clear()
    tracemalloc.start()
    try:
        for r in rs:
            assert is_representable(40, Triple(5, 8, r))  # 40 = pq
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        represent._residue_tables.cache_clear()
    assert held < 3 * table_bytes


def test_window_count_refuses_a_window_past_the_cap(monkeypatch):
    # the tables (largest element 997) pass; the expanded window would not
    monkeypatch.setenv("IEPOLY_DEGREE_CAP", "1000")
    t = Triple(101, 103, 997)
    with pytest.raises(DegreeCapExceeded, match="window length 900000 exceeds"):
        window_count(900_000, np.array([t.product - 1]), t)
    assert window_count(1000, t.product - 1, t) == int(
        indicator_many(np.arange(t.product - 1000, t.product), t).sum()
    )


@pytest.mark.parametrize("p,q,r", SMALL)
def test_indicator_matches_brute(p, q, r):
    t = Triple(p, q, r)
    ns = np.arange(-10, p * q * r)
    got = indicator_many(ns, t)
    for n, g in zip(ns.tolist(), got.tolist()):
        assert g == brute_indicator(n, p, q, r), n


BLOCKED = (4, 7, 7031)  # product 196868 > 3 * 2^16 + 5, cheap brute loops
BLOCK_SIZES = [(1 << 16) - 1, 1 << 16, (1 << 16) + 1, 3 * (1 << 16) + 5]


@lru_cache(maxsize=1)
def _brute_table():
    """brute_indicator(n) at index n + 8, for -8 <= n < product."""
    p, q, r = BLOCKED
    return np.array([brute_indicator(n, p, q, r) for n in range(-8, p * q * r)], dtype=np.uint8)


@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_indicator_many_across_blocks(size):
    assert represent._BLOCK == 1 << 16
    t = Triple(*BLOCKED)
    table = _brute_table()
    rng = np.random.default_rng(size)
    ns = rng.integers(-8, t.product, size=size)
    ns[:8] = np.arange(-8, 0)
    ns[-1] = t.product - 1
    even = ns[: size - size % 2]
    # 1-D, 2-D, non-contiguous, and 2-D non-contiguous
    for arr in [ns, ns.reshape(-1, 1), ns[::-1], even.reshape(2, -1).T]:
        got = indicator_many(arr, t)
        assert got.dtype == np.uint8 and got.shape == arr.shape
        assert np.array_equal(got, table[arr + 8])
    got = indicator_range(t, size)
    assert np.array_equal(got, table[8 : 8 + size])
    ns[size // 2] = t.product
    with pytest.raises(DomainExceeded):
        indicator_many(ns, t)


def test_indicator_many_scalar():
    t = Triple(*BLOCKED)
    for n in (-3, 0, 95, t.product - 1):
        got = indicator_many(np.int64(n), t)
        assert np.ndim(got) == 0 and got.dtype == np.uint8
        assert got == brute_indicator(n, *BLOCKED)


def test_indicator_range_equals_many():
    t = Triple(3, 5, 17)
    assert np.array_equal(indicator_range(t, 255), indicator_many(np.arange(255), t))


def test_indicator_range_holds_blocks_beside_its_result():
    # the indicator is filled one block at a time: what it holds beside its
    # uint8 result is a few int64 blocks, the same at every stop
    t = Triple(101, 103, 997)
    indicator_range(t, 10)  # the residue tables are cached from here on
    excess = []
    for stop in (10**6, 4 * 10**6):
        tracemalloc.start()
        try:
            out = indicator_range(t, stop)
            excess.append(tracemalloc.get_traced_memory()[1] - out.nbytes)
        finally:
            tracemalloc.stop()
    assert abs(excess[1] - excess[0]) < 1 << 16
    assert max(excess) <= 8 * 8 * represent._BLOCK


def test_indicator_domain():
    t = Triple(3, 5, 7)
    assert is_representable(-1, t) is False
    with pytest.raises(DomainExceeded):
        is_representable(105, t)
    with pytest.raises(DomainExceeded):
        indicator_many(np.array([0, 105]), t)
    with pytest.raises(DomainExceeded, match="stop=106 exceeds product 105"):
        indicator_range(t, 106)
    for n in (-1, 105):
        with pytest.raises(DomainExceeded, match=rf"n={n} is outside \[0, 105\)"):
            is_representable_via_threshold(n, t, 7)


@pytest.mark.parametrize("p,q,r", [(3, 5, 7), (5, 7, 11), (3, 5, 17)])
def test_semigroup_representative_matches_brute(p, q, r):
    t = Triple(p, q, r)
    for pivot, (a, b) in ((r, (p, q)), (p, (q, r)), (q, (p, r))):
        ns = np.arange(-a * b, 2 * a * b)
        expect = [brute_representative(n, a, b, pivot) for n in ns.tolist()]
        assert [semigroup_representative(n, t, pivot) for n in ns.tolist()] == expect
        got = semigroup_representative(ns, t, pivot)
        assert got.dtype == np.int64 and got.tolist() == expect, pivot


@pytest.mark.parametrize("p,q,r", [(3, 5, 7), (4, 9, 35), (3, 5, 17)])
def test_threshold_criterion_matches_indicator(p, q, r):
    # membership-by-threshold must agree with the decomposition indicator
    t = Triple(p, q, r)
    for pivot in (p, q, r):
        for n in range(p * q * r):
            assert is_representable_via_threshold(n, t, pivot) == bool(
                brute_indicator(n, p, q, r)
            ), (n, pivot)


def test_window_count_small():
    t = Triple(3, 5, 7)
    ind = [brute_indicator(n, 3, 5, 7) for n in range(105)]
    for m in (0, 1, 17, 50, 104):
        for k in (1, 3, 10):
            expect = sum(ind[max(m - k + 1, 0) : m + 1])
            assert window_count(k, m, t) == expect, (k, m)
    assert window_count(5, -1, t) == 0
    assert window_count(0, 50, t) == 0
    ms = np.arange(-3, 105)
    for k in (0, 1, 3, 10, 200):
        expect = [sum(ind[max(m - k + 1, 0) : max(m + 1, 0)]) for m in ms.tolist()]
        got = window_count(k, ms, t)
        assert got.dtype == np.int64 and got.tolist() == expect, k
    with pytest.raises(DomainExceeded):
        window_count(0, np.array([3, 105]), t)
    with pytest.raises(InvalidParameters, match="window length must be >= 0"):
        window_count(-1, 50, t)


@settings(max_examples=200)
@given(st.integers(0, 3 * 5 * 17 - 1), st.integers(1, 40))
def test_window_count_is_prefix_difference(m, k):
    t = Triple(3, 5, 17)
    full = window_count(m + 1, m, t)
    head = window_count(max(m - k + 1, 0), m - k, t) if m - k >= 0 else 0
    assert window_count(k, m, t) == full - head
