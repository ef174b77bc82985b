import itertools

import numpy as np
import pytest

from iepoly import identities
from iepoly.engine import coeffs_series
from iepoly.errors import PreconditionViolated, UnknownCheck
from iepoly.identities import (
    EXHAUSTIVE_PRODUCT_LIMIT,
    GENERIC_CHECKS,
    IDENTITY_CHECKS,
    OFFSET_CHECKS,
    _Workspace,
    _oracles,
    _positions,
    verify_identity,
    verify_identity_bundle,
)
from iepoly.represent import (
    Triple,
    indicator_many,
    is_representable_via_threshold,
    semigroup_representative,
    window_count,
)

from helpers import brute_representative

GENERIC_IDS = tuple(GENERIC_CHECKS) + ("representative-residue",)

GENERIC_TRIPLES = [(3, 5, 7), (5, 7, 3), (3, 4, 5), (5, 7, 11), (7, 9, 10), (4, 9, 35)]
OFFSET_TRIPLES = [(3, 5, 16), (3, 5, 17), (3, 7, 25), (4, 5, 23), (5, 6, 31), (5, 4, 23)]


@pytest.mark.parametrize("triple", GENERIC_TRIPLES)
def test_generic_checks_exhaustive(triple):
    t = Triple(*triple)
    for rep in verify_identity_bundle(t, GENERIC_IDS, mode="exhaustive"):
        assert rep.passed, rep
        assert rep.checked > 0
        assert rep.mode == "exhaustive"


@pytest.mark.parametrize("triple", OFFSET_TRIPLES)
def test_offset_checks_exhaustive(triple):
    t = Triple(*triple)
    for rep in verify_identity_bundle(t, tuple(OFFSET_CHECKS), mode="exhaustive"):
        assert rep.passed, rep


@pytest.mark.parametrize("cid", sorted(IDENTITY_CHECKS))
def test_sampled_mode_agrees(cid):
    t = Triple(3, 5, 17)
    rep = verify_identity(cid, t, mode="sampled", samples=2000, seed=11)
    assert rep.passed, rep
    assert rep.mode == "sampled"
    assert rep.seed == 11


def test_sampled_on_large_triple():
    t = Triple(101, 103, 10609 * 2 + 5)  # offset form, product ~2.2e8
    for rep in verify_identity_bundle(t, samples=500, seed=5):
        assert rep.mode == "sampled"
        assert rep.passed, rep


def test_threshold_agreement_beyond_int64_residues():
    # pq > isqrt(2^63 - 1): residue products no longer fit in int64
    t = Triple(60001, 60002, 11)
    rep = verify_identity("threshold-agreement", t, mode="sampled", samples=3000, seed=1)
    assert rep.passed, rep
    rng = np.random.default_rng(3)
    for p, q, r in [(60001, 60002, 11), (65537, 65539, 5)]:
        t = Triple(p, q, r)
        ns = rng.integers(0, t.product, size=2000)
        got = semigroup_representative(ns, t, r)
        assert got.tolist() == [semigroup_representative(n, t, r) for n in ns.tolist()]
        for n in ns[:4].tolist():
            assert semigroup_representative(n, t, r) == brute_representative(n, p, q, r)
    # an element p > isqrt(2^63 - 1), whose residue products wrap in int64
    # far from a multiple of p: scalar calls must stay exact as well
    big = 3999999997
    t = Triple(big, 3, 5)
    ns = rng.integers(0, t.product, size=200)
    for pivot, other in [(5, 3), (3, 5)]:
        # brute_representative loops over multiples of its second element
        expect = [brute_representative(n, other, big, pivot) for n in ns.tolist()]
        assert [semigroup_representative(n, t, pivot) for n in ns.tolist()] == expect
        assert semigroup_representative(ns, t, pivot).tolist() == expect
    # pivot big leaves <3, 5>, whose residue products are small; the other
    # two pivots take the wide path and must decide alike
    for n in ns.tolist():
        expect = is_representable_via_threshold(n, t, big)
        assert is_representable_via_threshold(n, t, 3) == expect, n
        assert is_representable_via_threshold(n, t, 5) == expect, n


def test_auto_mode_threshold():
    small = Triple(3, 5, 7)
    assert verify_identity("second-difference", small).mode == "exhaustive"
    big = Triple(47, 53, 59)
    assert big.product > EXHAUSTIVE_PRODUCT_LIMIT
    assert verify_identity("second-difference", big, samples=100).mode == "sampled"


def test_unknown_check():
    with pytest.raises(UnknownCheck):
        verify_identity("no-such-check", Triple(3, 5, 7))


def test_offset_checks_need_offset_form():
    with pytest.raises(PreconditionViolated):
        verify_identity("window-split", Triple(3, 5, 7))


def test_non_ternary_rejected():
    for t in [(3, 5, 1), (3, 5, 2), (2, 3, 5)]:
        with pytest.raises(PreconditionViolated):
            verify_identity("second-difference", Triple(*t))


def test_representative_residue_custom_offset():
    # the companion offset is derived, 32 mod 15 = 2, and takes no override
    t = Triple(3, 5, 32)
    rep = verify_identity("representative-residue", t)
    assert rep.passed and rep.checked == 4 * 15
    with pytest.raises(TypeError):
        verify_identity("representative-residue", t, s=17)


def test_offset_period_empty_domain():
    # s = 1 leaves no admissible interior offset; vacuous pass, zero checked
    rep = verify_identity("offset-period", Triple(3, 5, 16))
    assert rep.passed and rep.checked == 0


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_offset_period_skips_zero_beta(mode):
    # s = 16 > pq = 15 leaves only beta = 0, where the identity reads
    # ind(x) = ind(x); neither mode may count those positions
    rep = verify_identity("offset-period", Triple(3, 5, 31), mode=mode, samples=500)
    assert rep.passed and rep.checked == 0


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_offset_period_draws_nothing_when_s_exceeds_pq(mode, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("offset-period drew positions with s > pq")

    monkeypatch.setattr(identities, "_positions", refuse)
    rep = verify_identity("offset-period", Triple(3, 5, 31), mode=mode, samples=500)
    assert rep.passed and rep.checked == 0


@pytest.mark.parametrize("samples", [0, -5])
def test_samples_below_one_rejected(samples):
    with pytest.raises(PreconditionViolated, match="samples"):
        verify_identity("second-difference", Triple(3, 5, 7), samples=samples)
    with pytest.raises(PreconditionViolated, match="samples"):
        verify_identity_bundle(Triple(3, 5, 7), samples=samples, mode="sampled")


def test_positions_exhaustive_grid_in_axis_order():
    def keep(a, b, c):
        return a + b + c != 1

    axes = ((1, 3), (-2, 1), (0, 2))
    cols = _positions(None, 0, "exhaustive", *axes, keep=keep)
    grid = list(itertools.product(*(range(lo, hi) for lo, hi in axes)))
    assert list(zip(*(col.tolist() for col in cols))) == [x for x in grid if keep(*x)]
    assert all(col.dtype == np.int64 for col in cols)
    (ns,) = _positions(None, 0, "exhaustive", (-4, 3))
    assert ns.tolist() == list(range(-4, 3))


def test_positions_sampled_count_and_keep():
    # 9 of the 100 (k, j) pass, so the draw takes about 11 batches of 3000
    rng = np.random.default_rng(0)
    ks, js = _positions(rng, 3000, "sampled", (0, 10), (-5, 5), keep=lambda k, j: k + j == 3)
    assert len(ks) == len(js) == 3000
    assert np.all(ks + js == 3) and ks.min() >= 0 and ks.max() < 10 and js.min() >= -5
    (ns,) = _positions(rng, 7, "sampled", (2, 9))
    assert len(ns) == 7 and ns.min() >= 2 and ns.max() < 9


def test_positions_sampled_gives_up_after_64_batches():
    sizes = []

    class Counting:
        def __init__(self):
            self.rng = np.random.default_rng(0)

        def integers(self, lo, hi, size, dtype):
            sizes.append(size)
            return self.rng.integers(lo, hi, size=size, dtype=dtype)

    ns, ms = _positions(Counting(), 10, "sampled", (0, 5), (0, 5), keep=lambda ns, ms: ns < 0)
    assert len(ns) == len(ms) == 0 and ns.dtype == np.int64
    assert sizes == [1024] * (2 * 64)


def test_planted_violation_is_caught():
    # flip one indicator entry in the shared workspace: several checks must
    # notice and produce a re-checkable witness
    t = Triple(3, 5, 17)
    ws = _Workspace(t)
    ws.ind[ws.pad + 40] ^= 1  # position 40, behind the table's zero pad
    failed = []
    for cid in ("threshold-agreement", "multiple-period", "below-multiple"):
        rep = verify_identity(cid, t, mode="exhaustive", _workspace=ws)
        if not rep.passed:
            failed.append(rep)
    assert failed, "corrupted indicator went unnoticed"
    for rep in failed:
        assert rep.witness is not None
    # exhaustive mode reads the shared table, so the period check sees the flip
    by_id = {rep.check_id: rep for rep in failed}
    assert "multiple-period" in by_id, "exhaustive multiple-period ignored the workspace"
    assert by_id["multiple-period"].witness == {"k": -15, "j": 1, "pivot": 3}


def test_witness_payload_decodes():
    t = Triple(3, 5, 17)
    ws = _Workspace(t)
    ws.ind[ws.pad + 17] ^= 1  # 17 = r, a representable multiple of r
    rep = verify_identity("threshold-agreement", t, mode="exhaustive", _workspace=ws)
    assert not rep.passed
    assert rep.witness["n"] == 17


def test_bundle_shares_workspace_results():
    t = Triple(3, 5, 19)
    reports = verify_identity_bundle(t, mode="exhaustive")
    assert len(reports) == len(IDENTITY_CHECKS)
    assert all(r.passed for r in reports)
    # deterministic: same call, same reports
    again = verify_identity_bundle(t, mode="exhaustive")
    assert [str(r) for r in reports] == [str(r) for r in again]


def test_sampled_bundle_computes_one_series_vector(monkeypatch):
    calls = []
    monkeypatch.setattr(
        "iepoly.identities.coeffs_series", lambda t: calls.append(t) or coeffs_series(t)
    )
    reports = verify_identity_bundle(Triple(23, 29, 671), samples=500, seed=5, mode="sampled")
    assert all(r.passed for r in reports)
    assert calls == [Triple(23, 29, 671)]


def test_sampled_deterministic_under_seed():
    t = Triple(61, 64, 67)
    a = verify_identity("second-difference", t, mode="sampled", samples=800, seed=3)
    b = verify_identity("second-difference", t, mode="sampled", samples=800, seed=3)
    assert str(a) == str(b)


def test_exhaustive_oracles_stay_in_pad(monkeypatch):
    # an exhaustive oracle reads position x at table[x + pad], so a position
    # below -pad would wrap around to the end of the table instead of raising
    reads = []

    def spy(ws, mode):
        o = _oracles(ws, mode)

        def seen(lo, hi):
            if len(lo):
                reads.append((ws, int(lo.min()), int(hi.max())))

        return identities._Oracles(
            lambda ns: seen(ns, ns) or o.ind(ns),
            lambda k, ms: seen(ms + 1 - k, ms) or o.sigma(k, ms),
            lambda ms: seen(ms, ms) or o.coeff(ms),
        )

    monkeypatch.setattr(identities, "_oracles", spy)
    # every order of the golden offset triples, (3, 5, 16) with s = 1 among them
    for order in {o for triple in OFFSET_TRIPLES for o in itertools.permutations(triple)}:
        t = Triple(*order)
        offset = t.r > t.p * t.q
        reads.clear()
        verify_identity_bundle(
            t, GENERIC_IDS + (tuple(OFFSET_CHECKS) if offset else ()), mode="exhaustive"
        )
        assert reads
        for ws, lo, hi in reads:
            assert -ws.pad <= lo and hi < ws.n, (ws.t, lo, hi)
        if offset:  # both companion checks read one shared companion workspace
            companion = Triple(t.p, t.q, t.r - t.p * t.q)
            assert len({id(ws) for ws, _, _ in reads if ws.t == companion}) == 1, t


@pytest.mark.parametrize("triple", [(3, 5, 16), (4, 5, 23)])
def test_padded_oracles_match_direct_evaluation(triple):
    t = Triple(*triple)
    ws = _Workspace(t)
    o = _oracles(ws, "exhaustive")
    xs = np.arange(-ws.pad, t.product)
    assert np.array_equal(o.ind(xs), indicator_many(xs, t))
    for k in sorted({1, t.p, t.q, t.r - t.p * t.q}):
        ms = xs[k - 1 :]  # windows (m - k, m] inside [-pad, product)
        assert np.array_equal(o.sigma(k, ms), window_count(k, ms, t)), k
    vec = coeffs_series(t)
    assert o.coeff(xs).tolist() == [vec.coefficient(int(m)) for m in xs]
