import itertools
import tracemalloc

import numpy as np
import pytest

from iepoly import identities
from iepoly.engine import coeffs_series, degree
from iepoly.cli import main
from iepoly.errors import (
    DegreeCapExceeded,
    InvariantViolated,
    PreconditionViolated,
    UnknownCheck,
)
from iepoly.identities import (
    EXHAUSTIVE_PRODUCT_LIMIT,
    GENERIC_CHECKS,
    IDENTITY_CHECKS,
    OFFSET_CHECKS,
    _Grid,
    _Workspace,
    _axis,
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

from helpers import brute_representative, reference_coeffs

GENERIC_IDS = tuple(GENERIC_CHECKS) + ("representative-residue",)

GENERIC_TRIPLES = [(3, 5, 7), (5, 7, 3), (3, 4, 5), (5, 7, 11), (7, 9, 10), (4, 9, 35)]
OFFSET_TRIPLES = [(3, 5, 16), (3, 5, 17), (3, 7, 25), (4, 5, 23), (5, 6, 31), (5, 4, 23)]


def _expand(grid):
    """The positions of a grid as an int64 array over its box, built from
    its base, strides and shape alone."""
    strides = np.asarray(grid.strides, dtype=np.int64)
    return grid.base + np.tensordot(strides, np.indices(grid.shape), axes=1)


def _golden_bundles():
    """(triple, check ids) of the golden exhaustive bundles: every order of
    the identity test triples, with the offset checks where they apply."""
    for order in sorted({o for triple in GENERIC_TRIPLES + OFFSET_TRIPLES
                         for o in itertools.permutations(triple)}):
        t = Triple(*order)
        yield t, GENERIC_IDS + (tuple(OFFSET_CHECKS) if t.r > t.p * t.q else ())


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


@pytest.mark.parametrize("mode", ["auto", "exhaustive", "sampled"])
def test_negative_seed_rejected(mode):
    with pytest.raises(PreconditionViolated, match="seed must be at least 0"):
        verify_identity("second-difference", Triple(3, 5, 7), seed=-1, mode=mode)


def test_unknown_mode_rejected():
    with pytest.raises(PreconditionViolated, match="unknown mode 'quick'"):
        verify_identity("second-difference", Triple(3, 5, 7), mode="quick")


def test_sampled_check_refuses_residue_tables_past_the_cap(monkeypatch, capsys):
    # elements past the cap: the sampled indicator's residue tables would
    # need about 7.28 TiB for the largest, so they are refused unbuilt
    monkeypatch.delenv("IEPOLY_DEGREE_CAP", raising=False)
    t = Triple(3, 4, 1000000000007)
    with pytest.raises(DegreeCapExceeded, match="residue table length 1000000000007"):
        verify_identity("second-difference", t, mode="sampled", samples=100)
    argv = ["verify", "second-difference", "3", "4", "1000000000007", "--mode", "sampled",
            "--samples", "100"]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "resource cap: residue table length 1000000000007 exceeds the configured cap 20000000\n"
    )


def test_positions_exhaustive_grid_in_axis_order():
    calls = []

    def keep(a, b, c):
        calls.append((a, b, c))
        return a + b + c != 1

    axes = ((1, 3), (-2, 1), (0, 2))
    cols = _positions(None, 0, "exhaustive", *axes, keep=keep)
    grid = list(itertools.product(*(range(lo, hi) for lo, hi in axes)))
    arrays = [_expand(col) for col in cols]
    assert all(a.dtype == np.int64 and a.shape == (2, 3, 2) for a in arrays)
    assert list(zip(*(a.ravel().tolist() for a in arrays))) == grid
    # keep runs once, on the 1-D axes, never on a grid
    ((a, b, c),) = calls
    assert [x.shape for x in (a, b, c)] == [(2, 1, 1), (1, 3, 1), (1, 1, 2)]
    for col, array in zip(cols, arrays):  # one mask over the whole grid, in the same order
        assert _axis(col) is col.axis
        assert np.array_equal(np.broadcast_to(col.axis, array.shape), array)
        assert col.keep.ravel().tolist() == [x + y + z != 1 for x, y, z in grid]
    (ns,) = _positions(None, 0, "exhaustive", (-4, 3))
    assert _expand(ns).tolist() == list(range(-4, 3)) and ns.keep is None


def test_positions_split_exhaustive_walks_in_order():
    # n = i*3 + j over [-6, 9): the box (5, 3), walked first axis slowest
    i, j = _positions(None, 0, "exhaustive", (-6, 9), split=3)
    assert i.shape == j.shape == (5, 3) and i.keep is None
    assert _expand(i * 3 + j).ravel().tolist() == list(range(-6, 9))
    assert np.array_equal(_axis(i), np.arange(-2, 3).reshape(5, 1))
    assert np.array_equal(_axis(j), np.arange(3).reshape(1, 3))


def test_exhaustive_positions_build_no_axis():
    # a column stores its box; its axis is built only when read
    for split in (None, 1000):
        tracemalloc.start()
        try:
            cols = _positions(None, 0, "exhaustive", (0, 4 * 10**6), split=split)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, (split, peak)
        assert np.array_equal(_axis(cols[-1]).ravel(), np.arange(split or 4 * 10**6))


def test_exhaustive_bundles_build_only_the_axes_they_read(monkeypatch):
    # a column holding an axis counts as built; one whose axis a check or a
    # keep mask asked for counts as read
    cols, read, positions = [], set(), identities._positions

    class Spied(_Grid):
        def __getattribute__(self, name):
            if name == "axis":
                read.add(id(self))
            return super().__getattribute__(name)

    def spy(*args, **kwargs):
        out = positions(*args, **kwargs)
        cols.extend(out)
        return out

    monkeypatch.setattr(identities, "_Grid", Spied)
    monkeypatch.setattr(identities, "_positions", spy)
    for t, ids in _golden_bundles():
        verify_identity_bundle(t, ids, mode="exhaustive")
    built = sum(vars(col).get("axis") is not None for col in cols)
    assert read and read <= {id(col) for col in cols}
    assert built == len(read) < len(cols)


def test_positions_split_sampled_keeps_draws():
    # the same draws as without split, returned as quotient and residue
    (xs,) = _positions(np.random.default_rng(9), 3000, "sampled", (0, 1155))
    i, j = _positions(np.random.default_rng(9), 3000, "sampled", (0, 1155), split=35)
    assert np.array_equal(i, xs // 35) and np.array_equal(j, xs % 35)
    assert _axis(i) is i


def test_grid_arithmetic_matches_arrays():
    ks, js = _positions(None, 0, "exhaustive", (-3, 4), (1, 6))
    k, j = _expand(ks), _expand(js)
    for grid, want in [
        (ks * 7 + js * 5 - 2, k * 7 + j * 5 - 2),
        (ks + 3 - js * -4, 3 + k - j * -4),
        ((ks - 9) * -2 + 1, -2 * (k - 9) + 1),
    ]:
        assert isinstance(grid, _Grid)
        assert np.array_equal(_expand(grid), want)
        assert [grid.at(i) for i in range(grid.size)] == want.ravel().tolist()
    # a grid is only read: anything else raises instead of building an array
    for op in [
        lambda: ks * 7 % 3, lambda: (js - 8) // 3, lambda: ks * 2 < js, lambda: js >= 2,
        lambda: k + js, lambda: 3 + ks, lambda: ks * k,
        lambda: semigroup_representative(js * 3, Triple(3, 5, 7), 7),
        # a derived grid is no column, so it has no axis to read
        lambda: (ks * 7 + js).axis, lambda: (ks * 2).axis, lambda: (ks - js).axis,
    ]:
        with pytest.raises(TypeError):
            op()


def test_grid_reads_are_readonly_views():
    t = Triple(4, 5, 23)
    ws = _Workspace(t)
    o = _oracles(ws, "exhaustive")
    ks, js = _positions(None, 0, "exhaustive", (-19, 20), (0, 4))
    view = o.ind(ks * 5 + js * 23)
    assert not view.flags.writeable and np.shares_memory(view, ws.ind)
    with pytest.raises(ValueError):
        view[0, 0] = 1
    assert np.array_equal(view, indicator_many(_expand(ks * 5 + js * 23), t))
    # a grid reaching past either end of a table raises instead of reading
    for grid in (ks - ws.pad, ks * t.product):
        with pytest.raises(InvariantViolated, match="outside a table"):
            o.ind(grid)


def test_exhaustive_oracles_read_only_grids(monkeypatch):
    # every table read of the golden exhaustive bundles is a view of a grid
    read, seen = identities._read, []

    def spy(table, xs, pad):
        seen.append(type(xs))
        return read(table, xs, pad)

    monkeypatch.setattr(identities, "_read", spy)
    for t, ids in _golden_bundles():
        verify_identity_bundle(t, ids, mode="exhaustive")
    assert seen and set(seen) == {_Grid}


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


def _walk(cid, t, ws):
    """(passed, checked, witness) of one check, by a pure-Python walk of its
    grid in axis order that reads the workspace indicators entry by entry
    and evaluates only the positions the check keeps.  The checks that
    split n by a modulus are walked as plain n in [0, product), with // and
    %, brute-force representatives and long-division coefficients."""
    pq = t.p * t.q
    s = t.r - pq

    def reader(w):
        return lambda x: 0 if x < 0 else int(w.ind[w.pad + x])

    ind, ind_c = reader(ws), reader(ws.companion)

    def sigma(f, k, m):
        return sum(f(x) for x in range(m - k + 1, m + 1))

    def first(cases):
        """(checked, witness) over cases of (witness fields, bad)."""
        checked, witness = 0, None
        for fields, bad in cases:
            checked += 1
            if bad and witness is None:
                witness = fields
        return checked, witness

    def per_pivot(cases):
        checked = 0
        for pivot in t.as_tuple():
            n, witness = first(cases(pivot, t.product // pivot))
            checked += n
            if witness:
                return False, checked, {**witness, "pivot": pivot}
        return True, checked, None

    def companion_window(b, k, g):
        lhs = sigma(ind, s, k * t.r + g + b * pq) - ind(k * t.r + b * pq)
        mid = sigma(ind_c, s, k * s + g) - ind_c(k * s)
        rhs = sigma(ind_c, s, k * s + g - pq)
        return {"k": k, "gamma": g, "beta": b, "sums": [lhs, mid, rhs]}, not lhs == mid == rhs

    if cid == "multiple-period":
        return per_pivot(lambda pivot, shift: (
            ({"k": k, "j": j}, ind(k * pivot + j * shift) != ind(k * pivot))
            for k in range(-shift + 1, shift) for j in range(pivot)
            if k * pivot + j * shift < t.product))
    if cid == "below-multiple":
        return per_pivot(lambda pivot, shift: (
            ({"k": k, "j": j}, ind(k * pivot - j * shift) != 0)
            for k in range(-shift + 1, shift) for j in range(1, pivot)))
    if cid == "indicator-period":
        return per_pivot(lambda pivot, shift: (
            ({"n": n}, ind(n) != ind(n - shift) and not (n % pivot == 0 and ind(n) == 1))
            for n in range(t.product)))
    if cid == "threshold-agreement":
        def threshold(pivot, n):
            a, b = (v for v in t.as_tuple() if v != pivot)
            rep = brute_representative(n, a, b, pivot)
            return {"n": n, "rep": rep}, (rep <= n // pivot) != (ind(n) == 1)

        return per_pivot(lambda pivot, shift: (threshold(pivot, n) for n in range(t.product)))
    if cid == "window-split-eval":
        ref = reference_coeffs(*t.as_tuple())
        lo, hi = sorted((t.p, t.q))

        def split_eval(m):
            a = ref[m] if m < len(ref) else 0
            block = sum(sign * sigma(ind, s, m - d)
                        for sign, d in ((1, 0), (-1, t.p), (-1, t.q), (1, t.p + t.q)))
            alpha, x = m // t.r * t.r, m - s
            corr = (ind(alpha) if x - lo < alpha <= x
                    else -ind(alpha) if x - hi - lo < alpha <= x - hi else 0)
            return {"m": m, "a": a, "block": block, "corr": corr}, a != block + corr

        cases = (split_eval(m) for m in range(t.product))
    elif cid == "companion-transfer":
        cases = (({"k": k, "j": j}, ind(k * t.r + j) != ind_c(k * s + j))
                 for k in range(-pq + 1, pq) for j in range(-s + 1, s))
    elif cid == "offset-period":
        if s == 1 or s > pq:
            return True, 0, None
        cases = (({"k": k, "j": j, "beta": b}, ind(k * t.r + j + b * pq) != ind(k * t.r + j))
                 for b in range(-(pq // s), pq // s + 1)
                 for k in range(-pq + 1, pq) for j in range(-s + 1, s)
                 if b != 0 and j != 0 and k * t.r + j + b * pq < t.product)
    else:
        cases = (companion_window(b, k, g)
                 for b in range(-(pq // s), pq // s + 1)
                 for k in range(-pq + 1, pq) for g in range(s)
                 if k * t.r + g + b * pq < t.product)
    checked, witness = first(cases)
    return witness is None, checked, witness


@pytest.mark.parametrize("triple, flips", [
    ((3, 5, 17), (0, 17, 40, 101, 171, 254)),
    ((4, 5, 23), (1, 23, 57, 200, 333, 459)),
    ((5, 4, 23), (2, 46, 60, 199, 341, 458)),  # p > q: window-split-eval sorts them
])
def test_masked_witness_matches_axis_order_walk(triple, flips):
    # one flipped indicator entry at a time: checked and the first witness
    # of the masked grid checks must match a plain walk of the same grid
    t = Triple(*triple)
    cids = ("multiple-period", "below-multiple", "companion-transfer",
            "offset-period", "companion-window",
            # the checks that split n by a modulus, against a plain walk of n
            "indicator-period", "threshold-agreement", "window-split-eval")
    failed = set()
    for x in flips:
        ws = _Workspace(t)
        ws.ind[ws.pad + x] ^= 1
        for cid in cids:
            rep = verify_identity(cid, t, mode="exhaustive", _workspace=ws)
            assert (rep.passed, rep.checked, rep.witness) == _walk(cid, t, ws), (cid, x)
            if not rep.passed:
                failed.add(cid)
    assert failed == set(cids)  # every check met a flip it had to report


def test_exhaustive_tables_respect_degree_cap(monkeypatch, capsys):
    # product 1001: each workspace table would hold about 5,000 entries
    t = Triple(7, 11, 13)
    ws = _Workspace(t)
    monkeypatch.setenv("IEPOLY_DEGREE_CAP", "500")
    with pytest.raises(DegreeCapExceeded, match="workspace table length"):
        verify_identity("second-difference", t, mode="exhaustive", _workspace=ws)
    assert not {"ind", "prefix", "ext", "companion"} & set(vars(ws))  # nothing built
    assert main(["verify", "second-difference", "7", "11", "13", "--mode", "exhaustive"]) == 3
    assert "resource cap" in capsys.readouterr().err
    # sampled mode builds no table; at the longest table's length exhaustive runs
    assert verify_identity("second-difference", t, mode="sampled", samples=100).passed
    monkeypatch.setenv("IEPOLY_DEGREE_CAP", str(ws.table_length))
    assert verify_identity("second-difference", t, mode="exhaustive", _workspace=ws).passed
    assert max(len(ws.ind), len(ws.prefix)) == ws.table_length


def test_sampled_coefficients_build_no_series_vector(monkeypatch):
    # degree 4,530,240, under the default cap: a sampled bundle reads every
    # coefficient through coefficient_at, so a cap below the degree, which
    # refuses the vector, leaves the reports as they are
    t = Triple(41, 53, 2179)
    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return coeffs_series(*args, **kwargs)

    monkeypatch.setattr(identities, "coeffs_series", counted)

    def report_lines():
        reps = verify_identity_bundle(t, samples=500, seed=7, mode="sampled")
        return [rep.to_json() for rep in reps]

    under_default = report_lines()
    monkeypatch.setenv("IEPOLY_DEGREE_CAP", str(degree(t) - 1))
    assert report_lines() == under_default
    assert builds == []


def test_sampled_bundle_peak_does_not_grow_with_degree():
    # degree 13,686,192: its series vector alone would take 104 MiB
    tracemalloc.start()
    try:
        reports = verify_identity_bundle(Triple(59, 64, 3779), seed=7, mode="sampled")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(rep.passed for rep in reports)
    assert peak < 16 << 20


def test_sampled_checks_run_in_blocks(monkeypatch):
    # blocks of at most 65,536 samples from one generator; checked adds up,
    # and the first failing block ends the check with its witness
    sizes, draws = [], []

    def fake(t, ws, rng, samples, mode):
        sizes.append(samples)
        draws.append(int(rng.integers(1 << 30)))
        failed = len(sizes) == fail_at
        return not failed, samples, {"block": len(sizes)} if failed else None

    monkeypatch.setitem(IDENTITY_CHECKS, "fake", fake)
    t = Triple(101, 103, 10408)
    fail_at = 0
    rep = verify_identity("fake", t, samples=200_000, seed=3, mode="sampled")
    assert (rep.passed, rep.checked, rep.witness) == (True, 200_000, None)
    assert sizes == [65_536] * 3 + [3_392]
    rng = np.random.default_rng(3)
    assert draws == [int(rng.integers(1 << 30)) for _ in sizes]
    sizes.clear()
    fail_at = 2
    rep = verify_identity("fake", t, samples=200_000, seed=3, mode="sampled")
    assert (rep.passed, rep.checked, rep.witness) == (False, 131_072, {"block": 2})
    assert sizes == [65_536] * 2


def test_sampled_check_peak_does_not_grow_with_samples():
    t = Triple(101, 103, 10408)

    def peak(samples):
        tracemalloc.start()
        try:
            rep = verify_identity("offset-period", t, samples=samples, seed=7, mode="sampled")
            used = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed and rep.checked == samples
        return used

    one_block = peak(1 << 16)
    assert peak(10 << 16) <= 1.1 * one_block


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


def test_sampled_deterministic_under_seed():
    t = Triple(61, 64, 67)
    a = verify_identity("second-difference", t, mode="sampled", samples=800, seed=3)
    b = verify_identity("second-difference", t, mode="sampled", samples=800, seed=3)
    assert str(a) == str(b)


def test_exhaustive_oracles_stay_in_pad(monkeypatch):
    # an exhaustive oracle reads position x at table[x + pad]: every read,
    # kept or not, must lie inside the table, and every read at a position
    # the check keeps inside [-pad, product)
    reads, kept = [], [None]

    def spy_positions(*args, **kwargs):
        cols = _positions(*args, **kwargs)
        kept[0] = getattr(cols[0], "keep", None)
        return cols

    def spy(ws, mode):
        o = _oracles(ws, mode)

        def seen(table, lo, hi, reach=0):
            # reads table at lo..hi + reach: sigma reads prefix at m + 1
            assert isinstance(lo, _Grid) and isinstance(hi, _Grid)
            lo, hi = _expand(lo), _expand(hi)
            assert -ws.pad <= lo.min() and hi.max() + reach < len(table) - ws.pad, ws.t
            mask = kept[0] if kept[0] is not None and kept[0].shape == lo.shape else True
            if np.any(mask):
                reads.append((ws, int(lo[mask].min()), int(hi[mask].max())))

        return identities._Oracles(
            lambda ns: seen(ws.ind, ns, ns) or o.ind(ns),
            lambda k, ms: seen(ws.prefix, ms + 1 - k, ms, 1) or o.sigma(k, ms),
            lambda ms: seen(ws.ext, ms, ms) or o.coeff(ms),
        )

    monkeypatch.setattr(identities, "_positions", spy_positions)
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
    (xs,) = _positions(None, 0, "exhaustive", (-ws.pad, t.product))
    assert np.array_equal(o.ind(xs), indicator_many(_expand(xs), t))
    for k in sorted({1, t.p, t.q, t.r - t.p * t.q}):
        # windows (m - k, m] inside [-pad, product)
        (ms,) = _positions(None, 0, "exhaustive", (k - 1 - ws.pad, t.product))
        assert np.array_equal(o.sigma(k, ms), window_count(k, _expand(ms), t)), k
    vec = coeffs_series(t)
    assert o.coeff(xs).tolist() == [vec.coefficient(int(m)) for m in _expand(xs)]
