"""Pointwise identity validators for the representability machinery.

Each check states one identity the coefficient theory rests on, once, over
positions and three oracles: the indicator ind(ns), the count sigma(k, ms)
of representable integers in (m-k, m] and the coefficient coeff(ms), each 0
at negative positions.  The mode chooses only the positions and the
oracles; both draw through _positions.  Exhaustive mode walks the full
index domain (feasible when p*q*r is small) as affine grids (_Grid), which
the oracles read as read-only strided views of padded tables in a shared
workspace; where a check needs n // m or n % m, it walks n = i*m + j over
the axes (i, j).  Sampled mode draws seeded uniform positions and
evaluates directly.  Checks about the offset form r = p*q + s derive s
from the stored triple order and use the companion triple {p, q, s} where
the identity calls for it; representative-residue uses {p, q, r mod p*q}.

Everything here is exact integer arithmetic; a single mismatch fails the
check and is reported with the witnessing index tuple.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, partial, wraps
from itertools import combinations
from math import prod

import numpy as np

from .engine import coefficient_at, coeffs_series
from .errors import InvariantViolated, PreconditionViolated, UnknownCheck
from .report import VerificationReport
from .represent import (
    Triple,
    indicator_many,
    indicator_range,
    require_under_cap,
    semigroup_representative,
    window_count,
)

# Auto mode exhausts the full domain up to this product and samples beyond.
EXHAUSTIVE_PRODUCT_LIMIT = 100_000

# Sampled checks draw and check at most this many positions at a time.
_SAMPLE_BLOCK = 1 << 16


class _Workspace:
    """Tables behind the exhaustive oracles for one triple and the
    workspace of the companion triple; each built on first use.

    ind, prefix and ext start with pad = 3*product zeros, so an exhaustive
    oracle reads position x as table[x + pad], and every x < 0 reads 0.
    Checks count only positions x < product, and none reads below
    -2*product of the triple whose table it reads.  The lowest reads are in
    below-multiple, k*pivot - j*shift >= (1 - shift)*pivot - (pivot - 1)*shift
    = pivot + shift - 2*product, and in the offset checks with r = pq + s:
    offset-period reads k*r + j + beta*pq, and companion-window counts
    sigma_s from there down, both no lower than
    (1 - pq)*r + 1 - s - (pq//s)*pq = pq + 1 - product - (pq//s)*pq,
    which exceeds -2*product as (pq//s)*pq <= pq*pq < product.  On the
    companion (product pq*s), companion-window counts down to
    (1 - pq)*s - pq - s + 1 = 1 - pq - pq*s.  All other reads lie above
    -product.  So 3*product zeros leave a margin of at least product.

    A strided view reads its whole grid before a check's keep mask drops
    the positions at or past product, so ind also ends with tail = product
    zeros, and prefix, summed from it, with product more entries; no read
    reaches 2*product, and _read refuses one that would leave its table.
    The highest reads are in multiple-period,
    k*pivot + j*shift <= (shift - 1)*pivot + (pivot - 1)*shift
    = 2*product - pivot - shift, in offset-period (s >= 2),
    k*r + j + beta*pq <= (pq - 1)*r + s - 1 + (pq//s)*pq
    < product + pq*pq/2 < 3*product/2, and in companion-window, whose
    prefix reads reach x + 1 <= product - pq + (pq//s)*pq
    <= product - pq + pq*pq = 2*product - pq - pq*s, as pq*pq = product - pq*s.
    Companion reads stay below the companion's product: k*s + j < pq*s,
    and its prefix reads reach k*s + gamma + 1 <= pq*s.  Every other read,
    coefficients included, lies below product (prefix: at most product),
    so ext needs no tail.  table_length, that of prefix, is the longest.
    """

    def __init__(self, t: Triple):
        self.t = t
        self.n = t.product
        self.pad = 3 * t.product
        self.tail = t.product
        self.table_length = self.pad + self.n + self.tail + 1

    @cached_property
    def ind(self) -> np.ndarray:
        out = np.zeros(self.pad + self.n + self.tail, dtype=np.uint8)
        out[self.pad : self.pad + self.n] = indicator_range(self.t, self.n)
        return out

    @cached_property
    def prefix(self) -> np.ndarray:
        # prefix[pad + i] = number of representable n < i; the indicator is
        # widened into the table and summed in place, with no int64 temporary
        out = np.zeros(self.table_length, dtype=np.int64)
        body = out[self.pad + 1 :]
        body[:] = self.ind[self.pad :]
        np.cumsum(body, out=body)
        return out

    @cached_property
    def ext(self) -> np.ndarray:
        # a_m over [-pad, product): the pad, engine coefficients, a zero tail
        coeffs = coeffs_series(self.t).coeffs
        out = np.zeros(self.pad + self.n, dtype=np.int64)
        out[self.pad : self.pad + len(coeffs)] = coeffs
        return out

    @cached_property
    def companion(self) -> _Workspace:
        """Workspace of the companion triple {p, q, s}, where r = p*q + s."""
        return _Workspace(Triple(self.t.p, self.t.q, _offset(self.t)))


class _Grid:
    """Affine positions base + strides . i over the index box `shape`,
    walked first axis slowest: how exhaustive mode draws its positions.

    Adding or subtracting an int or a grid of the same shape, and
    multiplying by an int, give a grid again; an oracle reads it (_read),
    and nothing else is defined: %, //, ordering comparisons and ndarray
    operands raise TypeError.  The columns _positions returns carry keep,
    the mask over the box of the positions a check counts, and axis (_axis).
    """

    __array_ufunc__ = None

    def __init__(self, base: int, strides: tuple, shape: tuple):
        self.base, self.strides, self.shape = base, strides, shape
        self.keep = None

    @property
    def size(self) -> int:
        return prod(self.shape)

    @cached_property
    def axis(self) -> np.ndarray:
        """A column's values (_axis), derived on first read, shaped to
        broadcast over the box; a derived grid such as i*r + j has none."""
        if sorted(self.strides) != [0] * (len(self.strides) - 1) + [1]:
            raise TypeError(f"a grid with strides {self.strides} is not a column")
        shape = [n if step else 1 for n, step in zip(self.shape, self.strides)]
        return np.arange(self.base, self.base + prod(shape), dtype=np.int64).reshape(shape)

    def __add__(self, other):
        if isinstance(other, _Grid) and other.shape == self.shape:
            strides = tuple(a + b for a, b in zip(self.strides, other.strides))
            return _Grid(self.base + other.base, strides, self.shape)
        if isinstance(other, int):
            return _Grid(self.base + other, self.strides, self.shape)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, (_Grid, int)):
            return self + other * -1
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, int):
            strides = tuple(step * other for step in self.strides)
            return _Grid(self.base * other, strides, self.shape)
        return NotImplemented

    def at(self, i: int) -> int:
        return self.base + int(np.dot(self.strides, np.unravel_index(i, self.shape)))


def _axis(col):
    """A column's values: its grid's 1-D arange, shaped to broadcast over the
    box, or the sampled array itself."""
    return col.axis if isinstance(col, _Grid) else col


def _read(table: np.ndarray, xs: _Grid, pad: int) -> np.ndarray:
    """table[xs + pad] as a strided view of table.  The view is read-only,
    since every check of a bundle reads the same table, and numpy checks its
    extent against the table.  It is built by the ndarray constructor, not
    as_strided, which costs several times as much per view and checks no
    bounds."""
    step = table.itemsize
    try:
        return np.ndarray(
            xs.shape, table.dtype, memoryview(table).toreadonly(),
            (xs.base + pad) * step, [s * step for s in xs.strides],
        )
    except ValueError:
        raise InvariantViolated(
            f"grid at {xs.base} with strides {xs.strides} and shape {xs.shape} "
            f"reaches outside a table over [{-pad}, {len(table) - pad})"
        ) from None


_Oracles = namedtuple("_Oracles", "ind sigma coeff")


def _oracles(ws: _Workspace, mode: str) -> _Oracles:
    """Oracles of ws.t.  Exhaustive: they take grids only, each read as a
    view of a padded workspace table (_read); sigma is the difference of
    two prefix views.  Sampled: evaluated directly, coefficients by
    coefficient_at at every degree, so no vector is held."""
    t, pad = ws.t, ws.pad
    if mode == "exhaustive":
        return _Oracles(
            lambda ns: _read(ws.ind, ns, pad),
            lambda k, ms: _read(ws.prefix, ms + 1, pad) - _read(ws.prefix, ms + 1 - k, pad),
            lambda ms: _read(ws.ext, ms, pad),
        )
    return _Oracles(
        lambda ns: indicator_many(ns, t),
        lambda k, ms: window_count(k, ms, t),
        partial(coefficient_at, t),
    )


def _positions(rng, samples, mode, *axes, keep=None, split=None):
    """Positions over the half-open box `axes`, restricted to `keep`.

    Exhaustive: one unit _Grid per axis over the whole box, first axis
    slowest, each carrying as its `keep` the mask keep computes from their
    axes.  Sampled: index arrays, drawn in batches of max(samples, 1024)
    uniform tuples until `samples` of them pass `keep`, giving up after 64
    batches.

    split=m takes one axis [lo, hi), m dividing both ends, as i, j with
    n = i*m + j, 0 <= j < m: exhaustive walks the box (hi//m - lo//m, m),
    n in order, and sampled returns (n // m, n % m) of the draws of n.
    """
    if mode == "exhaustive":
        axes = [(lo // split, hi // split) for lo, hi in axes] + [(0, split)] if split else axes
        shape, dims = tuple(hi - lo for lo, hi in axes), range(len(axes))
        cols = [_Grid(axes[k][0], tuple(int(i == k) for i in dims), shape) for k in dims]
        if keep is not None:
            mask = np.broadcast_to(keep(*(col.axis for col in cols)), shape)
            for col in cols:
                col.keep = mask
        return cols

    def batch():
        size = max(samples, 1024)
        cols = [rng.integers(lo, hi, size=size, dtype=np.int64) for lo, hi in axes]
        if keep is None:
            return cols
        mask = keep(*cols)
        return [col[mask] for col in cols]

    parts = [batch()]
    while sum(len(part[0]) for part in parts) < samples and len(parts) < 64:
        parts.append(batch())
    cols = [np.concatenate(col)[:samples] for col in zip(*parts)]
    return list(np.divmod(*cols, split)) if split else cols


def _verdict(bad: np.ndarray, pos, **witness) -> tuple:
    """(passed, checked, witness) over pos, one column from _positions:
    checked counts its positions, or those its grid keeps.  The witness
    reads each field at the first bad kept index in walk order, arrays
    broadcast over the box, a tuple of them as a list, others as given."""
    if getattr(pos, "keep", None) is None:
        checked = pos.size
    else:
        bad, checked = bad & pos.keep, int(np.count_nonzero(pos.keep))
    if not bad.any():
        return True, checked, None
    i = int(bad.argmax())  # flat in walk order, whatever the layout of bad

    def at(v):
        if isinstance(v, tuple):
            return [at(x) for x in v]
        if isinstance(v, _Grid):
            return v.at(i)
        return int(np.broadcast_to(v, bad.shape).flat[i]) if isinstance(v, np.ndarray) else v

    return False, checked, {key: at(v) for key, v in witness.items()}


def _per_case(cases):
    """A check made of one case(t, c, ind, pos) per c in cases(t); it stops
    at the first failing case and counts the positions of all it ran."""

    def decorate(case):
        @wraps(case)
        def check(t, ws, rng, samples, mode):
            ind = _oracles(ws, mode).ind
            pos = partial(_positions, rng, samples, mode)
            checked = 0
            for c in cases(t):
                passed, n, witness = case(t, c, ind, pos)
                checked += n
                if not passed:
                    return False, checked, witness
            return True, checked, None

        return check

    return decorate


def _offset(t: Triple) -> int:
    """s for checks that require the third element r = p*q + s, s >= 1."""
    s = t.r - t.p * t.q
    if s < 1:
        raise PreconditionViolated(
            f"third element must exceed the product of the first two, got {t}"
        )
    return s


# -- generic checks (any ternary triple) -------------------------------------


@_per_case(lambda t: combinations(t.as_tuple(), 2))
def _check_second_difference(t, pair, ind, pos):
    """|ind(n) - ind(n-a) - ind(n-b) + ind(n-a-b)| <= 1 for each element pair."""
    (ns,) = pos((0, t.product))
    a, b = pair
    d = ind(ns).astype(np.int8) - ind(ns - a) - ind(ns - b) + ind(ns - a - b)
    return _verdict(np.abs(d) > 1, ns, n=ns, pair=[a, b], value=d)


@_per_case(Triple.as_tuple)
def _check_indicator_period(t, pivot, ind, pos):
    """ind(n) = ind(n - product/pivot) unless n is a representable pivot multiple."""
    # n = i*pivot + j is a multiple of pivot where j = 0
    i, j = pos((0, t.product), split=pivot)
    ns = i * pivot + j
    here = ind(ns)
    excluded = (_axis(j) == 0) & (here == 1)
    bad = ~excluded & (here != ind(ns - t.product // pivot))
    return _verdict(bad, j, n=ns, pivot=pivot)


@_per_case(Triple.as_tuple)
def _check_multiple_period(t, pivot, ind, pos):
    """ind(k*pivot + j*shift) = ind(k*pivot) for 0 <= j < pivot, |k| < shift."""
    shift = t.product // pivot
    ks, js = pos(
        (-shift + 1, shift), (0, pivot),
        keep=lambda ks, js: js * shift < t.product - ks * pivot,
    )
    bad = ind(ks * pivot + js * shift) != ind(ks * pivot)
    return _verdict(bad, ks, k=ks, j=js, pivot=pivot)


@_per_case(Triple.as_tuple)
def _check_below_multiple(t, pivot, ind, pos):
    """ind(k*pivot - j*shift) = 0 for j >= 1, |k| < shift."""
    shift = t.product // pivot
    ks, js = pos((-shift + 1, shift), (1, pivot))
    return _verdict(ind(ks * pivot - js * shift) != 0, ks, k=ks, j=js, pivot=pivot)


@_per_case(Triple.as_tuple)
def _check_threshold_agreement(t, pivot, ind, pos):
    """Representability agrees with the semigroup threshold for every pivot."""
    shift = t.product // pivot
    # n = i*shift + j; rep depends on j only, and rep <= n // pivot iff rep*pivot - j <= i*shift
    i, j = pos((0, t.product), split=shift)
    reps = semigroup_representative(_axis(j), t, pivot)
    bad = (reps * pivot - _axis(j) <= _axis(i) * shift) != (ind(i * shift + j) == 1)
    return _verdict(bad, j, n=i * shift + j, pivot=pivot, rep=reps)


def _check_representative_residue(t, ws, rng, samples, mode):
    """The representative depends only on n mod p*q: that of t with pivot r
    equals that of the companion {p, q, s}, s = r mod p*q, with pivot s."""
    p, q, r, pq = t.p, t.q, t.r, t.p * t.q
    s = r % pq
    # exhaustive: the first period and the periods around it
    span = (-pq, 3 * pq) if mode == "exhaustive" else (0, t.product)
    i, j = _positions(rng, samples, mode, span, split=pq)
    rep_c = semigroup_representative(_axis(j), Triple(p, q, s), s)
    ns = _axis(i) * pq + _axis(j)  # the full n: the left side takes no residue
    bad = semigroup_representative(ns, t, r) != rep_c
    return _verdict(bad, j, n=ns, s=s)


def _check_coeff_shift(t, ws, rng, samples, mode):
    """a_m = a_{m-pq} unless a multiple of r sits in the two escape windows.

    The escape clause: a window (m - d - p, m - d] with d = 0 or q holds a
    multiple n of r with ind(n) or ind(n - r) set.  With m = i*r + j, the
    multiples are n = (i + e)*r with j - d - p < e*r <= j - d, a mask of
    the j row per e, and every one of them is tested.
    """
    p, q, r = t.p, t.q, t.r
    o = _oracles(ws, mode)
    i, j = _positions(rng, samples, mode, (0, t.product), split=r)
    ms, hit = i * r + j, False
    for d in (0, q):
        for e in range((-d - p) // r + 1, (r - 1 - d) // r + 1):
            n = (i + e) * r
            inside = (_axis(j) - d - p < e * r) & (e * r <= _axis(j) - d)
            hit = hit | inside & ((o.ind(n) | o.ind(n - r)) == 1)
    a, a_shift = o.coeff(ms), o.coeff(ms - p * q)
    return _verdict(~hit & (a != a_shift), ms, m=ms, a=a, a_shift=a_shift)


# -- offset-form checks (third element = p*q + s) ----------------------------


def window_sum(sigma, k: int, ms, a: int, b: int):
    """sigma(k, m) - sigma(k, m-a) - sigma(k, m-b) + sigma(k, m-a-b) for a
    window count sigma(k, ms), such as an oracle's sigma."""
    return sigma(k, ms) - sigma(k, ms - a) - sigma(k, ms - b) + sigma(k, ms - a - b)


def _check_window_split(t, ws, rng, samples, mode):
    """a_m equals the two-block window sum in the offset form."""
    s, o = _offset(t), _oracles(ws, mode)
    (ms,) = _positions(rng, samples, mode, (0, t.product))
    b1 = window_sum(o.sigma, s, ms, t.p, t.q)
    b2 = window_sum(o.sigma, t.p, ms - s, t.p * t.q, t.q)
    a = o.coeff(ms)
    return _verdict(a != b1 + b2, ms, m=ms, a=a, blocks=(b1, b2))


def _check_window_split_eval(t, ws, rng, samples, mode):
    """a_m equals the first window block plus a signed one-point correction:
    +-ind at the unique multiple of r near the windows."""
    s, o = _offset(t), _oracles(ws, mode)
    # m = i*r + j: the multiple is i*r, and the windows are ranges of j
    i, j = _positions(rng, samples, mode, (0, t.product), split=t.r)
    ms, lo, hi = i * t.r + j, *sorted((t.p, t.q))
    in_near = (s <= _axis(j)) & (_axis(j) < s + lo)
    in_far = (s + hi <= _axis(j)) & (_axis(j) < s + hi + lo)
    vals = o.ind(i * t.r).astype(np.int64)
    corr = np.where(in_near, vals, np.where(in_far, -vals, 0))
    b1 = window_sum(o.sigma, s, ms, t.p, t.q)
    a = o.coeff(ms)
    return _verdict(a != b1 + corr, ms, m=ms, a=a, block=b1, corr=corr)


def _check_companion_transfer(t, ws, rng, samples, mode):
    """ind(k*r + j) transfers to the companion triple {p, q, s} when |j| < s."""
    s, pq = _offset(t), t.p * t.q
    ind, ind_c = _oracles(ws, mode).ind, _oracles(ws.companion, mode).ind
    ks, js = _positions(rng, samples, mode, (-pq + 1, pq), (-s + 1, s))
    return _verdict(ind(ks * t.r + js) != ind_c(ks * s + js), ks, k=ks, j=js)


def _check_offset_period(t, ws, rng, samples, mode):
    """ind(k*r + j + beta*pq) = ind(k*r + j) for 0 < |j| < s, 0 < |beta| <= pq//s."""
    s, pq, r = _offset(t), t.p * t.q, t.r
    if s == 1 or s > pq:  # no admissible j, or only beta = 0: nothing to check
        return True, 0, None
    bs, ks, js = _positions(
        rng, samples, mode, (-(pq // s), pq // s + 1), (-pq + 1, pq), (-s + 1, s),
        keep=lambda bs, ks, js: (bs != 0) & (js != 0) & (js < t.product - ks * r - bs * pq),
    )
    ind = _oracles(ws, mode).ind
    bad = ind(ks * r + js + bs * pq) != ind(ks * r + js)
    return _verdict(bad, ks, k=ks, j=js, beta=bs)


def _check_companion_window(t, ws, rng, samples, mode):
    """Shifted window counts agree between the triple and its companion."""
    s, pq, r = _offset(t), t.p * t.q, t.r
    bs, ks, gs = _positions(
        rng, samples, mode, (-(pq // s), pq // s + 1), (-pq + 1, pq), (0, s),
        keep=lambda bs, ks, gs: gs < t.product - ks * r - bs * pq,
    )
    o, oc = _oracles(ws, mode), _oracles(ws.companion, mode)
    lhs = o.sigma(s, ks * r + gs + bs * pq) - o.ind(ks * r + bs * pq)
    mid = oc.sigma(s, ks * s + gs) - oc.ind(ks * s)
    rhs = oc.sigma(s, ks * s + gs - pq)
    bad = (lhs != mid) | (mid != rhs)
    return _verdict(bad, ks, k=ks, gamma=gs, beta=bs, sums=(lhs, mid, rhs))


GENERIC_CHECKS: dict[str, object] = {
    "second-difference": _check_second_difference,
    "indicator-period": _check_indicator_period,
    "multiple-period": _check_multiple_period,
    "below-multiple": _check_below_multiple,
    "threshold-agreement": _check_threshold_agreement,
    "coeff-shift": _check_coeff_shift,
}

OFFSET_CHECKS: dict[str, object] = {
    "window-split": _check_window_split,
    "window-split-eval": _check_window_split_eval,
    "companion-transfer": _check_companion_transfer,
    "offset-period": _check_offset_period,
    "companion-window": _check_companion_window,
}

IDENTITY_CHECKS: dict[str, object] = {
    **GENERIC_CHECKS,
    "representative-residue": _check_representative_residue,
    **OFFSET_CHECKS,
}


def _resolve_mode(t: Triple, mode: str) -> str:
    if mode == "auto":
        return "exhaustive" if t.product <= EXHAUSTIVE_PRODUCT_LIMIT else "sampled"
    if mode not in ("exhaustive", "sampled"):
        raise PreconditionViolated(f"unknown mode {mode!r}")
    return mode


def verify_identity(
    check_id: str, t: Triple, *, samples: int = 10_000, seed: int = 0,
    mode: str = "auto", _workspace: _Workspace | None = None,
) -> VerificationReport:
    """Run one pointwise identity check and wrap the outcome in a report."""
    if check_id not in IDENTITY_CHECKS:
        raise UnknownCheck(f"no identity check named {check_id!r}")
    if not t.is_ternary():
        raise PreconditionViolated(f"identity checks need a ternary triple, got {t}")
    if samples < 1:
        raise PreconditionViolated(f"samples must be at least 1, got {samples}")
    if seed < 0:
        raise PreconditionViolated(f"seed must be at least 0, got {seed}")
    run_mode = _resolve_mode(t, mode)
    ws, check = _workspace or _Workspace(t), IDENTITY_CHECKS[check_id]
    if run_mode == "exhaustive":  # its tables grow with the product, not the degree
        require_under_cap(ws.table_length, "workspace table length")
        passed, checked, witness = check(t, ws, None, samples, run_mode)
    else:  # one generator drawn in blocks, so memory does not grow with samples
        rng, checked = np.random.default_rng(seed), 0
        for lo in range(0, samples, _SAMPLE_BLOCK):
            passed, n, witness = check(t, ws, rng, min(_SAMPLE_BLOCK, samples - lo), run_mode)
            checked += n
            if not passed:
                break
    return VerificationReport(
        check_id, t.as_tuple(), passed, run_mode, checked, witness,
        seed=seed if run_mode == "sampled" else None,
    )


def verify_identity_bundle(
    t: Triple, check_ids: tuple[str, ...] | None = None, *,
    samples: int = 10_000, seed: int = 0, mode: str = "auto",
) -> list[VerificationReport]:
    """Run several checks on one triple, sharing one workspace."""
    ids = check_ids if check_ids is not None else tuple(IDENTITY_CHECKS)
    ws = _Workspace(t)
    return [
        verify_identity(cid, t, samples=samples, seed=seed, mode=mode, _workspace=ws)
        for cid in ids
    ]
