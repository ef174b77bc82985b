"""Two independent exact engines for the coefficient vector.

The polynomial attached to a pairwise-coprime triple {p, q, r} is

    (1 - z^pqr)(1 - z^p)(1 - z^q)(1 - z^r)
    --------------------------------------
    (1 - z^pq)(1 - z^qr)(1 - z^rp)(1 - z)

of degree (p-1)(q-1)(r-1).  The series engine evaluates that quotient as a
truncated power series over int64.  With (u, v, w) the sorted triple, it
writes the series of 1/Q_uv(z) = (1 + z + ... + z^(u-1))(1 - z^v) /
(1 - z^uv) into the zeroed vector as its period uv repeated: +1 at offsets
[0, u), -1 at [v, v + u).  Three linear passes follow: x(1 - z^w), a lagged
subtraction, then /(1 - z^vw) and /(1 - z^wu), strided running sums;
(1 - z^uvw) is left out, since uvw > degree.  The window engine instead
counts representable integers in four sliding windows derived from the
decomposition; the two routes share no code beyond the triple itself,
which is what makes their agreement a meaningful check.  coefficient_at,
which reads single coefficients for the sampled identity checks, is a
third route that shares nothing with either engine: it sums 2u entries of
the binary polynomial Q_uv, built from its closed form.

Window engine.  With W(j) the count of representable integers in the
length-u window ending at j, a_m = W(m) - W(m-v) - W(m-w) + W(m-v-w), and
W is the prefix sum of ind * (1 - z^u).  So the vector is the prefix sum of
d = ind * (1 - z^u)(1 - z^v)(1 - z^w); each factor at most doubles max |d|,
so d lies in [-4, 4] and fits the indicator's own bytes, read as int8.

Intermediate bound.  Let the series hold n <= degree + 1 entries.  The
written stage has |c| <= 1 (for u = 1 the degree is 0, and it writes c[0]
= 1 alone).  x(1 - z^w) sets c[i] - c[i-w], so |c| <= 2.  /(1 - z^b) sets
c[i] to the sum of c[i - k*b] over k >= 0, at most ceil(n/b) terms; as
n - 1 <= (u-1)(v-1)(w-1), that is at most u terms for b = vw and v for
b = wu, so |c| <= 2u and then |c| <= 2uv.  As uv <= (uvw)^(2/3) <= 2^40
for every Triple (product <= 2^60), int64 holds every intermediate at any
degree cap, and no run-time guard is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .arith import mod_inverse
from .errors import DomainExceeded, InvalidParameters, InvalidTriple, InvariantViolated
from .represent import Triple, indicator_range, mul_mod, require_under_cap

# Entries per block of the lagged subtraction in _multiply_factor and of
# the consecutive-run check in value_run.
_BLOCK = 1 << 16

ENGINE_SERIES = "series"
ENGINE_WINDOW = "window"


def degree(t: Triple) -> int:
    return (t.p - 1) * (t.q - 1) * (t.r - 1)


def value_run(values: np.ndarray) -> tuple[int, int, int | None]:
    """(lo, hi, gap) of a non-empty integer array: its extremes and the
    smallest integer between them it does not hold, None if none is missing.

    n values leave a gap at or below lo + n, so only offsets up to
    min(hi - lo, n) are marked, one block of values at a time: no
    allocation is sized by the span.
    """
    lo, hi = int(values.min()), int(values.max())
    wide = hi - lo >= len(values)
    seen = np.zeros(min(hi - lo, len(values)) + 1, dtype=np.bool_)
    for i in range(0, len(values), _BLOCK):
        offsets = values[i : i + _BLOCK] - lo
        seen[offsets[offsets < len(seen)] if wide else offsets] = True
    gap = int(seen.argmin())
    return lo, hi, None if seen[gap] else lo + gap


@dataclass(eq=False)
class CoefficientVector:
    """Coefficients a_0..a_degree (or the lower half) of one polynomial."""

    triple: Triple
    degree: int
    coeffs: np.ndarray = field(repr=False)
    engine: str
    half: bool = False

    def __len__(self) -> int:
        return len(self.coeffs)

    @staticmethod
    def stored_length(degree: int, half: bool) -> int:
        """Entries stored for a vector of this degree: a_0..a_{degree//2}
        when half, else all degree + 1."""
        return degree // 2 + 1 if half else degree + 1

    def lower_half(self) -> CoefficientVector:
        """The same polynomial storing only its lower half, as a view."""
        n = self.stored_length(self.degree, True)
        return replace(self, coeffs=self.coeffs[:n], half=True)

    def coefficient(self, m: int | np.ndarray) -> int | np.ndarray:
        """a_m for an int m (an int) or an int64 array of m (an int64 array);
        0 outside [0, degree], and a_(degree-m) past the end of a half vector."""
        ms = np.asarray(m, dtype=np.int64)
        idx = np.clip(ms, 0, self.degree)
        if self.half:
            idx = np.minimum(idx, self.degree - idx)
        out = np.where((ms >= 0) & (ms <= self.degree), self.coeffs[idx], 0)
        return int(out) if ms.ndim == 0 else out

    def validate(self) -> None:
        """Structural self-checks; raises InvariantViolated on violation.

        A half vector is checked on its stored entries alone, never mirrored.
        Explicit raises rather than asserts, so the checks survive python -O.
        """
        c = self.coeffs
        _require(len(c) == self.stored_length(self.degree, self.half), "wrong vector length")
        _require(c[0] == 1, "leading coefficient must be 1")
        _require(self.half or c[-1] == 1, "trailing coefficient must be 1")
        total = int(c.sum())
        if self.half:  # the mirror repeats every entry but the middle of an even degree
            total = 2 * total - (int(c[-1]) if self.degree % 2 == 0 else 0)
        _require(total == 1, "coefficients must sum to 1")
        low = c[: self.degree // 2 + 1]  # a palindrome's values all lie here
        palindrome = self.half or np.array_equal(low, c[::-1][: len(low)])
        _require(palindrome, "vector must be palindromic")
        _require(value_run(low)[2] is None, "coefficient values must form a consecutive run")


def _require(ok, message: str) -> None:
    if not ok:
        raise InvariantViolated(message)


def _multiply_factor(c: np.ndarray, a: int) -> None:
    """c *= (1 - z^a), truncated, in blocks from the top down.

    A block reads only entries below it that are not yet updated, so numpy
    buffers at most one block of the overlap, never the whole array.
    """
    for hi in range(len(c), a, -_BLOCK):
        lo = max(hi - _BLOCK, a)
        c[lo:hi] -= c[lo - a : hi - a]


def _divide_factor(c: np.ndarray, b: int) -> None:
    """c *= 1/(1 - z^b), truncated: c[i] += c[i-b] in increasing order, one
    length-b row at a time (numpy's accumulate down a (-1, b) view loops
    along its short columns, several times slower)."""
    for lo in range(b, len(c), b):
        c[lo : lo + b] += c[lo - b : min(lo, len(c) - b)]


def coeffs_series(t: Triple, mode: str = "full") -> CoefficientVector:
    """Coefficient vector via truncated power-series arithmetic.

    mode "full" computes all degree+1 coefficients; "half" computes
    indices 0..degree//2 and leaves the rest to the mirror symmetry.
    Handles every valid triple, including ones with an element 1 or 2.
    """
    if mode not in ("full", "half"):
        raise InvalidParameters(f"mode must be 'full' or 'half', got {mode!r}")
    deg = degree(t)
    require_under_cap(deg)
    u, v, w = t.sorted()
    c = np.zeros(CoefficientVector.stored_length(deg, mode == "half"), dtype=np.int64)
    # the series of 1/Q_uv, whole periods as rows and then the cut last one;
    # this order keeps |c| <= 2uv after every pass, see the module docstring
    whole = len(c) // (u * v) * (u * v)
    for rows in (c[:whole].reshape(-1, u * v), c[whole:].reshape(1, -1)):
        rows[:, :u] = 1
        rows[:, v : v + u] = -1
    _multiply_factor(c, w)
    _divide_factor(c, v * w)
    _divide_factor(c, w * u)
    return CoefficientVector(
        triple=t, degree=deg, coeffs=c, engine=ENGINE_SERIES, half=(mode == "half")
    )


def coeffs_window(t: Triple) -> CoefficientVector:
    """Coefficient vector via representability window counts.

    a_m is an alternating sum of four length-u window counts, where u is
    the smallest element (any element gives the same vector).  Only fully
    ternary triples are supported here.
    """
    if not t.is_ternary():
        raise InvalidTriple(f"window engine needs all elements >= 3, got {t}")
    deg = degree(t)
    require_under_cap(deg)
    # the indicator times (1 - z^u)(1 - z^v)(1 - z^w), in place as int8;
    # numpy reads each overlapping operand as if copied first
    d = indicator_range(t, deg + 1).view(np.int8)
    for k in t.sorted():
        d[k:] -= d[:-k]
    coeffs = d.astype(np.int64)  # summed in place: no int64 temporary
    np.cumsum(coeffs, out=coeffs)
    return CoefficientVector(
        triple=t, degree=deg, coeffs=coeffs, engine=ENGINE_WINDOW, half=False
    )


def _binary_table(u: int, v: int) -> np.ndarray:
    """Coefficients b_0..b_(uv-1) of the binary polynomial
    Q_uv(z) = (1 - z^uv)(1 - z) / ((1 - z^u)(1 - z^v)), as int8.

    Lam and Leung's closed form (Amer. Math. Monthly 103, 1996): with
    rho = u^(-1) mod v - 1 and sigma = v^(-1) mod u - 1, so that
    rho*u + sigma*v = (u-1)(v-1), b_k = 1 at k = i*u + j*v with i <= rho
    and j <= sigma, b_k = -1 at k = i*u + j*v - uv with rho < i < v and
    sigma < j < u, and b_k = 0 elsewhere; one strided run per j.
    """
    rho, sigma = mod_inverse(u, v) - 1, mod_inverse(v, u) - 1
    b = np.zeros(u * v, dtype=np.int8)
    for j in range(u):
        if j <= sigma:
            b[j * v : j * v + rho * u + 1 : u] = 1
        else:
            b[(rho + 1) * u + j * v - u * v : j * v - u + 1 : u] = -1
    return b


def coefficient_at(t: Triple, m: int | np.ndarray) -> int | np.ndarray:
    """Coefficient a_m without materializing the vector.

    Takes an int m, giving an int, or an int64 array of m, giving an int64
    array.  Valid for -product < m < product; indices outside [0, degree]
    give 0.

    With (u, v, w) the sorted triple, Q_uvw(z) = Q_uv(z^w) / Q_uv(z)
    (Kaplan's lemma, J. Number Theory 127, 2007).  1/Q_uv(z) is the
    period-uv series +1 on offsets [0, u) and -1 on [v, v + u), and the
    entry b_k of Q_uv(z^w) sits at k*w.  An offset j meets the one
    k = f(j) = (m - j) * w^(-1) mod uv, so a_m is the sum of
    b_f(j) * [f(j)*w <= m] over j in [0, u), minus that over j in
    [v, v + u).  Two walkers, from j = 0 and j = v, step f by -w^(-1).
    """
    if not t.is_ternary():
        raise InvalidTriple(f"single-coefficient path needs a ternary triple, got {t}")
    ms = np.asarray(m, dtype=np.int64)
    if ms.size:
        lo, hi = int(ms.min()), int(ms.max())
        if not -t.product < lo <= hi < t.product:
            bad = lo if lo <= -t.product else hi
            raise DomainExceeded(f"m={bad} is outside (-{t.product}, {t.product}) for {t}")
    u, v, w = t.sorted()
    uv = u * v
    require_under_cap(uv, "binary table length")
    b = _binary_table(u, v)
    w_inv = mod_inverse(w % uv, uv)
    flat = ms.reshape(-1)
    f = np.stack([mul_mod(flat, w_inv, uv), mul_mod(flat - v, w_inv, uv)])
    reach = flat // w  # f*w <= m iff f <= m // w, which is negative for m < 0
    sums = np.zeros_like(f)
    term = np.empty(f.shape, dtype=np.int8)
    for _ in range(u):
        np.take(b, f, out=term)
        term *= f <= reach
        sums += term
        f -= w_inv
        f += (f >> 63) & uv  # uv where f fell below 0; a masked add is ~10x slower
    out = sums[0] - sums[1]
    return int(out[0]) if ms.ndim == 0 else out.reshape(ms.shape)
