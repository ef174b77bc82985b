"""Parameter triples and the bounded-coordinate decomposition they induce.

For a pairwise-coprime triple {p, q, r} every integer n has a unique
representation

    n = x*q*r + y*r*p + z*p*q + delta*p*q*r,
    0 <= x < p,  0 <= y < q,  0 <= z < r,  delta an integer,

because x, y, z are forced modulo p, q, r respectively.  An integer
0 <= n < p*q*r is called representable when delta = 0; the indicator of
representable integers drives the window coefficient engine and all the
identity validators.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import NamedTuple

import numpy as np

from .arith import mod_inverse
from .errors import (
    DegreeCapExceeded,
    DomainExceeded,
    InvalidParameters,
    InvalidTriple,
    InvariantViolated,
)

DEFAULT_DEGREE_CAP = 20_000_000
DEGREE_CAP_ENV = "IEPOLY_DEGREE_CAP"

# Vectorized paths accumulate up to three table entries below p*q*r each,
# so this keeps every intermediate inside signed 64 bits.
_PRODUCT_LIMIT = 1 << 60

# Positions per indicator block: its int64 temporaries stay in cache.
_BLOCK = 1 << 16

# Largest modulus whose residue products, below its square, fit in int64:
# isqrt(2^63 - 1).
_INT64_SQRT = 3_037_000_499


def require_under_cap(n: int, what: str = "degree") -> None:
    """Refuse a size n past the degree cap, the one size limit that every
    vector and table is sized under: $IEPOLY_DEGREE_CAP, a non-negative
    integer, or DEFAULT_DEGREE_CAP when unset.  The one place that reads
    the cap and the one place that raises it."""
    env = os.environ.get(DEGREE_CAP_ENV)
    try:
        cap = DEFAULT_DEGREE_CAP if env is None else int(env)
    except ValueError:
        raise InvalidParameters(f"{DEGREE_CAP_ENV} must be an integer, got {env!r}")
    if cap < 0:
        raise InvalidParameters(f"{DEGREE_CAP_ENV} must be at least 0, got {cap}")
    if n > cap:
        raise DegreeCapExceeded(n, cap, what)


@dataclass(frozen=True)
class Triple:
    """A pairwise-coprime parameter triple, kept in the order given."""

    p: int
    q: int
    r: int

    def __post_init__(self):
        vals = (self.p, self.q, self.r)
        for v in vals:
            if not isinstance(v, int) or v < 1:
                raise InvalidTriple(f"elements must be positive integers, got {vals}")
        if sum(1 for v in vals if v < 3) > 1:
            raise InvalidTriple(f"at most one element may be below 3, got {vals}")
        for i in range(3):
            for j in range(i + 1, 3):
                if gcd(vals[i], vals[j]) != 1:
                    raise InvalidTriple(
                        f"elements must be pairwise coprime, got {vals}"
                    )
        if self.p * self.q * self.r > _PRODUCT_LIMIT:
            raise InvalidTriple(f"product {vals} exceeds the 64-bit working range")

    @property
    def product(self) -> int:
        return self.p * self.q * self.r

    def is_ternary(self) -> bool:
        """True when all three elements are >= 3."""
        return min(self.p, self.q, self.r) >= 3

    def sorted(self) -> tuple[int, int, int]:
        return tuple(sorted((self.p, self.q, self.r)))

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.p, self.q, self.r)

    def others(self, pivot: int) -> tuple[int, int]:
        """The two elements besides pivot, in stored order."""
        if pivot not in self.as_tuple():
            raise InvalidParameters(f"pivot {pivot} is not an element of {self}")
        rest = [v for v in self.as_tuple() if v != pivot]
        return (rest[0], rest[1])

    def __str__(self) -> str:
        return f"{{{self.p},{self.q},{self.r}}}"


class Representation(NamedTuple):
    x: int
    y: int
    z: int
    delta: int


def _cofactor_inverse(m: int, t: Triple) -> int:
    """(product / m)^(-1) modulo the element m of t, or 0 when m = 1."""
    return mod_inverse(t.product // m % m, m) if m > 1 else 0


@lru_cache(maxsize=128)
def _residue_tables(t: Triple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lookup tables xtab, ytab, ztab: xtab[n % p] = x_n * q * r, and
    likewise for y and z."""
    return tuple(
        np.arange(m, dtype=np.int64) * _cofactor_inverse(m, t) % m * (t.product // m)
        for m in t.as_tuple()
    )


def decompose(n: int, t: Triple) -> Representation:
    """Unique bounded-coordinate representation of n for the triple t.

    Exact in Python ints and builds no lookup table, so it serves any
    valid triple.
    """
    p, q, r = t.as_tuple()
    x, y, z = (n % m * _cofactor_inverse(m, t) % m for m in (p, q, r))
    delta, rem = divmod(n - x * q * r - y * r * p - z * p * q, t.product)
    if rem != 0:
        raise InvariantViolated(f"reconstruction failed for n={n}, t={t}")
    return Representation(x, y, z, delta)


def is_representable(n: int, t: Triple) -> bool:
    """Indicator of representable n: delta = 0 in the decomposition.

    Defined for n < product; negative n are never representable.  The
    one-element case of indicator_many, so it builds that function's
    lookup tables, of sizes p, q and r, and raises DegreeCapExceeded when
    the largest element is past the degree cap; decompose builds none.
    """
    return bool(indicator_many(n, t))


def _mod(a, m: int):
    """a % m for m >= 1; an int64 array takes a - a // m * m, which numpy
    divides without the hardware divide that `%` still uses."""
    return a % m if a.dtype == object else a - a // m * m


def mul_mod(ns: np.ndarray, c: int, m: int) -> np.ndarray:
    """ns * c mod m, exact, for a 1-D int64 array ns and 0 <= c < m.  The
    residue products reach m^2, so past _INT64_SQRT, where they would wrap
    in int64, they are taken on an array of Python ints."""
    r = _mod(ns, m)
    if m > _INT64_SQRT:
        r = r.astype(object)
    return _mod(r * c, m).astype(np.int64)


def indicator_many(ns: np.ndarray, t: Triple) -> np.ndarray:
    """Vectorized representability indicator (uint8) for int64 n < product.

    Negative entries yield 0 without special casing: the reconstructed sum
    of table entries is always nonnegative, so it can never equal n < 0.
    Works through cache-sized blocks of _BLOCK positions.  Its residue
    tables, p, q and r entries long, are refused past the degree cap on
    every call, so a cached table built under a larger cap is refused too.
    """
    ns = np.asarray(ns, dtype=np.int64)
    if ns.size and int(ns.max()) >= t.product:
        raise DomainExceeded(f"index beyond product {t.product} for {t}")
    require_under_cap(max(t.as_tuple()), "residue table length")
    xtab, ytab, ztab = _residue_tables(t)
    flat = ns.ravel()
    out = np.empty(flat.size, dtype=np.uint8)
    for lo in range(0, flat.size, _BLOCK):
        n = flat[lo : lo + _BLOCK]
        tot = xtab[_mod(n, t.p)]
        tot += ytab[_mod(n, t.q)]
        tot += ztab[_mod(n, t.r)]
        np.equal(tot, n, out=out[lo : lo + _BLOCK].view(np.bool_))
    return out.reshape(ns.shape)[()]  # [()] turns a 0-d result into a scalar


def indicator_range(t: Triple, stop: int) -> np.ndarray:
    """Representability indicator over [0, stop), stop <= product; built
    one block at a time, so only the uint8 result is sized by stop."""
    if stop > t.product:
        raise DomainExceeded(f"stop={stop} exceeds product {t.product} for {t}")
    out = np.empty(max(stop, 0), dtype=np.uint8)
    for lo in range(0, len(out), _BLOCK):
        out[lo : lo + _BLOCK] = indicator_many(np.arange(lo, min(lo + _BLOCK, stop)), t)
    return out


def semigroup_representative(n: int | np.ndarray, t: Triple, pivot: int) -> int | np.ndarray:
    """x_n*q + y_n*p, where pivot plays r and p, q are the other elements.

    Equals the smallest N >= 0 with N = x*q + y*p (x, y >= 0) in the class
    of n * pivot^(-1) modulo p*q; computed from that residue directly.
    Takes an int, giving an int, or an int64 array, giving an int64 array.
    """
    p, q = t.others(pivot)
    pq = p * q
    ns = np.asarray(n, dtype=np.int64)
    c = mul_mod(ns.reshape(-1), mod_inverse(pivot % pq, pq), pq)
    if min(p, q) > 1:
        # c is in <p, q> iff c = x*q + y*p with x = c * q^(-1) mod p, y >= 0
        x = mul_mod(c, mod_inverse(q % p, p), p)
        c = np.where(c >= x * q, c, c + pq)
    return int(c[0]) if ns.ndim == 0 else c.reshape(ns.shape)


def is_representable_via_threshold(n: int, t: Triple, pivot: int) -> bool:
    """Representability decided along an independent route.

    n is representable iff its semigroup representative for the given pivot
    does not exceed n // pivot.  Requires 0 <= n < product.
    """
    if not 0 <= n < t.product:
        raise DomainExceeded(f"n={n} is outside [0, {t.product}) for {t}")
    return semigroup_representative(n, t, pivot) <= n // pivot


def window_count(k: int, m: int | np.ndarray, t: Triple) -> int | np.ndarray:
    """Number of representable integers in the window (m-k, m].

    Takes an int m, giving an int, or an int64 array of m, giving an int64
    array.  Requires k >= 0 and m < product; the window may reach below
    zero, where nothing is representable.  Walks the window one offset at
    a time, so it holds no more than a few arrays the size of m.
    """
    if k < 0:
        raise InvalidParameters(f"window length must be >= 0, got {k}")
    ms = np.asarray(m, dtype=np.int64)
    flat = ms.ravel()
    top = int(flat.max()) if flat.size else -1
    if top >= t.product:
        raise DomainExceeded(f"m={top} is outside the domain for {t}")
    # nothing below zero counts, so no window need reach below it
    k = min(k, max(top + 1, 0))
    require_under_cap(k, "window length")
    out = np.zeros(flat.size, dtype=np.int64)
    for j in range(k):
        out += indicator_many(flat - j, t)
    return int(out[0]) if ms.ndim == 0 else out.reshape(ms.shape)
