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

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import NamedTuple

import numpy as np

from .arith import mod_inverse
from .errors import DomainExceeded, InvalidParameters, InvalidTriple

# Vectorized paths accumulate up to three table entries below p*q*r each,
# so this keeps every intermediate inside signed 64 bits.
_PRODUCT_LIMIT = 1 << 60

# Positions per indicator block: its int64 temporaries stay in cache.
_BLOCK = 1 << 16

# Expanded window positions per window_count chunk, which bounds its memory.
_CHUNK = 1 << 22

# Largest modulus whose residue products, below its square, fit in int64:
# isqrt(2^63 - 1).
_INT64_SQRT = 3_037_000_499


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


class _Context:
    """Lookup tables for one triple ordering."""

    def __init__(self, t: Triple):
        self.p, self.q, self.r = t.as_tuple()
        self.product = t.product
        # xtab[n % p] = x_n * q * r, and likewise for y, z
        self.xtab, self.ytab, self.ztab = (
            np.arange(m, dtype=np.int64) * _cofactor_inverse(m, t) % m * (t.product // m)
            for m in t.as_tuple()
        )


@lru_cache(maxsize=128)
def _context(t: Triple) -> _Context:
    return _Context(t)


def decompose(n: int, t: Triple) -> Representation:
    """Unique bounded-coordinate representation of n for the triple t.

    Exact in Python ints and builds no lookup table, so it serves any
    valid triple.
    """
    p, q, r = t.as_tuple()
    x, y, z = (n % m * _cofactor_inverse(m, t) % m for m in (p, q, r))
    delta, rem = divmod(n - x * q * r - y * r * p - z * p * q, t.product)
    if rem != 0:
        raise AssertionError(f"reconstruction failed for n={n}, t={t}")
    return Representation(x, y, z, delta)


def is_representable(n: int, t: Triple) -> bool:
    """Indicator of representable n: delta = 0 in the decomposition.

    Defined for n < product; negative n are never representable.  The
    one-element case of indicator_many, so it builds that function's
    lookup tables, of sizes p, q and r.
    """
    return bool(indicator_many(n, t))


def indicator_many(ns: np.ndarray, t: Triple) -> np.ndarray:
    """Vectorized representability indicator (uint8) for int64 n < product.

    Negative entries yield 0 without special casing: the reconstructed sum
    of table entries is always nonnegative, so it can never equal n < 0.
    Works through cache-sized blocks of _BLOCK positions, and takes each
    residue as n - n // m * m: numpy divides by a scalar without a hardware
    divide, which `%` still uses.
    """
    c = _context(t)
    ns = np.asarray(ns, dtype=np.int64)
    if ns.size and int(ns.max()) >= c.product:
        raise DomainExceeded(f"index beyond product {c.product} for {t}")
    flat = ns.ravel()
    out = np.empty(flat.size, dtype=np.uint8)
    for lo in range(0, flat.size, _BLOCK):
        n = flat[lo : lo + _BLOCK]
        tot = c.xtab[n - n // c.p * c.p]
        tot += c.ytab[n - n // c.q * c.q]
        tot += c.ztab[n - n // c.r * c.r]
        np.equal(tot, n, out=out[lo : lo + _BLOCK].view(np.bool_))
    return out.reshape(ns.shape)[()]  # [()] turns a 0-d result into a scalar


def indicator_range(t: Triple, stop: int) -> np.ndarray:
    """Representability indicator over [0, stop), stop <= product."""
    c = _context(t)
    if stop > c.product:
        raise DomainExceeded(f"stop={stop} exceeds product {c.product} for {t}")
    return indicator_many(np.arange(max(stop, 0), dtype=np.int64), t)


def semigroup_representative(n: int | np.ndarray, t: Triple, pivot: int) -> int | np.ndarray:
    """x_n*q + y_n*p, where pivot plays r and p, q are the other elements.

    Equals the smallest N >= 0 with N = x*q + y*p (x, y >= 0) in the class
    of n * pivot^(-1) modulo p*q; computed from that residue directly.
    Takes an int, giving an int, or an int64 array, giving an int64 array.
    """
    p, q = t.others(pivot)
    pq = p * q
    ns = np.asarray(n, dtype=np.int64)
    # one dimension even for a scalar, so an object dtype lasts to the end
    c = ns.reshape(-1) % pq
    if pq > _INT64_SQRT:  # the residue products below would wrap in int64
        c = c.astype(object)
    c = c * mod_inverse(pivot % pq, pq) % pq
    if min(p, q) > 1:
        # c is in <p, q> iff c = x*q + y*p with x = c * q^(-1) mod p, y >= 0
        x = c % p * mod_inverse(q % p, p) % p
        c = np.where(c >= x * q, c, c + pq)
    out = c.astype(np.int64)
    return int(out[0]) if ns.ndim == 0 else out.reshape(ns.shape)


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
    zero, where nothing is representable.  Works through chunks of _CHUNK
    expanded positions.
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
    out = np.zeros(flat.size, dtype=np.int64)
    if k:
        step = max(_CHUNK // k, 1)
        offsets = np.arange(k, dtype=np.int64)
        for i in range(0, flat.size, step):
            block = flat[i : i + step, None] - offsets[None, :]
            out[i : i + step] = indicator_many(block, t).sum(axis=1, dtype=np.int64)
    return int(out[0]) if ms.ndim == 0 else out.reshape(ms.shape)
