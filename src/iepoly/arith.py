"""Small exact-arithmetic helpers: inverses, two-generator membership and
coprime pair enumeration."""

from __future__ import annotations

from math import gcd
from typing import Iterator

from .errors import InvalidParameters, NotInvertible


def mod_inverse(a: int, modulus: int) -> int:
    """Return the inverse of a modulo modulus, in [0, modulus)."""
    if modulus < 2:
        raise InvalidParameters(f"modulus must be >= 2, got {modulus}")
    try:
        return pow(a, -1, modulus)
    except ValueError:
        raise NotInvertible(f"{a} has no inverse modulo {modulus}") from None


def in_semigroup(n: int, p: int, q: int) -> bool:
    """Whether n = x*q + y*p has a solution with integers x, y >= 0.

    p and q must be coprime and >= 2.  Runs in O(1): x is forced modulo p,
    so n is representable iff the smallest admissible x already fits.
    """
    if p < 2 or q < 2:
        raise InvalidParameters(f"generators must be >= 2, got {p}, {q}")
    if gcd(p, q) != 1:
        raise InvalidParameters(f"generators must be coprime, got {p}, {q}")
    if n < 0:
        return False
    x = n * mod_inverse(q, p) % p
    rest = n - x * q
    return rest >= 0 and rest % p == 0


def enumerate_coprime_pairs(
    p_max: int, q_max: int, *, coprime_to: int = 1, p_min: int = 3
) -> Iterator[tuple[int, int]]:
    """Coprime pairs p < q within bounds, both coprime to an extra modulus."""
    for p in range(p_min, p_max + 1):
        if gcd(p, coprime_to) != 1:
            continue
        for q in range(p + 1, q_max + 1):
            if gcd(p, q) == 1 and gcd(q, coprime_to) == 1:
                yield p, q
