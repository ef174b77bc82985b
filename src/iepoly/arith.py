"""Small exact-arithmetic helpers: modular inverses and coprime pair
enumeration.  Membership in the semigroup <p, q> is decided in
represent.semigroup_representative."""

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
