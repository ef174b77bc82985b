"""Coefficient statistics: extreme values, height, flatness, coefficient set.

The height of a ternary triple is the literal maximum absolute coefficient.
Triples with an element s in {1, 2} carry the conventional height s - 1
instead, so that height statements stay uniform down to the degenerate
cases; the literal maximum is always reported alongside.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .engine import coeffs_series, value_run
from .errors import InvalidParameters, NotConsecutive
from .represent import Triple


@dataclass(frozen=True)
class HeightRecord:
    triple: Triple
    a_minus: int
    a_plus: int
    height: int
    literal_max: int
    flat: bool
    coeff_set: tuple[int, ...]

    def to_dict(self) -> dict:
        p, q, r = sorted(self.triple.as_tuple())
        return {
            "p": p,
            "q": q,
            "r": r,
            "a_minus": self.a_minus,
            "a_plus": self.a_plus,
            "height": self.height,
            "literal_max": self.literal_max,
            "flat": self.flat,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))


def height(t: Triple) -> HeightRecord:
    """Full coefficient statistics for one triple.

    The half vector suffices: mirror symmetry makes its value set equal to
    the full one.  Raises NotConsecutive if the observed coefficient values
    skip an integer between the extremes, which no valid input should do.
    """
    a_minus, a_plus, gap = value_run(coeffs_series(t, mode="half").coeffs)
    if gap is not None:
        raise NotConsecutive(t, gap, a_minus, a_plus)
    literal = max(abs(a_minus), abs(a_plus))
    smallest = min(t.as_tuple())
    conventional = smallest - 1 if smallest < 3 else literal
    return HeightRecord(
        triple=t,
        a_minus=a_minus,
        a_plus=a_plus,
        height=conventional,
        literal_max=literal,
        flat=(a_minus >= -1 and a_plus <= 1),
        coeff_set=tuple(range(a_minus, a_plus + 1)),
    )


def coefficient_set(t: Triple) -> tuple[int, ...]:
    """Sorted set of coefficient values; requires a fully ternary triple."""
    if not t.is_ternary():
        raise InvalidParameters(f"coefficient_set needs all elements >= 3, got {t}")
    return height(t).coeff_set


def is_flat(t: Triple) -> bool:
    """Whether every coefficient lies in {-1, 0, 1}."""
    return height(t).flat
