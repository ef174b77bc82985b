import json
import sys

import pytest

import iepoly.height  # noqa: F401  - force the submodule into sys.modules
from iepoly.errors import InvalidParameters, NotConsecutive
from iepoly.height import coefficient_set, height, is_flat
from iepoly.represent import Triple

from helpers import reference_coeffs

# `iepoly.height` the attribute is shadowed by the re-exported function, so
# grab the real module object for monkeypatching
height_mod = sys.modules["iepoly.height"]


@pytest.mark.parametrize(
    "triple,expected",
    [
        ((5, 7, 3), 2),
        ((11, 13, 4), 3),
        ((3, 5, 17), 2),
        ((7, 16, 115), 3),
        ((7, 11, 5), 3),
        ((13, 43, 564), 4),
    ],
)
def test_reference_heights(triple, expected):
    assert height(Triple(*triple)).height == expected


@pytest.mark.parametrize("p,q,r", [(3, 5, 7), (5, 7, 3), (3, 5, 16), (4, 5, 21)])
def test_record_matches_oracle(p, q, r):
    ref = reference_coeffs(p, q, r)
    rec = height(Triple(p, q, r))
    assert rec.a_minus == min(ref)
    assert rec.a_plus == max(ref)
    assert rec.literal_max == max(abs(min(ref)), max(ref))
    assert rec.coeff_set == tuple(sorted(set(ref)))
    assert rec.flat == all(-1 <= c <= 1 for c in ref)


def test_degenerate_conventions():
    # smallest element 1 or 2 reports the conventional height s - 1
    assert height(Triple(5, 7, 1)).height == 0
    assert height(Triple(5, 7, 2)).height == 1
    assert height(Triple(2, 5, 7)).height == 1
    rec = height(Triple(5, 7, 2))
    assert rec.literal_max == 1  # literal value still recorded


def test_coefficient_set_consecutive():
    cs = coefficient_set(Triple(3, 5, 7))
    assert cs == (-2, -1, 0, 1)
    assert coefficient_set(Triple(3, 5, 16)) == (-1, 0, 1)
    with pytest.raises(InvalidParameters, match="needs all elements >= 3"):
        coefficient_set(Triple(3, 5, 2))


def test_is_flat():
    assert is_flat(Triple(3, 5, 16))
    assert is_flat(Triple(3, 5, 14))
    assert not is_flat(Triple(3, 5, 17))


def test_json_schema_stable():
    rec = height(Triple(5, 7, 3))
    d = json.loads(rec.to_json())
    assert list(d) == ["p", "q", "r", "a_minus", "a_plus", "height", "literal_max", "flat"]
    assert (d["p"], d["q"], d["r"]) == (3, 5, 7)  # canonical ascending order
    assert d["height"] == 2


def test_gap_detection(monkeypatch):
    # a fabricated spectrum with a hole must be rejected, not silently summarized
    import numpy as np

    class FakeHalf:
        coeffs = np.array([-2, 0, -2, 0], dtype=np.int64)  # -1 missing between -2..0

    monkeypatch.setattr(height_mod, "coeffs_series", lambda t, mode: FakeHalf())
    with pytest.raises(NotConsecutive) as err:
        height(Triple(3, 5, 7))
    assert err.value.missing == -1
