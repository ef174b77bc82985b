import pytest
from hypothesis import given, strategies as st

from iepoly.arith import in_semigroup, mod_inverse
from iepoly.errors import InvalidParameters, NotInvertible

from helpers import brute_in_semigroup


def test_mod_inverse():
    assert mod_inverse(3, 7) == 5
    with pytest.raises(NotInvertible):
        mod_inverse(6, 9)
    with pytest.raises(InvalidParameters):
        mod_inverse(3, 1)  # modulus below the module's contract


@given(st.integers(2, 10**6), st.integers(-10**6, 10**6))
def test_mod_inverse_property(m, a):
    from math import gcd

    if gcd(a, m) != 1:
        with pytest.raises(NotInvertible):
            mod_inverse(a, m)
    else:
        assert a * mod_inverse(a, m) % m == 1


@pytest.mark.parametrize("p,q", [(3, 5), (5, 7), (4, 9), (3, 11)])
def test_in_semigroup_matches_brute(p, q):
    for n in range(-5, 3 * p * q):
        assert in_semigroup(n, p, q) == brute_in_semigroup(n, p, q), n


@given(st.integers(0, 30), st.integers(0, 30))
def test_semigroup_members_accepted(x, y):
    assert in_semigroup(x * 8 + y * 13, 13, 8)
