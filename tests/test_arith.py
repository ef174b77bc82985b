import pytest
from hypothesis import given, strategies as st

from iepoly.arith import mod_inverse
from iepoly.errors import InvalidParameters, NotInvertible


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
