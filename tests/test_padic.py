from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stirval import (
    INFINITE,
    DomainError,
    Prime,
    Valuation,
    as_prime,
    digit_sum,
    vp_factorial,
    vp_int,
    vp_rational,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 47]


def test_vp_int_examples():
    assert vp_int(3, 0) == INFINITE
    assert vp_int(3, 0).is_infinite
    assert vp_int(3, 1) == 0
    assert vp_int(3, 4536) == 4


def test_vp_int_ignores_sign():
    assert vp_int(3, -4536) == 4
    assert vp_int(2, -8) == 3


def test_vp_rational_examples():
    assert vp_rational(3, Fraction(11, 6)) == -1
    assert vp_rational(5, Fraction(1, 6)) == 0
    assert vp_rational(2, Fraction(0)) == INFINITE


def test_digit_sum_examples():
    assert digit_sum(3, 0) == 0
    assert digit_sum(3, 9) == 1
    assert digit_sum(10, 1234) == 10


def test_vp_factorial_examples():
    assert vp_factorial(3, 0) == 0
    assert vp_factorial(3, 9) == 4
    assert vp_factorial(2, 4) == 3


def test_prime_validation():
    for composite in (0, 1, 4, 9, 15, 91, 100):
        with pytest.raises(DomainError):
            Prime(composite)
    for p in (2, 3, 5, 97, 101):
        assert Prime(p).p == p


def test_as_prime_reuses_valid_primes_and_rejects_bad_input_every_call():
    assert as_prime(3) is as_prime(3)
    assert as_prime(Prime(5)) == as_prime(5)
    # 3.0 and True compare equal to cached ints (3, 1) but are still refused
    for bad in (4, 91, 1, 0, -3, 3.0, "3", None, True, False):
        for _ in range(2):
            with pytest.raises(DomainError):
                as_prime(bad)
            with pytest.raises(DomainError):
                vp_int(bad, 9)


def _legendre(p: int, n: int) -> int:
    total, q = 0, p
    while q <= n:
        total += n // q
        q *= p
    return total


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_factorial_valuation_matches_legendre_sum(p):
    """The digit-sum form must agree with the textbook floor-division sum."""
    for n in list(range(0, 2500)) + [10**5, 10**6 - 1, 10**6]:
        assert vp_factorial(p, n) == _legendre(p, n)


@given(
    n=st.integers(min_value=-(10**30), max_value=10**30).filter(lambda x: x != 0),
    p=st.sampled_from(SMALL_PRIMES),
)
def test_vp_divides_exactly(n, p):
    v = vp_int(p, n).value
    assert n % p**v == 0
    assert n % p ** (v + 1) != 0


@given(
    m=st.integers(min_value=-(10**20), max_value=10**20),
    n=st.integers(min_value=-(10**20), max_value=10**20),
    p=st.sampled_from(SMALL_PRIMES),
)
def test_vp_multiplicative(m, n, p):
    assert vp_int(p, m * n) == vp_int(p, m) + vp_int(p, n)


@given(
    m=st.integers(min_value=-(10**12), max_value=10**12),
    n=st.integers(min_value=-(10**12), max_value=10**12),
    p=st.sampled_from(SMALL_PRIMES),
)
def test_vp_ultrametric(m, n, p):
    vm, vn = vp_int(p, m), vp_int(p, n)
    vsum = vp_int(p, m + n)
    assert vsum >= min(vm, vn)
    if vm != vn:
        assert vsum == min(vm, vn)


def test_valuation_ordering_and_str():
    vals = [Valuation(3), INFINITE, Valuation(-2), Valuation(0)]
    assert sorted(vals) == [Valuation(-2), Valuation(0), Valuation(3), INFINITE]
    assert INFINITE > Valuation(10**9)
    assert str(INFINITE) == "inf"
    assert str(Valuation(-2)) == "-2"
    assert Valuation(4) == 4 and Valuation(4) <= 4 and Valuation(4) > 3


def test_valuation_arithmetic():
    assert Valuation(2) + Valuation(3) == 5
    assert Valuation(2) + 3 == 5
    assert INFINITE + Valuation(7) == INFINITE
    assert Valuation(7) + INFINITE == INFINITE
    assert Valuation(5) - Valuation(2) == 3
    assert INFINITE - Valuation(2) == INFINITE
    with pytest.raises(ValueError):
        Valuation(5) - INFINITE
    with pytest.raises(ValueError):
        int(INFINITE)
    assert int(Valuation(6)) == 6


def test_negative_inputs_rejected():
    with pytest.raises(DomainError):
        digit_sum(3, -1)
    with pytest.raises(DomainError):
        vp_factorial(3, -5)
