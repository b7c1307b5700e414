import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stirval import bigmath
from stirval import (
    DomainError,
    RowTooLargeError,
    bernoulli,
    binomial,
    harmonic_sym,
    stirling1,
    stirling1_row,
    stirling1_shifted,
    stirling1_shifted_row,
)


def test_row_examples():
    assert list(stirling1_row(0)) == [1]
    assert list(stirling1_row(3)) == [0, 2, 3, 1]
    # x(x+1)(x+2)(x+3) = x^4 + 6x^3 + 11x^2 + 6x
    assert list(stirling1_row(4)) == [0, 6, 11, 6, 1]


def test_stirling1_examples():
    assert stirling1(5, 5) == 1
    assert stirling1(3, 2) == 3
    assert stirling1(9, 6) == 4536


def test_stirling1_zero_extension():
    assert stirling1(3, 7) == 0
    assert stirling1(5, 0) == 0
    assert stirling1(0, 0) == 1


def test_shifted_examples():
    assert stirling1_shifted(0, 3, 2) == 3
    # (x+2)(x+3) = x^2 + 5x + 6
    assert stirling1_shifted(2, 2, 1) == 5
    assert stirling1_shifted(2, 2, 0) == 6


def test_shifted_rejects_k_above_n():
    """Unlike stirling1, the shifted variant has no zero-extension."""
    with pytest.raises(DomainError):
        stirling1_shifted(2, 3, 4)
    with pytest.raises(DomainError):
        stirling1_shifted(2, 0, 0)
    with pytest.raises(DomainError):
        stirling1_shifted(-1, 3, 1)


def test_binomial():
    assert binomial(5, 0) == 1
    assert binomial(6, 2) == 15
    assert binomial(3, 3) == 1
    assert binomial(2, 5) == 0
    with pytest.raises(DomainError):
        binomial(-1, 0)


def test_row_cap():
    with pytest.raises(RowTooLargeError, match="row too large"):
        stirling1_row(5001)
    with pytest.raises(RowTooLargeError, match="row too large"):
        stirling1_row(11, cap=10)
    with pytest.raises(RowTooLargeError):
        stirling1(6000, 3)
    # a raised cap is honored
    assert len(stirling1_row(12, cap=12)) - 1 == 12


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(5) == 0
    assert bernoulli(10) == Fraction(5, 66)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_threads_share_the_cache():
    """Threads that extend the Bernoulli cache at once must not corrupt it."""
    expected = [bernoulli(j) for j in range(201)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a race shows
    try:
        for _ in range(2):
            del bigmath._bernoulli_cache[1:]
            results = []
            threads = [
                threading.Thread(target=lambda: results.append(bernoulli(200)))
                for _ in range(4)
            ]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
                assert not th.is_alive()
            assert results == [expected[200]] * 4
            assert bigmath._bernoulli_cache == expected
    finally:
        sys.setswitchinterval(interval)
        del bigmath._bernoulli_cache[1:]


def test_bernoulli_odd_indices_vanish():
    for j in range(1, 30):
        assert bernoulli(2 * j + 1) == 0


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))


def test_bernoulli_von_staudt_clausen():
    """Denominator of B_2n is exactly the product of primes p with (p-1) | 2n."""
    for n2 in range(2, 62, 2):
        expected = math.prod(p for p in range(2, n2 + 2) if _is_prime(p) and n2 % (p - 1) == 0)
        assert bernoulli(n2).denominator == expected


def test_bernoulli_cap():
    with pytest.raises(RowTooLargeError):
        bernoulli(2001)
    with pytest.raises(DomainError):
        bernoulli(-1)


def test_harmonic_examples():
    assert harmonic_sym(7, 0) == 1
    assert harmonic_sym(3, 1) == Fraction(11, 6)
    assert harmonic_sym(3, 3) == Fraction(1, 6)
    assert harmonic_sym(4, 2) == Fraction(35, 24)


def test_harmonic_domain():
    with pytest.raises(DomainError):
        harmonic_sym(3, 4)
    with pytest.raises(DomainError):
        harmonic_sym(0, 0)


@settings(max_examples=60)
@given(n=st.integers(min_value=0, max_value=30), x=st.integers(min_value=-5, max_value=5))
def test_generating_identity(n, x):
    """The row really holds the coefficients of x(x+1)...(x+n-1)."""
    product = math.prod(x + i for i in range(n)) if n else 1
    assert product == sum(c * x**k for k, c in enumerate(stirling1_row(n)))


def test_row_sums_are_factorials():
    for n in list(range(0, 130)) + [200, 350, 500]:
        assert sum(stirling1_row(n)) == math.factorial(n)


def test_shifted_reduces_to_plain():
    for n in range(1, 51):
        assert stirling1_shifted_row(0, n) == stirling1_row(n)


@settings(max_examples=40)
@given(
    m=st.integers(min_value=0, max_value=12),
    n=st.integers(min_value=1, max_value=12),
    x=st.integers(min_value=-4, max_value=4),
)
def test_shifted_generating_identity(m, n, x):
    product = math.prod(x + m + i for i in range(n))
    row = stirling1_shifted_row(m, n)
    assert product == sum(c * x**k for k, c in enumerate(row))


def test_shifted_congruence_mod_shift():
    for m in range(1, 9):
        for n in range(1, 11):
            plain = stirling1_row(n)
            shifted = stirling1_shifted_row(m, n)
            assert all((shifted[k] - plain[k]) % m == 0 for k in range(n + 1))


def test_product_identity_small():
    # n! * harmonic_sym(n, k) recovers the next row's entries
    for n in range(1, 26):
        fact = math.factorial(n)
        for k in range(n + 1):
            assert fact * harmonic_sym(n, k) == stirling1(n + 1, k + 1)
