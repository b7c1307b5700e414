import random
import time
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
from stirval.padic import _PRIME_BOUND, _SMALL_PRIMES, _vp, _witness

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


def test_prime_refuses_strong_pseudoprimes():
    """Trial division names a small factor; Miller-Rabin to the first 13 prime
    bases catches 3825123056546413051, a strong pseudoprime to bases 2..23."""
    assert not any(_witness(3825123056546413051, a) for a in _SMALL_PRIMES[:9])
    with pytest.raises(DomainError, match="^3825123056546413051 is not prime"):
        Prime(3825123056546413051)
    with pytest.raises(DomainError, match=r"^561 is not prime \(divisible by 3\)$"):
        Prime(561)
    for p in _SMALL_PRIMES:
        assert Prime(p).p == p


def test_prime_decides_numbers_near_2_61_at_once():
    """Trial division up to sqrt(p) took minutes here; Miller-Rabin takes microseconds."""
    start = time.perf_counter()
    assert Prime(2**61 - 1).p == 2**61 - 1
    with pytest.raises(DomainError, match="Miller-Rabin witness"):
        Prime((2**31 - 1) * 1073741789)  # two primes near 2^31 and 2^30
    assert time.perf_counter() - start < 0.5


def test_prime_refuses_p_past_the_proven_bound():
    """The bound itself is a strong pseudoprime to all 13 bases, so it would
    pass as prime; it and everything above it are refused."""
    assert not any(_witness(_PRIME_BOUND, a) for a in _SMALL_PRIMES)
    for p in (_PRIME_BOUND, _PRIME_BOUND + 2):
        with pytest.raises(DomainError, match=f"prime must be below {_PRIME_BOUND}"):
            Prime(p)
    with pytest.raises(DomainError, match="got a 20001-bit number$"):
        Prime(2**20000 + 1)
    assert Prime(10**24 + 7).p == 10**24 + 7  # prime, below the bound


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
            with pytest.raises(DomainError):
                vp_int(bad, 0)


def test_vp_int_takes_int_like_n_and_refuses_others():
    class IntLike:
        def __index__(self):
            return 18

    assert vp_int(3, IntLike()) == 2
    assert vp_int(3, True) == 0
    for bad in (Fraction(9), 9.0, "9", None):
        with pytest.raises(TypeError):
            vp_int(3, bad)


def _naive_vp(p: int, n: int) -> int:
    n, v = abs(n), 0
    while n % p == 0:
        n //= p
        v += 1
    return v


#: Exponents around where a pass of q, q^2, q^4, ... ends (2^j - 1, 2^j, 2^j + 1) up to
#: 3000, and a seeded sample between them.
_PASS_EXPONENTS = sorted(
    {v for j in range(12) for v in (2**j - 1, 2**j, 2**j + 1) if v <= 3000}
    | set(random.Random(5).sample(range(3001), 40))
    | {0, 2, 3, 5, 6, 7, 2999, 3000}
)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_vp_int_matches_division_loop(p):
    """p**v * u with u coprime to p, of 1, 40 and 200 bits, both signs."""
    rng = random.Random(p)
    for v in _PASS_EXPONENTS:
        for bits in (1, 40, 200):
            u = rng.getrandbits(bits) | 1
            while u % p == 0:
                u += 2
            n = p**v * u
            expected = _naive_vp(p, n)
            assert expected == v
            for signed in (n, -n):
                assert _vp(p, signed) == v, (p, v, bits)
                assert vp_int(p, signed) == v, (p, v, bits)
                assert vp_int(Prime(p), signed).value == v


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
    assert (repr(INFINITE), repr(Valuation(-2))) == ("Valuation(None)", "Valuation(-2)")


def test_valuation_str_past_the_int_digit_limit():
    """str() refuses ints over 4300 digits by default; a valuation prints whole."""
    v = Valuation(-(10**5000 - 1) // 9 * 7)  # -777...7, 5000 digits
    digits = "-" + "7" * 5000
    assert (str(v), repr(v)) == (digits, f"Valuation({digits})")


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
