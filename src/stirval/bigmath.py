"""Exact big-integer and big-rational combinatorial kernel.

Everything here is computed exactly: Stirling cycle numbers as rising
factorial coefficients, their shifted variant, binomials, Bernoulli
rationals, and elementary symmetric functions of 1, 1/2, ..., 1/n.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, RowTooLargeError

__all__ = [
    "ROW_CAP",
    "BERNOULLI_CAP",
    "stirling1_row",
    "stirling1",
    "stirling1_shifted_row",
    "stirling1_shifted",
    "binomial",
    "bernoulli",
    "harmonic_sym",
]

#: Default cap on row size; a full row above this is refused.
ROW_CAP = 5000

#: Default cap on Bernoulli indices.
BERNOULLI_CAP = 2000


def _expand_rising(n: int, shift: int) -> list[int]:
    """Coefficients of (x+shift)(x+shift+1)...(x+shift+n-1), length n+1."""
    coeffs = [1]
    for i in range(n):
        c = shift + i
        nxt = [0] * (len(coeffs) + 1)
        for k, v in enumerate(coeffs):
            nxt[k] += v * c
            nxt[k + 1] += v
        coeffs = nxt
    return coeffs


def _check_row_cap(n: int, cap: int) -> None:
    if n < 0:
        raise DomainError(f"row index must be >= 0, got {n}")
    if n > cap:
        raise RowTooLargeError(f"row too large: n={n} exceeds cap {cap}")


@lru_cache(maxsize=64)
def _cached_row(n: int) -> tuple[int, ...]:
    return tuple(_expand_rising(n, 0))


def stirling1_row(n: int, *, cap: int = ROW_CAP) -> tuple[int, ...]:
    """Full unsigned row s(n, 0..n); cached per n.

    Entry k is the coefficient of x**k in x(x+1)...(x+n-1), equivalently
    the number of permutations of n elements with k cycles.
    """
    _check_row_cap(n, cap)
    return _cached_row(n)


def stirling1(n: int, k: int, *, cap: int = ROW_CAP) -> int:
    """Unsigned s(n, k), with s(n, k) = 0 for k > n or (k = 0, n >= 1)."""
    if n < 0 or k < 0:
        raise DomainError(f"stirling1 requires n, k >= 0, got n={n}, k={k}")
    if k > n:
        return 0
    return stirling1_row(n, cap=cap)[k]


@lru_cache(maxsize=64)
def _cached_shifted_row(m: int, n: int) -> tuple[int, ...]:
    return tuple(_expand_rising(n, m))


def stirling1_shifted_row(m: int, n: int, *, cap: int = ROW_CAP) -> tuple[int, ...]:
    """Coefficients of (x+m)(x+m+1)...(x+m+n-1), indexed by power of x."""
    if m < 0:
        raise DomainError(f"shift must be >= 0, got {m}")
    if n < 1:
        raise DomainError(f"shifted row requires n >= 1, got {n}")
    _check_row_cap(n, cap)
    return _cached_shifted_row(m, n)


def stirling1_shifted(m: int, n: int, k: int, *, cap: int = ROW_CAP) -> int:
    """Shifted Stirling number: coefficient of x**k in (x+m)...(x+m+n-1).

    Unlike :func:`stirling1`, k > n is a domain error rather than 0 — the
    shifted numbers are only defined for 0 <= k <= n.
    """
    if not 0 <= k <= n:
        raise DomainError(f"shifted Stirling number needs 0 <= k <= n, got k={k}, n={n}")
    return stirling1_shifted_row(m, n, cap=cap)[k]


def binomial(n: int, k: int) -> int:
    """C(n, k), 0 when k > n."""
    if n < 0 or k < 0:
        raise DomainError(f"binomial requires n, k >= 0, got n={n}, k={k}")
    return math.comb(n, k)


_bernoulli_cache: list[Fraction] = [Fraction(1)]
_bernoulli_lock = threading.Lock()


def bernoulli(n: int, *, cap: int = BERNOULLI_CAP) -> Fraction:
    """Exact n-th Bernoulli number (B_1 = -1/2 convention).

    Computed from sum(C(n+1, j) * B_j for j in 0..n) == 0 with B_0 = 1.
    """
    if n < 0:
        raise DomainError(f"bernoulli requires n >= 0, got {n}")
    if n > cap:
        raise RowTooLargeError(f"row too large: Bernoulli index {n} exceeds cap {cap}")
    if n >= len(_bernoulli_cache):
        # each entry depends on all before it, so one thread extends at a time
        with _bernoulli_lock:
            while len(_bernoulli_cache) <= n:
                j = len(_bernoulli_cache)
                acc = sum(math.comb(j + 1, i) * _bernoulli_cache[i] for i in range(j))
                _bernoulli_cache.append(Fraction(-acc, j + 1))
    return _bernoulli_cache[n]


@lru_cache(maxsize=8)
def _harmonic_row(n: int) -> tuple[Fraction, ...]:
    """Elementary symmetric functions e_k(1, 1/2, ..., 1/n) for k = 0..n."""
    row = [Fraction(1)] + [Fraction(0)] * n
    for j in range(1, n + 1):
        inv = Fraction(1, j)
        # e(j, k) = e(j-1, k) + (1/j) e(j-1, k-1); update in place, high k first
        for k in range(j, 0, -1):
            row[k] += inv * row[k - 1]
    return tuple(row)


def harmonic_sym(n: int, k: int) -> Fraction:
    """k-th elementary symmetric function of the reciprocals 1, 1/2, ..., 1/n.

    harmonic_sym(n, 1) is the n-th harmonic number; harmonic_sym(n, 0) == 1.
    """
    if n < 1:
        raise DomainError(f"harmonic_sym requires n >= 1, got {n}")
    if not 0 <= k <= n:
        raise DomainError(f"harmonic_sym needs 0 <= k <= n, got k={k}, n={n}")
    return _harmonic_row(n)[k]
