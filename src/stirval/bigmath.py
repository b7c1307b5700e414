"""Exact big-integer and big-rational combinatorial kernel.

Everything here is computed exactly: Stirling cycle numbers as rising
factorial coefficients, their shifted variant, the p-adic valuations of a
whole row, binomials, Bernoulli rationals, and elementary symmetric
functions of 1, 1/2, ..., 1/n.
"""

from __future__ import annotations

import math
import operator
import threading
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, InvariantError, RowTooLargeError
from .padic import INFINITE, Prime, Valuation, _vp, as_prime, vp_factorial

__all__ = [
    "ROW_CAP",
    "BERNOULLI_CAP",
    "stirling1_row",
    "stirling1",
    "valuation_row",
    "stirling1_shifted_row",
    "stirling1_shifted",
    "binomial",
    "bernoulli",
    "harmonic_sym",
]

#: Cap on row size; a full row above this is refused.
ROW_CAP = 5000

#: Cap on Bernoulli indices.
BERNOULLI_CAP = 2000

#: Cap on harmonic rows, which are slow rather than large to build: a cold
#: harmonic_sym(n, 1) took 6.0 s at n = 600, 7.6 s at 650 and 10.9 s at 700
#: (2-vCPU VM, Python 3.11).
_HARMONIC_CAP = 650


#: With a modulus, coefficients are reduced once per this many factors.  Each
#: factor adds only ~log2(n) bits, while a reduction pass costs about as much
#: as the multiply-adds of one factor: reducing after every factor made the
#: n = 1458 row about twice as slow.
_REDUCE_EVERY = 8


def _expand_rising(n: int, shift: int, modulus: int = 0) -> list[int]:
    """Coefficients of (x+shift)(x+shift+1)...(x+shift+n-1), length n+1.

    Exact by default; with a modulus > 0 every coefficient is returned
    reduced modulo it.
    """
    c = [1] + [0] * n
    for i in range(n):
        f = shift + i
        # multiply by (x + f) in place, high k first so c[k-1] is still old
        for k in range(i + 1, 0, -1):
            c[k] = c[k] * f + c[k - 1]
        c[0] *= f
        if modulus and (i % _REDUCE_EVERY == _REDUCE_EVERY - 1 or i == n - 1):
            c = [v % modulus for v in c]
    return c


def _check_row_cap(n: int) -> None:
    # operator.index refuses a float n, which would share an int's cache key
    if operator.index(n) < 0:
        raise DomainError(f"row index must be >= 0, got {n}")
    if n > ROW_CAP:  # str() refuses ints over 4300 digits, so a huge n is shown by size
        shown = n if n < 10**4000 else f"a {int(n).bit_length()}-bit number"
        raise RowTooLargeError(f"row too large: n={shown} exceeds cap {ROW_CAP}")


def _row_top(p: int, a: int, n: int) -> int:
    """The row index a*p**n of an (a, n) cell, for n >= 0.

    For a >= 1, a*p**n >= 2**n, so an n with 2**n > ROW_CAP is refused as a
    row too large before the power is formed, so an absurd n costs nothing.
    """
    if a >= 1 and n >= ROW_CAP.bit_length():
        raise RowTooLargeError(f"row too large: n={a}*{p}^{n} exceeds cap {ROW_CAP}")
    return a * p**n


@lru_cache(maxsize=128)
def _cached_row(n: int, shift: int = 0) -> tuple[int, ...]:
    return tuple(_expand_rising(n, shift))


def stirling1_row(n: int) -> tuple[int, ...]:
    """Full unsigned row s(n, 0..n); cached per n.

    Entry k is the coefficient of x**k in x(x+1)...(x+n-1), equivalently
    the number of permutations of n elements with k cycles.
    """
    _check_row_cap(n)
    return _cached_row(n)


def stirling1(n: int, k: int) -> int:
    """Unsigned s(n, k), with s(n, k) = 0 for k > n or (k = 0, n >= 1)."""
    if n < 0 or k < 0:
        raise DomainError(f"stirling1 requires n, k >= 0, got n={n}, k={k}")
    if k > n:
        return 0
    return stirling1_row(n)[k]


def _initial_precision(p: int, n: int) -> int:
    """The first precision P tried for row n >= 1: one above v_p(s(n, 1)).

    s(n, 1) = (n-1)!, so P = v_p((n-1)!) + 1.  This is only a starting
    guess for speed, taken from the factorial rather than from any oracle;
    :func:`valuation_row` stays exact whatever it returns (>= 1).
    """
    return vp_factorial(p, n - 1).value + 1


@lru_cache(maxsize=64)
def _cached_valuation_row(p: int, n: int) -> tuple[Valuation, ...]:
    if n == 0:
        return (Valuation(0),)
    precision = _initial_precision(p, n)
    while True:
        modulus = p**precision
        residues = _expand_rising(n, 0, modulus)
        # s(n, t) >= 1 for 1 <= t <= n, so a zero residue only means
        # v_p(s(n, t)) >= precision: never read it, retry with more digits
        if all(residues[1:]):
            break
        precision *= 2
    # witness: x(x+1)...(x+n-1) is n! at x = 1, (n+1)! at x = 2 and, for n >= 2,
    # 0 at x = -1; only x = 2 sees two same-parity residues moved by +1 and -1
    if (
        (sum(residues) - math.factorial(n)) % modulus
        or (sum(r << k for k, r in enumerate(residues)) - math.factorial(n + 1)) % modulus
        or (n >= 2 and (sum(residues[::2]) - sum(residues[1::2])) % modulus)
    ):
        raise InvariantError(f"valuation row {n} mod {p}^{precision} fails its witness sums")
    return (INFINITE, *(Valuation(_vp(p, r)) for r in residues[1:]))


def valuation_row(p: int | Prime, n: int) -> tuple[Valuation, ...]:
    """The row v_p(s(n, 0..n)) of exact valuations; cached per (p, n).

    The row is built modulo p**P, with P starting at v_p((n-1)!) + 1,
    rather than exactly.  A nonzero residue has the valuation of the number
    itself; a zero residue doubles P and rebuilds the row, so every entry
    is exact, never a bound.  Entry 0 is infinite for n >= 1 (s(n, 0) = 0),
    and the single entry of n = 0 is 0.
    """
    q = as_prime(p).p
    _check_row_cap(n)
    return _cached_valuation_row(q, n)


def stirling1_shifted_row(m: int, n: int) -> tuple[int, ...]:
    """Coefficients of (x+m)(x+m+1)...(x+m+n-1), indexed by power of x."""
    if operator.index(m) < 0:
        raise DomainError(f"shift must be >= 0, got {m}")
    if n < 1:
        raise DomainError(f"shifted row requires n >= 1, got {n}")
    _check_row_cap(n)
    return _cached_row(n, m) if m else _cached_row(n)  # m = 0 is the plain row


def stirling1_shifted(m: int, n: int, k: int) -> int:
    """Shifted Stirling number: coefficient of x**k in (x+m)...(x+m+n-1).

    Unlike :func:`stirling1`, k > n is a domain error rather than 0 — the
    shifted numbers are only defined for 0 <= k <= n.
    """
    if not 0 <= k <= n:
        raise DomainError(f"shifted Stirling number needs 0 <= k <= n, got k={k}, n={n}")
    return stirling1_shifted_row(m, n)[k]


def binomial(n: int, k: int) -> int:
    """C(n, k), 0 when k > n."""
    if n < 0 or k < 0:
        raise DomainError(f"binomial requires n, k >= 0, got n={n}, k={k}")
    return math.comb(n, k)


_bernoulli_cache: list[Fraction] = [Fraction(1)]
_bernoulli_lock = threading.Lock()


def bernoulli(n: int) -> Fraction:
    """Exact n-th Bernoulli number (B_1 = -1/2 convention).

    Computed from sum(C(n+1, j) * B_j for j in 0..n) == 0 with B_0 = 1.
    """
    if n < 0:
        raise DomainError(f"bernoulli requires n >= 0, got {n}")
    if n > BERNOULLI_CAP:
        raise RowTooLargeError(f"row too large: Bernoulli index {n} exceeds cap {BERNOULLI_CAP}")
    if n >= len(_bernoulli_cache):
        # each entry depends on all before it, so one thread extends at a time
        with _bernoulli_lock:
            while len(_bernoulli_cache) <= n:
                j = len(_bernoulli_cache)
                acc = sum(math.comb(j + 1, i) * _bernoulli_cache[i] for i in range(j))
                _bernoulli_cache.append(Fraction(-acc, j + 1))
    return _bernoulli_cache[n]


#: The harmonic row at the cursor: e_k(1, 1/2, ..., 1/n) for k = 0..n, with
#: n = len - 1.  A larger n steps it forward from there, a smaller one
#: rebuilds it from n = 0; only this one row is held.
_harmonic_row: list[Fraction] = [Fraction(1)]
_harmonic_lock = threading.Lock()


def harmonic_sym(n: int, k: int) -> Fraction:
    """k-th elementary symmetric function of the reciprocals 1, 1/2, ..., 1/n.

    harmonic_sym(n, 1) is the n-th harmonic number; harmonic_sym(n, 0) == 1.
    """
    if n < 1:
        raise DomainError(f"harmonic_sym requires n >= 1, got {n}")
    if not 0 <= k <= n:
        raise DomainError(f"harmonic_sym needs 0 <= k <= n, got k={k}, n={n}")
    if n > _HARMONIC_CAP:
        raise RowTooLargeError(f"row too large: harmonic row n={n} exceeds cap {_HARMONIC_CAP}")
    row = _harmonic_row
    # the row is moved in place, so one thread moves and reads it at a time
    with _harmonic_lock:
        if n < len(row) - 1:
            del row[1:]
        for j in range(len(row), n + 1):
            inv = Fraction(1, j)
            # e(j, k) = e(j-1, k) + (1/j) e(j-1, k-1); the new entries are all
            # computed before the slice assignment, so the row is never torn
            row[1:] = [row[i] + inv * row[i - 1] for i in range(1, j)] + [inv * row[j - 1]]
        return row[k]
