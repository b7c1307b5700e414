"""p-adic valuations of integers, rationals and factorials.

The valuation of 0 is infinite, so results are wrapped in a small
:class:`Valuation` type that is either a finite signed integer or the
infinity element.  Finite valuations interoperate with plain ints in
comparisons and arithmetic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache, total_ordering

from .errors import DomainError, InvariantError

__all__ = [
    "Valuation",
    "INFINITE",
    "Prime",
    "as_prime",
    "vp_int",
    "vp_rational",
    "digit_sum",
    "vp_factorial",
]


def _str(x) -> str:
    """str(x), also for an int or a Fraction past str()'s int digit limit (4300
    digits by default), whose digits then come from Decimal, which has none."""
    try:
        return str(x)
    except ValueError:
        if isinstance(x, Fraction):
            num = _str(x.numerator)
            return num if x.denominator == 1 else f"{num}/{_str(x.denominator)}"
        return str(Decimal(x))


@total_ordering
class Valuation:
    """A p-adic valuation: a finite signed integer or positive infinity.

    Infinity only ever arises as the valuation of 0.  Addition absorbs
    infinity; ordering places infinity above every finite value.
    """

    __slots__ = ("_v",)

    def __init__(self, v: int | None):
        if v is not None and not isinstance(v, int):
            raise TypeError(f"finite valuation must be an int, got {type(v).__name__}")
        self._v = v

    @property
    def is_infinite(self) -> bool:
        return self._v is None

    @property
    def value(self) -> int:
        """The finite value; raises if infinite."""
        if self._v is None:
            raise ValueError("infinite valuation has no finite value")
        return self._v

    def _coerce(self, other) -> "Valuation | None":
        if isinstance(other, Valuation):
            return other
        if isinstance(other, int):
            return Valuation(other)
        return None

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._v == o._v

    def __lt__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._v is None:
            return False  # infinity is not less than anything
        if o._v is None:
            return True
        return self._v < o._v

    def __hash__(self) -> int:
        return hash(self._v)

    def __add__(self, other) -> "Valuation":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._v is None or o._v is None:
            return INFINITE
        return Valuation(self._v + o._v)

    __radd__ = __add__

    def __sub__(self, other) -> "Valuation":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o._v is None:
            raise ValueError("cannot subtract an infinite valuation")
        if self._v is None:
            return INFINITE
        return Valuation(self._v - o._v)

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        if self._v is None:
            return "inf"
        try:  # str() inline: a call to _str per value slowed warm sweeps by a few percent
            return str(self._v)
        except ValueError:  # past str()'s int digit limit
            return _str(self._v)

    def __repr__(self) -> str:
        return "Valuation(None)" if self._v is None else f"Valuation({self})"


#: The valuation of zero.
INFINITE = Valuation(None)


@dataclass(frozen=True)
class Prime:
    """A prime number, validated at construction by trial division."""

    p: int

    def __post_init__(self):
        p = self.p
        if not isinstance(p, int) or p < 2:
            raise DomainError(f"prime must be an integer >= 2, got {p!r}")
        d = 2
        while d * d <= p:
            if p % d == 0:
                raise DomainError(f"{p} is not prime (divisible by {d})")
            d += 1

    def __int__(self) -> int:
        return self.p

    def __str__(self) -> str:
        return str(self.p)


@lru_cache(maxsize=256)
def _prime_of_int(p: int) -> Prime:
    return Prime(p)


def as_prime(p: int | Prime) -> Prime:
    """Coerce an int to :class:`Prime`, validating primality.

    A valid int is validated once and its :class:`Prime` reused; anything
    else (a composite, p < 2, a non-int or a bool) raises on every call,
    since a raising call leaves nothing in the cache.
    """
    if isinstance(p, Prime):
        return p
    if type(p) is int:
        return _prime_of_int(p)
    return Prime(p)


def _vp(q: int, n: int) -> int:
    """Largest r with q**r dividing n, for a prime q and a nonzero int n."""
    if q == 2:
        return (n & -n).bit_length() - 1
    # each pass divides out q, q^2, q^4, ... while each divides, then starts over
    # at q: as cheap as a division loop for small v, O(log(v)^2) divisions for big v
    v = 0
    while n % q == 0:
        n //= q
        v += 1
        power, step = q * q, 2
        while n % power == 0:
            n //= power
            v += step
            power *= power
            step *= 2
    return v


def vp_int(p: int | Prime, n: int) -> Valuation:
    """Largest r with p**r dividing an int(-like) n; infinite for n = 0.  Sign is ignored."""
    q = as_prime(p).p
    n = operator.index(n)
    if n == 0:
        return INFINITE
    return Valuation(_vp(q, n))


def vp_rational(p: int | Prime, q: Fraction) -> Valuation:
    """Valuation of a rational: vp(numerator) - vp(denominator)."""
    num = vp_int(p, q.numerator)
    if num.is_infinite:
        return INFINITE
    return num - vp_int(p, q.denominator)


def digit_sum(p: int | Prime, n: int) -> int:
    """Sum of the base-p digits of n >= 0.

    Any base >= 2 is accepted; primality is not required for a digit sum.
    """
    q = p.p if isinstance(p, Prime) else p
    if not isinstance(q, int) or q < 2:
        raise DomainError(f"base must be an integer >= 2, got {q!r}")
    if n < 0:
        raise DomainError(f"digit_sum requires n >= 0, got {n}")
    s = 0
    while n:
        s += n % q
        n //= q
    return s


def vp_factorial(p: int | Prime, n: int) -> Valuation:
    """Valuation of n! via the digit-sum form (n - digit_sum(p, n)) / (p - 1)."""
    q = as_prime(p).p
    if n < 0:
        raise DomainError(f"vp_factorial requires n >= 0, got {n}")
    num = n - digit_sum(q, n)
    if num % (q - 1):
        raise InvariantError(f"n - digit_sum(p, n) = {num} is not divisible by p-1 = {q - 1}")
    return Valuation(num // (q - 1))
