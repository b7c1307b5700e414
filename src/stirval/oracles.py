"""Closed-form valuation oracles for Stirling cycle numbers s(a*p^n, t).

Each oracle answers with O(1) integer arithmetic (never touching the
astronomically large Stirling numbers themselves).  The 3-adic forms are
proven; the general-p form is the conjectural evaluator, which the verify
module cross-checks differentially against exact rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import ceil, log2

from .bigmath import bernoulli, harmonic_sym
from .errors import DomainError, InvariantError, UsageError
from .padic import Prime, Valuation, _str, _vp, as_prime, vp_factorial, vp_rational

__all__ = [
    "QueryP",
    "BoundKind",
    "OracleResult",
    "thm1_valuation",
    "cor1_valuation",
    "decompose_p",
    "full_valuation_p",
    "full_valuation_3",
    "lengyel_special",
    "komatsu_young_valuation",
    "conjecture13_valuation",
    "thm2_shift_valuation",
    "max_valuation_bound",
    "h_valuation",
]

_P3 = Prime(3)


def _check_an(p: int, a: int, n: int) -> None:
    """The (a, n) domain of every s(a*p^n, .) oracle: 1 <= a <= p-1, n >= 1."""
    if not 1 <= a <= p - 1:
        raise DomainError(f"a must satisfy 1 <= a <= p-1 = {p - 1}, got {a}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")


def _check_query(p: int, a: int, n: int, m: int, k: int) -> None:
    """The (a, n, m, k) domain of :class:`QueryP`."""
    _check_an(p, a, n)
    if not 1 <= m <= n:
        raise DomainError(f"m must satisfy 1 <= m <= n, got m={m}, n={n}")
    cap = a * (p - 1) * p ** (m - 1) + 1
    if not 2 <= k <= cap:
        raise DomainError(f"k must satisfy 2 <= k <= a(p-1)p^(m-1)+1 = {_str(cap)}, got k={k}")
    if a * p**m - k < 1:
        raise DomainError(f"a*p^m - k must be >= 1, got {_str(a * p ** m - k)}")


@dataclass(frozen=True, slots=True)
class QueryP:
    """Parameters (p, a, n, m, k) addressing v_p(s(a*p^n, a*p^m - k)).

    Domain: 1 <= a <= p-1, 1 <= m <= n, 2 <= k <= a(p-1)p^(m-1)+1,
    and a*p^m - k >= 1 (the target index must stay positive; at p = 3 this
    trims k = 3 out of the a = 1, m = 1 cell).  At p = 3 the k range is
    Theorem 1's 2 <= k <= 2a*3^(m-1)+1.  The constructor checks the domain
    and raises DomainError outside it.
    """

    p: Prime
    a: int
    n: int
    m: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "p", as_prime(self.p))
        _check_query(self.p.p, self.a, self.n, self.m, self.k)

    @classmethod
    def _trusted(cls, p: Prime, a: int, n: int, m: int, k: int) -> "QueryP":
        """A query whose domain the caller has already established: no check is re-run."""
        self = object.__new__(cls)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)
        return self

    @property
    def t(self) -> int:
        """The addressed index t = a*p^m - k."""
        return self.a * self.p.p**self.m - self.k

    @property
    def epsilon_k(self) -> int:
        """Parity indicator: 0 for even k, 1 for odd k."""
        return self.k & 1

    @property
    def k_residue(self) -> int:
        """k reduced mod p-1, normalized into [0, p-2]."""
        return self.k % (self.p.p - 1) if self.p.p > 2 else 0


class BoundKind(Enum):
    EXACT = "exact"
    LOWER_BOUND = "lower_bound"
    UPPER_BOUND = "upper_bound"


@dataclass(frozen=True, slots=True)
class OracleResult:
    """A valuation answer that is exact or a one-sided bound."""

    kind: BoundKind
    value: Valuation

    def __str__(self) -> str:
        prefix = {"exact": "", "lower_bound": ">=", "upper_bound": "<="}[self.kind.value]
        return f"{prefix}{self.value}"


# Plain-int cores: the public oracle calling one has checked its arguments.
def _cell(q: int, a: int, t: int) -> tuple[int, int]:
    """(m, a*q^m) for the m with a*q^(m-1) - 1 <= t <= a*q^m - 2; see decompose_p.

    k = a*q^m - t stays within a(q-1)q^(m-1) + 1 in every cell but the
    first, where it does exactly when t >= a - 1.
    """
    if t < a - 1:
        raise DomainError(
            f"t={t} is below the bottom cell of the closed-form domain for p={q}, a={a}"
        )
    # m is the least m with a*q^m >= x = t + 2.  With b the bit length of x,
    # log_q(x/a) lies within 1/(2 log2 q) <= 1/2 of the midpoint
    # (b - 1/2 - log2 a)/log2 q, so the estimate is off by at most one (it
    # is 0 at worst, when m = 1) and one power and one step settle it
    x = t + 2
    m = ceil((x.bit_length() - 0.5 - log2(a)) / log2(q))
    cell_top = a * q**m
    if cell_top < x:
        return m + 1, cell_top * q
    if m > 1 and cell_top >= q * x:  # a*q^(m-1) >= x
        return m - 1, cell_top // q
    return m, cell_top


def _thm1(n: int, m: int, k: int, top: int, cell_top: int) -> int:
    """Theorem 1: v_3(s(top, cell_top - k)) for top = a*3^n and cell_top = a*3^m."""
    spread = top - cell_top
    if spread % 2:
        raise InvariantError(f"a*(3^n - 3^m) = {spread} is odd")
    val = spread // 2 - (n - m) * (cell_top - k) + m - 1 - _vp(3, k // 2)
    if k & 1:
        val += m + _vp(3, k)
    return val


def _conjecture13(p: int, n: int, m: int, k: int, top: int, cell_top: int) -> int:
    """The conjectural form for v_p(s(top, cell_top - k)), top = a*p^n and
    cell_top = a*p^m; see conjecture13_valuation."""
    eps = k & 1
    if p == 2:
        # a is forced to 1; proven form with the parity weight (m-1) and a
        # flat -2 - v2(floor(k/2)) correction.
        val = (top - cell_top) - (n - m) * (cell_top - k) + m - 2 - _vp(2, k // 2)
        if eps:
            val += m - 1
        return val
    spread = top - cell_top
    if spread % (p - 1):
        raise InvariantError(f"a*(p^n - p^m) = {spread} is not divisible by p-1 = {p - 1}")
    val = spread // (p - 1) - (n - m) * (cell_top - k) + m
    if eps:
        val += m + _vp(p, k)
    if (k - eps) % (p - 1) == 0:
        return val - 1 - _vp(p, k // 2)
    b = bernoulli(2 * (k % (p - 1) // 2))  # an even index >= 2, so b != 0
    return val + _vp(p, b.numerator) - _vp(p, b.denominator)


def _full(q: int, a: int, n: int, top: int, t: int) -> int:
    """v_q(s(top, t)) for top = a*q^n and 1 <= t <= top; see full_valuation_p."""
    if t == top:
        return 0
    if t == top - 1:
        # v_p(C(N, 2)) for N = a*p^n: n for odd p, n-1 for p = 2
        return n - 1 if q == 2 else n
    if q == 3:
        m, cell_top = _cell(3, a, t)
        return _thm1(n, m, cell_top - t, top, cell_top)
    if t == 1:
        # v_q((top-1)!) = (top-1 - digit sum)/(q-1), and top-1 = a*q^n - 1 has
        # the base-q digits a-1 and then n digits q-1
        return (top - a) // (q - 1) - n
    try:
        m, cell_top = _cell(q, a, t)
    except DomainError:
        raise DomainError(f"no closed form implemented for p={q}, a={a}, n={n}, t={t}; "
                          "use --method exact") from None
    return _conjecture13(q, n, m, cell_top - t, top, cell_top)


def thm1_valuation(q: QueryP) -> Valuation:
    """Closed form for v_3(s(a*3^n, a*3^m - k)) on the tiled (m, k) domain."""
    if q.p.p != 3:
        raise DomainError(f"Theorem 1 is the p = 3 form, got p={q.p}")
    a, n, m = q.a, q.n, q.m
    return Valuation(_thm1(n, m, q.k, a * 3**n, a * 3**m))


def cor1_valuation(a: int, n: int, k: int) -> Valuation:
    """The m = n specialization: v_3(s(a*3^n, a*3^n - k)) by parity of k."""
    _check_query(3, a, n, n, k)
    if k % 2 == 0:
        return Valuation(n - 1 - _vp(3, k))
    return Valuation(2 * n - 1 + _vp(3, k) - _vp(3, k - 1))


def decompose_p(p: int | Prime, a: int, n: int, t: int) -> QueryP:
    """Write t = a*p^m - k with (m, k) in the admissible set.

    m is the unique integer with a*p^(m-1) - 1 <= t <= a*p^m - 2, estimated
    from t's bit length and corrected by at most one step, whatever n is.  At p = 3 the cells tile
    [1, a*3^n - 2] exactly once each; for other p, raises DomainError when
    no cell covers t (exactly when 1 <= t <= a-2, so only for a >= 3).
    The arguments are checked once: a cell found for a checked t lies in
    the QueryP domain, so the query is built without re-running its checks.
    """
    prime = as_prime(p)
    q = prime.p
    _check_an(q, a, n)
    if not 1 <= t <= a * q**n - 2:
        raise DomainError(f"t must satisfy 1 <= t <= a*p^n - 2 = {_str(a * q ** n - 2)}, got {t}")
    m, cell_top = _cell(q, a, t)
    return QueryP._trusted(prime, a, n, m, cell_top - t)


def full_valuation_p(p: int | Prime, a: int, n: int, t: int) -> Valuation:
    """Closed-form v_p(s(a*p^n, t)) for t in [1, a*p^n].

    The top two indices are boundary values (s(N, N) = 1 and
    s(N, N-1) = C(N, 2)).  At p = 3 every lower index decomposes into
    Theorem 1's tiled domain, so the answer is proven and exact.  For other
    p, t = 1 is v_p((N-1)!) and the rest is the conjectural form; raises
    DomainError where no closed form is implemented.
    """
    q = as_prime(p).p
    _check_an(q, a, n)
    top = a * q**n
    if not 1 <= t <= top:
        raise DomainError(f"t must satisfy 1 <= t <= a*p^n = {_str(top)}, got {t}")
    return Valuation(_full(q, a, n, top, t))


def full_valuation_3(a: int, n: int, t: int) -> Valuation:
    """Exact v_3(s(a*3^n, t)) for every t in [1, a*3^n]; see :func:`full_valuation_p`."""
    _check_an(3, a, n)
    top = a * 3**n
    if not 1 <= t <= top:
        raise DomainError(f"t must satisfy 1 <= t <= a*p^n = {_str(top)}, got {t}")
    return Valuation(_full(3, a, n, top, t))


def lengyel_special(variant: str, n: int) -> Valuation:
    """Closed forms for the lowest-index columns.

    variant: "s3n_2" -> v_3(s(3^n, 2)), "s3n_3" -> v_3(s(3^n, 3)),
    "s2x3n_2" -> v_3(s(2*3^n, 2)).
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if variant == "s3n_2":
        return Valuation((3**n + 3) // 2 - 2 * n)
    if variant == "s3n_3":
        return Valuation((3**n + 3) // 2 - 3 * n)
    if variant == "s2x3n_2":
        return Valuation(3**n - 2 * n - 1)
    raise UsageError(f"unknown variant {variant!r}; expected s3n_2, s3n_3 or s2x3n_2")


def komatsu_young_valuation(p: int | Prime, k: int, r: int, m: int) -> Valuation:
    """v_p(s(n+1, k+1)) for n = k*p^r + m with 0 <= m < p^r.

    Equals v_p(n!) - v_p(k!) - k*r.
    """
    prime = as_prime(p)
    if k < 0 or r < 0 or m < 0:
        raise DomainError(f"k, r, m must be >= 0, got k={k}, r={r}, m={m}")
    if m >= prime.p**r:
        raise DomainError(f"m must satisfy 0 <= m < p^r = {_str(prime.p ** r)}, got {_str(m)}")
    n = k * prime.p**r + m
    val = vp_factorial(prime, n).value - vp_factorial(prime, k).value - k * r
    return Valuation(val)


def conjecture13_valuation(q: QueryP) -> Valuation:
    """Conjectural closed form for v_p(s(a*p^n, a*p^m - k)).

    For p = 3 this agrees with :func:`thm1_valuation` on the whole common
    domain.  For p = 2 the correction term degenerates; the proven 2-adic
    form is used instead of a literal reading of the odd-p expression
    (see the ledger note on the p = 2 branch).
    """
    p, a, n, m = q.p.p, q.a, q.n, q.m
    return Valuation(_conjecture13(p, n, m, q.k, a * p**n, a * p**m))


def thm2_shift_valuation(a: int, n: int, k: int) -> OracleResult:
    """v_3(s(a*3^n + 1, k + 1)): exact when k = a (mod 2), else a lower bound."""
    _check_an(3, a, n)
    top = a * 3**n
    if not 1 <= k <= top:
        raise DomainError(f"k must satisfy 1 <= k <= a*3^n = {_str(top)}, got {k}")
    if (k - a) % 2 == 0:
        return OracleResult(BoundKind.EXACT, Valuation(_full(3, a, n, top, k)))
    # k = top is even against a, so k + 1 <= top here
    return OracleResult(BoundKind.LOWER_BOUND, Valuation(_full(3, a, n, top, k + 1) + n))


def max_valuation_bound(a: int, n: int) -> OracleResult:
    """Sharp upper bound for v_3(s(a*3^n, t)) over all t in [1, a*3^n]."""
    _check_an(3, a, n)
    if a == 1:
        if n == 1:
            bound = 1
        elif n == 2:
            bound = 4
        else:
            bound = (3**n - 2 * n - 1) // 2
    else:
        bound = 2 if n == 1 else 3**n - n - 1
    return OracleResult(BoundKind.UPPER_BOUND, Valuation(bound))


def _as_a3n(n: int) -> tuple[int, int] | None:
    """Recognize n = a*3^N with a in {1, 2}, N >= 1; return (a, N) or None."""
    if n < 3:
        return None
    big_n = _vp(3, n)
    a = n // 3**big_n
    if big_n >= 1 and a in (1, 2):
        return a, big_n
    return None


def h_valuation(p: int | Prime, n: int, k: int) -> Valuation:
    """v_p of the k-th elementary symmetric function of 1, 1/2, ..., 1/n.

    Always computed exactly from the rational value.  When p = 3,
    n = a*3^N and k = a (mod 2) with k >= 1, the closed-form chain
    v_3(s(n+1, k+1)) - v_3(n!) must give the same answer; a disagreement
    raises InvariantError rather than being trusted away.
    """
    prime = as_prime(p)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 0 <= k <= n:
        raise DomainError(f"k must satisfy 0 <= k <= n, got k={k}, n={n}")
    exact = vp_rational(prime, harmonic_sym(n, k))
    if prime.p == 3 and k >= 1:
        form = _as_a3n(n)
        if form is not None:
            a, big_n = form
            if (k - a) % 2 == 0:
                chain = full_valuation_3(a, big_n, k) - vp_factorial(prime, n)
                if chain != exact:
                    raise InvariantError(
                        f"v_3(H({n}, {k})): closed-form chain gives {chain}, exact is {exact}"
                    )
    return exact
