"""Exact big-integer and big-rational combinatorial kernel.

Everything here is computed exactly: Stirling cycle numbers as rising
factorial coefficients, their shifted variant, the p-adic valuations of a
whole row, binomials, Bernoulli rationals, and elementary symmetric
functions of 1, 1/2, ..., 1/n.
"""

from __future__ import annotations

import math
import operator
import sys
import threading
from collections import OrderedDict
from collections.abc import Callable, Iterable
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Rounded
from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate, repeat

from .errors import DomainError, InvariantError, RowTooLargeError
from .padic import INFINITE, Prime, Valuation, _str, _vp, as_prime, vp_factorial

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
    return _linear_product(range(shift, shift + n), n + 1, modulus)


def _linear_product(factors: Iterable[int], size: int, modulus: int = 0) -> list[int]:
    """The first size coefficients of the product of x + f over factors f, exact,
    or each reduced mod modulus > 0."""
    c = [1] + [0] * (size - 1)
    for i, f in enumerate(factors):
        # multiply by (x + f) in place, high k first so c[k-1] is still old
        for k in range(min(i + 1, size - 1), 0, -1):
            c[k] = c[k] * f + c[k - 1]
        c[0] *= f
        if modulus and i % _REDUCE_EVERY == _REDUCE_EVERY - 1:
            c = [v % modulus for v in c]
    return [v % modulus for v in c] if modulus else c


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


#: Byte budget of the row store, as counted by _row_bytes.  Two exact rows
#: at ROW_CAP (19 MiB each, and 33 s to build on a 2-vCPU VM) fit, so
#: repeated lookups in a cap-sized row never rebuild it; the 776 rows of one
#: identity-report benchmark pass (seed 1001) take 1.6 MiB.
_ROW_CACHE_BYTES = 64 << 20

#: The row store, least recently used first: exact rows by (n, shift) and valuation
#: rows by (p, n, _VALUATIONS), held as (row, size), and residue rows by
#: (p, n, _RESIDUES), held as (row, size, modulus); _rows_held sums the sizes.
_rows: OrderedDict[tuple, tuple] = OrderedDict()
_rows_held = 0
_rows_lock = threading.Lock()

#: The last part of a residue or valuation row's key: never an (n, shift) key.
_RESIDUES = "residues"
_VALUATIONS = "valuations"


def _row_bytes(row: tuple) -> int:
    """Approximate bytes held by a row: per int entry its magnitude, plus a tuple
    slot and an int header (40 bytes together); per Valuation entry 48 bytes."""
    if isinstance(row[0], Valuation):
        return 48 * len(row)
    return sum(40 + (v.bit_length() >> 3) for v in row)


def _hold(key: tuple, entry: tuple) -> None:
    """Hold entry (row, size, ...) under key, replacing what key held, and
    evict least recently used rows down to the budget; call under _rows_lock."""
    global _rows_held
    replaced = _rows.pop(key, None)
    if replaced is not None:
        _rows_held -= replaced[1]
    _rows[key] = entry
    _rows_held += entry[1]
    while _rows_held > _ROW_CACHE_BYTES:
        _, evicted = _rows.popitem(last=False)
        _rows_held -= evicted[1]


def _held_row(key: tuple, build: Callable[[], Iterable]) -> tuple:
    """The row held under key, or the row build() gives, held under key;
    a row that build() refuses with an error is never held."""
    with _rows_lock:
        held = _rows.get(key)
        if held is not None:
            _rows.move_to_end(key)
            return held[0]
    # built outside the lock, so one slow row does not hold up other lookups
    row = tuple(build())
    with _rows_lock:
        held = _rows.get(key)
        if held is not None:  # another thread stored it first: share its tuple
            _rows.move_to_end(key)
            return held[0]
        _hold(key, (row, _row_bytes(row)))
    return row


def stirling1_row(n: int) -> tuple[int, ...]:
    """Full unsigned row s(n, 0..n); held in the row store.

    Entry k is the coefficient of x**k in x(x+1)...(x+n-1), equivalently
    the number of permutations of n elements with k cycles.
    """
    _check_row_cap(n)
    return _held_row((n, 0), lambda: _expand_rising(n, 0))


def stirling1(n: int, k: int) -> int:
    """Unsigned s(n, k), with s(n, k) = 0 for k > n or (k = 0, n >= 1)."""
    n, k = operator.index(n), operator.index(k)
    if n < 0 or k < 0:
        raise DomainError(f"stirling1 requires n, k >= 0, got n={n}, k={k}")
    if k > n:
        return 0
    return stirling1_row(n)[k]


def _initial_precision(p: int, n: int) -> int:
    """The first precision P tried for a row n >= 1 read as one band: P = v_p(n!) + 1,
    and v_p(n!) + 2 when p^2 > n.

    v_p(n!) + 1 is one above v_p(s(n, 1)) = v_p((n-1)!), plus v_p(n), so the
    row held for row n also serves row n + 1 whenever p does not divide n + 1
    (row N + 1 is then row N times x + N; p^2 > n gives p^2 > n + 1, as
    p^2 = n + 1 would have p | n + 1).
    For p^2 > n an entry can reach v_p(n!) + 1: rows 2500 and 4955 at
    p = 2477 did, and were built twice.  This is only a starting guess for
    speed, taken from the factorial rather than from any oracle;
    :func:`valuation_row` stays exact whatever it returns (>= 1).
    """
    return vp_factorial(p, n).value + 1 + (p * p > n)


def _high_precision(p: int, n: int) -> int:
    """The first precision tried for every band of a row n read in levels
    (:func:`_read_levels`): a few digits, from n alone.  At row 1458, p = 3,
    it is 22, and the seven bands need P = 18, 15, 12, 9, 6, 3 and 1: an
    entry of band l has valuation E_l - l k + v_p(P_l[k]), so the digits
    that E_l - l k carries are never held.  A starting guess only, like
    :func:`_initial_precision`."""
    return 2 * n.bit_length()


#: Rows from this size up are built by residue-class splitting.  Timed on a
#: 2-vCPU VM (Python 3.11, best of 7): the loop and the split were even near
#: N = 160 (3.2 against 3.4 ms at p = 3, N = 162), and from N = 200 the split
#: was ahead at almost every N and p in 2..11 (4.1 against 5.2 ms at p = 3,
#: N = 243; 0.21 against 0.34 s at N = 1458).  For p from 17 to 2477 it was
#: ahead from m = n // p = 2 up (0.41 against 0.047 s at p = 2477, N = 2500)
#: and even at m = 1 (N near 200, p near 100).
_SPLIT_FROM = 200

#: Units at which a residue row is checked besides x = 1, 2, -1: the first
#: two that p does not divide.
_WITNESS_UNITS = (3, 5, 7)


def _residue_row(p: int, n: int, modulus: int) -> list[int]:
    """The residue kernel: the row of x(x+1)...(x+n-1), each entry reduced
    modulo ``modulus``, a power of p, as a fresh list.

    A row held at a modulus that ``modulus`` divides is reduced from it.
    Otherwise a held row n - 1, at any n, gives row n as its product with
    x + n - 1 (a cold p = 3 sweep reads row 163 at two precisions while row
    162 is held, and so rows 82 and 55); failing that the row is built, by
    the loop below _SPLIT_FROM and by :func:`_split_rising` from there up,
    however wide its packed slots.  A built or derived row is held,
    replacing a less precise one.
    """
    row = _held_residues(p, n, modulus)
    if row is not None:
        return row
    below = _held_residues(p, n - 1, modulus)
    if below is not None:
        row = _times_linear(below, n - 1, modulus)
    elif n < _SPLIT_FROM:
        row = _expand_rising(n, 0, modulus)
    else:
        row = _split_rising(p, n, modulus)
    held, key = tuple(row), (p, n, _RESIDUES)
    with _rows_lock:
        other = _rows.get(key)
        if other is None or other[2] < modulus:  # else a thread held it at least as precisely
            _hold(key, (held, _row_bytes(held), modulus))
    return row


def _held_residues(p: int, n: int, modulus: int) -> list[int] | None:
    """Row n's residues mod modulus as a fresh list, if row n is held at a
    modulus that modulus divides, else None."""
    key = (p, n, _RESIDUES)
    with _rows_lock:
        held = _rows.get(key)
        if held is None or held[2] < modulus:
            return None
        _rows.move_to_end(key)
    row, _, held_modulus = held
    return list(row) if held_modulus == modulus else [v % modulus for v in row]


def _drop_residues(p: int) -> None:
    """Drop every held residue row at p: a refused row may have read any of
    them, through its chain, its splits and its unit factors."""
    global _rows_held
    with _rows_lock:
        for key in [key for key in _rows if key[0] == p and key[-1] == _RESIDUES]:
            _rows_held -= _rows.pop(key)[1]


def _times_linear(c: list[int], f: int, modulus: int) -> list[int]:
    """The coefficients of (x + f) c(x), each reduced mod modulus."""
    return [(low * f + high) % modulus for low, high in zip(c + [0], [0] + c)]


def _split_rising(p: int, n: int, modulus: int) -> list[int]:
    """The residue row of x(x+1)...(x+n-1) from that of x(x+1)...(x+m-1), n = dm + r.

    Grouping the factors x + j of x(x+1)...(x+dm-1) by j mod d (Lemmas 2.4
    and 2.5, which hold for any d >= 2) gives Q(x) Q(x+1) ... Q(x+d-1), where
    Q(z) = prod_{i<m} (z + id) = sum_k s(m, k) d^(m-k) z^k; the r factors
    x + dm, ..., x + n - 1 follow; :func:`_copies` makes each Q(x+j).  Mod
    p^P with d = p only the top P coefficients of Q are nonzero, so once
    n // p > 2P, d = p and each copy takes O(m) steps from the top P entries
    of row m, not an O(m^2) Taylor shift.  Otherwise d is the smallest
    divisor of n in [2, p] (r = 0), or p if n has none, and each copy is a
    Taylor shift of Q.  Row m comes from :func:`_residue_row`, so it is held
    too: a largest-first grid at p = 3 splits row 2*3^6 by 3 into row 2*3^5,
    that into row 2*3^4, and so on, each a row the grid reads.  Splitting by
    d = p also where Q has at most P terms won at (2477, 4954) and
    (997, 4985) but lost up to 1.7 times at p <= 101 (BENCH_22.json).
    """
    precision = _vp(p, modulus)
    top = n // p > 2 * precision
    d = p if top else next((d for d in range(2, p) if n % d == 0), p)
    m, r = divmod(n, d)
    skip = m - precision + 1 if top else 0
    factors = _copies(_residue_row(p, m, modulus)[skip:], skip, d, modulus)
    if r:
        factors.append(_expand_rising(r, d * m, modulus))
    return [0] * skip + _product(factors, modulus)


def _copies(top: list[int], skip: int, d: int, modulus: int, terms: int | None = None) -> list[list[int]]:
    """R(x), (x+1)^skip R(x+1), ..., (x+d-1)^skip R(x+d-1) mod modulus from the
    entries s(m, skip..m) of row m, where Q(x) = prod_{i<m} (x + id) =
    x^skip R(x); with terms, only the first terms coefficients of each.

    Coefficient k of Q is s(m, k) d^(m-k), so mod p^P with d = p only its
    top P, k > m - P, are nonzero: Q(x+j) needs a shift of R's P terms and
    the binomial row (x+j)^skip, not an O(m^2) shift of row m.  At skip = 0,
    R = Q and each copy is a Taylor shift of the one before.
    """
    # d^(m-k) for entry k, by a running power: top[-1] is s(m, m)
    powers = accumulate(repeat(d, len(top) - 1), lambda a, b: a * b % modulus, initial=1)
    top = [v * w % modulus for v, w in zip(top, reversed(list(powers)))]
    binomials = [1]
    for i in range(min(skip, terms or skip)):
        binomials.append(binomials[-1] * (skip - i) // (i + 1))
    binomials = [c % modulus for c in binomials]
    copies = [top]
    for j in range(1, d):
        top = _shift_by_one(top, modulus)
        if not skip:
            copies.append(top)
            continue
        # j^(skip - i) for the binomial C(skip, i), i < len(binomials)
        low = pow(j, skip - len(binomials) + 1, modulus)
        powers = reversed(list(accumulate(repeat(j, len(binomials) - 1), lambda a, b: a * b % modulus, initial=low)))
        row = [c * w % modulus for c, w in zip(binomials, powers)]
        copies.append(_truncated_product(row, top, modulus, terms) if terms else _packed_product(row, top, modulus))
    return copies


def _product(factors: list[list[int]], modulus: int) -> list[int]:
    """The product of residue polynomials mod modulus, multiplying neighbours
    so operands stay balanced."""
    while len(factors) > 1:
        odd = factors[-1:] if len(factors) % 2 else []
        factors = [_packed_product(a, b, modulus) for a, b in zip(factors[::2], factors[1::2])] + odd
    return factors[0]


def _truncated_product(a: list[int], b: list[int], modulus: int, terms: int) -> list[int]:
    """The first terms coefficients of a(x) b(x), mod modulus, term by term: for
    a few terms this is cheaper than packing."""
    return [sum(a[i] * b[k - i] for i in range(max(0, k - len(b) + 1), min(k + 1, len(a)))) % modulus
            for k in range(min(terms, len(a) + len(b) - 1))]


#: A Taylor shift reduces its partial sums once per this many passes.  Each
#: pass adds about a bit to them, so unreduced they grow by the row's length:
#: the shift of row 2477's Q at 2477^4 (46 bits) took 0.29 s unreduced, 0.16 s
#: reducing every 8 passes, 0.13 s every 64, and at p = 3, N = 4374 (3467
#: bits) 0.24, 0.33 and 0.18 s (2-vCPU VM, Python 3.11).
_SHIFT_REDUCE_EVERY = 64


def _shift_by_one(c: list[int], modulus: int) -> list[int]:
    """The coefficients of f(x+1) from those of f(x), each reduced mod modulus."""
    top = c[::-1]  # highest power first, so each pass is a prefix sum
    for end in range(len(top), 1, -1):
        top[:end] = accumulate(top[:end])
        if end % _SHIFT_REDUCE_EVERY == 0:
            top[:end] = [v % modulus for v in top[:end]]
    return [v % modulus for v in reversed(top)]


def _packed_product(a: list[int], b: list[int], modulus: int) -> list[int]:
    """The product of two residue polynomials, each coefficient mod modulus.

    Each polynomial is packed into one Decimal, a fixed-width slot of decimal
    digits per coefficient, wide enough for any coefficient of the product;
    libmpdec multiplies the two by a number-theoretic transform.
    """
    width = Decimal((modulus - 1) ** 2 * min(len(a), len(b))).adjusted() + 1
    size = len(a) + len(b) - 1
    # its own context: an inexact product traps, and no thread's flags are touched
    context = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded])
    digits = str(context.multiply(
        Decimal("".join(_str(v).zfill(width) for v in reversed(a))),
        Decimal("".join(_str(v).zfill(width) for v in reversed(b))),
    )).zfill(size * width)
    # int()'s digit limit, or pieces of 4300 digits if there is none (a limit
    # of 0, or no such call): a slot past it is read in pieces
    piece = getattr(sys, "get_int_max_str_digits", int)() or 4300
    read = int if width <= piece else partial(_read_int, piece=piece)
    end = len(digits)
    return [read(digits[end - (k + 1) * width:end - k * width]) % modulus for k in range(size)]


def _read_int(digits: str, piece: int) -> int:
    """int(digits) for a slot wider than int()'s digit limit, read in pieces
    of at most piece digits."""
    head = len(digits) % piece or piece
    value = int(digits[:head])
    for start in range(head, len(digits), piece):
        value = value * 10**piece + int(digits[start:start + piece])
    return value


def _at(residues: list[int], u: int, modulus: int) -> int:
    """The residue polynomial at x = u, mod modulus, by Horner's rule."""
    value = 0
    for r in reversed(residues):
        value = (value * u + r) % modulus
    return value


def _witness_points(p: int, n: int) -> list[int]:
    """x = 1, 2, -1 (-1 only for n >= 2) and the first two units of _WITNESS_UNITS."""
    return ([1, 2, -1] if n >= 2 else [1, 2]) + [u for u in _WITNESS_UNITS if u % p][:2]


def _check_witness(residues: list[int], modulus: int, values: dict[int, int], name: str) -> None:
    """Refuse the residue polynomial named name if it differs from values[x]
    mod modulus at some test point x.

    For a row n the values are those of x(x+1)...(x+n-1) = perm(x+n-1, n):
    n! at x = 1, (n+1)! at x = 2 and, for n >= 2, 0 at x = -1; only x = 2
    sees two same-parity residues moved by +1 and -1.  A change c to residue
    k alone moves the value at x by c*x^k, nonzero at a unit.  Several
    changes can still cancel at any one point; to pass, they must cancel at
    all five.
    """
    if any((_at(residues, x, modulus) - value) % modulus for x, value in values.items()):
        raise InvariantError(f"{name} fails its witness sums")


def _unit_factor(p: int, size: int, precision: int) -> list[int]:
    """The first precision coefficients of U(py) mod p^precision, where
    U(x) = prod (x + u) over u < size with p not dividing u: coefficient d
    of U(py) carries p^d, so the rest vanish.

    With size = pm + r, U(x) = Q(x+1)...Q(x+p-1) (x+pm+1)...(x+pm+r-1),
    Q(z) = prod_{i<m} (z + ip), whose copies come from the top P entries of
    row m (:func:`_copies`) once m > 2P, as in :func:`_split_rising`: a copy
    costs a few P^2 steps, against m P for its m factors one by one, which
    :func:`_linear_product` takes for m <= 2P, as it takes the r - 1 tail
    units: the two were even near m = 2P at p = 3 and at p = 53, and at
    p = 2477, m = 2 the copies took 23 ms against 3 ms (2-vCPU VM, best of 7).
    """
    modulus = p**precision
    m = size // p
    top, skip = m > 2 * precision, m - precision + 1
    factors = _copies(_residue_row(p, m, modulus)[skip:], skip, p, modulus, precision)[1:] if top else []
    units = range(p * m + 1 if top else 1, size)
    factors.append(_linear_product((u for u in units if u % p), precision, modulus))
    c = reduce(partial(_truncated_product, modulus=modulus, terms=precision), factors)
    return [v * p**d % modulus for d, v in enumerate(c)]


def _chain(p: int, n: int) -> list[int]:
    """The chain rows M_l = ceil(n / p^l) of row n >= 1, from M_0 = n down to the
    last above 1 (n alone for n <= p)."""
    sizes = [n]
    while (size := -(-sizes[-1] // p)) > 1:
        sizes.append(size)
    return sizes


def _read_levels(p: int, n: int, sizes: list[int], precision: int) -> list[int] | None:
    """v_p(s(n, k)) for k = 0..n (entry 0 unused) from the bands of row n
    mod p^precision, or None if an entry of a band is zero there.

    Put x = p^l y in F_n(x) = x(x+1)...(x+n-1) and group its factors x + j
    by v_p(j) (Lemmas 2.4 and 2.5): the M_l factors with p^l | j give
    p^(l M_l) F_{M_l}(y), each other one p^(v_p(j)) times a factor with a
    unit constant term, so F_n(p^l y) = p^(E_l) F_{M_l}(y) W_l(y) with
    E_l = M_1 + ... + M_l, W_0 = 1 and W_l(y) = W_{l-1}(py) U(py), U over
    u < M_{l-1} (:func:`_unit_factor`).  Coefficient d of W_l carries p^d, so mod p^P
    it has P terms.  Band l, P_l = F_{M_l} W_l mod p^P, gives
    v_p(s(n, k)) = E_l - l k + v_p(P_l[k]) for k in (M_{l+1}, M_l], and
    band L, the last, for k in [1, M_L].  At each level W_l must equal
    F_n(p^l u) / (p^(E_l) F_{M_l}(u)) and the whole of P_l, not cut at
    M_l, F_n(p^l u) / p^(E_l) at the witness points u; at u = -1, a root
    of F_{M_l}, W_l's value is the ratio with the factors y + 1 taken out.
    Wherever a band's residue of an entry read by a deeper band is nonzero,
    it must give that band's valuation.
    """
    modulus, bounds = p**precision, sizes[1:] + [0]
    unit, exponent, bands = [1], 0, []
    for level, (size, below) in enumerate(zip(sizes, bounds)):
        band = _residue_row(p, size, modulus)
        if level:
            exponent += size
            scaled = [v * p**d % modulus for d, v in enumerate(unit)]  # W_{l-1}(py)
            unit = _truncated_product(scaled, _unit_factor(p, sizes[level - 1], precision), modulus, precision)
            band = _packed_product(band, unit, modulus)
        # each entry stands for an integer >= 1, so a zero residue only means a
        # valuation >= P: never read it, retry with more digits
        if not all(band[below + 1:size + 1]):
            return None
        bands.append((band, unit, exponent))
    valuations = [0] * (n + 1)
    for level, ((band, unit, exponent), size, below) in enumerate(zip(bands, sizes, bounds)):
        power, name = p**level, f"level {level} of valuation row {n} mod {p}^{precision}"
        values = {x: math.perm(power * x + n - 1, n) // p**exponent for x in _witness_points(p, n)}
        if level:
            units = {x: value // math.perm(x + size - 1, size) for x, value in values.items() if x > 0}
            if -1 in values:  # F_n(p^l y) / (p^l y + p^l) over p^(E_l) F_{M_l}(y) / (y + 1) / p^l
                units[-1] = ((-1) ** (power + 1) * power * math.factorial(power) * math.factorial(n - 1 - power)
                             // (p**exponent * math.factorial(size - 2)))
            _check_witness(unit, modulus, units, f"unit factor at {name}")
        _check_witness(band, modulus, values, name)
        for k in range(below + 1, size + 1):
            valuations[k] = exponent - level * k + _vp(p, band[k])
    for level, ((band, _, exponent), below) in enumerate(zip(bands, bounds)):
        if any(band[k] and exponent - level * k + _vp(p, band[k]) != valuations[k] for k in range(1, below + 1)):
            raise InvariantError(f"valuation row {n} mod {p}^{precision}: band {level} disagrees with a deeper band")
    return valuations


def _valuation_row(p: int, n: int) -> tuple[Valuation, ...]:
    """Valuation row n at prime p, built afresh and not held; no cap.

    All bands of :func:`_read_levels` are read at one precision P, doubled
    on any zero band entry.  A row n >= _SPLIT_FROM whose flat start
    (:func:`_initial_precision`) is over 1.5 times :func:`_high_precision`
    takes every level of its chain from P = _high_precision; any other row
    is one band, row n itself, from P = _initial_precision.  The 1.5 is
    timed (median of 5 fresh processes, 2-vCPU VM; BENCH_22.json): each
    further level costs a row, a unit factor and their checks, about 1 ms
    near N = 300, so at flat starts up to 1.22 times the levels took 1.1 to
    2.3 times as long as one band; from 1.65 times they took 0.11 to 0.95
    times from N = 343 up, and between 1.5 and 1.65 times (31, 899),
    (11, 242) and (13, 338) took 1.1 to 1.8 times, a few ms.  Any refusal
    drops every held residue row at p (:func:`_drop_residues`), so no row
    that the refused read built or read, down its chain, splits and unit
    factors, is read again.
    """
    if n == 0:
        return (Valuation(0),)
    start, flat = _high_precision(p, n), _initial_precision(p, n)
    sizes, precision = (_chain(p, n), start) if n >= _SPLIT_FROM and 2 * flat > 3 * start else ([n], flat)
    try:
        while (valuations := _read_levels(p, n, sizes, precision)) is None:
            precision *= 2
    except InvariantError:
        _drop_residues(p)
        raise
    return (INFINITE, *map(Valuation, valuations[1:]))


def valuation_row(p: int | Prime, n: int) -> tuple[Valuation, ...]:
    """The row v_p(s(n, 0..n)) of exact valuations, held in the row store under its budget.

    Each entry is read from a residue modulo a power of p of s(n, k) times a
    known power of p, from :func:`_residue_row`, never from the exact row: a
    nonzero residue has the valuation of the number itself, and a zero
    residue doubles the precision and asks again, so every entry is exact,
    never a bound.

    Every row n >= 1 is read by :func:`_valuation_row`, in bands: band l
    holds the entries k in (M_{l+1}, M_l], M_l = ceil(n / p^l), as
    E_l - l k + v_p(P_l[k]), where P_l = F_{M_l} W_l comes from chain row
    M_l and a unit factor W_l of P terms (:func:`_read_levels`).  All bands
    share one precision P, a few digits (:func:`_high_precision`).  A row
    below _SPLIT_FROM, or whose flat start (:func:`_initial_precision`) is
    at most 1.5 times that, is read as one band, row n itself.  Each band
    and unit factor is checked at its witness points, and the bands must
    agree wherever a shallower one sees an entry.  Entry 0 is infinite for
    n >= 1 (s(n, 0) = 0), and the single entry of n = 0 is 0.
    """
    q = as_prime(p).p
    _check_row_cap(n)
    return _held_row((q, n, _VALUATIONS), lambda: _valuation_row(q, n))


def stirling1_shifted_row(m: int, n: int) -> tuple[int, ...]:
    """Coefficients of (x+m)(x+m+1)...(x+m+n-1), indexed by power of x."""
    if operator.index(m) < 0:
        raise DomainError(f"shift must be >= 0, got {m}")
    if n < 1:
        raise DomainError(f"shifted row requires n >= 1, got {n}")
    _check_row_cap(n)
    return _held_row((n, m), lambda: _expand_rising(n, m))  # m = 0 is the plain row


def stirling1_shifted(m: int, n: int, k: int) -> int:
    """Shifted Stirling number: coefficient of x**k in (x+m)...(x+m+n-1).

    Unlike :func:`stirling1`, k > n is a domain error rather than 0 — the
    shifted numbers are only defined for 0 <= k <= n.
    """
    n, k = operator.index(n), operator.index(k)
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


def _check_harmonic_cap(n: int) -> None:
    if n > _HARMONIC_CAP:
        raise RowTooLargeError(f"row too large: harmonic row n={n} exceeds cap {_HARMONIC_CAP}")


def harmonic_sym(n: int, k: int) -> Fraction:
    """k-th elementary symmetric function of the reciprocals 1, 1/2, ..., 1/n.

    harmonic_sym(n, 1) is the n-th harmonic number; harmonic_sym(n, 0) == 1.
    """
    if n < 1:
        raise DomainError(f"harmonic_sym requires n >= 1, got {n}")
    if not 0 <= k <= n:
        raise DomainError(f"harmonic_sym needs 0 <= k <= n, got k={k}, n={n}")
    _check_harmonic_cap(n)
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
