import inspect
import math
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stirval
from stirval import bigmath
from stirval import (
    INFINITE,
    DomainError,
    RowTooLargeError,
    Valuation,
    bernoulli,
    binomial,
    harmonic_sym,
    stirling1,
    stirling1_row,
    stirling1_shifted,
    stirling1_shifted_row,
    valuation_row,
    vp_int,
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
    with pytest.raises(RowTooLargeError):
        stirling1(6000, 3)


def test_no_public_callable_takes_a_cap():
    """Row-size policy is fixed in bigmath: no call can raise its caps."""
    for name in stirval.__all__:
        obj = getattr(stirval, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # no introspectable signature
            continue
        assert "cap" not in params, name


#: The row kernel itself, taken before any test wraps it.
_EXPAND = bigmath._expand_rising


def _check_row_store():
    """The held total is the sum of the held rows' sizes and within the
    budget, and every held row is the fresh row of its key."""
    held = bigmath._rows.items()
    assert bigmath._rows_held == sum(size for _, (_, size) in held) <= bigmath._ROW_CACHE_BYTES
    for (n, shift), (row, size) in held:
        assert size == bigmath._row_bytes(row) and row == tuple(_EXPAND(n, shift))


def test_plain_and_shifted_rows_share_one_cache(cold_rows):
    builds = cold_rows()
    assert stirling1_shifted_row(0, 7) is stirling1_row(7)  # one build, one hit
    stirling1_shifted_row(2, 7)
    assert builds == [(7, 0), (7, 2)]
    assert list(bigmath._rows) == [(7, 0), (7, 2)]


def test_row_store_stays_within_its_byte_budget(cold_rows):
    budget = 4 * bigmath._row_bytes(_EXPAND(30, 0))
    builds = cold_rows(budget)
    rng = random.Random(9)
    for _ in range(300):
        n, shift = rng.randint(1, 40), rng.randint(0, 3)
        assert stirling1_shifted_row(shift, n) == tuple(_EXPAND(n, shift))
        _check_row_store()
    assert len(builds) > len(set(builds))  # evicted rows were built again
    assert len(bigmath._rows) > 1


def test_row_store_evicts_the_least_recently_used_row(cold_rows):
    a, b, c, small = (20, 0), (20, 1), (20, 2), (10, 0)
    sizes = {key: bigmath._row_bytes(_EXPAND(*key)) for key in (a, b, c, small)}
    builds = cold_rows(sizes[a] + sizes[b] + sizes[c])
    for n, shift in (a, b, c, a):  # the second lookup of a is a hit
        stirling1_shifted_row(shift, n)
    stirling1_row(10)  # fits once b, now the least recently used, is gone
    assert list(bigmath._rows) == [c, a, small]
    _check_row_store()
    # a row looked up again after its eviction is built afresh, and exact
    assert stirling1_shifted_row(1, 20) == tuple(_EXPAND(20, 1))
    assert builds == [a, b, c, small, b]


def test_a_row_built_twice_at_once_is_shared(cold_rows, monkeypatch):
    """When a second build of a row finishes first, both lookups return the
    tuple stored first, so plain and m = 0 shifted rows stay one object."""
    builds = cold_rows()
    expand, started, inner = bigmath._expand_rising, [], []

    def racing_expand(n, shift, modulus=0):
        if not started:  # the first build: another lookup of the row runs meanwhile
            started.append(n)
            inner.append(stirling1_row(n))
        return expand(n, shift, modulus)

    monkeypatch.setattr(bigmath, "_expand_rising", racing_expand)
    outer = stirling1_shifted_row(0, 9)
    assert outer is inner[0] is stirling1_row(9)
    assert builds == [(9, 0), (9, 0)]
    _check_row_store()


def test_row_store_threads_share_it(cold_rows):
    """Threads that look rows up, build them and evict them at once must get
    exact rows and leave a consistent store."""
    budget = 3 * bigmath._row_bytes(_EXPAND(25, 0))  # a few rows, so evictions race
    cold_rows(budget)
    rng = random.Random(11)
    plans = [[(rng.randint(1, 40), rng.randint(0, 3)) for _ in range(60)] for _ in range(4)]
    expected = {key: tuple(_EXPAND(*key)) for plan in plans for key in plan}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a race shows
    try:
        results = [[] for _ in plans]
        threads = [
            threading.Thread(
                target=lambda plan=plan, out=out: out.extend(
                    stirling1_shifted_row(shift, n) for n, shift in plan
                )
            )
            for plan, out in zip(plans, results)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for plan, out in zip(plans, results):
        assert out == [expected[key] for key in plan]
    _check_row_store()


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


def test_harmonic_cap():
    with pytest.raises(RowTooLargeError, match="row too large"):
        harmonic_sym(5001, 1)
    # the harmonic row has its own, lower bound: refused before any step
    cursor = len(bigmath._harmonic_row)
    with pytest.raises(RowTooLargeError, match="row too large"):
        harmonic_sym(bigmath._HARMONIC_CAP + 1, 1)
    assert len(bigmath._harmonic_row) == cursor


def _harmonic_reference(n_max):
    """Rows e_k(1, ..., 1/n) for n = 0..n_max from the plain in-place recurrence."""
    row = [Fraction(1)] + [Fraction(0)] * n_max
    rows = [(Fraction(1),)]
    for j in range(1, n_max + 1):
        inv = Fraction(1, j)
        # e(j, k) = e(j-1, k) + (1/j) e(j-1, k-1), high k first
        for k in range(j, 0, -1):
            row[k] += inv * row[k - 1]
        rows.append(tuple(row[: j + 1]))
    return rows


def _harmonic_tuple(n):
    return tuple(harmonic_sym(n, k) for k in range(n + 1))


def test_harmonic_rows_step_in_any_order():
    """The stepped cursor gives the from-scratch rows whatever order n comes in."""
    expected = _harmonic_reference(150)
    rng = random.Random(11)
    # a cursor at 150 makes every descending call, and most shuffled ones,
    # a call below the cursor; rebuilds are O(n^2), so those walks are sparse
    orders = {
        "ascending": list(range(1, 151)),
        "descending": list(range(150, 0, -11)),
        "shuffled": rng.sample(range(1, 151), 25),
    }
    del bigmath._harmonic_row[1:]
    for name, order in orders.items():
        for n in order:
            assert _harmonic_tuple(n) == expected[n], (name, n)
    assert len(bigmath._harmonic_row) == orders["shuffled"][-1] + 1


def test_harmonic_threads_share_the_cursor():
    """Threads that move the harmonic cursor at once must not tear its row."""
    expected = _harmonic_reference(30)
    rng = random.Random(5)
    plans = [
        [(n, rng.randint(0, n)) for n in rng.sample(range(1, 31), 30)]
        for _ in range(4)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a race shows
    try:
        del bigmath._harmonic_row[1:]
        results = [[] for _ in plans]
        threads = [
            threading.Thread(
                target=lambda plan=plan, out=out: out.extend(
                    harmonic_sym(n, k) for n, k in plan
                )
            )
            for plan, out in zip(plans, results)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
            assert not th.is_alive()
        for plan, out in zip(plans, results):
            assert out == [expected[n][k] for n, k in plan]
    finally:
        sys.setswitchinterval(interval)
        del bigmath._harmonic_row[1:]


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


def _exact_valuations(p, n):
    return tuple(vp_int(p, v) for v in stirling1_row(n))


# every a*3^n and a*3^n + 1 row with n <= 4, the shapes the 3-adic sweeps read
_A3N_SIZES = sorted({a * 3**n + d for a in (1, 2) for n in range(1, 5) for d in (0, 1)})


def test_valuation_row_matches_exact_rows():
    for p in (2, 3, 5, 7):
        for n in range(121):
            assert valuation_row(p, n) == _exact_valuations(p, n), (p, n)
    for n in _A3N_SIZES:
        assert valuation_row(3, n) == _exact_valuations(3, n), n


def test_valuation_row_edges_and_cap():
    assert valuation_row(3, 0) == (Valuation(0),)
    assert valuation_row(3, 1) == (INFINITE, Valuation(0))
    assert valuation_row(bigmath.Prime(3), 9)[0] is INFINITE
    assert valuation_row(3, 9)[6] == 4  # s(9, 6) = 4536 = 2^3 * 3^4 * 7
    with pytest.raises(RowTooLargeError, match="row too large"):
        valuation_row(3, 5001)
    with pytest.raises(DomainError):
        valuation_row(3, -1)
    with pytest.raises(DomainError):
        valuation_row(4, 5)
    with pytest.raises(RowTooLargeError, match="n=a 15851-bit number exceeds"):
        valuation_row(3, 2 * 3**10_000)  # past str()'s 4300-digit limit


def test_row_functions_refuse_a_non_int_index():
    """A float would share an int's cache key, so it is refused even when cached."""
    valuation_row(2, 1)  # the int rows are cached first
    stirling1_row(2)
    stirling1_shifted_row(1, 2)
    for call in (lambda: valuation_row(2, 1.0), lambda: stirling1_row(2.0),
                 lambda: stirling1_shifted_row(1, 2.0), lambda: stirling1_shifted_row(1.0, 2)):
        with pytest.raises(TypeError):
            call()


def test_single_values_refuse_a_non_int_index():
    """A float n or k is refused before the k > n shortcut could answer 0."""
    for call in (lambda: stirling1(2.5, 3), lambda: stirling1(3.0, 5), lambda: stirling1(3, 1.0),
                 lambda: stirling1_shifted(1, 2.5, 3), lambda: stirling1_shifted(1, 3, 1.0)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call()


def _run_fresh(script: str, *flags: str) -> None:
    """Run a test script in a fresh interpreter started with flags; it prints "ok"."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script], capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.split() == ["ok"]


#: The start of a test script: empty_store() empties the row store, valuation
#: rows too, in the interpreter that runs the script.
_EMPTY_STORE = """
import stirval.bigmath as bigmath


def empty_store():
    bigmath._rows.clear()
    bigmath._rows_held = 0
"""

_FORCED_DOUBLING = _EMPTY_STORE + """
from stirval import stirling1_row, valuation_row, vp_int

expand, step, initial = bigmath._expand_rising, bigmath._times_linear, bigmath._initial_precision
modular_builds = []


def counting_expand(n, shift, modulus=0):
    if modulus:
        modular_builds.append(n)
    return expand(n, shift, modulus)


def counting_step(c, f, modulus):
    modular_builds.append(f + 1)  # row f + 1, stepped from a held row f
    return step(c, f, modulus)


bigmath._expand_rising, bigmath._times_linear = counting_expand, counting_step
bigmath._initial_precision = lambda p, n: 1
empty_store()
try:
    sizes = [(p, n) for p in (2, 3, 5) for n in range(1, 40)] + [(3, 162), (3, 163)]
    for p, n in sizes:
        if valuation_row(p, n) != tuple(vp_int(p, v) for v in stirling1_row(n)):
            raise SystemExit(f"valuation_row({p}, {n}) is not exact")
    # at P = 1, s(n, 1) = (n-1)! leaves a zero residue once n > p, so rows rebuild,
    # by the loop or, while row 162 is held precisely enough, by one step from it
    if modular_builds.count(163) < 2:
        raise SystemExit(f"no doubling: {modular_builds.count(163)} build(s) of row 163")
finally:
    bigmath._expand_rising, bigmath._times_linear = expand, step
    bigmath._initial_precision = initial
    empty_store()
print("ok")
"""


def test_valuation_row_doubles_precision_until_exact(cold_rows):
    """Starting at precision 1 forces the zero-residue path; answers stay exact."""
    cold_rows()  # no residue row held by an earlier test
    exec(compile(_FORCED_DOUBLING, "<forced-doubling>", "exec"), {})


def test_valuation_row_doubling_survives_python_O():
    _run_fresh(_FORCED_DOUBLING, "-O")


_CORRUPT_RESIDUE = _EMPTY_STORE + """
import math

from stirval import InvariantError, valuation_row

expand = bigmath._expand_rising


def off_by_one(c, n, modulus):
    c[n // 2 + 1] += 1  # one residue off by one; the row stays nonzero


def same_parity_pair(c, n, modulus):
    c[2] += 1  # the x = 1 and x = -1 sums stay right; only x = 2 sees it
    c[4] -= 1
    if (sum(c) - math.factorial(n)) % modulus or (sum(c[::2]) - sum(c[1::2])) % modulus:
        raise SystemExit(f"the pair moved a x = +-1 sum at n={n}")


cases = [(off_by_one, p, n) for p, n in [(2, 1), (2, 2), (3, 9), (5, 40), (3, 162)]]
cases += [(same_parity_pair, p, n) for p, n in [(2, 8), (3, 9), (5, 40), (3, 162)]]
try:
    for corrupt, p, n in cases:
        def corrupted(n, shift, modulus=0):
            c = expand(n, shift, modulus)
            if modulus:
                corrupt(c, n, modulus)
            return c

        bigmath._expand_rising = corrupted
        empty_store()
        try:
            valuation_row(p, n)
        except InvariantError as exc:
            if "witness" not in str(exc):
                raise
        else:
            raise SystemExit(f"valuation_row({p}, {n}) took {corrupt.__name__}")
finally:
    bigmath._expand_rising = expand
    empty_store()
print("ok")
"""


def test_valuation_row_witness_refuses_a_corrupted_residue(cold_rows):
    """The witness sums catch one residue off by one, and (x = 2 only) two
    residues of the same parity moved by +1 and -1."""
    cold_rows()  # no residue row held by an earlier test
    exec(compile(_CORRUPT_RESIDUE, "<corrupt-residue>", "exec"), {})


def test_valuation_row_witness_survives_python_O():
    _run_fresh(_CORRUPT_RESIDUE, "-O")


def test_split_kernel_equals_the_loop():
    """Bit for bit, on both sides of the crossover, at n = pm, pm + 1 and
    pm + p - 1, through two levels of splitting for p = 2 and 3, and for
    large p at m = 1 and 2, for p > n, where d is a divisor of n, and at
    moduli past 10^2150, whose slots pass 4300 digits."""
    cross = bigmath._SPLIT_FROM
    for p in (2, 3, 5, 7, 11):
        m = cross // p + 1
        sizes = [cross - 1, cross, p * m, p * m + 1, p * m + p - 1]
        if p <= 3:
            sizes += [p * p * m, p * p * m + p - 1]  # m' = pm >= the crossover splits again
        for n in sizes:
            precision = bigmath._initial_precision(p, n)
            for modulus in (p, p**precision, p ** (2 * precision)):  # as after a doubling
                loop = _EXPAND(n, 0, modulus)
                assert bigmath._residue_row(p, n, modulus) == loop, (p, n, modulus)
                assert bigmath._split_rising(p, n, modulus) == loop, (p, n, modulus)
    # m = 1, 2, 1, 2; then p > n with d = 2 (m = 150 and 1250) and d = n = 211 (m = 1)
    for p, n in ((101, 200), (101, 300), (257, 300), (601, 1202),
                 (401, 300), (1009, 211), (2503, 2500)):
        modulus = p ** bigmath._initial_precision(p, n)
        loop = _EXPAND(n, 0, modulus)
        assert bigmath._residue_row(p, n, modulus) == loop, (p, n)
        assert bigmath._split_rising(p, n, modulus) == loop, (p, n)
    # slots past int()'s default limit of 4300 digits, read back in pieces
    for p in (2, 3, 5, 7):
        modulus = p ** (math.floor(2150 / math.log10(p)) + 1)
        assert modulus > 10**2150
        loop = _EXPAND(cross + 1, 0, modulus)
        assert bigmath._residue_row(p, cross + 1, modulus) == loop, p
        assert bigmath._split_rising(p, cross + 1, modulus) == loop, p


def test_rows_with_p_past_n_split_by_a_divisor_of_n(cold_rows, monkeypatch):
    """For p > n the split's d is the smallest divisor of n, so d <= n and
    there is always a smaller row to split off: row 2500 at p = 2503 goes
    2500 -> 1250 -> 625 by d = 2, 2 and 5, and row 125 is the loop's."""
    cold_rows()
    split, splits = bigmath._split_rising, []

    def counting_split(p, n, modulus):
        splits.append(n)
        return split(p, n, modulus)

    monkeypatch.setattr(bigmath, "_split_rising", counting_split)
    bigmath._residue_row(2503, 2500, 2503)
    assert splits == [2500, 1250, 625]


def test_rows_with_p_past_n_are_exact_and_quick():
    """Row 300 at p = 1000003 and near 2^61 is exact, and built at once."""
    for p in (1000003, 2**61 - 1):
        start = time.perf_counter()
        assert valuation_row(p, 300) == _exact_valuations(p, 300)
        assert time.perf_counter() - start < 2.0, p


def test_packed_slots_past_the_int_digit_limit_are_read_in_pieces(cold_rows, monkeypatch):
    """Slots of 4299 and 4301 digits, and of three pieces, are read back
    exactly, and a row whose slots pass 4300 digits is split, not looped."""
    for modulus in (10**2149, 10**2150, 3**10_000):
        a, b = [modulus - 1, modulus - 2, 1], [modulus - 1, modulus - 3]
        schoolbook = [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b)) % modulus
                      for k in range(len(a) + len(b) - 1)]
        assert bigmath._packed_product(a, b, modulus) == schoolbook
    cold_rows()
    split, splits = bigmath._split_rising, []

    def counting_split(p, n, modulus):
        splits.append(n)
        return split(p, n, modulus)

    monkeypatch.setattr(bigmath, "_split_rising", counting_split)
    assert bigmath._residue_row(2, 300, 2**7200) == _EXPAND(300, 0, 2**7200)
    assert splits[:1] == [300]


_WIDE_ROWS_UNDER_A_LOWER_LIMIT = """
import stirval.bigmath as bigmath

split, splits = bigmath._split_rising, []


def counting_split(p, n, modulus):
    splits.append((p, n, modulus))
    return split(p, n, modulus)


bigmath._split_rising = counting_split
for p, modulus in [(2, 2**2300), (3, 3**700), (3, 3**1400), (5, 5**1000), (7, 7**800)]:
    if bigmath._residue_row(p, 300, modulus) != bigmath._expand_rising(300, 0, modulus):
        raise SystemExit(f"row 300 mod a power of {p} differs from the loop's")
    if (p, 300, modulus) not in splits:
        raise SystemExit(f"row 300 mod a power of {p} was not split")
# row 300's entries stay below 300! < 10^615, so its slots are mostly zeros:
# residues near the modulus fill every piece of a slot
for modulus in (3**1400, 7**800):
    a, b = [modulus - 1, modulus - 2, 1], [modulus - 1, modulus - 3]
    schoolbook = [sum(a[i] * b[k - i] for i in range(3) if 0 <= k - i < 2) % modulus
                  for k in range(4)]
    if bigmath._packed_product(a, b, modulus) != schoolbook:
        raise SystemExit("a product of residues near the modulus was misread")
print("ok")
"""


def test_a_lower_int_digit_limit_keeps_wide_rows_on_the_split():
    """Under a digit limit of 640, row 300 is split and equals the loop's:
    at 3^700 (334 digits) only the slots pass the limit, at the other moduli
    (668 to 699 digits) the coefficients pass it too."""
    _run_fresh(_WIDE_ROWS_UNDER_A_LOWER_LIMIT, "-X", "int_max_str_digits=640")


def test_wide_rows_under_a_lower_int_digit_limit_survive_python_O():
    _run_fresh(_WIDE_ROWS_UNDER_A_LOWER_LIMIT, "-O", "-X", "int_max_str_digits=640")


_CORRUPT_SPLIT = _EMPTY_STORE + """
import math

from stirval import InvariantError, valuation_row

split = bigmath._split_rising


def units(p):
    return [u for u in bigmath._WITNESS_UNITS if u % p][:2]


def add(c, j, fault):
    for i, f in enumerate(fault):
        c[j + i] += f


def off_by_one(c, p, n, modulus):
    c[n // 2 + 1] += 1


def same_parity_pair(c, p, n, modulus):
    add(c, 2, [1, 0, -1])  # only x = 2 sees it among x = 1, 2, -1


def seen_by_units_only(c, p, n, modulus):
    # (x - 1)(x - 2)(x + 1) x^7 vanishes at x = 1, 2, -1: only the units see it
    add(c, 7, [2, -1, -2, 1])


def seen_by_second_unit_only(c, p, n, modulus):
    # also times (x - u) for the first unit u; several faults can cancel at one
    # point, so one unit alone would not see this, and faults built to vanish
    # at all five points (degree 5 and up) pass every witness
    u = units(p)[0]
    add(c, 9, [-2 * u, 2 + u, 2 * u - 1, -2 - u, 1])


def check_sums(c, p, n, modulus, corrupt):
    if corrupt in (seen_by_units_only, seen_by_second_unit_only):
        at = lambda x: sum(r * x**k for k, r in enumerate(c)) % modulus
        if (at(1) - math.factorial(n)) % modulus or (at(2) - math.factorial(n + 1)) % modulus or at(-1):
            raise SystemExit(f"{corrupt.__name__} moved a x = 1, 2, -1 sum at n={n}")
    if corrupt is seen_by_second_unit_only:
        if (bigmath._at(c, units(p)[0], modulus) - math.perm(units(p)[0] + n - 1, n)) % modulus:
            raise SystemExit(f"the fault moved the first unit's value at n={n}")


faults = (off_by_one, same_parity_pair, seen_by_units_only, seen_by_second_unit_only)
sizes = [(3, 486), (3, 487), (2, 512), (5, 625)]
try:
    for corrupt in faults:
        for p, n in sizes:
            def corrupted(q, size, modulus):
                c = split(q, size, modulus)
                if size == n:  # the row itself, not the row it splits from
                    corrupt(c, p, n, modulus)
                    check_sums(c, p, n, modulus, corrupt)
                return c

            bigmath._split_rising = corrupted
            empty_store()
            try:
                valuation_row(p, n)
            except InvariantError as exc:
                if "witness" not in str(exc):
                    raise
            else:
                raise SystemExit(f"valuation_row({p}, {n}) took {corrupt.__name__}")
finally:
    bigmath._split_rising = split
    empty_store()
print("ok")
"""


def test_witness_refuses_a_residue_corrupted_on_the_split_path(cold_rows):
    """One residue off by one, a same-parity pair, and two faults that the
    x = 1, 2, -1 sums cannot see, one of which also cancels at the first unit."""
    cold_rows()  # no residue row held by an earlier test
    exec(compile(_CORRUPT_SPLIT, "<corrupt-split>", "exec"), {})


def test_witness_on_the_split_path_survives_python_O():
    _run_fresh(_CORRUPT_SPLIT, "-O")


_FORCED_SPLIT_DOUBLING = _EMPTY_STORE + """
from stirval import stirling1_row, valuation_row, vp_int

split, reader = bigmath._split_rising, bigmath._read_levels
initial, high = bigmath._initial_precision, bigmath._high_precision
split_builds, paths = [], []


def counting_split(p, n, modulus):
    split_builds.append((p, n))
    return split(p, n, modulus)


def recording(p, n, sizes, precision):
    paths.append((p, n, len(sizes) > 1))
    return reader(p, n, sizes, precision)


# rows 486, 729, 401 and 252 are read in levels from _high_precision, rows
# 306 and 380 as one band from _initial_precision; forcing the start of its
# own path to 1 keeps each row on that path
rows = {(3, 486): True, (3, 729): True, (2, 401): True, (5, 252): True, (17, 306): False, (19, 380): False}
bigmath._split_rising, bigmath._read_levels = counting_split, recording
try:
    for (p, n), levels in rows.items():
        if n < bigmath._SPLIT_FROM:
            raise SystemExit(f"row {n} is below the crossover")
        empty_store()
        if levels:
            bigmath._high_precision = lambda p, n: 1
        else:
            bigmath._initial_precision = lambda p, n: 1
        try:
            row = valuation_row(p, n)
        finally:
            bigmath._initial_precision, bigmath._high_precision = initial, high
        if row != tuple(vp_int(p, v) for v in stirling1_row(n)):
            raise SystemExit(f"valuation_row({p}, {n}) is not exact")
        if {path for q, size, path in paths if (q, size) == (p, n)} != {levels}:
            raise SystemExit(f"valuation_row({p}, {n}) took the wrong path")
        # at P = 1 the residues of s(n, t) with p | s(n, t) are 0, so row n is
        # split again with more digits, in levels or as one band
        if split_builds.count((p, n)) < 2:
            raise SystemExit(f"no doubling: {split_builds.count((p, n))} split build(s) of row {n}")
    # row 729's chain row 243 is split too, at each precision its levels double to
    if split_builds.count((3, 243)) < 2:
        raise SystemExit(f"no doubling: {split_builds.count((3, 243))} split build(s) of row 243")
finally:
    bigmath._split_rising, bigmath._read_levels = split, reader
    bigmath._initial_precision, bigmath._high_precision = initial, high
    empty_store()
print("ok")
"""


def test_forced_doubling_on_the_split_path_stays_exact(cold_rows):
    cold_rows()  # no residue row held by an earlier test
    exec(compile(_FORCED_SPLIT_DOUBLING, "<forced-split-doubling>", "exec"), {})


def test_forced_doubling_on_the_split_path_survives_python_O():
    _run_fresh(_FORCED_SPLIT_DOUBLING, "-O")


def test_unit_points_see_faults_the_sums_miss(cold_rows, monkeypatch):
    """On the loop path too: a fault vanishing at x = 1, 2, -1 is refused."""
    cold_rows()
    kernel = bigmath._residue_row

    def corrupted(p, n, modulus):
        c = kernel(p, n, modulus)
        for i, f in enumerate([2, -1, -2, 1]):  # (x - 1)(x - 2)(x + 1) x^3
            c[3 + i] += f
        return c

    monkeypatch.setattr(bigmath, "_residue_row", corrupted)
    for p, n in [(2, 9), (3, 27), (7, 50), (3, 162)]:
        with pytest.raises(bigmath.InvariantError, match="witness"):
            valuation_row(p, n)


def _residue_key(p, n):
    return (p, n, bigmath._RESIDUES)


def _check_store():
    """The held total is the sum of the held sizes and within the budget, and
    every held residue row is the loop's row mod its modulus."""
    held = bigmath._rows.items()
    assert bigmath._rows_held == sum(entry[1] for _, entry in held) <= bigmath._ROW_CACHE_BYTES
    for key, (row, size, *modulus) in held:
        assert size == bigmath._row_bytes(row)
        if modulus:
            assert list(row) == _EXPAND(key[1], 0, modulus[0]), key


#: The residue kernel itself, taken before any test wraps it.
_RESIDUE_ROW = bigmath._residue_row


def _requests(monkeypatch):
    """Record every (n, modulus) asked of the residue kernel, sub rows included."""
    asked = []

    def recording(p, n, modulus):
        asked.append((n, modulus))
        return _RESIDUE_ROW(p, n, modulus)

    monkeypatch.setattr(bigmath, "_residue_row", recording)
    return asked


def test_every_residue_path_equals_the_loop(cold_rows, monkeypatch):
    """A held row reduced to a lower precision, row n from a held row n - 1, a
    d = 2 split and a d = p split with a tail: each bit for bit the loop's row,
    and each a fresh list that the caller may scale in place."""
    for p in (2, 3, 5, 7, 11):
        builds = cold_rows()
        asked = _requests(monkeypatch)
        n = 2 * 211  # d = 2; row 211 is prime past 11, so it splits by d = p with a tail
        precision = bigmath._initial_precision(p, n + 1)
        low, high = p**precision, p ** (2 * precision)
        assert bigmath._residue_row(p, n, high) == _EXPAND(n, 0, high)
        assert asked[:2] == [(n, high), (211, high)]  # d = 2: row n reads row n / 2
        m, r = divmod(211, p)
        assert r and (m, high) in asked  # d = p, with the r tail factors
        del builds[:], asked[:]
        requests = [(n, low), (n + 1, low), (n + 1, high), (211, low)]
        for size, modulus in requests:
            row = bigmath._residue_row(p, size, modulus)
            assert row == _EXPAND(size, 0, modulus), (p, size, modulus)
            row[0] += 1  # not the held row
            assert bigmath._residue_row(p, size, modulus) == _EXPAND(size, 0, modulus)
        # reductions and row n from row n - 1 build nothing and ask for no sub row
        assert builds == [] and asked == [r for r in requests for _ in "ab"]
        assert bigmath._rows[_residue_key(p, n + 1)][2] == high
        _check_store()


def test_grid_rows_are_the_same_largest_or_smallest_first(cold_rows):
    sizes = sorted({a * 3**n + d for a in (1, 2) for n in range(1, 7) for d in (0, 1)})
    rows = []
    for order in (sizes[::-1], sizes):
        cold_rows()
        rows.append({n: valuation_row(3, n) for n in order})
        _check_store()
    assert rows[0] == rows[1]
    assert all(rows[0][n] == _exact_valuations(3, n) for n in sizes if n <= 244)


def test_residue_rows_count_against_the_row_budget(cold_rows):
    """Exact, residue and valuation rows share one byte budget: a chain of
    residue rows evicts the least recently used rows, exact ones too, to stay
    within it.  Row 1458 is read in levels at P = 22, from its chain rows
    1458, 486, 162, 54, 18, 6 and 2; the largest is row 1458 itself, 1459
    entries of about 43 bytes.  The budget holds that row and a quarter more
    beside the valuation row 1458, held last: the chain rows below it, read
    again after row 1458, stay, and row 1458 and the exact row go."""
    modulus = 3 ** bigmath._high_precision(3, 1458)
    budget = bigmath._row_bytes(tuple(_EXPAND(1458, 0, modulus))) * 5 // 4 + 48 * 1459
    cold_rows(budget)
    stirling1_row(100)
    flat = 3 ** bigmath._initial_precision(3, 1458)
    residues = _EXPAND(1458, 0, flat)[1:]
    assert valuation_row(3, 1458)[1:] == tuple(Valuation(bigmath._vp(3, v)) for v in residues)
    _check_store()
    assert (100, 0) not in bigmath._rows and _residue_key(3, 1458) not in bigmath._rows
    assert list(bigmath._rows) == [_residue_key(3, n) for n in (486, 162, 54, 18, 6, 2)] + [
        _valuation_key(3, 1458)]


_CORRUPT_HELD = _EMPTY_STORE + """
from stirval import InvariantError, valuation_row

modulus = 3 ** bigmath._high_precision(3, 1458)
key = (3, 486, bigmath._RESIDUES)
try:
    # row 1458 reads row 486 by its d = 3 split and as its first chain row;
    # row 486 reduces it to its own precision
    for n in (1458, 486):
        empty_store()
        bigmath._residue_row(3, 486, modulus)  # row 486, held as row 1458 holds it
        row, size, held_modulus = bigmath._rows[key]
        if held_modulus != modulus:
            raise SystemExit("row 486 is not held at row 1458's precision")
        bad = list(row)
        bad[300] = (bad[300] + 1) % modulus
        bigmath._rows[key] = (tuple(bad), size, held_modulus)
        try:
            valuation_row(3, n)
        except InvariantError as exc:
            if "witness" not in str(exc):
                raise
        else:
            raise SystemExit(f"valuation_row(3, {n}) took a corrupted held row")
        for size in (n, 486):
            if (3, size, bigmath._RESIDUES) in bigmath._rows:
                raise SystemExit(f"the refused row {n} leaves row {size} held")
finally:
    empty_store()
print("ok")
"""


def test_witness_refuses_a_row_read_from_a_corrupted_held_row(cold_rows):
    cold_rows()
    exec(compile(_CORRUPT_HELD, "<corrupt-held>", "exec"), {})


def test_witness_on_a_corrupted_held_row_survives_python_O():
    _run_fresh(_CORRUPT_HELD, "-O")


def test_threads_building_a_chain_and_its_sub_rows_share_the_store(cold_rows):
    """Rows 729, 486 and 243 are held inside row 1458's chain while other
    threads ask for them at their own precisions."""
    sizes = (1458, 729, 486, 243)  # more threads than cores
    cold_rows()
    serial = [valuation_row(3, n) for n in sizes]
    cold_rows()
    start, results = threading.Barrier(len(sizes)), {}

    def build(n):
        start.wait()
        results[n] = valuation_row(3, n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a race shows
    try:
        threads = [threading.Thread(target=build, args=(n,)) for n in sizes]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert [results[n] for n in sizes] == serial
    _check_store()


def _valuation_key(p, n):
    return (p, n, bigmath._VALUATIONS)


def test_valuation_rows_count_against_the_row_budget_in_one_lru_order(cold_rows, monkeypatch):
    """Valuation rows are held at 48 bytes an entry beside exact and residue
    rows, and are evicted with them, least recently used first."""
    exact, residues, valuations = (30, 0), _residue_key(3, 30), _valuation_key(3, 30)

    def read(budget=None):
        cold_rows(budget)
        stirling1_row(30)
        valuation_row(3, 30)  # holds residue row 30, then its valuation row
        stirling1_row(30)  # a hit: the exact row is now the most recently used
        valuation_row(5, 40)
        _check_store()
        return dict(bigmath._rows)

    held = read()
    assert list(held) == [residues, valuations, exact, _residue_key(5, 40), _valuation_key(5, 40)]
    assert held[valuations][1] == 48 * 31 and held[_valuation_key(5, 40)][1] == 48 * 41
    # a byte short of all five: the two least recently used go, valuation row 30 too
    built, build = [], bigmath._valuation_row

    def counting(p, n):
        built.append((p, n))
        return build(p, n)

    monkeypatch.setattr(bigmath, "_valuation_row", counting)
    read(sum(entry[1] for entry in held.values()) - held[residues][1] - 1)
    assert list(bigmath._rows) == [exact, _residue_key(5, 40), _valuation_key(5, 40)]
    assert valuation_row(3, 30) == _exact_valuations(3, 30)  # built afresh, and exact
    assert built == [(3, 30), (5, 40), (3, 30)]
    _check_store()


def test_a_refused_valuation_row_is_not_held(cold_rows, monkeypatch):
    cold_rows()
    kernel = bigmath._residue_row

    def corrupted(p, n, modulus):
        c = kernel(p, n, modulus)
        c[n // 2] += 1
        return c

    monkeypatch.setattr(bigmath, "_residue_row", corrupted)
    for p, n in [(3, 27), (3, 486)]:  # a flat row and a band row
        with pytest.raises(bigmath.InvariantError, match="witness"):
            valuation_row(p, n)
        assert _valuation_key(p, n) not in bigmath._rows
    monkeypatch.setattr(bigmath, "_residue_row", kernel)
    assert valuation_row(3, 27) is bigmath._rows[_valuation_key(3, 27)][0]
    assert valuation_row(3, 27) == _exact_valuations(3, 27)


def test_threads_reading_one_valuation_row_share_one_tuple(cold_rows, monkeypatch):
    """Four threads that build valuation row 729 at once all get the tuple
    stored first, as threads that build one exact row do."""
    cold_rows()
    built, build = [], bigmath._valuation_row
    together = threading.Barrier(4, timeout=60)

    def building_together(p, n):
        together.wait()  # no thread stores the row before all four build it
        built.append(n)
        return build(p, n)

    monkeypatch.setattr(bigmath, "_valuation_row", building_together)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a race shows
    try:
        threads = [threading.Thread(target=lambda: results.append(valuation_row(3, 729))) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert built == [729] * 4 and len(results) == 4
    assert all(row is bigmath._rows[_valuation_key(3, 729)][0] for row in results)
    assert results[0][1:] == tuple(Valuation(bigmath._vp(3, v)) for v in _EXPAND(729, 0, 3**400)[1:])
    _check_store()


def test_flat_rows_with_p_squared_past_n_are_built_once(cold_rows, monkeypatch):
    """A flat row with p^2 > N starts at v_p(N!) + 2: at v_p(N!) + 1 these rows
    each had an entry at that valuation, so a zero residue, and were built
    twice.  No row with p^2 <= N changes its start."""
    for p, n in [(2477, 2500), (1999, 2500), (2503, 2500), (997, 1995), (101, 202), (101, 203)]:
        cold_rows()
        asked = _requests(monkeypatch)
        row = valuation_row(p, n)
        assert [size for size, _ in asked].count(n) == 1, (p, n)
        doubled = bigmath._residue_row(p, n, p ** (2 * bigmath._initial_precision(p, n)))
        assert row[1:] == tuple(Valuation(bigmath._vp(p, r)) for r in doubled[1:]), (p, n)
    for p in (2, 3, 5, 7, 11, 13, 101, 2477):
        for n in range(1, 400):
            first = bigmath.vp_factorial(p, n).value + 1  # the start before p^2 > N took a digit more
            assert bigmath._initial_precision(p, n) == first + (p * p > n), (p, n)


#: Rows read in levels (N >= _SPLIT_FROM and a flat start over 1.5 times
#: _high_precision): N just above the crossover for p = 2, 3, 5 and 7, with
#: p | N and not, and the first m at p = 11, 13 and 31 whose flat start
#: passes 1.5 times the levels' start (25 against 16, 29 against 18, 31
#: against 20; m < p at 31).
_BAND_ROWS = [(2, 200), (2, 203), (3, 201), (3, 202), (3, 204), (5, 200), (5, 209),
              (7, 203), (7, 210), (11, 242), (13, 338), (31, 899)]
#: Rows beside them read as one band: the m just below at p = 11, 13 and 31
#: (a flat start of 23, 27 and 30), m = p and m just above p at p = 17 and
#: 19, and N below the crossover.
_FLAT_ROWS = [(11, 231), (13, 325), (31, 868), (17, 289), (17, 306), (19, 361), (19, 380),
              (3, 198), (2, 199)]
#: Primes whose rows are read in levels against their one-band read, at
#: N = pm, pm + 1, pm + p - 1 and pm + p // 2 (no multiple of p nearby for
#: p >= 5), with m the first past _SPLIT_FROM / p.
_LEVEL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 31, 2477)

_BAND_SCRIPT_HEAD = _EMPTY_STORE + f"""
from stirval import InvariantError, Valuation, stirling1_row, valuation_row, vp_int

BAND_ROWS, FLAT_ROWS = {_BAND_ROWS!r}, {_FLAT_ROWS!r}


def read(p, n, sizes, precision):
    # the reader's own doubling, on a chain of sizes chosen by the caller
    empty_store()
    while (valuations := bigmath._read_levels(p, n, sizes, precision)) is None:
        precision *= 2
    return tuple(map(Valuation, valuations[1:]))


def one_band(p, n):
    # row n alone from its flat start, as every row was read before the levels
    return read(p, n, [n], bigmath._initial_precision(p, n))


def held_residue_rows(p):
    # a refused row at p must leave none of these: any of them may be the fault
    return [key for key in bigmath._rows if key[0] == p and key[-1] == bigmath._RESIDUES]
"""

_BAND_ROWS_EXACT = _BAND_SCRIPT_HEAD + f"""
LEVEL_PRIMES = {_LEVEL_PRIMES!r}
reader, paths = bigmath._read_levels, {{}}


def recording(p, n, sizes, precision):
    paths.setdefault((p, n), set()).add(len(sizes) > 1)
    return reader(p, n, sizes, precision)


bigmath._read_levels = recording
try:
    for p, n in BAND_ROWS + FLAT_ROWS:
        empty_store()
        row = valuation_row(p, n)
        if paths.pop((p, n)) != {{(p, n) in BAND_ROWS}}:
            raise SystemExit(f"valuation_row({{p}}, {{n}}) took the wrong path")
        if row != tuple(vp_int(p, v) for v in stirling1_row(n)):
            raise SystemExit(f"valuation_row({{p}}, {{n}}) is not exact")
        if row[1:] != one_band(p, n):
            raise SystemExit(f"valuation_row({{p}}, {{n}}) differs from its one-band read")
    for p in LEVEL_PRIMES:
        m = bigmath._SPLIT_FROM // p + 1
        for n in sorted({{p * m, p * m + 1, p * m + p - 1, p * m + p // 2}}):
            sizes = bigmath._chain(p, n)
            levels = read(p, n, sizes, bigmath._high_precision(p, n))
            if (len(sizes) > 1) != (n > p) or levels != one_band(p, n):
                raise SystemExit(f"row {{n}} at p = {{p}}: its {{len(sizes)}} levels differ from its one band")
            empty_store()
            if levels != valuation_row(p, n)[1:]:
                raise SystemExit(f"valuation_row({{p}}, {{n}}) differs from its levels")
            if n <= 600 and levels != tuple(vp_int(p, v) for v in stirling1_row(n)[1:]):
                raise SystemExit(f"row {{n}} at p = {{p}}: its levels are not exact")
finally:
    bigmath._read_levels = reader
    empty_store()
print("ok")
"""


def test_band_rows_equal_the_exact_and_the_flat_rows(cold_rows):
    """Rows read in levels and rows read as one band equal the exact rows and
    the one-band read; each takes the path the rule gives it.  At every p of
    _LEVEL_PRIMES, up to 2477 where the rule reads every row as one band,
    rows read in levels equal their one-band read."""
    cold_rows()
    exec(compile(_BAND_ROWS_EXACT, "<band-rows-exact>", "exec"), {})


def test_band_rows_equal_the_exact_and_the_flat_rows_under_python_O():
    _run_fresh(_BAND_ROWS_EXACT, "-O")


_FORCED_BAND_DOUBLING = _BAND_SCRIPT_HEAD + """
high, reader, split = bigmath._high_precision, bigmath._read_levels, bigmath._split_rising
reads, splits = [], []


def counting_reader(p, n, sizes, precision):
    reads.append((p, n, len(sizes), precision))
    return reader(p, n, sizes, precision)


def counting_split(p, n, modulus):
    splits.append((p, n))
    return split(p, n, modulus)


# the levels start at _high_precision: forced to 1, every level of these
# rows sees zero residues, and all are read again with more digits
bigmath._high_precision = lambda p, n: 1
bigmath._read_levels, bigmath._split_rising = counting_reader, counting_split
try:
    for p, n in BAND_ROWS:
        empty_store()  # so no held row n - 1 gives row n
        if valuation_row(p, n) != tuple(vp_int(p, v) for v in stirling1_row(n)):
            raise SystemExit(f"valuation_row({p}, {n}) is not exact")
        mine = [(levels, precision) for q, size, levels, precision in reads if (q, size) == (p, n)]
        if len(mine) < 2 or mine[0][1] != 1 or not all(levels > 1 for levels, _ in mine):
            raise SystemExit(f"no doubling in levels: row {n} read as {mine}")
        # row n itself is split afresh at each precision its levels double to
        if splits.count((p, n)) < 2:
            raise SystemExit(f"no doubling: {splits.count((p, n))} split build(s) of row {n}")
finally:
    bigmath._high_precision = high
    bigmath._read_levels, bigmath._split_rising = reader, split
    empty_store()
print("ok")
"""


def test_forced_doubling_in_each_band_stays_exact(cold_rows):
    cold_rows()
    exec(compile(_FORCED_BAND_DOUBLING, "<forced-band-doubling>", "exec"), {})


def test_forced_doubling_in_each_band_survives_python_O():
    _run_fresh(_FORCED_BAND_DOUBLING, "-O")


_CORRUPT_BAND = _BAND_SCRIPT_HEAD + """
import math

residue_row, unit_factor, packed = bigmath._residue_row, bigmath._unit_factor, bigmath._packed_product
fired = []


def chain_row(p, n):
    # one residue of chain row ceil(n / p), wherever it is read
    def corrupted(q, size, modulus):
        c = residue_row(q, size, modulus)
        if size == bigmath._chain(p, n)[1]:
            fired.append(size)
            c[size // 2 + 1] += 1
        return c
    bigmath._residue_row = corrupted


def unit_factor_coefficient(p, n):
    # the constant term of the first unit factor, U over u < n
    def corrupted(q, size, precision):
        c = unit_factor(q, size, precision)
        if not fired:
            fired.append(size)
            c[0] += 1
        return c
    bigmath._unit_factor = corrupted


def band_coefficient(p, n):
    # one coefficient of band 1, chain row ceil(n / p) times its unit factor
    def corrupted(a, b, modulus):
        c = packed(a, b, modulus)
        size = bigmath._chain(p, n)[1]
        if len(a) == size + 1 and len(b) < len(a) and not fired:
            fired.append(size)
            c[size // 2 + 1] += 1
        return c
    bigmath._packed_product = corrupted


def disagreement(p, n):
    # row n's residues at x^2 .. x^7, entries that deeper bands read, moved by
    # x^2 (x - 1)(x - 2)(x + 1)(x - u1)(x - u2): every witness point stays put,
    # and the zero residues there, of valuations past P, turn nonzero
    u1, u2 = [u for u in bigmath._WITNESS_UNITS if u % p][:2]
    fault = [1]
    for root in (1, 2, -1, u1, u2):
        fault = [low - root * high for low, high in zip([0] + fault, fault + [0])]

    def corrupted(q, size, modulus):
        c = residue_row(q, size, modulus)
        if size == n and not fired:
            if any(c[2:8]) or bigmath._chain(p, n)[1] < 8:
                raise SystemExit(f"row {n}: x^2 .. x^7 are not all deeper bands' zeros")
            fired.append(size)
            for i, f in enumerate(fault):
                c[2 + i] = (c[2 + i] + f) % modulus
            if any(bigmath._at(c, x, modulus) != bigmath._at(c[:2] + [0] * 6 + c[8:], x, modulus)
                   for x in (1, 2, -1, u1, u2)):
                raise SystemExit("the fault moved a witness value")
        return c
    bigmath._residue_row = corrupted


try:
    # each refusal names row n and the check that made it
    refusals = [(chain_row, "of valuation row {n} mod {p}^"),
                (unit_factor_coefficient, "unit factor at level 1 of valuation row {n} mod"),
                (band_coefficient, "level 1 of valuation row {n} mod"),
                (disagreement, "valuation row {n} mod {p}^")]
    for corrupt, refusal in refusals:
        for p, n in BAND_ROWS[::2] + [(3, 1458), (3, 487)]:
            message = refusal.format(p=p, n=n)
            del fired[:]
            corrupt(p, n)
            empty_store()
            try:
                valuation_row(p, n)
            except InvariantError as exc:
                seen = "disagrees with a deeper band" if corrupt is disagreement else "witness"
                if message not in str(exc) or seen not in str(exc):
                    raise
            else:
                raise SystemExit(f"valuation_row({p}, {n}) took {corrupt.__name__}")
            finally:
                bigmath._residue_row, bigmath._unit_factor = residue_row, unit_factor
                bigmath._packed_product = packed
            if not fired or (corrupt is not chain_row and len(fired) != 1):
                raise SystemExit(f"{corrupt.__name__} fired {len(fired)} times at row {n}")
            # one rule for every refusal: no residue row at p stays held
            if held_residue_rows(p):
                raise SystemExit(f"a residue row stays held after {corrupt.__name__} at row {n}")
finally:
    bigmath._residue_row, bigmath._unit_factor = residue_row, unit_factor
    bigmath._packed_product = packed
    empty_store()
print("ok")
"""


def test_band_checks_refuse_a_corrupted_row_m_unit_factor_or_h_and_a_disagreement(cold_rows):
    """One residue of chain row m = ceil(n/p), one coefficient of a unit factor
    or of band 1 (row m times its unit factor) off by one is refused by the
    witness points, and a fault that every witness point misses but that
    turns a deeper band's zero residues in row n nonzero is refused by the
    comparison of the bands; each refusal drops every residue row at p."""
    cold_rows()
    exec(compile(_CORRUPT_BAND, "<corrupt-band>", "exec"), {})


def test_band_checks_survive_python_O():
    _run_fresh(_CORRUPT_BAND, "-O")


_REFUSAL_DROPS_SPLIT_ROWS = _BAND_SCRIPT_HEAD + """
expand, fired = bigmath._expand_rising, []


def corrupted(n, shift, modulus=0):
    # one residue of row 105 as the loop builds it mod 7^16
    c = expand(n, shift, modulus)
    if (n, modulus) == (105, 7**16):
        fired.append(n)
        c[n // 2] += 1
    return c


# row 210 is read in levels [210, 30, 5] at P = 16, and its d = 2 split reads
# row 105: neither ceil(210 / 7^l) nor floor(210 / 7^l)
if (bigmath._chain(7, 210), bigmath._high_precision(7, 210)) != ([210, 30, 5], 16):
    raise SystemExit("row 210 at p = 7 is no longer read in levels 210, 30, 5 at P = 16")
empty_store()
try:
    bigmath._expand_rising = corrupted
    try:
        valuation_row(7, 210)
    except InvariantError as exc:
        if "valuation row 210 mod 7^16" not in str(exc):
            raise
    else:
        raise SystemExit("valuation_row(7, 210) took a corrupted row 105")
    finally:
        bigmath._expand_rising = expand
    if fired != [105] or held_residue_rows(7):
        raise SystemExit(f"row 105 built {len(fired)} time(s); held after the refusal: {held_residue_rows(7)}")
    # the kernel restored, the row is read afresh
    if valuation_row(7, 210) != tuple(vp_int(7, v) for v in stirling1_row(210)):
        raise SystemExit("valuation_row(7, 210) is not exact after the refusal")
finally:
    bigmath._expand_rising = expand
    empty_store()
print("ok")
"""


def test_a_refusal_drops_the_rows_its_splits_read(cold_rows):
    """A residue of row 105 corrupted as the loop builds it mod 7^16 is refused
    through row 210's d = 2 split; the refusal leaves no residue row at p = 7
    held, so a second read, the kernel restored, is exact."""
    cold_rows()
    exec(compile(_REFUSAL_DROPS_SPLIT_ROWS, "<refusal-drops-split-rows>", "exec"), {})


def test_a_refusal_drops_the_rows_its_splits_read_under_python_O():
    _run_fresh(_REFUSAL_DROPS_SPLIT_ROWS, "-O")


_TOP_SPLIT = _EMPTY_STORE + """
copy_maker, copies = bigmath._copies, []


def counting(top, skip, d, modulus, terms=None):
    if skip:  # the top path: copies from the top entries of row m
        copies.append((d, terms))
    return copy_maker(top, skip, d, modulus, terms)


def brute_copy(m, j, d, modulus):
    # prod_{i<m} (x + j + i d) mod modulus, one linear factor at a time
    c = [1]
    for i in range(m):
        c = [(low * (j + i * d) + high) % modulus for low, high in zip(c + [0], [0] + c)]
    return c


def brute_unit_factor(p, size, precision):
    modulus, c = p**precision, [1]
    for u in range(1, size):
        if u % p:
            c = [(low * u + high) % modulus for low, high in zip(c + [0], [0] + c)][:precision]
    return [v * p**d % modulus for d, v in enumerate(c + [0] * (precision - len(c)))]


bigmath._copies = counting
try:
    for p in (2, 3, 5, 7):
        for precision in (1, 3, 8):
            modulus = p**precision
            for d in (2, 3, 5, 7):
                for m in (precision - 1, precision + 1):  # skip = 0: the whole of Q, shifted
                    made = copy_maker(bigmath._expand_rising(m, 0, modulus), 0, d, modulus)
                    if made != [brute_copy(m, j, d, modulus) for j in range(d)]:
                        raise SystemExit(f"copies of Q at m = {m}, d = {d} mod {p}^{precision} differ")
            for m in (2 * precision, 2 * precision + 1):  # split by Q's top P from 2P + 1 on
                for n in (p * m, p * m + 1, p * m + p - 1):
                    del copies[:]
                    empty_store()
                    if bigmath._split_rising(p, n, modulus) != bigmath._expand_rising(n, 0, modulus):
                        raise SystemExit(f"split row {n} mod {p}^{precision} differs from the loop's")
                    if (copies[:1] == [(p, None)]) != (m > 2 * precision):
                        raise SystemExit(f"split row {n} mod {p}^{precision} took {copies[:1]}")
                    del copies[:]
                    empty_store()
                    if bigmath._unit_factor(p, n, precision) != brute_unit_factor(p, n, precision):
                        raise SystemExit(f"unit factor of row {n} mod {p}^{precision} differs")
                    if bool(copies) != (m > 2 * precision):
                        raise SystemExit(f"unit factor of row {n} mod {p}^{precision} took {copies}")
finally:
    bigmath._copies = copy_maker
    empty_store()
print("ok")
"""


def test_top_split_and_unit_factor_equal_the_loop_on_both_sides_of_m_2p(cold_rows):
    """Row n = pm + r mod p^P split by Q's top P once m > 2P, and the unit
    factor from its top-P copies once m > 2P, each equal to the loop on
    both sides of m = 2P; and at skip = 0, copy j of Q for a spacing d equal
    to prod_{i<m} (x + j + i d) on both sides of m = P."""
    cold_rows()
    exec(compile(_TOP_SPLIT, "<top-split>", "exec"), {})


def test_top_split_and_unit_factor_survive_python_O():
    _run_fresh(_TOP_SPLIT, "-O")


def test_thm2_after_thm1_and_cor1_splits_no_row(cold_rows, monkeypatch):
    """After the thm1 and cor1 sweeps to n = 6, a thm2 sweep to n = 6 reads
    rows a*3^n + 1 in levels from held chain rows by one linear factor each,
    splitting none."""
    cold_rows()
    stirval.sweep("thm1", {"n_max": 6})
    stirval.sweep("cor1", {"n_max": 6})
    split, splits = bigmath._split_rising, []

    def counting_split(p, n, modulus):
        splits.append(n)
        return split(p, n, modulus)

    monkeypatch.setattr(bigmath, "_split_rising", counting_split)
    report = stirval.sweep("thm2", {"n_max": 6})
    assert (report.total, report.failed) == (3276, 0)
    assert splits == []


def test_narrow_slots_are_read_whole_and_wide_slots_in_pieces(monkeypatch):
    """A slot under int()'s digit limit is read by int() itself; only a slot
    past it goes through the piecewise reader."""
    read_int, pieces = bigmath._read_int, []

    def counting(digits, piece):
        pieces.append(len(digits))
        return read_int(digits, piece)

    monkeypatch.setattr(bigmath, "_read_int", counting)
    modulus = 3**22
    a, b = [modulus - 1, 5, 7], [modulus - 2, 3]
    schoolbook = [sum(a[i] * b[k - i] for i in range(3) if 0 <= k - i < 2) % modulus for k in range(4)]
    assert bigmath._packed_product(a, b, modulus) == schoolbook and pieces == []
    wide = 10**2150  # slots of 4301 digits: (10^2150 - 1)^2 times 2 terms
    a, b = [wide - 1, 1], [wide - 1, wide - 2]
    schoolbook = [sum(a[i] * b[k - i] for i in range(2) if 0 <= k - i < 2) % wide for k in range(3)]
    assert bigmath._packed_product(a, b, wide) == schoolbook
    assert pieces == [4301] * 3
