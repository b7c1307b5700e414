import copy
import os
import pickle
import random
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import stirval
import stirval.oracles as oracles
import stirval.padic as padic
from stirval import (
    INFINITE,
    BoundKind,
    DomainError,
    OracleResult,
    QueryP,
    UsageError,
    Valuation,
    conjecture13_valuation,
    cor1_valuation,
    decompose_p,
    full_valuation_3,
    full_valuation_p,
    h_valuation,
    komatsu_young_valuation,
    lengyel_special,
    max_valuation_bound,
    stirling1_row,
    thm1_valuation,
    thm2_shift_valuation,
    valuation_row,
    vp_factorial,
    vp_int,
)


def test_thm1_examples():
    assert thm1_valuation(QueryP(3, 1, 2, 2, 3)) == 4
    assert thm1_valuation(QueryP(3, 2, 1, 1, 3)) == 2
    assert thm1_valuation(QueryP(3, 1, 2, 1, 2)) == 2  # = v_3(8!) = v_3(40320)


def test_query3_domain():
    with pytest.raises(DomainError, match="a must"):
        QueryP(3, 3, 2, 1, 2)
    with pytest.raises(DomainError, match="m must"):
        QueryP(3, 1, 2, 3, 2)
    with pytest.raises(DomainError, match="k must"):
        QueryP(3, 1, 2, 2, 8)
    with pytest.raises(DomainError, match="k must"):
        QueryP(3, 1, 2, 2, 1)
    # k = 3 at a = 1, m = 1 would address index 0
    with pytest.raises(DomainError, match="a\\*p\\^m - k"):
        QueryP(3, 1, 1, 1, 3)


def test_cor1_examples():
    assert cor1_valuation(1, 2, 2) == 1  # v_3(s(9,7)) = v_3(546)
    assert cor1_valuation(1, 2, 5) == 3  # v_3(s(9,4)) = v_3(67284)
    assert cor1_valuation(2, 1, 3) == 2


def test_cor1_matches_thm1_at_m_equal_n():
    for a in (1, 2):
        for n in range(1, 6):
            k_top = min(2 * a * 3 ** (n - 1) + 1, a * 3**n - 1)
            for k in range(2, k_top + 1):
                assert cor1_valuation(a, n, k) == thm1_valuation(QueryP(3, a, n, n, k))


def test_decompose_examples():
    q = decompose_p(3, 1, 2, 1)
    assert (q.m, q.k) == (1, 2)
    q = decompose_p(3, 1, 2, 7)
    assert (q.m, q.k) == (2, 2)
    q = decompose_p(3, 2, 3, 5)
    assert (q.m, q.k) == (2, 13)


def test_decompose_roundtrip_and_tiling():
    """Every t in [1, a*3^n - 2] hits exactly one (m, k) cell."""
    for a in (1, 2):
        for n in range(1, 5):
            seen = {}
            for t in range(1, a * 3**n - 1):
                q = decompose_p(3, a, n, t)
                assert q.t == t
                seen[t] = (q.m, q.k)
            # scanning the admissible set recovers each t exactly once
            cells = set()
            for m in range(1, n + 1):
                k_top = min(2 * a * 3 ** (m - 1) + 1, a * 3**m - 1)
                for k in range(2, k_top + 1):
                    cells.add((m, k))
            assert cells == set(seen.values())
            assert len(cells) == a * 3**n - 2


def test_decompose_domain():
    with pytest.raises(DomainError):
        decompose_p(3, 1, 2, 0)
    with pytest.raises(DomainError):
        decompose_p(3, 1, 2, 8)  # 3^2 - 2 = 7 is the last tiled index


def test_full_valuation_examples():
    assert full_valuation_3(1, 2, 9) == 0
    assert full_valuation_3(1, 2, 6) == 4
    assert full_valuation_3(1, 2, 1) == 2
    assert full_valuation_3(1, 2, 8) == 2  # second-from-top boundary: n


def test_full_valuation_against_exact_rows():
    for a in (1, 2):
        for n in range(1, 4):
            row = stirling1_row(a * 3**n)
            for t in range(1, a * 3**n + 1):
                assert full_valuation_3(a, n, t) == vp_int(3, row[t]), (a, n, t)


def test_full_valuation_domain():
    with pytest.raises(DomainError):
        full_valuation_3(1, 2, 0)
    with pytest.raises(DomainError):
        full_valuation_3(1, 2, 10)


def test_lengyel_examples():
    assert lengyel_special("s3n_2", 2) == 2
    assert lengyel_special("s3n_3", 2) == 0
    assert lengyel_special("s2x3n_2", 2) == 4


def test_lengyel_matches_full_valuation():
    for n in range(1, 6):
        assert lengyel_special("s3n_2", n) == full_valuation_3(1, n, 2)
        assert lengyel_special("s3n_3", n) == full_valuation_3(1, n, 3)
        assert lengyel_special("s2x3n_2", n) == full_valuation_3(2, n, 2)


def test_lengyel_rejects_unknown_variant():
    with pytest.raises(UsageError):
        lengyel_special("s3n_4", 2)


def test_komatsu_young_examples():
    assert komatsu_young_valuation(3, 3, 1, 0) == 0
    assert komatsu_young_valuation(2, 1, 2, 1) == 1  # v_2(s(6,2)) = v_2(274)
    assert komatsu_young_valuation(3, 0, 1, 0) == 0
    with pytest.raises(DomainError):
        komatsu_young_valuation(3, 2, 1, 3)  # m >= p^r


@pytest.mark.parametrize("p", [2, 3, 5])
def test_komatsu_young_against_exact_rows(p):
    """v_p(s(n+1, k+1)) for n = k*p^r + m, checked by brute force."""
    for k in range(0, 5):
        for r in range(0, 4):
            for m in range(0, min(p**r, 6)):
                n = k * p**r + m
                if n > 300:
                    continue
                row = stirling1_row(n + 1)
                assert komatsu_young_valuation(p, k, r, m) == vp_int(p, row[k + 1]), (
                    p,
                    k,
                    r,
                    m,
                )


def test_conjecture13_examples():
    assert conjecture13_valuation(QueryP(3, 1, 2, 2, 3)) == 4
    assert conjecture13_valuation(QueryP(5, 1, 1, 1, 2)) == 1  # v_5(s(5,3)) = v_5(35)
    assert conjecture13_valuation(QueryP(5, 1, 1, 1, 4)) == 0  # v_5(s(5,1)) = v_5(24)


def test_conjecture13_matches_thm1_for_p3():
    for a in (1, 2):
        for n in range(1, 5):
            for m in range(1, n + 1):
                k_top = min(2 * a * 3 ** (m - 1) + 1, a * 3**m - 1)
                for k in range(2, k_top + 1):
                    q = QueryP(3, a, n, m, k)
                    assert conjecture13_valuation(q) == thm1_valuation(q), (a, n, m, k)


def test_conjecture13_p2_against_exact_rows():
    for n in range(1, 5):
        row = stirling1_row(2**n)
        for m in range(1, n + 1):
            k_top = min(2 ** (m - 1) + 1, 2**m - 1)
            for k in range(2, k_top + 1):
                q = QueryP(2, 1, n, m, k)
                assert conjecture13_valuation(q) == vp_int(2, row[q.t]), (n, m, k)


def test_queryp_domain():
    with pytest.raises(DomainError, match="a must"):
        QueryP(5, 5, 1, 1, 2)
    with pytest.raises(DomainError, match="k must"):
        QueryP(5, 1, 1, 1, 6)
    with pytest.raises(DomainError, match="a\\*p\\^m - k"):
        QueryP(5, 1, 1, 1, 5)  # would address index 0
    with pytest.raises(DomainError):
        QueryP(4, 1, 1, 1, 2)  # 4 is not prime


def test_queryp_derived_fields():
    q = QueryP(7, 2, 3, 2, 9)
    assert q.epsilon_k == 1
    assert q.k_residue == 3
    assert q.t == 2 * 49 - 9


def test_thm2_examples():
    r = thm2_shift_valuation(1, 1, 1)
    assert r.kind is BoundKind.EXACT and r.value == 0
    r = thm2_shift_valuation(1, 1, 3)
    assert r.kind is BoundKind.EXACT and r.value == 0
    r = thm2_shift_valuation(1, 1, 2)
    assert r.kind is BoundKind.LOWER_BOUND and r.value == 1
    assert str(r) == ">=1"


def test_thm2_against_exact_rows():
    for a in (1, 2):
        for n in (1, 2):
            row_up = stirling1_row(a * 3**n + 1)
            for k in range(1, a * 3**n + 1):
                res = thm2_shift_valuation(a, n, k)
                actual = vp_int(3, row_up[k + 1])
                if res.kind is BoundKind.EXACT:
                    assert actual == res.value, (a, n, k)
                else:
                    assert actual >= res.value, (a, n, k)


def test_max_valuation_bound_examples():
    r = max_valuation_bound(1, 2)
    assert r.kind is BoundKind.UPPER_BOUND and r.value == 4
    assert max_valuation_bound(1, 3).value == 10
    assert max_valuation_bound(2, 1).value == 2
    assert max_valuation_bound(1, 1).value == 1
    assert max_valuation_bound(2, 4).value == 76


def test_h_valuation_examples():
    assert h_valuation(3, 3, 1) == -1
    assert h_valuation(3, 27, 1) == -3
    assert h_valuation(3, 3, 0) == 0
    assert h_valuation(5, 4, 2) == 1  # H(4,2) = 35/24


def test_h_valuation_closed_chain_consistency():
    """For n = a*3^N and k = a (mod 2) the asserted chain must hold; calling
    through these points exercises the assertion."""
    for a, big_n in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2)):
        n = a * 3**big_n
        for k in range(1, n + 1):
            if (k - a) % 2 == 0:
                val = h_valuation(3, n, k)
                assert val == full_valuation_3(a, big_n, k) - vp_factorial(3, n)


def test_invariant_checks_survive_python_O():
    """Forced disagreements raise InvariantError even with asserts stripped."""
    script = """
import sys
import stirval.oracles as oracles
import stirval.padic as padic
from stirval import InvariantError, Valuation

caught = []
oracles.full_valuation_3 = lambda a, n, t: Valuation(99)
try:
    oracles.h_valuation(3, 3, 1)
except InvariantError:
    caught.append("h_valuation")
padic.digit_sum = lambda p, n: 0
try:
    padic.vp_factorial(3, 5)
except InvariantError:
    caught.append("vp_factorial")
print(sys.flags.optimize, *caught)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "h_valuation", "vp_factorial"]


def test_h_valuation_domain():
    with pytest.raises(DomainError):
        h_valuation(3, 3, 4)
    with pytest.raises(DomainError):
        h_valuation(3, 0, 0)


def test_decompose_p_cells():
    q = decompose_p(5, 1, 1, 1)
    assert (q.m, q.k) == (1, 4)
    q = decompose_p(2, 1, 3, 1)
    assert (q.m, q.k) == (2, 3)
    q = decompose_p(7, 3, 2, 40)
    assert q.t == 40 and q.a == 3
    # a = 4 leaves t = 2 uncovered at p = 7
    with pytest.raises(DomainError, match="bottom cell"):
        decompose_p(7, 4, 1, 2)


def test_boundary_column_values():
    """The lowest and highest columns have simple closed forms."""
    for a in (1, 2):
        for n in range(1, 5):
            top = a * 3**n
            row = stirling1_row(top)
            assert vp_int(3, row[1]) == (a * 3**n - 2 * n - a) // 2
            assert vp_int(3, row[top]) == 0
            assert vp_int(3, row[top - 1]) == n
    assert full_valuation_3(1, 3, 1) == (27 - 6 - 1) // 2
    assert vp_int(3, 0) == INFINITE


def test_first_column_closed_form_for_other_primes(monkeypatch):
    """At p != 3, t = 1 is v_p((a*p^n - 1)!), answered without a digit sum."""
    for p in (2, 5, 7, 11):
        for a in range(1, p):
            for n in range(1, 31):
                assert full_valuation_p(p, a, n, 1) == vp_factorial(p, a * p**n - 1), (p, a, n)
    expected = vp_factorial(5, 5**20000 - 1)

    def no_digit_sum(p, n):
        raise RuntimeError("digit_sum called")

    monkeypatch.setattr(padic, "digit_sum", no_digit_sum)
    with pytest.raises(RuntimeError):
        vp_factorial(5, 24)  # the patch is what vp_factorial calls
    assert full_valuation_p(5, 1, 20000, 1) == expected
    assert full_valuation_p(7, 3, 40000, 1) == (3 * 7**40000 - 3) // 6 - 40000


#: One out-of-domain call per guard, with the DomainError message the
#: oracles gave before they were split into checks and plain-int cores.
_GOLDEN_DOMAIN_ERRORS = [
    ("full_valuation_p", (4, 1, 1, 1), "4 is not prime (divisible by 2)"),
    ("full_valuation_p", (3, 0, 2, 1), "a must satisfy 1 <= a <= p-1 = 2, got 0"),
    ("full_valuation_p", (3, 3, 2, 1), "a must satisfy 1 <= a <= p-1 = 2, got 3"),
    ("full_valuation_p", (3, 1, 0, 1), "n must be >= 1, got 0"),
    ("full_valuation_p", (3, 1, 2, 0), "t must satisfy 1 <= t <= a*p^n = 9, got 0"),
    ("full_valuation_p", (3, 2, 2, 19), "t must satisfy 1 <= t <= a*p^n = 18, got 19"),
    ("full_valuation_p", (5, 0, 1, 1), "a must satisfy 1 <= a <= p-1 = 4, got 0"),
    ("full_valuation_p", (5, 5, 1, 1), "a must satisfy 1 <= a <= p-1 = 4, got 5"),
    ("full_valuation_p", (5, 2, 0, 1), "n must be >= 1, got 0"),
    ("full_valuation_p", (5, 2, 1, 0), "t must satisfy 1 <= t <= a*p^n = 10, got 0"),
    ("full_valuation_p", (5, 2, 1, 11), "t must satisfy 1 <= t <= a*p^n = 10, got 11"),
    ("full_valuation_p", (5, 4, 1, 2), "no closed form implemented for p=5, a=4, n=1, t=2; use --method exact"),
    ("full_valuation_p", (5, 4, 3, 2), "no closed form implemented for p=5, a=4, n=3, t=2; use --method exact"),
    ("full_valuation_3", (3, 1, 1), "a must satisfy 1 <= a <= p-1 = 2, got 3"),
    ("full_valuation_3", (1, 2, 10), "t must satisfy 1 <= t <= a*p^n = 9, got 10"),
    ("thm2_shift_valuation", (0, 1, 1), "a must satisfy 1 <= a <= p-1 = 2, got 0"),
    ("thm2_shift_valuation", (3, 1, 1), "a must satisfy 1 <= a <= p-1 = 2, got 3"),
    ("thm2_shift_valuation", (1, 0, 1), "n must be >= 1, got 0"),
    ("thm2_shift_valuation", (1, 2, 0), "k must satisfy 1 <= k <= a*3^n = 9, got 0"),
    ("thm2_shift_valuation", (2, 2, 19), "k must satisfy 1 <= k <= a*3^n = 18, got 19"),
    ("cor1_valuation", (0, 2, 2), "a must satisfy 1 <= a <= p-1 = 2, got 0"),
    ("cor1_valuation", (3, 2, 2), "a must satisfy 1 <= a <= p-1 = 2, got 3"),
    ("cor1_valuation", (1, 0, 2), "n must be >= 1, got 0"),
    ("cor1_valuation", (1, 2, 1), "k must satisfy 2 <= k <= a(p-1)p^(m-1)+1 = 7, got k=1"),
    ("cor1_valuation", (1, 2, 8), "k must satisfy 2 <= k <= a(p-1)p^(m-1)+1 = 7, got k=8"),
    ("cor1_valuation", (2, 3, 38), "k must satisfy 2 <= k <= a(p-1)p^(m-1)+1 = 37, got k=38"),
    ("cor1_valuation", (1, 1, 3), "a*p^m - k must be >= 1, got 0"),
    ("decompose_p", (4, 1, 1, 1), "4 is not prime (divisible by 2)"),
    ("decompose_p", (3, 3, 2, 1), "a must satisfy 1 <= a <= p-1 = 2, got 3"),
    ("decompose_p", (3, 1, 0, 1), "n must be >= 1, got 0"),
    ("decompose_p", (3, 1, 2, 0), "t must satisfy 1 <= t <= a*p^n - 2 = 7, got 0"),
    ("decompose_p", (3, 1, 2, 8), "t must satisfy 1 <= t <= a*p^n - 2 = 7, got 8"),
    ("decompose_p", (5, 4, 1, 2), "t=2 is below the bottom cell of the closed-form domain for p=5, a=4"),
    ("decompose_p", (5, 6, 1, 2), "a must satisfy 1 <= a <= p-1 = 4, got 6"),
    ("decompose_p", (2, 1, 3, 7), "t must satisfy 1 <= t <= a*p^n - 2 = 6, got 7"),
    ("QueryP", (4, 1, 1, 1, 2), "4 is not prime (divisible by 2)"),
    ("QueryP", (3, 0, 1, 1, 2), "a must satisfy 1 <= a <= p-1 = 2, got 0"),
    ("QueryP", (3, 1, 0, 1, 2), "n must be >= 1, got 0"),
    ("QueryP", (3, 1, 2, 0, 2), "m must satisfy 1 <= m <= n, got m=0, n=2"),
    ("QueryP", (3, 1, 2, 3, 2), "m must satisfy 1 <= m <= n, got m=3, n=2"),
    ("QueryP", (3, 1, 2, 2, 1), "k must satisfy 2 <= k <= a(p-1)p^(m-1)+1 = 7, got k=1"),
    ("QueryP", (3, 1, 2, 2, 8), "k must satisfy 2 <= k <= a(p-1)p^(m-1)+1 = 7, got k=8"),
    ("QueryP", (3, 1, 1, 1, 3), "a*p^m - k must be >= 1, got 0"),
    ("QueryP", (5, 2, 2, 2, 42), "k must satisfy 2 <= k <= a(p-1)p^(m-1)+1 = 41, got k=42"),
]


@pytest.mark.parametrize("name, args, message", _GOLDEN_DOMAIN_ERRORS)
def test_domain_error_messages_are_unchanged(name, args, message):
    with pytest.raises(DomainError) as exc:
        getattr(stirval, name)(*args)
    assert str(exc.value) == message


_BIG = 3**9100  # over 4300 digits, str()'s default limit for an int


@pytest.mark.parametrize("name, args, head, bound", [
    ("thm2_shift_valuation", (1, 9100, 0), "k must satisfy 1 <= k <= a*3^n = ", _BIG),
    ("full_valuation_3", (1, 9100, 0), "t must satisfy 1 <= t <= a*p^n = ", _BIG),
    ("full_valuation_p", (3, 1, 9100, 0), "t must satisfy 1 <= t <= a*p^n = ", _BIG),
    ("decompose_p", (3, 1, 9100, 0), "t must satisfy 1 <= t <= a*p^n - 2 = ", _BIG - 2),
    ("cor1_valuation", (1, 9100, 1), "k must satisfy 2 <= k <= a(p-1)p^(m-1)+1 = ",
     2 * _BIG // 3 + 1),
    ("QueryP", (3, 1, 9100, 9100, 1), "k must satisfy 2 <= k <= a(p-1)p^(m-1)+1 = ",
     2 * _BIG // 3 + 1),
    ("komatsu_young_valuation", (3, 1, 9100, _BIG), "m must satisfy 0 <= m < p^r = ", _BIG),
], ids=["thm2_shift_valuation", "full_valuation_3", "full_valuation_p", "decompose_p",
        "cor1_valuation", "QueryP", "komatsu_young_valuation"])
def test_domain_errors_print_bounds_past_the_int_digit_limit(name, args, head, bound):
    with pytest.raises(DomainError) as exc:
        getattr(stirval, name)(*args)
    message = str(exc.value)
    assert message.startswith(head) and message[len(head):].startswith(f"{Decimal(bound)}, ")


def test_thm1_refuses_other_primes_with_its_message():
    with pytest.raises(DomainError) as exc:
        thm1_valuation(QueryP(5, 1, 1, 1, 2))
    assert str(exc.value) == "Theorem 1 is the p = 3 form, got p=5"


def test_p3_oracles_against_valuation_rows_whole_domain():
    for a in (1, 2):
        for n in range(1, 6):
            top = a * 3**n
            vals, vals_up = valuation_row(3, top), valuation_row(3, top + 1)
            for t in range(1, top + 1):
                assert full_valuation_3(a, n, t) == vals[t], (a, n, t)
                res = thm2_shift_valuation(a, n, t)
                if (t - a) % 2 == 0:
                    assert res.kind is BoundKind.EXACT and res.value == vals_up[t + 1], (a, n, t)
                else:
                    assert res.kind is BoundKind.LOWER_BOUND, (a, n, t)
                    assert vals_up[t + 1] >= res.value, (a, n, t)
            for k in range(2, min(2 * a * 3 ** (n - 1) + 1, top - 1) + 1):
                assert cor1_valuation(a, n, k) == vals[top - k], (a, n, k)


@pytest.mark.parametrize("p", [5, 7])
def test_conjecture13_against_valuation_rows_whole_domain(p):
    decomposed = 0
    for a in range(1, p):
        n = 1
        while a * p**n <= 700:
            top = a * p**n
            vals = valuation_row(p, top)
            for t in range(1, top + 1):
                if 1 < t <= a - 2:
                    with pytest.raises(DomainError, match="no closed form"):
                        full_valuation_p(p, a, n, t)
                else:
                    assert full_valuation_p(p, a, n, t) == vals[t], (p, a, n, t)
                if t > top - 2:
                    continue
                if t <= a - 2:  # below the bottom cell
                    with pytest.raises(DomainError, match="bottom cell"):
                        decompose_p(p, a, n, t)
                    continue
                q = decompose_p(p, a, n, t)
                assert q == QueryP(p, a, n, q.m, q.k) and q.t == t
                assert conjecture13_valuation(q) == vals[t], (p, a, n, t)
                decomposed += 1
            n += 1
    assert decomposed > 1000


def _cell_by_loop(q, a, t):
    """The cell (m, k) of t found by multiplying a*q up one power at a time."""
    m, cell_top = 1, a * q
    while cell_top - 2 < t:
        m += 1
        cell_top *= q
    k = cell_top - t
    if k > a * (q - 1) * q ** (m - 1) + 1:
        raise DomainError(
            f"t={t} is below the bottom cell of the closed-form domain for p={q}, a={a}"
        )
    return m, k


def _cell_as_mk(q, a, t):
    m, cell_top = oracles._cell(q, a, t)
    return m, cell_top - t


def _cell_edge_ts(q, a, m_max):
    """Every t within 1 of a cell edge a*q^(m-1) - 1 or a*q^m - 2, m <= m_max."""
    ts = set(range(1, a + 2))
    for m in range(1, m_max + 1):
        for edge in (a * q ** (m - 1) - 1, a * q**m - 2):
            ts.update(t for t in (edge - 1, edge, edge + 1) if t >= 1)
    return sorted(ts)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
def test_cell_lookup_matches_the_multiply_up_loop(q):
    """The bit-length estimate finds the cell the loop finds, at every edge
    up to a*q^m past 2^70 and near n = 200, and refuses the t below the
    bottom cell with the loop's message."""
    rng = random.Random(q)
    for a in range(1, q):
        ts = _cell_edge_ts(q, a, 72)
        ts += _cell_edge_ts(q, a, 202)[-12:]  # the edges near n = 200
        ts += [rng.randint(1, a * q**200 - 2) for _ in range(20)]
        for t in ts:
            try:
                expected = _cell_by_loop(q, a, t)
            except DomainError as exc:
                with pytest.raises(DomainError) as got:
                    oracles._cell(q, a, t)
                assert str(got.value) == str(exc), (q, a, t)
                continue
            assert _cell_as_mk(q, a, t) == expected, (q, a, t)


def _query_fields(q):
    return (q.p, q.a, q.n, q.m, q.k)


def test_trusted_queryp_equals_checked_on_the_small_domain():
    """decompose_p's unchecked build gives the query the checked constructor
    gives, field for field, for every t of every small cell."""
    built = 0
    for p in (2, 3, 5, 7):
        for a in range(1, p):
            n = 1
            while a * p**n <= 250:
                for t in range(a - 1 if a > 1 else 1, a * p**n - 1):
                    q = decompose_p(p, a, n, t)
                    checked = QueryP(p, a, n, q.m, q.k)
                    assert type(q) is QueryP and _query_fields(q) == _query_fields(checked)
                    assert q == checked and hash(q) == hash(checked) and q.t == t
                    built += 1
                n += 1
    assert built > 2000


def test_queryp_and_oracle_result_are_immutable_values():
    q = QueryP(3, 1, 2, 2, 3)
    r = OracleResult(BoundKind.LOWER_BOUND, Valuation(2))
    for obj, fields in ((q, ("p", "a", "n", "m", "k")), (r, ("kind", "value"))):
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(obj, name, 1)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        # a frozen slotted dataclass has no room for a new name; some CPython
        # versions report that as a TypeError from the generated __setattr__
        with pytest.raises((AttributeError, TypeError)):
            obj.extra = 1
        assert not hasattr(obj, "extra")
    assert _query_fields(q) == (stirval.Prime(3), 1, 2, 2, 3)
    assert (r.kind, r.value) == (BoundKind.LOWER_BOUND, 2)
    same_q, same_r = QueryP(stirval.Prime(3), 1, 2, 2, 3), OracleResult(BoundKind.LOWER_BOUND, 2)
    assert q == same_q and hash(q) == hash(same_q) and len({q, same_q}) == 1
    assert r == same_r and hash(r) == hash(same_r) and len({r, same_r}) == 1
    assert q != QueryP(3, 1, 2, 2, 4) and q != QueryP(3, 2, 2, 2, 3)
    assert r != OracleResult(BoundKind.EXACT, 2) and r != OracleResult(BoundKind.LOWER_BOUND, 3)
    assert q != (stirval.Prime(3), 1, 2, 2, 3) and r != q
    for obj in (q, r):
        assert pickle.loads(pickle.dumps(obj)) == obj and copy.copy(obj) == obj
    assert repr(q) == "QueryP(p=Prime(p=3), a=1, n=2, m=2, k=3)"
    assert repr(r) == "OracleResult(kind=<BoundKind.LOWER_BOUND: 'lower_bound'>, value=Valuation(2))"
