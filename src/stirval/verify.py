"""Differential verification of every closed form against exact computation.

Each check produces a :class:`CheckRecord` whose ``expected`` field holds the
claim made by the formula or identity under test and whose ``actual`` field
holds the independently measured exact value.  A record passes when the two
agree exactly (or, for a lower-bound claim, serialized ``>=b``, when the
measured value meets the bound).  Sweeps enumerate exhaustive parameter grids
and return deterministic, sorted reports.
"""

from __future__ import annotations

import inspect
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter

from .bigmath import (
    _check_harmonic_cap,
    _row_top,
    binomial,
    harmonic_sym,
    stirling1,
    stirling1_row,
    stirling1_shifted,
    stirling1_shifted_row,
    valuation_row,
)
from .errors import DomainError, UsageError
from .oracles import (
    BoundKind,
    OracleResult,
    _check_an,
    _conjecture13,
    _cor1,
    _full,
    _proven_form,
    _thm2_shift,
    max_valuation_bound,
)
from .padic import Prime, _str, as_prime, vp_int

__all__ = [
    "CheckRecord",
    "VerificationReport",
    "check_lemma21",
    "check_lemma22",
    "check_lemma24",
    "check_lemma25",
    "check_lemma26",
    "check_identity11",
    "check_congruence",
    "sweep",
    "explore_conjecture13",
    "SUITES",
]


@dataclass(frozen=True, slots=True)
class CheckRecord:
    """One grid point: the claim, the measured value, and the verdict.

    Slotted, so a record carries no ``__dict__``.  Sweeps make records
    through ``_trusted``, which sets the slots directly; ``__init__`` sets
    each through the frozen class's ``object.__setattr__``, at about twice
    the cost per record.
    """

    check_id: str
    params: dict[str, int]
    expected: str
    actual: str
    passed: bool

    @classmethod
    def _trusted(cls, check_id: str, params: dict[str, int], expected: str, actual: str,
                 passed: bool) -> "CheckRecord":
        """The record ``cls(...)`` makes, with its slots set through their member descriptors."""
        self = object.__new__(cls)
        _set_check_id(self, check_id)
        _set_params(self, params)
        _set_expected(self, expected)
        _set_actual(self, actual)
        _set_passed(self, passed)
        return self

    def as_json_obj(self) -> dict:
        return {
            "check_id": self.check_id,
            "params": dict(self.params),
            "expected": self.expected,
            "actual": self.actual,
            "pass": self.passed,
        }


_set_check_id, _set_params, _set_expected, _set_actual, _set_passed = (
    getattr(CheckRecord, f).__set__ for f in ("check_id", "params", "expected", "actual", "passed")
)


def _values_at(names: tuple[str, ...]) -> Callable[[dict], tuple]:
    """params -> its values at names, as a tuple: itemgetter gives a bare value
    for one name and takes no empty list."""
    if len(names) > 1:
        return itemgetter(*names)
    return lambda params: tuple(params[k] for k in names)


def _in_report_order(records: list[CheckRecord]) -> list[CheckRecord]:
    """The records sorted by (*param values in sorted-name order, check_id),
    through one getter per distinct tuple of param names, not a sorted() per record."""
    getters: dict[tuple[str, ...], Callable[[dict], tuple]] = {}

    def key(rec: CheckRecord) -> tuple:
        names = tuple(rec.params)
        values_at = getters.get(names)
        if values_at is None:
            values_at = getters[names] = _values_at(tuple(sorted(names)))
        return (*values_at(rec.params), rec.check_id)

    return sorted(records, key=key)


@dataclass
class VerificationReport:
    """A sorted, deterministic summary of one suite run.

    Counts are always recomputed from the records, so total = passed +
    failed holds by construction.  ``deviations`` counts failed records of
    conjecture13 at a p whose form is not proven (see ``_proven_form``):
    they are reported but are not treated as bugs.
    """

    suite: str
    records: list[CheckRecord] = field(default_factory=list)

    def __post_init__(self):
        self.records = _in_report_order(self.records)

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.records if r.passed)

    @property
    def failed(self) -> int:
        return self.total - self.passed

    @property
    def deviations(self) -> int:
        if self.suite != "conjecture13":
            return 0
        return sum(1 for r in self.records if not r.passed and not _proven_form(r.params.get("p")))

    def as_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "total": self.total,
            "passed": self.passed,
            "failed": self.failed,
            "deviations": self.deviations,
            "records": [r.as_json_obj() for r in self.records],
        }

    def to_json(self) -> str:
        """``json.dumps(self.as_json_obj(), indent=2)``, byte for byte, written
        directly: given ``indent``, json falls back to its slow pure-Python encoder."""
        parts = [
            f'{{\n  "suite": {_json_str(self.suite)},\n  "total": {self.total},\n'
            f'  "passed": {self.passed},\n  "failed": {self.failed},\n'
            f'  "deviations": {self.deviations},\n  "records": '
        ]
        opening = "["  # then "," before every later record
        for r in self.records:
            params = ",\n".join(f"        {_json_str(k)}: {v}" for k, v in r.params.items())
            params = "{\n" + params + "\n      }" if params else "{}"
            parts.append(
                f'{opening}\n    {{\n      "check_id": {_json_str(r.check_id)},\n'
                f'      "params": {params},\n'
                f'      "expected": {_json_str(r.expected)},\n'
                f'      "actual": {_json_str(r.actual)},\n'
                f'      "pass": {"true" if r.passed else "false"}\n    }}'
            )
            opening = ","
        parts.append("\n  ]\n}" if self.records else "[]\n}")
        return "".join(parts)  # one join: a large report is built once, not copied

    def csv_rows(self) -> list[list[str]]:
        """Header plus one row per record, param columns in sorted order."""
        keys = sorted(self.records[0].params) if self.records else []
        rows = [["check_id", *keys, "expected", "actual", "pass"]]
        for r in self.records:
            rows.append(
                [r.check_id]
                + [str(r.params[k]) for k in keys]
                + [r.expected, r.actual, "true" if r.passed else "false"]
            )
        return rows


def _record(check_id: str, params: dict[str, int], expected, actual) -> CheckRecord:
    """Compare a claim with the measured value, then serialize both.

    ``expected`` is a value (int, Fraction, Valuation) that must equal
    ``actual``, or an :class:`OracleResult`, exact or a one-sided bound
    that ``actual`` must meet.
    """
    if not isinstance(expected, OracleResult):
        ok = expected == actual
    elif expected.kind is BoundKind.LOWER_BOUND:
        ok = actual >= expected.value
    elif expected.kind is BoundKind.UPPER_BOUND:
        ok = actual <= expected.value
    else:
        ok = actual == expected.value
    try:  # str() inline, as in Valuation.__str__
        return CheckRecord._trusted(check_id, params, str(expected), str(actual), ok)
    except ValueError:  # an int or Fraction past str()'s int digit limit
        return CheckRecord._trusted(check_id, params, _str(expected), _str(actual), ok)


# ---------------------------------------------------------------------------
# individual identity checks
# ---------------------------------------------------------------------------


def check_lemma21(n: int, k: int) -> CheckRecord:
    """Alternating-sum identity for s(n, k) when n + k is odd.

    Verified as 2*s(n,k) == sum((-1)^(n-i) s(n,i) C(i-1, i-k) n^(i-k)
    for i in k+1..n), in integers, avoiding the rational halving.
    """
    if not 1 <= k < n:
        raise DomainError(f"need 1 <= k < n, got k={k}, n={n}")
    if (n + k) % 2 == 0:
        raise DomainError(f"n + k must be odd, got n={n}, k={k}")
    row = stirling1_row(n)
    rhs = sum(
        (-1) ** (n - i) * row[i] * binomial(i - 1, i - k) * n ** (i - k)
        for i in range(k + 1, n + 1)
    )
    return _record("lemma21", {"n": n, "k": k}, rhs, 2 * row[k])


def check_lemma24(m: int, n: int, k: int) -> CheckRecord:
    """Convolution splitting s(m+n, k) through the shifted numbers.

    s(m+n, k) == sum(s(m, i) * s_m(n, k-i)); s(m, i) extends by zero for
    i > m, while the shifted factor constrains i >= k - n.
    """
    if m < 0 or n < 1 or k < 0:
        raise DomainError(f"need m >= 0, n >= 1, k >= 0, got m={m}, n={n}, k={k}")
    actual = stirling1(m + n, k)  # the largest row first: an over-cap m + n builds none
    row = stirling1_row(m)
    shifted = stirling1_shifted_row(m, n)
    conv = sum(row[i] * shifted[k - i] for i in range(max(0, k - n), min(k, m) + 1))
    return _record("lemma24", {"m": m, "n": n, "k": k}, conv, actual)


def check_lemma25(m: int, n: int, k: int) -> CheckRecord:
    """Expansion of the shifted numbers over the plain row:

    s_m(n, k) == sum(s(n, i) * C(i, i-k) * m^(i-k) for i in k..n).
    """
    if m < 0:
        raise DomainError(f"need m >= 0, got {m}")
    if n < 1 or not 0 <= k <= n:
        raise DomainError(f"need n >= 1 and 0 <= k <= n, got n={n}, k={k}")
    row = stirling1_row(n)
    expansion = sum(
        row[i] * binomial(i, i - k) * m ** (i - k) for i in range(k, n + 1)
    )
    return _record("lemma25", {"m": m, "n": n, "k": k}, expansion, stirling1_shifted(m, n, k))


def check_identity11(n: int, k: int) -> CheckRecord:
    """n! times the elementary symmetric function equals s(n+1, k+1)."""
    if n < 1 or not 0 <= k <= n:
        raise DomainError(f"need n >= 1 and 0 <= k <= n, got n={n}, k={k}")
    claim = math.factorial(n) * harmonic_sym(n, k)
    return _record("identity11", {"n": n, "k": k}, claim, stirling1(n + 1, k + 1))


def check_congruence(m: int, n: int, k: int) -> CheckRecord:
    """The shifted numbers reduce to the plain ones mod the shift."""
    if m < 1 or n < 1 or not 0 <= k <= n:
        raise DomainError(f"need m >= 1, n >= 1, 0 <= k <= n, got m={m}, n={n}, k={k}")
    return _record(
        "congruence",
        {"m": m, "n": n, "k": k},
        stirling1(n, k) % m,
        stirling1_shifted(m, n, k) % m,
    )


def check_lemma22(a: int, n: int, t: int) -> CheckRecord:
    """Odd-step increment in a row of valuations:

    v_3(s(N, N-2t-1)) == v_3(s(N, N-2t)) + v_3(2t+1) + n for N = a*3^n.
    """
    _check_an(3, a, n)
    top = _row_top(3, a, n)
    if not 0 <= t <= (top - 2) // 2:
        raise DomainError(f"need 0 <= t <= (a*3^n - 2)/2 = {(top - 2) // 2}, got {t}")
    return _lemma22(a, n, top, t, valuation_row(3, top))


def _lemma22(a: int, n: int, top: int, t: int, vals) -> CheckRecord:
    """check_lemma22's record, given its checked arguments, top = a*3^n and row top's valuations."""
    rhs = vals[top - 2 * t] + vp_int(3, 2 * t + 1) + n
    return _record("lemma22", {"a": a, "n": n, "t": t}, rhs, vals[top - 2 * t - 1])


def check_lemma26(a: int, n: int, t: int) -> CheckRecord:
    """Valuation transfer between the shifted row s_{3^n}(a*3^n, .) and s.

    When t = a (mod 2) the valuations agree and their difference carries at
    least two extra powers of 3; otherwise the shifted valuation is bounded
    below by v_3(s(a*3^n, t+1)) + n.
    """
    _check_an(3, a, n)
    if n > 4:
        raise DomainError(f"need n <= 4, got n={n}")
    top = a * 3**n
    if not 1 <= t <= top:
        raise DomainError(f"need 1 <= t <= a*3^n = {top}, got {t}")
    row = stirling1_row(top)
    shifted = stirling1_shifted_row(3**n, top)
    v_shift = vp_int(3, shifted[t])
    if (t - a) % 2 == 0:
        v_plain = vp_int(3, row[t])
        v_diff = vp_int(3, shifted[t] - row[t])
        expected = f"{v_plain};diff>={v_plain + 2}"
        actual = f"{v_shift};diff={v_diff}"
        ok = v_shift == v_plain and v_diff >= v_plain + 2
        return CheckRecord("lemma26", {"a": a, "n": n, "t": t}, expected, actual, ok)
    bound = OracleResult(BoundKind.LOWER_BOUND, vp_int(3, row[t + 1]) + n)
    return _record("lemma26", {"a": a, "n": n, "t": t}, bound, v_shift)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _an_cells(
    p: int, a: int | None, n: int | None, n_max: int
) -> Iterator[tuple[int, int, int]]:
    """The (a, n, a*p^n) cells of an a*p^n suite's grid, largest row first.

    a = None means every a in [1, p-1], and n = None every n in [1, n_max].
    Every a is checked first, and n < 1 gives no cell.  Cells come lazily,
    by n then a descending (a*p^n < p^(n+1)), so an over-cap grid is refused
    at its first cell, before any row is built (reports sort their records);
    an n far past the cap is refused before its power is formed.
    """
    a_values = range(p - 1, 0, -1) if a is None else [a]
    for a_value in a_values:
        _check_an(p, a_value, 1)
    n_values = range(n_max, 0, -1) if n is None else [n]
    return ((a, n, _row_top(p, a, n)) for n in n_values if n >= 1 for a in a_values)


def _an_sweep(p: int, a, n, n_max, cell, offset=0) -> list[CheckRecord]:
    """The records ``cell(a, n, top, vals)`` yields for each cell of an a*p^n grid
    (see :func:`_an_cells`), vals being the one row v_p(s(top + offset, .)).

    The cells have checked a, n and the index range, so a cell computes each
    claim on the plain-int core (``oracles._full``, ``_cor1``, ``_thm2_shift``,
    ``_conjecture13``) that the public oracle calls after its own checks."""
    records = []
    for a, n, top in _an_cells(p, a, n, n_max):
        records.extend(cell(a, n, top, valuation_row(p, top + offset)))
    return records


# A sweep's keyword parameters are its limits, their defaults its grid.  All but
# identity11 read their largest row first, so an over-cap grid builds no row;
# identity11's harmonic row only steps upward, so it checks n_max against the cap.


def _sweep_thm1(a=None, n=None, n_max=6) -> list[CheckRecord]:
    def cell(a, n, top, vals):
        for t in range(1, top - 1):
            yield _record("thm1", {"a": a, "n": n, "t": t}, _full(3, a, n, top, t), vals[t])

    return _an_sweep(3, a, n, n_max, cell)


def _sweep_cor1(a=None, n=None, n_max=6) -> list[CheckRecord]:
    def cell(a, n, top, vals):
        k_top = min(2 * a * 3 ** (n - 1) + 1, top - 1)
        for k in range(2, k_top + 1):
            yield _record("cor1", {"a": a, "n": n, "k": k}, _cor1(n, k), vals[top - k])

    return _an_sweep(3, a, n, n_max, cell)


def _sweep_thm2(a=None, n=None, n_max=5) -> list[CheckRecord]:
    def cell(a, n, top, vals_up):
        for k in range(1, top + 1):
            claim = _thm2_shift(a, n, top, k)
            yield _record("thm2", {"a": a, "n": n, "k": k}, claim, vals_up[k + 1])

    return _an_sweep(3, a, n, n_max, cell, offset=1)


def _sweep_thm34(a=None, n=None, n_max=6) -> list[CheckRecord]:
    def cell(a, n, top, vals):
        peak = max(v.value for v in vals[1:])
        bound = max_valuation_bound(a, n)
        yield _record("thm34", {"a": a, "n": n}, bound.value, peak)

    return _an_sweep(3, a, n, n_max, cell)


def _sweep_lemma21(n_max=40) -> list[CheckRecord]:
    return [
        check_lemma21(n, k)
        for n in range(n_max, 1, -1)
        for k in range(1, n)
        if (n + k) % 2 == 1
    ]


def _sweep_lemma22(a=None, n=None, n_max=5) -> list[CheckRecord]:
    def cell(a, n, top, vals):
        for t in range(0, (top - 2) // 2 + 1):
            yield _lemma22(a, n, top, t, vals)

    return _an_sweep(3, a, n, n_max, cell)


def _sweep_lemma24(m_max=15, n_max=15) -> list[CheckRecord]:
    return [
        check_lemma24(m, n, k)
        for m in range(m_max, -1, -1)
        for n in range(n_max, 0, -1)
        for k in range(0, m + n + 1)
    ]


def _sweep_lemma25(m_max=12, n_max=12) -> list[CheckRecord]:
    return [
        check_lemma25(m, n, k)
        for m in range(m_max, -1, -1)
        for n in range(n_max, 0, -1)
        for k in range(0, n + 1)
    ]


def _sweep_lemma26(a=None, n=None, n_max=3) -> list[CheckRecord]:
    records = []
    for a, n, top in _an_cells(3, a, n, n_max):
        for t in range(1, top + 1):
            records.append(check_lemma26(a, n, t))
    return records


def _sweep_identity11(n_max=60) -> list[CheckRecord]:
    _check_harmonic_cap(n_max)
    return [check_identity11(n, k) for n in range(1, n_max + 1) for k in range(0, n + 1)]


def _sweep_congruence(m_max=20, n_max=20) -> list[CheckRecord]:
    return [
        check_congruence(m, n, k)
        for m in range(m_max, 0, -1)
        for n in range(n_max, 0, -1)
        for k in range(0, n + 1)
    ]


def _sweep_conjecture13(p=3, a=1, n=None, n_max=None) -> list[CheckRecord]:
    q = as_prime(p).p
    if n_max is None:  # default exploration budget: the largest n with a*p^n <= 650 (2^10 > 650)
        n_max = sum(1 for i in range(1, 11) if a * q**i <= 650)

    def cell(a, n, top, vals):
        for m in range(1, n + 1):
            cell_top = a * q**m
            for k in range(2, min(a * (q - 1) * q ** (m - 1) + 1, cell_top - 1) + 1):
                params = {"p": q, "a": a, "n": n, "m": m, "k": k}
                claim = _conjecture13(q, n, m, k, top, cell_top)
                yield _record("conjecture13", params, claim, vals[cell_top - k])

    return _an_sweep(q, a, n, n_max, cell)


_SWEEPS = {
    "thm1": _sweep_thm1,
    "cor1": _sweep_cor1,
    "thm2": _sweep_thm2,
    "thm34": _sweep_thm34,
    "lemma21": _sweep_lemma21,
    "lemma22": _sweep_lemma22,
    "lemma24": _sweep_lemma24,
    "lemma25": _sweep_lemma25,
    "lemma26": _sweep_lemma26,
    "identity11": _sweep_identity11,
    "congruence": _sweep_congruence,
    "conjecture13": _sweep_conjecture13,
}

#: Valid suite names, in a stable order.
SUITES = tuple(_SWEEPS)


def sweep(suite: str, limits: dict | None = None) -> VerificationReport:
    """Run one suite exhaustively over its (possibly limited) grid; a grid
    with no checks is refused, never passed.  A suite's limits are the
    keyword parameters of its sweep."""
    if suite not in _SWEEPS:
        raise UsageError(f"unknown suite {suite!r}; valid suites: {', '.join(SUITES)}")
    fn = _SWEEPS[suite]
    limits = dict(limits or {})
    allowed = inspect.signature(fn).parameters
    unknown = set(limits) - set(allowed)
    if unknown:
        raise UsageError(
            f"unknown limit(s) {sorted(unknown)} for suite {suite!r}; "
            f"allowed: {sorted(allowed)}"
        )
    records = fn(**limits)
    if not records:
        grid = ", ".join(f"{k}={v}" for k, v in sorted(limits.items())) or "defaults"
        raise UsageError(f"suite {suite!r} has no checks on the grid ({grid})")
    return VerificationReport(suite, records)


def explore_conjecture13(p: int | Prime, a: int, n_max: int) -> VerificationReport:
    """Compare the conjectural evaluator against exact rows for n <= n_max.

    Where the form at p is conjectural (``_proven_form(p)`` is false),
    mismatches are deviations (reported, counted separately), not bugs.
    At p = 2 or 3 the form is proven, so a mismatch is a failure.
    """
    prime = as_prime(p)
    _check_an(prime.p, a, n_max)
    return sweep("conjecture13", {"p": prime.p, "a": a, "n_max": n_max})
