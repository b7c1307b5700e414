import json
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from stirval import (
    INFINITE,
    SUITES,
    BoundKind,
    CheckRecord,
    DomainError,
    OracleResult,
    RowTooLargeError,
    UsageError,
    Valuation,
    VerificationReport,
    check_congruence,
    check_identity11,
    check_lemma21,
    check_lemma22,
    check_lemma24,
    check_lemma25,
    check_lemma26,
    explore_conjecture13,
    sweep,
)
from stirval import bigmath, verify
from stirval.verify import _an_cells, _record
from test_cli import _fresh_python


def test_lemma21_examples():
    rec = check_lemma21(4, 1)
    assert rec.passed and rec.expected == "12" and rec.actual == "12"
    rec = check_lemma21(2, 1)
    assert rec.passed and rec.actual == "2"
    assert check_lemma21(5, 2).passed


def test_lemma21_requires_odd_sum():
    with pytest.raises(DomainError):
        check_lemma21(4, 2)
    with pytest.raises(DomainError):
        check_lemma21(3, 3)


def test_lemma24_examples():
    rec = check_lemma24(2, 2, 2)
    assert rec.passed and rec.actual == "11"
    assert check_lemma24(0, 4, 2).passed
    assert check_lemma24(3, 3, 3).passed


def test_lemma25_examples():
    rec = check_lemma25(2, 2, 1)
    assert rec.passed and rec.actual == "5"
    assert check_lemma25(0, 5, 3).passed
    assert check_lemma25(9, 9, 4).passed


def test_identity11_examples():
    rec = check_identity11(3, 1)
    assert rec.passed and rec.expected == "11" and rec.actual == "11"
    rec = check_identity11(5, 0)
    assert rec.passed and rec.actual == "120"
    assert check_identity11(7, 7).passed


def test_congruence_check():
    assert check_congruence(1, 5, 3).passed
    assert check_congruence(7, 10, 4).passed
    with pytest.raises(DomainError):
        check_congruence(0, 5, 3)


def test_lemma22_check():
    for t in range(0, 4):
        assert check_lemma22(1, 2, t).passed
    with pytest.raises(DomainError):
        check_lemma22(1, 2, 4)


def test_lemma26_examples():
    assert check_lemma26(1, 1, 3).passed
    assert check_lemma26(1, 2, 7).passed
    assert check_lemma26(2, 1, 4).passed
    with pytest.raises(DomainError):
        check_lemma26(1, 5, 1)


def test_sweep_thm1_example():
    report = sweep("thm1", {"a": 1, "n": 3})
    assert report.total == 25
    assert report.failed == 0
    assert report.deviations == 0


def test_sweep_identity11():
    report = sweep("identity11", {"n_max": 10})
    assert report.failed == 0
    assert report.total == sum(n + 1 for n in range(1, 11))


def test_sweep_grid_sizes():
    """Record counts must equal the analytic grid sizes."""
    assert sweep("thm2", {"a": 1, "n": 2}).total == 9
    assert sweep("cor1", {"a": 1, "n": 1}).total == 1
    assert sweep("thm34", {"n": 2}).total == 2
    assert sweep("lemma26", {"a": 2, "n": 1}).total == 6
    assert sweep("lemma22", {"a": 1, "n": 2}).total == 4


def test_sweep_conjecture13_fixed_n():
    report = sweep("conjecture13", {"p": 5, "a": 1, "n": 2})
    # m=1 allows k in 2..4; m=2 allows k in 2..21
    assert report.total == 3 + 20
    assert report.failed == 0 and report.deviations == 0


def test_sweep_small_defaults_pass():
    for suite in ("lemma25", "congruence"):
        report = sweep(suite, {"m_max": 5, "n_max": 5})
        assert report.failed == 0, suite
    assert sweep("lemma21", {"n_max": 12}).failed == 0
    assert sweep("lemma24", {"m_max": 5, "n_max": 5}).failed == 0


def test_sweep_rejects_unknown_suite_and_limits():
    with pytest.raises(UsageError, match="unknown suite"):
        sweep("nope")
    with pytest.raises(UsageError, match="unknown limit"):
        sweep("thm1", {"m_max": 3})


#: Each suite with the limits it allows, as its refusal of an unknown limit lists them.
_ALLOWED_LIMITS = [
    ("thm1", "['a', 'n', 'n_max']"),
    ("cor1", "['a', 'n', 'n_max']"),
    ("thm2", "['a', 'n', 'n_max']"),
    ("thm34", "['a', 'n', 'n_max']"),
    ("lemma21", "['n_max']"),
    ("lemma22", "['a', 'n', 'n_max']"),
    ("lemma24", "['m_max', 'n_max']"),
    ("lemma25", "['m_max', 'n_max']"),
    ("lemma26", "['a', 'n', 'n_max']"),
    ("identity11", "['n_max']"),
    ("congruence", "['m_max', 'n_max']"),
    ("conjecture13", "['a', 'n', 'n_max', 'p']"),
]


def test_every_suite_is_listed_with_its_limits():
    assert tuple(suite for suite, _ in _ALLOWED_LIMITS) == SUITES


@pytest.mark.parametrize("suite, allowed", _ALLOWED_LIMITS)
def test_unknown_limits_are_refused_with_the_allowed_ones(suite, allowed):
    with pytest.raises(UsageError) as info:
        sweep(suite, {"bogus": 1})
    assert str(info.value) == (
        f"unknown limit(s) ['bogus'] for suite {suite!r}; allowed: {allowed}"
    )


def test_explore_conjecture13_examples():
    assert explore_conjecture13(3, 1, 3).deviations == 0
    report = explore_conjecture13(2, 1, 5)
    assert report.total == 52 and report.deviations == 0
    report = explore_conjecture13(5, 1, 1)
    assert report.total == 3 and report.deviations == 0


#: The suites whose grid is a set of (a, n) cells with one row a*p^n each.
_AN_SUITES = ("thm1", "cor1", "thm2", "thm34", "lemma22", "lemma26", "conjecture13")


def test_empty_grids_are_refused():
    for suite, limits in (("thm1", {"n_max": 0}), ("lemma22", {"a": 1, "n": 0}),
                          ("conjecture13", {"p": 5, "n": 0}), ("lemma21", {"n_max": 1}),
                          *((suite, {"n": n}) for suite in _AN_SUITES for n in (0, -1))):
        with pytest.raises(UsageError, match="no checks"):
            sweep(suite, limits)
    with pytest.raises(UsageError, match="no checks"):
        explore_conjecture13(2, 1, 1)  # the p = 2, m = 1 cell is empty


@pytest.mark.parametrize("a", [0, -1])
@pytest.mark.parametrize("suite", _AN_SUITES)
def test_an_grids_check_a_first(suite, a):
    with pytest.raises(DomainError, match="a must satisfy"):
        sweep(suite, {"a": a})


def test_explore_guards():
    with pytest.raises(RowTooLargeError, match="row too large"):
        explore_conjecture13(7, 1, 5)  # 7^5 is past ROW_CAP
    with pytest.raises(DomainError):
        explore_conjecture13(5, 5, 1)
    with pytest.raises(DomainError):
        explore_conjecture13(5, 1, 0)
    with pytest.raises(DomainError):
        sweep("conjecture13", {"a": 0})  # no n limit: the default budget


def test_over_cap_conjecture_grids_build_no_row(cold_rows):
    """The largest row is read first, so a grid past ROW_CAP builds nothing."""
    expand_calls = cold_rows()
    with pytest.raises(RowTooLargeError, match="row too large"):
        sweep("conjecture13", {"p": 5, "n_max": 6})
    with pytest.raises(RowTooLargeError, match="row too large"):
        explore_conjecture13(7, 1, 5)
    assert expand_calls == []


@pytest.mark.parametrize("suite, n_max, error", [
    *((suite, 8, RowTooLargeError) for suite in ("thm1", "cor1", "thm2", "thm34", "lemma22")),
    ("lemma26", 5, DomainError),  # check_lemma26 refuses n > 4
])
def test_over_cap_an_grids_build_no_row(cold_rows, suite, n_max, error):
    expand_calls = cold_rows()
    with pytest.raises(error):
        sweep(suite, {"n_max": n_max})
    assert expand_calls == []


@pytest.mark.parametrize("suite, limits", [
    ("lemma21", {"n_max": 21}),
    ("lemma24", {"m_max": 12, "n_max": 12}),  # only the rows s(m+n, .) pass the cap
    ("lemma25", {"n_max": 21}),
    ("congruence", {"n_max": 21}),
])
def test_over_cap_identity_grids_build_no_row(cold_rows, monkeypatch, suite, limits):
    """The identity suites read their largest row first, so a grid past the cap
    is refused before any row is built."""
    expand_calls = cold_rows()
    monkeypatch.setattr(bigmath, "ROW_CAP", 20)
    with pytest.raises(RowTooLargeError, match="row too large"):
        sweep(suite, limits)
    assert expand_calls == []


#: The suites built on the one a*p^n sweep body, each on a small grid: its
#: limits, the (p, N) rows it must read (one per cell, largest first; thm2
#: reads row top + 1), and, in the first row read, the indices at which the
#: suite's claim is exact.
_SWEEP_READS = {
    "thm1": ({"n_max": 2}, [(3, 18), (3, 9), (3, 6), (3, 3)], lambda row: range(1, 17)),
    "cor1": ({"n_max": 2}, [(3, 18), (3, 9), (3, 6), (3, 3)], lambda row: range(5, 17)),
    "thm2": ({"n_max": 2}, [(3, 19), (3, 10), (3, 7), (3, 4)], lambda row: range(3, 20, 2)),
    "thm34": ({"n_max": 3}, [(3, 54), (3, 27), (3, 18), (3, 9), (3, 6), (3, 3)],
              lambda row: [max(range(1, len(row)), key=row.__getitem__)]),  # the peak
    "conjecture13": ({"p": 5, "n_max": 2}, [(5, 25), (5, 5)], lambda row: range(1, 24)),
}


def _sweep_reads(suite: str) -> dict:
    """Run ``suite`` with ``verify.valuation_row`` wrapped: once as it is, recording
    the rows read, and once with one entry of the first row raised by 1, at a
    seeded index where the claim is exact.  Returns data, not asserts, so that a
    ``python -O`` run is checked too."""
    limits, _, exact_at = _SWEEP_READS[suite]
    real = verify.valuation_row
    reads, raised = [], []

    def reading(p, n):
        reads.append([p, n])
        return real(p, n)

    def raising(p, n):
        row = real(p, n)
        if raised:
            return row
        i = random.Random(suite).choice(list(exact_at(row)))
        raised.append(i)
        return row[:i] + (row[i] + 1,) + row[i + 1:]

    try:
        verify.valuation_row = reading
        clean = sweep(suite, limits).failed
        verify.valuation_row = raising
        failed = sweep(suite, limits).failed
    finally:
        verify.valuation_row = real
    return {"reads": reads, "clean_failed": clean, "raised_at": raised, "failed": failed}


def _check_sweep_reads(suite: str, result: dict) -> None:
    _, expected_reads, _ = _SWEEP_READS[suite]
    assert result["reads"] == [list(r) for r in expected_reads], suite
    assert result["clean_failed"] == 0, suite
    assert len(result["raised_at"]) == 1 and result["failed"] >= 1, suite


@pytest.mark.parametrize("suite", _SWEEP_READS)
def test_sweep_body_reads_one_row_per_cell_and_checks_it(suite):
    _check_sweep_reads(suite, _sweep_reads(suite))


_SWEEP_READS_SCRIPT = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import test_verify
print(json.dumps({s: test_verify._sweep_reads(s) for s in test_verify._SWEEP_READS}))
"""


def test_sweep_body_reads_and_checks_under_python_O():
    """The same reads and verdicts from one fresh ``python -O`` process, where no
    ``assert`` runs."""
    tests = str(Path(__file__).resolve().parent)
    proc = _fresh_python("-O", "-c", _SWEEP_READS_SCRIPT, tests)
    assert (proc.returncode, proc.stderr) == (0, "")
    results = json.loads(proc.stdout)
    assert list(results) == list(_SWEEP_READS)
    for suite, result in results.items():
        _check_sweep_reads(suite, result)


def test_check_lemma22_refuses_an_absurd_n_before_its_power_is_formed():
    """3^(10^6) alone would take 0.2 MB and 0.1 s; the refusal allocates neither."""
    tracemalloc.start()
    try:
        with pytest.raises(RowTooLargeError) as info:
            check_lemma22(1, 10**6, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == "row too large: n=1*3^1000000 exceeds cap 5000"
    assert peak < 500_000


def test_huge_grids_are_refused_at_once(cold_rows):
    """Cells are made lazily, largest first: neither the huge powers of the
    grid nor any row is built before the refusal."""
    expand_calls = cold_rows()
    for limits in ({"n_max": 10_000}, {"n": 10_000}):
        with pytest.raises(RowTooLargeError, match=r"^row too large: n=2\*3\^10000 exceeds cap 5000$"):
            sweep("thm1", limits)
    assert expand_calls == []
    cells = _an_cells(3, None, None, 12)
    assert not isinstance(cells, list) and next(cells) == (2, 12, 2 * 3**12)
    cells = _an_cells(3, None, None, 13)  # 2^13 > ROW_CAP: refused unformed
    with pytest.raises(RowTooLargeError, match=r"^row too large: n=2\*3\^13 exceeds cap 5000$"):
        next(cells)


def test_report_counts_and_sorting():
    recs = [
        CheckRecord("x", {"a": 2, "n": 1}, "1", "1", True),
        CheckRecord("x", {"a": 1, "n": 2}, "1", "2", False),
        CheckRecord("x", {"a": 1, "n": 1}, "1", "1", True),
    ]
    report = VerificationReport("thm1", recs)
    assert [r.params for r in report.records] == [
        {"a": 1, "n": 1},
        {"a": 1, "n": 2},
        {"a": 2, "n": 1},
    ]
    assert report.total == 3 and report.passed == 2 and report.failed == 1
    assert report.deviations == 0  # not the conjectural suite
    report = VerificationReport("conjecture13", recs)
    assert report.deviations == 1


def test_report_determinism():
    a = sweep("thm1", {"a": 1, "n": 2}).to_json()
    b = sweep("thm1", {"a": 1, "n": 2}).to_json()
    assert a == b


def test_to_json_is_json_dumps_with_indent_2():
    reports = [
        sweep("lemma26", {"n": 1}),
        sweep("thm2", {"a": 2, "n": 2}),
        VerificationReport("empty", []),
        VerificationReport("q\"uo\\te", [CheckRecord("no-params\n", {}, ">=1", "2", False)]),
        VerificationReport(
            "caf\u00e9",
            [
                CheckRecord("big", {"a": -1, "\u00e9": 10**40}, "1;diff=3", "1", True),
                CheckRecord("tab\t", {"a": 2, "\u00e9": 0}, "\u2264", " ", False),
            ],
        ),
    ]
    for report in reports:
        assert report.to_json() == json.dumps(report.as_json_obj(), indent=2)


def test_report_json_schema():
    report = sweep("cor1", {"a": 1, "n": 2})
    doc = json.loads(report.to_json())
    assert set(doc) == {"suite", "total", "passed", "failed", "deviations", "records"}
    assert doc["suite"] == "cor1"
    assert doc["total"] == doc["passed"] + doc["failed"] == len(doc["records"])
    rec = doc["records"][0]
    assert set(rec) == {"check_id", "params", "expected", "actual", "pass"}
    assert rec["pass"] is True
    assert isinstance(rec["expected"], str)


def test_report_csv_layout():
    report = sweep("thm1", {"a": 1, "n": 1})
    rows = report.csv_rows()
    assert rows[0] == ["check_id", "a", "n", "t", "expected", "actual", "pass"]
    assert rows[1] == ["thm1", "1", "1", "1", "0", "0", "true"]


def test_bound_records_pass_on_meeting_bound():
    report = sweep("thm2", {"a": 1, "n": 1})
    bounds = [r for r in report.records if r.expected.startswith(">=")]
    assert bounds and all(r.passed for r in bounds)


def test_record_compares_typed_claims():
    lower = OracleResult(BoundKind.LOWER_BOUND, Valuation(2))
    rec = _record("x", {}, lower, INFINITE)
    assert (rec.expected, rec.actual, rec.passed) == (">=2", "inf", True)
    assert _record("x", {}, lower, Valuation(2)).passed
    assert not _record("x", {}, lower, Valuation(1)).passed
    upper = OracleResult(BoundKind.UPPER_BOUND, Valuation(2))
    assert _record("x", {}, upper, Valuation(1)).passed
    assert not _record("x", {}, upper, INFINITE).passed
    exact = OracleResult(BoundKind.EXACT, Valuation(3))
    rec = _record("x", {}, exact, Valuation(3))
    assert (rec.expected, rec.actual, rec.passed) == ("3", "3", True)
    assert not _record("x", {}, exact, Valuation(4)).passed
    rec = _record("x", {}, Fraction(6), 6)
    assert (rec.expected, rec.actual, rec.passed) == ("6", "6", True)
    rec = _record("x", {}, Fraction(13, 2), 6)
    assert (rec.expected, rec.passed) == ("13/2", False)
    assert not _record("x", {}, Valuation(0), INFINITE).passed


def test_record_prints_values_past_the_int_digit_limit():
    """str() refuses an int of more than 4300 digits by default; a record does not."""
    digits = "1" + "0" * 4400
    rec = _record("x", {}, 10**4400, 10**4400)
    assert (rec.expected, rec.actual, rec.passed) == (digits, digits, True)
    rec = _record("x", {}, Fraction(10**4400, 3), Fraction(10**4400))
    assert (rec.expected, rec.actual, rec.passed) == (digits + "/3", digits, False)
