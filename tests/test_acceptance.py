"""Acceptance checks, one test per criterion.

Each test prints a single verdict line (visible with -rA or -s), and the
test name itself encodes the criterion so `pytest -v` reads as a checklist.
All comparisons are exact; there are no tolerances to tune.
"""

import time

from stirval import (
    QueryP,
    conjecture13_valuation,
    cor1_valuation,
    explore_conjecture13,
    full_valuation_3,
    h_valuation,
    komatsu_young_valuation,
    lengyel_special,
    max_valuation_bound,
    stirling1_row,
    sweep,
    thm1_valuation,
    thm2_shift_valuation,
    vp_int,
)
from stirval.bigmath import _cached_row
from stirval.oracles import BoundKind


def _verdict(acid: str, ok: bool, detail: str) -> None:
    print(f"{acid}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{acid}: {detail}"


def test_ac1_known_point_values_and_low_column_forms():
    bad = []
    if vp_int(3, stirling1_row(3)[2]).value != 1:
        bad.append("v3(s(3,2))")
    if vp_int(3, stirling1_row(9)[6]).value != 4:
        bad.append("v3(s(9,6))")
    if vp_int(3, stirling1_row(6)[3]).value != 2:
        bad.append("v3(s(6,3))")
    for n in range(1, 7):
        row1 = stirling1_row(3**n)
        row2 = stirling1_row(2 * 3**n)
        if vp_int(3, row1[2]) != (3**n + 3) // 2 - 2 * n != lengyel_special("s3n_2", n).value:
            bad.append(f"s(3^{n},2)")
        if vp_int(3, row1[3]) != (3**n + 3) // 2 - 3 * n != lengyel_special("s3n_3", n).value:
            bad.append(f"s(3^{n},3)")
        if vp_int(3, row2[2]) != 3**n - 2 * n - 1 != lengyel_special("s2x3n_2", n).value:
            bad.append(f"s(2*3^{n},2)")
        for m in range(0, n + 1):
            want1 = (3**n - 3**m) // 2 - 3**m * (n - m)
            want2 = 3**n - 3**m - 2 * 3**m * (n - m)
            if vp_int(3, row1[3**m]) != want1:
                bad.append(f"s(3^{n},3^{m})")
            if vp_int(3, row2[2 * 3**m]) != want2:
                bad.append(f"s(2*3^{n},2*3^{m})")
            # the same values through the factorial-quotient form
            r = n - m
            if komatsu_young_valuation(3, 3**m - 1, r, 3**r - 1) != want1:
                bad.append(f"ky s(3^{n},3^{m})")
            if komatsu_young_valuation(3, 2 * 3**m - 1, r, 3**r - 1) != want2:
                bad.append(f"ky s(2*3^{n},2*3^{m})")
    _verdict("AC1", not bad, f"point values and low-column forms, n <= 6 ({bad or 'all exact'})")


def test_ac2_full_formula_sweep_n_up_to_6():
    mism = 0
    checked = 0
    for a in (1, 2):
        for n in range(1, 7):
            row = stirling1_row(a * 3**n)
            for t in range(1, a * 3**n + 1):
                checked += 1
                if full_valuation_3(a, n, t) != vp_int(3, row[t]):
                    mism += 1
    _verdict("AC2", mism == 0, f"{checked} indices, {mism} mismatches")


def test_ac3_shift_by_one_branches_n_up_to_5():
    violations = 0
    checked = 0
    for a in (1, 2):
        for n in range(1, 6):
            row_up = stirling1_row(a * 3**n + 1)
            for k in range(1, a * 3**n + 1):
                res = thm2_shift_valuation(a, n, k)
                actual = vp_int(3, row_up[k + 1])
                checked += 1
                if res.kind is BoundKind.EXACT:
                    if actual != res.value:
                        violations += 1
                elif not actual >= res.value:
                    violations += 1
    _verdict("AC3", violations == 0, f"{checked} shift checks, {violations} violations")


def test_ac4_peak_valuation_sharpness_n_up_to_6():
    bad = []
    for a in (1, 2):
        for n in range(1, 7):
            row = stirling1_row(a * 3**n)
            exact = {t: vp_int(3, row[t]).value for t in range(1, a * 3**n + 1)}
            peak = max(exact.values())
            bound = max_valuation_bound(a, n).value.value
            if peak != bound:
                bad.append(f"peak(a={a},n={n})")
            # stated attainment points
            if a == 1 and n == 2 and exact[6] != bound:
                bad.append("attain(1,2)@t=6")
            if a == 1 and n >= 3 and exact[1] != bound:
                bad.append(f"attain(1,{n})@t=1")
            if a == 2 and n >= 2 and exact[1] != bound:
                bad.append(f"attain(2,{n})@t=1")
    _verdict("AC4", not bad, f"max equals bound and is attained ({bad or 'all sharp'})")


def test_ac5_harmonic_valuation_ceiling_n3_and_n4():
    violations = []
    for a in (1, 2):
        for n in (3, 4):
            top = a * 3**n
            for k in range(1, top + 1):
                if (k - a) % 2 == 0:
                    v = h_valuation(3, top, k)
                    if not v <= -n:
                        violations.append((a, n, k))
    _verdict("AC5", not violations, f"v3(H) <= -n at n=3,4 ({violations or 'no violations'})")


def test_ac6_identity_suites_exhaustive():
    grids = [
        ("lemma21", {"n_max": 40}),
        ("lemma24", {"m_max": 15, "n_max": 15}),
        ("lemma25", {"m_max": 12, "n_max": 12}),
        ("identity11", {"n_max": 60}),
        ("congruence", {"m_max": 20, "n_max": 20}),
        ("lemma22", {"n_max": 5}),
        ("lemma26", {"n_max": 3}),
    ]
    failures = {}
    total = 0
    for suite, limits in grids:
        report = sweep(suite, limits)
        total += report.total
        if report.failed:
            failures[suite] = report.failed
    _verdict("AC6", not failures, f"{total} identity checks ({failures or 'zero failures'})")


def test_ac7_conjectural_form_cross_checks():
    bad = []
    # p = 3: formula-vs-formula over the whole common domain, n <= 6
    for a in (1, 2):
        for n in range(1, 7):
            for m in range(1, n + 1):
                k_top = min(2 * a * 3 ** (m - 1) + 1, a * 3**m - 1)
                for k in range(2, k_top + 1):
                    q = QueryP(3, a, n, m, k)
                    if conjecture13_valuation(q) != thm1_valuation(q):
                        bad.append(f"p3(a={a},n={n},m={m},k={k})")
    # p = 2: zero deviations for a = 1, n <= 5
    rep = explore_conjecture13(2, 1, 5)
    if rep.deviations:
        bad.append(f"p2 deviations={rep.deviations}")
    # p = 5: zero deviations for a in 1..4 within the a*5^n <= 650 budget
    for a in range(1, 5):
        n_max = 0
        while a * 5 ** (n_max + 1) <= 650:
            n_max += 1
        rep = explore_conjecture13(5, a, n_max)
        if rep.deviations:
            bad.append(f"p5(a={a}) deviations={rep.deviations}")
    _verdict("AC7", not bad, f"p=3 agreement, p=2 and p=5 explorers ({bad or 'clean'})")


def test_ac8_column_increment_steps_n_up_to_5():
    bad = []
    for a in (1, 2):
        for n in range(1, 6):
            k_top = min(2 * a * 3 ** (n - 1) + 1, a * 3**n - 1)
            for k in range(2, k_top + 1):
                step = cor1_valuation(a, n + 1, k).value - cor1_valuation(a, n, k).value
                want = 1 if k % 2 == 0 else 2
                if step != want:
                    bad.append((a, n, k))
                if k % 2 == 0 and not cor1_valuation(a, n, k).value < n:
                    bad.append(("bound", a, n, k))
    _verdict("AC8", not bad, f"+1 even / +2 odd increments ({bad or 'all steps exact'})")


def test_ac9_oracle_speed_floor_informational():
    a, n = 1, 6
    top = a * 3**n
    start = time.perf_counter_ns()
    for t in range(1, top + 1):
        full_valuation_3(a, n, t)
    formula_per_query = (time.perf_counter_ns() - start) / top

    start = time.perf_counter_ns()
    row = _cached_row.__wrapped__(top)  # a fresh build, not a cache hit
    vp_int(3, row[top // 2])
    exact_per_query = float(time.perf_counter_ns() - start)

    ratio = exact_per_query / formula_per_query
    ran = formula_per_query > 0 and exact_per_query > 0
    note = "meets" if ratio >= 100 else "below"
    # informational floor: report the ratio, never hard-fail on it
    _verdict("AC9", ran, f"speedup {ratio:.0f}x ({note} the 100x floor)")
