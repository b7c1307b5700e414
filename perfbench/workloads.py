"""The three workloads: inputs made from the seed, one pass, and its gate.

Each workload object is built during set-up (``__init__``), then ``run()``
performs one pass of ``ops`` operations and returns the raw outputs, and
``check(outputs)`` returns how many of those operations failed.  Every gate
is an explicit comparison that counts a failure, never an ``assert``, so it
holds under ``python -O``.  Program calls go through ``stirval`` attribute
lookups made at pass time, so the tracer and the self-test's fault
injection see them.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import shutil

import stirval
import stirval.cli


def _uniform(rng: random.Random, lo: int, hi: int) -> int:
    """An integer in [lo, hi] (hi - lo < 2**52); faster than ``randint``."""
    return min(hi, lo + int(rng.random() * (hi - lo + 1)))


# ---------------------------------------------------------------------------
# p3-sweep
# ---------------------------------------------------------------------------

#: The proven 3-adic suites in acceptance-gate order, with their n_max.
P3_SUITES = (("thm1", 6), ("cor1", 6), ("thm2", 5), ("thm34", 6), ("lemma22", 5))


def _p3_cell_records(suite: str, a: int, n: int) -> int:
    """Records one (a, n) cell of a proven suite yields, from its definition."""
    top = a * 3**n
    if suite == "thm1":
        return top - 2  # t = 1 .. a*3^n - 2
    if suite == "cor1":
        return min(2 * a * 3 ** (n - 1) + 1, top - 1) - 1  # k = 2 .. k_top
    if suite == "thm2":
        return top  # k = 1 .. a*3^n
    if suite == "thm34":
        return 1  # one peak per cell
    return (top - 2) // 2 + 1  # lemma22: t = 0 .. (a*3^n - 2) / 2


class P3Sweep:
    """The exhaustive proven grid; the seed is not used."""

    name = "p3-sweep"

    def __init__(self, seed: int, workdir: str):
        self.expected = {
            suite: sum(_p3_cell_records(suite, a, n) for a in (1, 2) for n in range(1, n_max + 1))
            for suite, n_max in P3_SUITES
        }
        self.ops = sum(self.expected.values())
        self.grid = {
            suite: {"a": [1, 2], "n_max": n_max, "records": self.expected[suite]}
            for suite, n_max in P3_SUITES
        }

    def run(self) -> list:
        out = []
        for suite, n_max in P3_SUITES:
            try:
                out.append(stirval.sweep(suite, {"n_max": n_max}))
            except Exception as exc:  # a crashed suite fails all its records
                out.append(exc)
        return out

    def check(self, out: list) -> int:
        failed = 0
        for (suite, _), report in zip(P3_SUITES, out):
            want = self.expected[suite]
            if (
                isinstance(report, Exception)
                or report.suite != suite
                or report.total != want
                or report.passed + report.failed != want
            ):
                failed += want
            else:
                failed += report.failed
        return failed

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# oracle-stream
# ---------------------------------------------------------------------------

#: Rows up to this size are built during set-up to check answers exactly.
EXACT_ROW_LIMIT = 500
#: The p = 3 queries range over n = 1 .. this.
STREAM_N_MAX = 30
STREAM_QUERIES = 200_000
#: The query kinds, drawn with equal shares: no kind is weighted by a guess
#: at how often a user asks it.
STREAM_KINDS = ("full_valuation_3", "thm2_shift_valuation", "cor1_valuation",
                "max_valuation_bound", "conjecture13_valuation")
STREAM_PRIMES = (5, 7, 11)


def _conjecture_cells() -> list[tuple[int, int, int]]:
    """(p, a, n) cells for p in 5, 7, 11 whose exact row is small enough."""
    cells = []
    for p in STREAM_PRIMES:
        for a in range(1, p):
            n = 1
            while a * p**n <= EXACT_ROW_LIMIT:
                cells.append((p, a, n))
                n += 1
    return cells


class OracleStream:
    """A seeded stream of closed-form queries; no exact row is built in a pass."""

    name = "oracle-stream"

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        cells = _conjecture_cells()
        queries = []
        for kind in rng.choices(STREAM_KINDS, k=STREAM_QUERIES):
            if kind == "conjecture13_valuation":
                p, a, n = rng.choice(cells)
                m = _uniform(rng, 1, n)
                k = _uniform(rng, 2, min(a * (p - 1) * p ** (m - 1) + 1, a * p**m - 1))
                queries.append((kind, (p, a, n, a * p**m - k)))
                continue
            a, n = _uniform(rng, 1, 2), _uniform(rng, 1, STREAM_N_MAX)
            top = a * 3**n
            if kind == "full_valuation_3":
                args = (a, n, _uniform(rng, 1, top))
            elif kind == "thm2_shift_valuation":
                args = (a, n, _uniform(rng, 1, top))
            elif kind == "cor1_valuation":
                args = (a, n, _uniform(rng, 2, min(2 * a * 3 ** (n - 1) + 1, top - 1)))
            else:
                args = (a, n)
            queries.append((kind, args))
        self.queries = queries
        self.ops = len(queries)
        # the small rows the queries address (thm2 reads row N+1); the gate
        # builds them, after the timed passes, so set-up holds no row work
        sizes = set()
        for kind, args in queries:
            if kind == "conjecture13_valuation":
                sizes.add(args[1] * args[0] ** args[2])
            elif args[0] * 3 ** args[1] < EXACT_ROW_LIMIT:
                sizes.add(args[0] * 3 ** args[1] + (kind == "thm2_shift_valuation"))
        self.sizes = frozenset(sizes)
        self._rows: dict[int, list[int]] = {}
        self.grid = {
            "queries": self.ops,
            "kinds": list(STREAM_KINDS), "kind_share": "equal",
            "p3_a": [1, 2], "p3_n_max": STREAM_N_MAX,
            "conjecture13_cells": len(cells), "conjecture13_primes": list(STREAM_PRIMES),
            "exact_rows": len(self.sizes), "exact_row_limit": EXACT_ROW_LIMIT,
        }
        self._peaks: dict[int, int] = {}
        self._ref: dict[tuple, object] = {}
        self._vals: dict[tuple, object] = {}
        self._checked: tuple[list, list[bool]] | None = None

    def run(self) -> list:
        conj, decompose_p = stirval.conjecture13_valuation, stirval.decompose_p
        fns = {
            "full_valuation_3": stirval.full_valuation_3,
            "thm2_shift_valuation": stirval.thm2_shift_valuation,
            "cor1_valuation": stirval.cor1_valuation,
            "max_valuation_bound": stirval.max_valuation_bound,
            "conjecture13_valuation": lambda p, a, n, t: conj(decompose_p(p, a, n, t)),
        }
        out = []
        for kind, args in self.queries:
            try:
                out.append(fns[kind](*args))
            except Exception as exc:  # a raising query is a failed op
                out.append(exc)
        return out

    # -- gate ----------------------------------------------------------------

    def _ref3(self, a: int, n: int, t: int):
        """v_3(s(a*3^n, t)) from the general-p conjectural form at p = 3.

        That form is a separate formula from Theorem 1; the top two indices
        are s(N, N) = 1 and s(N, N-1) = C(N, 2), with v_3(C(N, 2)) = n.
        """
        top = a * 3**n
        if t == top:
            return stirval.Valuation(0)
        if t == top - 1:
            return stirval.Valuation(n)
        key = (a, n, t)
        if key not in self._ref:
            m = 1
            while a * 3**m - 2 < t:
                m += 1
            self._ref[key] = stirval.conjecture13_valuation(
                stirval.QueryP(3, a, n, m, a * 3**m - t))
        return self._ref[key]

    def _row(self, size: int) -> list[int] | None:
        """The exact row s(size, .) if a query addresses it, else None."""
        if size not in self.sizes:
            return None
        if size not in self._rows:
            self._rows[size] = stirval.stirling1_row(size)
        return self._rows[size]

    def _exact(self, size: int, t: int, p: int = 3):
        """v_p of the exact row entry s(size, t), or None without that row."""
        key = (p, size, t)
        if key not in self._vals:
            row = self._row(size)
            self._vals[key] = None if row is None else stirval.vp_int(p, row[t])
        return self._vals[key]

    def _peak(self, size: int) -> int:
        if size not in self._peaks:
            row = self._row(size)
            self._peaks[size] = max(stirval.vp_int(3, row[t]).value for t in range(1, size + 1))
        return self._peaks[size]

    def _ok(self, kind: str, args: tuple, ans) -> bool:
        Valuation, BoundKind = stirval.Valuation, stirval.BoundKind
        if kind == "conjecture13_valuation":
            p, a, n, t = args
            return isinstance(ans, Valuation) and ans == self._exact(a * p**n, t, p)
        a, n = args[0], args[1]
        top = a * 3**n
        if kind in ("full_valuation_3", "cor1_valuation"):
            t = args[2] if kind == "full_valuation_3" else top - args[2]
            exact = self._exact(top, t)
            return (isinstance(ans, Valuation) and ans == self._ref3(a, n, t)
                    and (exact is None or ans == exact))
        if kind == "thm2_shift_valuation":
            # v_3(s(N+1, k+1)): exact when k = a (mod 2), else >= v_3(s(N, k+1)) + n
            k = args[2]
            if not isinstance(ans, stirval.OracleResult):
                return False
            exact = self._exact(top + 1, k + 1)
            if (k - a) % 2 == 0:
                return (ans.kind is BoundKind.EXACT and ans.value == self._ref3(a, n, k)
                        and (exact is None or ans.value == exact))
            return (ans.kind is BoundKind.LOWER_BOUND
                    and ans.value == self._ref3(a, n, k + 1) + n
                    and (exact is None or exact >= ans.value))
        # max_valuation_bound: attained at t = 6 for (1, 2) and at t = 1 for
        # a = 1, n >= 3 and a = 2, n >= 2; equal to the exact peak of small rows
        if not isinstance(ans, stirval.OracleResult) or ans.kind is not BoundKind.UPPER_BOUND:
            return False
        if top in self.sizes and ans.value != self._peak(top):
            return False
        if n >= 2:
            return ans.value == self._ref3(a, n, 6 if (a, n) == (1, 2) else 1)
        return top in self.sizes

    def check(self, out: list) -> int:
        if len(out) != len(self.queries):
            return len(self.queries)
        # an answer equal (and of the same type) to the one an earlier pass
        # gave for the same query keeps that pass's verdict
        prev_out, prev_ok = self._checked or (None, None)
        verdicts = []
        for i, ((kind, args), ans) in enumerate(zip(self.queries, out)):
            if prev_out is not None and type(ans) is type(prev_out[i]) and ans == prev_out[i]:
                verdicts.append(prev_ok[i])
            else:
                verdicts.append(self._ok(kind, args, ans))
        self._checked = (out, verdicts)
        return verdicts.count(False)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# identity-report
# ---------------------------------------------------------------------------

#: (suite, limits, format): grids above the defaults, both report formats.
ID_SUITES = (
    ("lemma21", {"n_max": 60}, "json"),
    ("lemma24", {"m_max": 20, "n_max": 20}, "csv"),
    ("lemma25", {"m_max": 16, "n_max": 16}, "json"),
    ("lemma26", {"n_max": 4}, "csv"),
    ("identity11", {"n_max": 80}, "json"),
    ("congruence", {"m_max": 25, "n_max": 25}, "csv"),
    ("conjecture13", {"p": 2, "n_max": 10}, "json"),
    ("conjecture13", {"p": 3, "a": 2, "n_max": 5}, "csv"),
    ("conjecture13", {"p": 5, "a": 1, "n_max": 4}, "json"),
)
_FLAGS = {"n_max": "--n-max", "m_max": "--m-max", "a": "--a", "p": "--p"}
PLAIN_LOOKUPS = 300
SHIFTED_LOOKUPS = 100


def _id_records(suite: str, lim: dict) -> int:
    """Records a suite grid yields, from the suite's definition."""
    n_max, m_max = lim.get("n_max"), lim.get("m_max")
    if suite == "lemma21":
        return sum(1 for n in range(2, n_max + 1) for k in range(1, n) if (n + k) % 2)
    if suite == "lemma24":
        return sum(m + n + 1 for m in range(m_max + 1) for n in range(1, n_max + 1))
    if suite == "lemma25":
        return (m_max + 1) * sum(n + 1 for n in range(1, n_max + 1))
    if suite == "lemma26":
        return sum(a * 3**n for a in (1, 2) for n in range(1, n_max + 1))
    if suite == "identity11":
        return sum(n + 1 for n in range(1, n_max + 1))
    if suite == "congruence":
        return m_max * sum(n + 1 for n in range(1, n_max + 1))
    p, a = lim["p"], lim.get("a", 1)
    return sum(
        min(a * (p - 1) * p ** (m - 1) + 1, a * p**m - 1) - 1
        for n in range(1, n_max + 1) for m in range(1, n + 1)
    )


def _parse_report(path: str, fmt: str) -> tuple[int, int]:
    """(total, failed) read back from a written report; ValueError if torn."""
    with open(path, newline="") as fh:
        if fmt == "json":
            doc = json.load(fh)
            records = doc["records"]
            bad = sum(1 for r in records if r["pass"] is not True)
            if (doc["total"], doc["failed"], doc["passed"]) != (len(records), bad,
                                                                 len(records) - bad):
                raise ValueError("report totals disagree with its records")
            return len(records), bad
        rows = list(csv.reader(fh))
    if not rows or rows[0][0] != "check_id" or rows[0][-1] != "pass":
        raise ValueError("bad csv header")
    return len(rows) - 1, sum(1 for r in rows[1:] if r[-1] != "true")


class IdentityReport:
    """Identity suites end to end through the CLI, plus seeded exact lookups."""

    name = "identity-report"

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        # one row size from each equal-width bin, so that the cost of the
        # rows the lookups build hardly depends on the seed
        plain_sizes = [rng.randint(60 + 10 * i, 69 + 10 * i) for i in range(24)]
        shifted_sizes = [rng.randint(20 + 18 * i, 37 + 18 * i) for i in range(8)]
        shifts = rng.sample(range(1, 41), 6)
        lookups = []
        for _ in range(PLAIN_LOOKUPS):
            n = rng.choice(plain_sizes)
            lookups.append(("stirling1", (n, rng.randint(0, n))))
        for _ in range(SHIFTED_LOOKUPS):
            n = rng.choice(shifted_sizes)
            lookups.append(("stirling1_shifted", (rng.choice(shifts), n, rng.randint(0, n))))
        rng.shuffle(lookups)
        self.lookups = lookups
        self.workdir = workdir
        self.expected = [_id_records(s, lim) for s, lim, _ in ID_SUITES]
        self.ops = sum(self.expected) + len(lookups)
        self.grid = {
            "suites": [dict(lim, suite=s, format=f, records=r)
                       for (s, lim, f), r in zip(ID_SUITES, self.expected)],
            "plain_lookups": PLAIN_LOOKUPS, "plain_row_sizes": sorted(plain_sizes),
            "shifted_lookups": SHIFTED_LOOKUPS, "shifted_row_sizes": sorted(shifted_sizes),
            "shifts": sorted(shifts),
        }
        self._passes = 0

    def _argv(self, index: int, out_dir: str) -> list[str]:
        suite, lim, fmt = ID_SUITES[index]
        argv = ["verify", suite]
        for key, value in lim.items():
            argv += [_FLAGS[key], str(value)]
        return argv + ["--format", fmt, "--output", self._path(out_dir, index)]

    @staticmethod
    def _path(out_dir: str, index: int) -> str:
        suite, _, fmt = ID_SUITES[index]
        return os.path.join(out_dir, f"{index:02d}-{suite}.{fmt}")

    def run(self) -> tuple:
        self._passes += 1
        out_dir = os.path.join(self.workdir, f"pass{self._passes}")
        os.makedirs(out_dir, exist_ok=True)
        argvs = [self._argv(i, out_dir) for i in range(len(ID_SUITES))]
        main = stirval.cli.main
        codes = []
        for argv in argvs:
            try:
                codes.append(main(argv))
            except Exception as exc:  # a crash fails every record of the suite
                codes.append(exc)
        fns = {"stirling1": stirval.stirling1, "stirling1_shifted": stirval.stirling1_shifted}
        values = []
        for kind, args in self.lookups:
            try:
                values.append(fns[kind](*args))
            except Exception as exc:
                values.append(exc)
        return out_dir, codes, values

    def check(self, out: tuple) -> int:
        out_dir, codes, values = out
        failed = 0
        for index, (code, want) in enumerate(zip(codes, self.expected)):
            if code != 0:
                failed += want
                continue
            try:
                total, bad = _parse_report(self._path(out_dir, index), ID_SUITES[index][2])
            except (OSError, ValueError, KeyError, TypeError):
                failed += want
                continue
            failed += want if total != want else bad
        rows: dict[tuple, tuple] = {}
        for (kind, args), value in zip(self.lookups, values):
            if kind == "stirling1":
                key, (n, k) = (0, args[0]), args
                if key not in rows:
                    row = tuple(stirval.stirling1_row(n))
                    rows[key] = row if sum(row) == math.factorial(n) else None
            else:
                (m, n, k) = args
                key = (m, n)
                if key not in rows:
                    row = tuple(stirval.stirling1_shifted_row(m, n))
                    # the coefficients of (x+m)...(x+m+n-1) sum to (m+n)!/m!
                    ok = sum(row) == math.factorial(m + n) // math.factorial(m)
                    rows[key] = row if ok else None
            row = rows[key]
            if isinstance(value, Exception) or row is None or value != row[k]:
                failed += 1
        return failed

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (P3Sweep, OracleStream, IdentityReport)}
