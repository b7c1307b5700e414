"""Command-line front end: exact values, valuation oracles, verification
sweeps and table export.

Exit codes: 0 success / all checks pass; 1 usage or domain error;
2 verification failure; 3 conjecture deviation found.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile

from .bigmath import (
    _row_top,
    harmonic_sym,
    stirling1,
    stirling1_shifted,
    valuation_row,
)
from .errors import DomainError, RowTooLargeError, StirvalError, UsageError
from .oracles import _check_an, _proven_form, decompose_p, full_valuation_p, h_valuation, thm1_valuation
from .padic import _str, as_prime
from .verify import SUITES, VerificationReport, check_identity11, sweep

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2
EXIT_DEVIATION = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage problems routed to the exit-code contract."""

    def error(self, message):
        raise UsageError(message)


def _use_color() -> bool:
    return sys.stdout.isatty() and os.environ.get("NO_COLOR") is None


def _colored(text: str, code: str) -> str:
    return f"\x1b[{code}m{text}\x1b[0m" if _use_color() else text


def _write_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see halves."""
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, output: str | None) -> None:
    if output is None:
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        _write_atomic(output, text if text.endswith("\n") else text + "\n")


def _json_doc(obj) -> str:
    return json.dumps(obj, indent=2)


# ---------------------------------------------------------------------------
# stirling
# ---------------------------------------------------------------------------


def _cmd_stirling(args) -> int:
    if args.shift is None:
        value = stirling1(args.n, args.k)
    else:
        value = stirling1_shifted(args.shift, args.n, args.k)
    if args.format == "json":
        doc = {"n": args.n, "k": args.k, "m": args.shift, "value": _str(value)}
        print(_json_doc(doc))
    else:
        print(_str(value))
    return EXIT_OK


# ---------------------------------------------------------------------------
# val
# ---------------------------------------------------------------------------


def _cmd_val(args) -> int:
    p = as_prime(args.p)
    out: dict = {"p": p.p, "a": args.a, "n": args.n, "t": args.t, "method": args.method}
    status = EXIT_OK
    formula = exact = None
    if args.method in ("formula", "both"):
        formula = full_valuation_p(p, args.a, args.n, args.t)
        out["formula"] = str(formula)
    if args.method in ("exact", "both"):
        if args.n < 0:
            raise DomainError(f"n must be >= 0, got {args.n}")
        top = _row_top(p.p, args.a, args.n)
        if not 1 <= args.t <= top:
            raise DomainError(f"t must satisfy 1 <= t <= a*p^n = {_str(top)}, got {args.t}")
        exact = valuation_row(p, top)[args.t]
        out["exact"] = str(exact)
    if args.method == "both":
        match = formula == exact
        out["match"] = match
        if not match:
            status = EXIT_FAILURE if _proven_form(p.p) else EXIT_DEVIATION
    if args.format == "json":
        print(_json_doc(out))
    elif args.method == "both":
        print(f"formula={out['formula']} exact={out['exact']} "
              f"match={'true' if out['match'] else 'false'}")
    else:
        print(out.get("formula") if args.method == "formula" else out.get("exact"))
    return status


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

_TABLE_HEADER = ["a", "n", "t", "m", "k", "epsilon_k", "v3_formula", "v3_exact", "match"]


def _table_rows(a: int, n: int) -> list[dict]:
    _check_an(3, a, n)
    top = _row_top(3, a, n)
    vals = valuation_row(3, top)
    out = []
    for t in range(1, top + 1):
        if t <= top - 2:
            q = decompose_p(3, a, n, t)
            m, k, formula = q.m, q.k, thm1_valuation(q)
        else:
            # the boundary indices above the tiled domain report the natural
            # k = a*3^n - t (1 or 0) under m = n
            m, k, formula = n, top - t, full_valuation_p(3, a, n, t)
        exact = vals[t]
        out.append(
            {
                "a": a,
                "n": n,
                "t": t,
                "m": m,
                "k": k,
                "epsilon_k": k & 1,
                "v3_formula": formula.value,
                "v3_exact": exact.value,
                "match": formula == exact,
            }
        )
    return out


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _cmd_table(args) -> int:
    rows = _table_rows(args.a, args.n)
    if args.format == "json":
        text = _json_doc({"a": args.a, "n": args.n, "rows": rows})
    elif args.format == "csv":
        text = _csv_text(
            _TABLE_HEADER,
            [
                [str(r[c]) if c != "match" else ("true" if r[c] else "false")
                 for c in _TABLE_HEADER]
                for r in rows
            ],
        )
    else:
        widths = {c: max(len(c), 4) for c in _TABLE_HEADER}
        lines = ["  ".join(c.rjust(widths[c]) for c in _TABLE_HEADER)]
        for r in rows:
            lines.append(
                "  ".join(
                    str(r[c]).lower().rjust(widths[c]) if c == "match"
                    else str(r[c]).rjust(widths[c])
                    for c in _TABLE_HEADER
                )
            )
        text = "\n".join(lines)
    _emit(text, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# harmonic
# ---------------------------------------------------------------------------


def _cmd_harmonic(args) -> int:
    p = as_prime(args.p)
    h = harmonic_sym(args.n, args.k)
    val = h_valuation(p, args.n, args.k)
    identity_ok = check_identity11(args.n, args.k).passed if args.check else None
    if args.format == "json":
        doc = {
            "n": args.n,
            "k": args.k,
            "p": p.p,
            "numerator": str(h.numerator),
            "denominator": str(h.denominator),
            "valuation": str(val),
        }
        if identity_ok is not None:
            doc["identity_ok"] = identity_ok
        print(_json_doc(doc))
    else:
        shown = str(h.numerator) if h.denominator == 1 else f"{h.numerator}/{h.denominator}"
        print(f"{shown}  v_{p} = {val}")
        if identity_ok is not None:
            print(f"product identity: {'ok' if identity_ok else 'MISMATCH'}")
    if identity_ok is False:
        return EXIT_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _report_text(report: VerificationReport, fmt: str) -> str:
    if fmt == "json":
        return report.to_json()
    if fmt == "csv":
        header, *rows = report.csv_rows()
        return _csv_text(header, rows)
    verdict = "PASS" if report.failed == 0 else "FAIL"
    verdict = _colored(verdict, "32" if report.failed == 0 else "31")
    lines = [
        f"suite={report.suite} total={report.total} passed={report.passed} "
        f"failed={report.failed} deviations={report.deviations} [{verdict}]"
    ]
    for rec in report.records:
        if not rec.passed:
            params = ",".join(f"{k}={v}" for k, v in sorted(rec.params.items()))
            lines.append(
                f"  {rec.check_id}({params}): expected {rec.expected}, got {rec.actual}"
            )
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    limits = {}
    for key, flag in (("a", args.a), ("n", args.n), ("n_max", args.n_max),
                      ("m_max", args.m_max), ("p", args.p)):
        if flag is not None:
            limits[key] = flag
    report = sweep(args.suite, limits)
    _emit(_report_text(report, args.format), args.output)
    if report.deviations > 0:
        return EXIT_DEVIATION
    if report.failed > 0:
        return EXIT_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stirval",
        description=(
            "Exact Stirling cycle numbers s(n, k) and closed-form p-adic "
            "valuation oracles for s(a*p^n, t), with differential verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("stirling", help="exact s(n, k) or shifted s_m(n, k)")
    sp.add_argument("n", type=int)
    sp.add_argument("k", type=int)
    sp.add_argument("--shift", type=int, default=None, metavar="M",
                    help="compute the coefficient of x^k in (x+M)...(x+M+n-1)")
    sp.add_argument("--format", choices=["plain", "json"], default="plain")
    sp.set_defaults(func=_cmd_stirling)

    sp = sub.add_parser("val", help="v_p(s(a*p^n, t)) by closed form and/or exact row")
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--method", choices=["formula", "exact", "both"], default="both")
    sp.add_argument("--format", choices=["plain", "json"], default="plain")
    sp.set_defaults(func=_cmd_val)

    sp = sub.add_parser("table", help="formula-vs-exact table for t = 1..a*3^n")
    sp.add_argument("--a", type=int, required=True, choices=[1, 2])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--format", choices=["plain", "csv", "json"], default="plain")
    sp.add_argument("--output", default=None, metavar="PATH",
                    help="write to PATH (atomically) instead of stdout")
    sp.set_defaults(func=_cmd_table)

    sp = sub.add_parser("harmonic", help="elementary symmetric H(n, k) and its valuation")
    sp.add_argument("n", type=int)
    sp.add_argument("k", type=int)
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--check", action="store_true",
                    help="also check n! * H(n, k) == s(n+1, k+1)")
    sp.add_argument("--format", choices=["plain", "json"], default="plain")
    sp.set_defaults(func=_cmd_harmonic)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite", help=f"one of: {', '.join(SUITES)}")
    sp.add_argument("--a", type=int, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--n-max", type=int, default=None, dest="n_max")
    sp.add_argument("--m-max", type=int, default=None, dest="m_max")
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    sp.add_argument("--output", default=None, metavar="PATH",
                    help="write the report to PATH (atomically) instead of stdout")
    sp.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, DomainError, RowTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StirvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
