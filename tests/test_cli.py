import json
import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import pytest

import stirval
import stirval.cli as cli
from stirval import CheckRecord, Valuation, VerificationReport
from stirval.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_stirling_plain(capsys):
    code, out, _ = run_cli(capsys, "stirling", "9", "6")
    assert code == 0 and out == "4536\n"
    code, out, _ = run_cli(capsys, "stirling", "3", "2")
    assert code == 0 and out == "3\n"


def test_stirling_shift(capsys):
    code, out, _ = run_cli(capsys, "stirling", "2", "1", "--shift", "2")
    assert code == 0 and out == "5\n"


def test_stirling_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "stirling", "9", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"n": 9, "k": 6, "m": None, "value": "4536"}
    assert json.dumps(doc, indent=2) == out.strip()


def test_stirling_domain_error(capsys):
    code, _, err = run_cli(capsys, "stirling", "3", "5", "--shift", "1")
    assert code == 1 and "error:" in err


def test_val_both(capsys):
    code, out, _ = run_cli(
        capsys, "val", "--p", "3", "--a", "1", "--n", "2", "--t", "6", "--method", "both"
    )
    assert code == 0 and out == "formula=4 exact=4 match=true\n"


def test_val_formula_only(capsys):
    code, out, _ = run_cli(
        capsys, "val", "--p", "3", "--a", "2", "--n", "1", "--t", "3", "--method", "formula"
    )
    assert code == 0 and out == "2\n"
    code, out, _ = run_cli(
        capsys, "val", "--p", "3", "--a", "1", "--n", "2", "--t", "9", "--method", "formula"
    )
    assert code == 0 and out == "0\n"


def test_val_general_p(capsys):
    code, out, _ = run_cli(
        capsys, "val", "--p", "5", "--a", "1", "--n", "1", "--t", "3", "--method", "both"
    )
    assert code == 0
    assert "match=true" in out


def test_val_unimplemented_formula_suggests_exact(capsys):
    # a = 4, t = 2 falls below the bottom cell at p = 7
    code, _, err = run_cli(
        capsys, "val", "--p", "7", "--a", "4", "--n", "1", "--t", "2", "--method", "formula"
    )
    assert code == 1 and "--method exact" in err
    code, out, _ = run_cli(
        capsys, "val", "--p", "7", "--a", "4", "--n", "1", "--t", "2", "--method", "exact"
    )
    assert code == 0 and out.strip().isdigit()


def test_val_mismatch_statuses(capsys, monkeypatch):
    monkeypatch.setattr(cli, "full_valuation_p", lambda *a: Valuation(99))
    code, out, _ = run_cli(capsys, "val", "--p", "3", "--a", "1", "--n", "1", "--t", "1")
    assert code == 2 and "match=false" in out  # proven form: a bug
    code, out, _ = run_cli(capsys, "val", "--p", "5", "--a", "1", "--n", "1", "--t", "2")
    assert code == 3 and "match=false" in out  # conjectural form: a deviation


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--a", "1", "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "a,n,t,m,k,epsilon_k,v3_formula,v3_exact,match"
    assert len(lines) == 10  # header + 9 data rows
    t6 = lines[6].split(",")
    assert t6[2] == "6" and t6[6] == "4" and t6[8] == "true"
    assert all(line.endswith("true") for line in lines[1:])


def test_table_csv_small(capsys):
    code, out, _ = run_cli(capsys, "table", "--a", "2", "--n", "1", "--format", "csv")
    assert code == 0
    assert len(out.strip().split("\n")) == 7


def test_table_atomic_output(tmp_path, capsys):
    target = tmp_path / "grid.csv"
    code, out, _ = run_cli(
        capsys, "table", "--a", "1", "--n", "1", "--format", "csv", "--output", str(target)
    )
    assert code == 0 and out == ""
    text = target.read_text()
    assert text.startswith("a,n,t,m,k,epsilon_k,v3_formula,v3_exact,match\n")
    assert len(text.strip().split("\n")) == 4
    # no leftover temp files from the atomic rename
    assert os.listdir(tmp_path) == ["grid.csv"]


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, "table", "--a", "1", "--n", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["a"] == 1 and len(doc["rows"]) == 3
    assert doc["rows"][0]["match"] is True


def test_harmonic_plain(capsys):
    code, out, _ = run_cli(capsys, "harmonic", "3", "1", "--p", "3")
    assert code == 0 and out == "11/6  v_3 = -1\n"
    code, out, _ = run_cli(capsys, "harmonic", "5", "0", "--p", "3")
    assert code == 0 and out == "1  v_3 = 0\n"


def test_harmonic_check_and_json(capsys):
    code, out, _ = run_cli(capsys, "harmonic", "3", "1", "--p", "3", "--check")
    assert code == 0 and "ok" in out
    code, out, _ = run_cli(capsys, "harmonic", "27", "1", "--p", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["valuation"] == "-3"
    assert doc["numerator"].isdigit() and doc["denominator"].isdigit()


def test_harmonic_row_cap(capsys):
    for n in ("100000", "3000"):
        code, out, err = run_cli(capsys, "harmonic", n, "1")
        assert code == 1 and out == "" and "row too large" in err


def test_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm1", "--a", "1", "--n", "3")
    assert code == 0
    assert "total=25" in out and "failed=0" in out


def test_verify_conjecture_status(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "conjecture13", "--p", "5", "--a", "1", "--n-max", "1"
    )
    assert code == 0 and "deviations=0" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "nosuch")
    assert code == 1 and "valid suites" in err


def test_verify_bad_limit(capsys):
    code, _, err = run_cli(capsys, "verify", "thm1", "--m-max", "2")
    assert code == 1 and "unknown limit" in err


def test_verify_json_roundtrip(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "verify", "cor1", "--a", "1", "--n", "2", "--format", "json",
        "--output", str(target),
    )
    assert code == 0
    text = target.read_text()
    assert json.dumps(json.loads(text), indent=2) == text.strip()


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm1", "--a", "1", "--n", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "check_id,a,n,t,expected,actual,pass"


def test_verify_failure_statuses(capsys, monkeypatch):
    broken = VerificationReport(
        "thm1", [CheckRecord("thm1", {"a": 1, "n": 1, "t": 1}, "1", "0", False)]
    )
    monkeypatch.setattr(cli, "sweep", lambda suite, limits: broken)
    code, out, _ = run_cli(capsys, "verify", "thm1")
    assert code == 2 and "failed=1" in out

    deviating = VerificationReport(
        "conjecture13",
        [CheckRecord("conjecture13", {"a": 1, "k": 2, "m": 1, "n": 1, "p": 5}, "1", "0", False)],
    )
    monkeypatch.setattr(cli, "sweep", lambda suite, limits: deviating)
    code, out, _ = run_cli(capsys, "verify", "conjecture13")
    assert code == 3 and "deviations=1" in out


def test_no_arguments_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1 and "error:" in err


def test_val_row_cap(capsys):
    code, _, err = run_cli(
        capsys, "val", "--p", "3", "--a", "1", "--n", "9", "--t", "1", "--method", "exact"
    )
    assert code == 1 and "row too large" in err


def test_verify_refuses_empty_grids(capsys):
    for argv in (("verify", "thm1", "--n-max", "0"),
                 ("verify", "conjecture13", "--p", "5", "--n", "0")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and "no checks" in err, argv


def _fresh_python(*args):
    """Run a new interpreter on this checkout's package, so no row is cached yet."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def _fresh_cli(*argv, flags=()):
    """Run the CLI in a new interpreter."""
    return _fresh_python(*flags, "-m", "stirval.cli", *argv)


_MAIN_EACH = """\
import contextlib, io, json, sys
from stirval.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        results.append([main(argv), out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def _fresh_main(argvs, flags=()):
    """Run the CLI on each argv in turn in one new interpreter; returns
    (exit code, stdout, stderr) for each."""
    proc = _fresh_python(*flags, "-c", _MAIN_EACH, json.dumps(argvs))
    assert (proc.returncode, proc.stderr) == (0, "")
    return [tuple(result) for result in json.loads(proc.stdout)]


@pytest.mark.parametrize("argv, message", [
    (("table", "--a", "1", "--n", "-1"), "error: n must be >= 1, got -1\n"),
    (("val", "--p", "2", "--a", "2", "--n", "-1", "--t", "1", "--method", "exact"),
     "error: n must be >= 0, got -1\n"),
], ids=["table", "val-exact"])
def test_negative_n_is_refused_in_a_fresh_process(argv, message):
    proc = _fresh_cli(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", message)


def test_val_prints_a_valuation_past_the_int_digit_limit():
    """v_3(s(3^9100, 1)) = (3^9100 - 1 - 2*9100)/2 has 4342 digits, past str()'s
    default limit of 4300, which the interpreter is held to here."""
    expected = (3**9100 - 1 - 2 * 9100) // 2
    argv = ("val", "--p", "3", "--a", "1", "--n", "9100", "--t", "1")
    flags = ("-X", "int_max_str_digits=4300")
    plain = _fresh_cli(*argv, "--method", "formula", flags=flags)
    assert (plain.returncode, plain.stderr) == (0, "")
    assert len(plain.stdout) == 4343 and int(Decimal(plain.stdout)) == expected
    doc = _fresh_cli(*argv, "--method", "formula", "--format", "json", flags=flags)
    assert (doc.returncode, doc.stderr) == (0, "")
    assert json.loads(doc.stdout) == {"p": 3, "a": 1, "n": 9100, "t": 1, "method": "formula",
                                      "formula": plain.stdout.strip()}
    both = _fresh_cli(*argv, flags=flags)  # the exact row is refused, not printed
    assert (both.returncode, both.stdout) == (1, "")
    assert both.stderr == "error: row too large: n=1*3^9100 exceeds cap 5000\n"


def test_big_integers_print_past_the_int_digit_limit():
    """s(2000, 1) = 1999! (5,736 digits), s_M(3, 0) = M(M+1)(M+2) for a
    1,501-digit M, and the bound 3^9100 of a DomainError all pass str()'s
    default limit of 4300 digits, which the interpreter is held to here."""
    value = str(Decimal(math.factorial(1999)))
    shift = 10**1500
    results = _fresh_main([
        ["stirling", "2000", "1"],
        ["stirling", "2000", "1", "--format", "json"],
        ["stirling", "3", "0", "--shift", str(shift)],
        ["val", "--p", "3", "--a", "1", "--n", "9100", "--t", "0", "--method", "formula"],
    ], flags=("-X", "int_max_str_digits=4300"))
    doc = json.dumps({"n": 2000, "k": 1, "m": None, "value": value}, indent=2)
    assert results == [
        (0, value + "\n", ""),
        (0, doc + "\n", ""),
        (0, f"{Decimal(shift * (shift + 1) * (shift + 2))}\n", ""),
        (1, "", f"error: t must satisfy 1 <= t <= a*p^n = {Decimal(3**9100)}, got 0\n"),
    ]


@pytest.mark.parametrize("argv", [
    ("table", "--a", "1", "--n", "10000000"),
    ("val", "--a", "1", "--n", "10000000", "--t", "1", "--method", "exact"),
    ("verify", "thm1", "--a", "1", "--n", "10000000"),
], ids=["table", "val-exact", "verify"])
def test_absurd_n_is_refused_before_its_power_is_formed(capsys, argv):
    """3^(10^7) alone would take 2 MB and seconds; the refusal allocates neither."""
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (1, "", "error: row too large: n=1*3^10000000 exceeds cap 5000\n")
    assert peak < 500_000


def test_over_cap_identity11_is_refused_before_its_first_record(capsys):
    """identity11 sweeps n upward, so without a check of n_max first it would
    check every n <= 650 (about 211,000 records, 45 s) before refusing."""
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "verify", "identity11", "--n-max", "651")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (1, "", "error: row too large: harmonic row n=651 exceeds cap 650\n")
    assert peak < 500_000


def test_val_exact_keeps_n0_and_out_of_range_a(capsys):
    """n = 0 and a outside [1, p-1] still read the row s(a*p^n, .); an a <= 0
    has an empty row whatever n is, so it is refused for its t, not as too large."""
    for argv, out in ((("--a", "1", "--n", "0", "--t", "1"), "0\n"),
                      (("--a", "5", "--n", "1", "--t", "3"), "2\n")):
        assert run_cli(capsys, "val", "--p", "3", "--method", "exact", *argv) == (0, out, "")
    for a, top in (("0", 0), ("-1", -(3**13))):
        argv = ("val", "--p", "3", "--a", a, "--n", "13", "--t", "1", "--method", "exact")
        message = f"error: t must satisfy 1 <= t <= a*p^n = {top}, got 1\n"
        assert run_cli(capsys, *argv) == (1, "", message)


#: Reports written by ``stirval verify``, one or more per suite, before the
#: JSON writer and the grid order were changed; the report bytes must not change.
_GOLDEN_REPORTS = [
    (["thm1", "--a", "1", "--n", "2", "--format", "json"], "verify_thm1_a1_n2.json"),
    (["thm2", "--a", "2", "--n", "2", "--format", "csv"], "verify_thm2_a2_n2.csv"),
    (["lemma26", "--n", "1", "--format", "json"], "verify_lemma26_n1.json"),
    (["conjecture13", "--p", "5", "--n", "2", "--format", "json"], "verify_conjecture13_p5_n2.json"),
    (["cor1", "--a", "1", "--n", "2", "--format", "json"], "verify_cor1_a1_n2.json"),
    (["thm34", "--n-max", "2", "--format", "csv"], "verify_thm34_n_max2.csv"),
    (["lemma21", "--n-max", "6", "--format", "json"], "verify_lemma21_n_max6.json"),
    (["lemma22", "--n-max", "2", "--format", "csv"], "verify_lemma22_n_max2.csv"),
    (["lemma24", "--m-max", "2", "--n-max", "2", "--format", "csv"],
     "verify_lemma24_m_max2_n_max2.csv"),
    (["lemma25", "--m-max", "2", "--n-max", "2", "--format", "json"],
     "verify_lemma25_m_max2_n_max2.json"),
    (["identity11", "--n-max", "4", "--format", "csv"], "verify_identity11_n_max4.csv"),
    (["congruence", "--m-max", "3", "--n-max", "2", "--format", "json"],
     "verify_congruence_m_max3_n_max2.json"),
]

_DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("argv, name", _GOLDEN_REPORTS)
def test_verify_report_bytes_match_golden_files(capsys, argv, name):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert (code, err) == (0, "")
    assert out.encode() == (_DATA / name).read_bytes()


#: Tables written by ``stirval table`` while it still decomposed each index
#: through the private cell finder; they pin the m, k and epsilon_k columns.
_GOLDEN_TABLES = [
    (["--a", "2", "--n", "2", "--format", "csv"], "table_a2_n2.csv"),
    (["--a", "1", "--n", "2", "--format", "json"], "table_a1_n2.json"),
    (["--a", "1", "--n", "2"], "table_a1_n2.txt"),
]


@pytest.mark.parametrize("argv, name", _GOLDEN_TABLES)
def test_table_bytes_match_golden_files(capsys, argv, name):
    code, out, err = run_cli(capsys, "table", *argv)
    assert (code, err) == (0, "")
    assert out.encode() == (_DATA / name).read_bytes()


def test_golden_reports_hold_under_python_O():
    """No verdict may rest on an ``assert``: every golden report and table, byte
    for byte, from one fresh ``python -O`` process."""
    golden = [(["verify", *argv], name) for argv, name in _GOLDEN_REPORTS]
    golden += [(["table", *argv], name) for argv, name in _GOLDEN_TABLES]
    results = _fresh_main([argv for argv, _ in golden], flags=("-O",))
    for (code, out, err), (_, name) in zip(results, golden):
        assert (code, err) == (0, ""), name
        assert out.encode() == (_DATA / name).read_bytes(), name


def test_package_version_matches_pyproject():
    """The version is stated in pyproject.toml and in stirval.__version__; they agree."""
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["version"] == stirval.__version__
