import csv
import hashlib
import io
import json
import subprocess
import sys

import pytest

from helpers import parse_value
from legdet import cli, identities
from legdet.identities import CheckResult, VerificationReport
from legdet.linalg import det_bareiss
from legdet.render import format_value


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "legdet", *args],
        capture_output=True,
        text=True,
    )


def test_cx_command():
    r = run_cli("cx", "--p", "13")
    assert r.returncode == 0
    assert r.stdout == "-65*x - 18\n"
    assert run_cli("cx", "--p", "7").stdout == "1\n"


def test_cx_command_reports_route_disagreement(monkeypatch, capsys):
    """With the dense det(C - J), the one matrix of c_polynomial's p <= 13
    cross-check whose (0, 0) entry is -1, shifted, cx prints nothing on
    stdout and the RuntimeError escapes with both polynomials.  Above
    p = 13 only the Toeplitz runs take place, so the output stands."""
    monkeypatch.setattr(identities, "det_bareiss", lambda m: det_bareiss(m) + (m[0, 0] == -1))
    with pytest.raises(RuntimeError, match=r"p=13: -65\*x - 18 ; -131/2\*x - 35/2"):
        cli.main(["cx", "--p", "13"])
    assert capsys.readouterr().out == ""
    assert cli.main(["cx", "--p", "17"]) == 0
    assert capsys.readouterr().out == "17*x - 4\n"


def test_cx_rejects_non_prime():
    r = run_cli("cx", "--p", "9")
    assert r.returncode == 2
    assert "9" in r.stderr


def test_unit_command():
    r = run_cli("unit", "--p", "5")
    assert r.returncode == 0
    lines = dict(line.split(" = ") for line in r.stdout.strip().splitlines())
    assert lines["eps"] == "(1 + sqrt(5))/2"
    assert lines["h"] == "1"
    assert lines["exponent"] == "3"
    assert lines["a"] == "2"
    assert lines["b"] == "1"


def test_unit_rejects_3_mod_4():
    r = run_cli("unit", "--p", "7")
    assert r.returncode == 2
    assert "no unit" in r.stderr


def test_verify_pmax_boundary():
    assert run_cli("verify", "--pmax", "2").returncode == 2


def test_verify_text_report():
    r = run_cli("verify", "--pmax", "7", "--trials", "3")
    assert r.returncode == 0
    assert "theorem_cx" in r.stdout
    assert "0 failed" in r.stdout
    assert "!=" not in r.stdout


def test_verify_json_roundtrip():
    """Every lhs/rhs string in the JSON report parses back to a value whose
    canonical form is the same string."""
    r = run_cli("verify", "--pmax", "13", "--trials", "5", "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["all_pass"] is True
    assert doc["config"]["p_max"] == 13
    assert len(doc["checks"]) > 10
    for c in doc["checks"]:
        for side in ("lhs", "rhs"):
            value = parse_value(c[side], p=c["p"])
            assert format_value(value) == c[side]
        assert (c["status"] == "pass") == (c["lhs"] == c["rhs"])


def test_verify_json_golden_report(capsys):
    """The pmax-60 report bytes are the behaviour contract: a refactor that
    changes any value, verdict or formatting changes this digest."""
    assert cli.main(["verify", "--pmax", "60", "--seed", "42", "--format", "json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "c9f83ed2dd5593e2c7d1842556af304950af2607c8de9aef7d99c8bd9f31807e"


def test_lemma_uv_json_golden_report(capsys):
    """The lemma report at the instance sizes the benchmark runs (m <= 7),
    which the pmax-60 report (m <= 5, 100 trials) does not reach."""
    assert cli.main(["lemma-uv", "--trials", "2000", "--m", "7", "--seed", "3", "--format", "json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "69633c0e16a21d2310903b4f4186d986378ba4d8bbcad9af5ec811135e36ec5a"


@pytest.mark.parametrize("argv, digest", [
    ("decomp --p 13 --format json", "544f7fa38b88e3e6bad849fddf6558a9ad4a46c164f9561868c9f64845d5a687"),
    ("carlitz --p 11 --format json", "1f11919cd7cd961d9778e7cc4e92fdca4a603ebcc3f71da8479b6fb591ac37fe"),
    ("sun --p 13 --d all --format csv", "03b669ddeada81fb5c19a87bcd84fe43920d4e0b7715812378c66d2692bee357"),
    ("verify --pmax 13 --format csv", "79d4cafb2e316d668bc934fd5dbe7e2322a25e7c7c55c7ace48c6020738234df"),
    ("cx --p 13", "0f1dcb27c7f93408f1d91665852734c48faae0697b6bac3404ea19de6f63d7e2"),
    ("unit --p 229", "e0e173426f19205288341d9e534a5cc39106c1033e93169d6423f5935d58aba4"),
    ("verify --pmax 160 --format json", "9c9aa96f80e7a3785cb94d71c2a088048045bda4a77db19058f1fcc6af50d365"),
], ids=["decomp", "carlitz", "sun", "verify", "cx", "unit", "verify-160"])
def test_report_golden_digests(capsys, argv, digest):
    """The bytes of every other report command.  Text reports of decomp,
    carlitz and sun carry the elapsed time, so their JSON or CSV is pinned.
    The pmax-160 report pins the Toeplitz determinants up to k = 158."""
    assert cli.main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_verify_json_deterministic():
    args = ("verify", "--pmax", "13", "--seed", "42", "--format", "json")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.encode() == b.stdout.encode()


def test_verify_csv_columns():
    r = run_cli("verify", "--pmax", "5", "--trials", "2", "--format", "csv")
    assert r.returncode == 0
    rows = list(csv.reader(io.StringIO(r.stdout)))
    assert rows[0] == ["check_name", "p", "status", "lhs", "rhs", "detail"]
    assert all(len(row) == 6 for row in rows)
    body = rows[1:]
    assert all(row[2] == "pass" for row in body)
    # generic checks carry an empty p column
    assert any(row[1] == "" and row[0].startswith("lemma_uv") for row in body)


def test_decomp_command():
    r = run_cli("decomp", "--p", "13")
    assert r.returncode == 0
    assert "decomposition" in r.stdout
    assert run_cli("decomp", "--p", "7").returncode == 2


def test_carlitz_command():
    r = run_cli("carlitz", "--p", "7", "--format", "csv")
    assert r.returncode == 0
    assert "carlitz,7,pass,49,49" in r.stdout


def test_sun_command_all_and_single():
    r = run_cli("sun", "--p", "13", "--d", "all", "--format", "csv")
    assert r.returncode == 0
    assert len(r.stdout.strip().splitlines()) == 14  # header + one row per d
    single = run_cli("sun", "--p", "13", "--d", "3")
    assert single.returncode == 0 and "sun[d=03]" in single.stdout
    assert run_cli("sun", "--p", "13", "--d", "13").returncode == 2
    assert run_cli("sun", "--p", "13", "--d", "junk").returncode == 2
    assert run_cli("sun", "--p", "7", "--d", "1").returncode == 2


def test_lemma_uv_command_reproducible():
    args = ("lemma-uv", "--trials", "20", "--m", "4", "--seed", "42", "--format", "json")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert len(doc["checks"]) == 20
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_unknown_flag_is_usage_error():
    assert run_cli("verify", "--nope").returncode == 2
    assert run_cli().returncode == 2


def test_exit_code_one_on_identity_failure(monkeypatch):
    """Failed identities exit 1, distinct from usage errors; forced with a
    synthetic failing report since no real prime produces one."""
    fake = VerificationReport(
        (CheckResult("theorem_cx", 5, False, "1", "2", ""),),
        {"p_max": 5},
        0.0,
    )
    monkeypatch.setattr(cli, "run_suite", lambda pmax, options: fake)
    out = io.StringIO()
    args = cli._build_parser().parse_args(["verify", "--pmax", "5"])
    assert cli._dispatch(args, out) == 1
    assert "!=" in out.getvalue()


def test_emit_report_fail_rendering():
    rep = VerificationReport(
        (CheckResult("evil_det", 13, False, "-18", "-17", "first divergent entry (i, j) = (0, 1)"),),
        {},
        0.0,
    )
    out = io.StringIO()
    cli.emit_report(rep, "text", out)
    text = out.getvalue()
    assert "fail" in text and "!=" in text and "(0, 1)" in text
    out = io.StringIO()
    cli.emit_report(rep, "csv", out)
    assert "evil_det,13,fail,-18,-17," in out.getvalue()
