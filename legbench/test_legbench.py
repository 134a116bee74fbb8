"""Tests of the benchmark itself, on the tiny smoke size of each workload.

    python3 -m pytest -q legbench

The smoke sizes run through the same code paths as the measured sizes, so
these tests cover the output checks, the tracer and the result format in a
few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# A child process with one deliberate defect injected into legdet before the
# sample runs; {patch} is the body of the injection.
FAULTY_CHILD = """\
import dataclasses, sys
sys.path[:0] = [{src!r}, {bench!r}]
import legdet.identities
import child
{patch}
sys.exit(child.main())
"""

WRONG_AB = """\
_ab = legdet.identities.ab_coeffs
def wrong_ab(p):
    ud = _ab(p)
    return dataclasses.replace(ud, a=ud.a + 1) if p == 13 else ud
legdet.identities.ab_coeffs = wrong_ab
"""

CARLITZ_RAISES = """\
def broken_carlitz(p):
    raise ArithmeticError("injected")
legdet.identities.verify_carlitz = broken_carlitz
"""

UV_RAISES_AT_M3 = """\
_uv = legdet.identities.verify_lemma_uv
def broken_uv(m, u, v):
    if m == 3:
        raise ArithmeticError("injected")
    return _uv(m, u, v)
legdet.identities.verify_lemma_uv = broken_uv
"""


def _results(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def _run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "legbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _faulty_child(tmp_path: Path, patch: str) -> Path:
    path = tmp_path / "faulty_child.py"
    path.write_text(FAULTY_CHILD.format(src=str(ROOT / "src"), bench=str(BENCH_DIR), patch=patch))
    return path


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "legbench/run.py"]
    assert SPEC["paths"] == ["legbench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == [
        (name, unit, better) for name, (unit, better, *_) in run.END_TO_END.items()]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert SPEC["per_layer"] == tracer.metric_specs()
    assert len(SPEC["per_layer"]) <= 128


def test_smoke_run_of_every_workload_is_correct():
    proc = _run_cli("--size", "smoke", "--seconds", "0", "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    results = _results(proc.stdout)
    assert len(results) == len(WORKLOADS)
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in ("python=", "nproc=", "cpu=", "commit=", "src_lines="):
        assert name in proc.stdout


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_smoke_run_repeats_counts_and_confirms_bypasses(workload):
    proc = _run_cli("--workload", workload, "--size", "smoke", "--seconds", "0",
                    "--seed", "7", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    (result,) = _results(proc.stdout)
    assert result["correct"]  # includes equal exact counts across two traced samples
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for layer in WORKLOADS[workload].bypasses:
        assert metrics[f"{layer}.calls"]["value"] == 0, layer
    for layer in tracer.LAYERS:
        assert metrics[f"{layer.name}.self_s"]["value"] <= metrics[f"{layer.name}.total_s"]["value"] + 1e-9
    if workload == "suite60":
        assert metrics["cli.main.calls"]["value"] == 1
        assert metrics["cyclotomic.CycloElem.inv.calls"]["value"] > 0
    else:
        assert metrics["cyclotomic.CycloElem.inv.calls"]["value"] == 0
    if workload == "lemma_uv":
        assert metrics["linalg.det_bareiss.calls"]["value"] == 0


def test_tracer_patches_the_name_where_it_is_looked_up():
    sys.path.insert(0, str(ROOT / "src"))
    import legdet.identities
    import legdet.linalg

    original = legdet.linalg.det_bareiss
    with tracer.Tracer() as t:
        assert legdet.identities.det_bareiss is legdet.linalg.det_bareiss is not original
        legdet.identities.c_polynomial(5)
        legdet.identities.c_polynomial(5)
    assert legdet.identities.det_bareiss is original and legdet.linalg.det_bareiss is original
    m = t.metrics()
    # c_polynomial(5): det at x = 0 and x = 1, plus the symbolic check, per call
    assert m["identities.c_polynomial.calls"] == 2
    assert m["linalg.det_bareiss.calls"] == 6
    assert m["linalg.det_bareiss.distinct_ratio"] == 0.5
    assert m["linalg.det_bareiss.order3"] == 6 * 3 ** 3
    assert m["identities.c_polynomial.total_s"] >= m["linalg.det_bareiss.total_s"]


@pytest.mark.parametrize("workload, patch, want_failed, want_raised", [
    ("suite60", WRONG_AB, True, False),
    ("suite60", CARLITZ_RAISES, False, True),
    ("lemma_uv", UV_RAISES_AT_M3, False, True),
], ids=["suite60-wrong-a13", "suite60-carlitz-raises", "lemma_uv-m3-raises"])
def test_negative_control_flags_the_run(tmp_path, capsys, workload, patch, want_failed, want_raised):
    code = run.main(["--workload", workload, "--size", "smoke", "--seconds", "0", "--seed", "1"],
                    child=_faulty_child(tmp_path, patch))
    out = capsys.readouterr().out
    (result,) = _results(out)
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
    check_line = next(line for line in out.splitlines() if line.startswith("check "))
    fields = dict(kv.split("=", 1) for kv in check_line.split()[1:])
    assert float(fields["failed_ratio"]) > 0
    assert (int(fields["failed"]) > 0) == want_failed
    assert (int(fields["raised"]) > 0) == want_raised
    if workload == "lemma_uv":
        assert int(fields["checks_attempted"]) > int(fields["raised"])  # the rest still ran


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "legbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run_cli("--workload", "suite60", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=tmp_path)
    assert proc.returncode != 0
    assert not _results(proc.stdout)
