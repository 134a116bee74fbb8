"""legdet benchmark: time to a verified verdict, per workload.

    python3 legbench/run.py [--workload suite60|intdet|lemma_uv|all] [--seed N]
                            [--seconds S] [--trace 0|1] [--size full|smoke]

Run from anywhere; legdet is imported from ``src/`` next to this directory,
with no install step.  Each sample is one fresh child process (child.py),
one at a time, single-threaded.  Samples are taken until the next one would
end after ``--seconds``; at least one is always taken.

``--trace 0`` times the calls into legdet with tracing off and reports the
end-to-end metrics: the median of the samples scaled to a reference speed
as the value, and the raw best, median and tail next to it (see
end_to_end_metrics).  ``--trace 1`` alternates traced and untraced
samples, reports the per-layer metrics (see tracer.py) and the tracing
overhead, checks that the exact counts repeat across two traced samples,
and writes the spans of each traced sample to ``.legbench_out/`` at the
root of the checkout.

Every sample's outputs are checked: all checks passed, none raised, and the
verdicts' sha256 identical across samples of one seed.  Human-readable lines
come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0 when
every output was correct, 1 when a check failed or raised, 2 when the
benchmark could not run (no ``src/legdet`` here, or a child crashed).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_PKG = ROOT / "src" / "legdet"
CHILD = BENCH_DIR / "child.py"
OUT_DIR = ROOT / ".legbench_out"
CHILD_TIMEOUT_S = 150  # a full-size sample takes under 15 s on a 2-core Xeon

sys.path.insert(0, str(BENCH_DIR))
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# child.reference_s() on the 2-core Xeon this benchmark was defined on, at
# its fastest; samples are scaled to that speed (see end_to_end_metrics)
REFERENCE_S = 0.058

# name -> (unit, better, value of one sample as measured, power of time in
# the unit, which says how the value scales with the machine's speed)
END_TO_END = {
    "wall_s": ("s", "lower", lambda s: s["wall_s"], 1),
    "cpu_s": ("s", "lower", lambda s: s["cpu_s"], 1),
    "checks_per_s": ("1/s", "higher", lambda s: s["attempted"] / s["wall_s"], -1),
    "setup_s": ("s", "lower", lambda s: s["setup_s"], 1),
    "peak_rss_mib": ("MiB", "lower", lambda s: s["peak_rss_mib"], 0),
}


class BenchError(RuntimeError):
    """The benchmark itself could not produce a measurement."""


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment() -> dict:
    """Python, CPU, legdet commit and source size, stamped on every result."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    lines = {}
    for path in sorted(SRC_PKG.glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines[path.name] = data.count(b"\n")
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(lines.values()),
        "src_lines_by_file": lines,
    }


def take_sample(workload: str, seed: int, size: str, trace: bool, child: Path = CHILD,
                spans: Path | None = None) -> dict:
    """Run one child process to completion and return its sample."""
    cmd = [sys.executable, str(child), "--workload", workload, "--seed", str(seed),
           "--size", size, "--trace", str(int(trace))]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--spawned-at", repr(_monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{workload} sample exceeded {CHILD_TIMEOUT_S} s") from exc
    sys.stderr.write(proc.stderr)  # tracebacks of checks that raised
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def collect(workload: str, seed: int, seconds: float, size: str, trace: bool,
            child: Path = CHILD) -> tuple[list[dict], list[dict]]:
    """Untraced and traced samples, taken until the next would overrun.

    A traced run alternates traced and untraced children, starting traced,
    and takes at least two traced and one untraced sample.
    """
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
    plan = itertools.cycle((True, False)) if trace else itertools.repeat(False)
    deadline = _monotonic() + seconds
    plain: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    for traced_next in plan:
        spans = OUT_DIR / f"spans-{workload}-seed{seed}-{len(traced)}.jsonl" if traced_next else None
        start = _monotonic()
        sample = take_sample(workload, seed, size, traced_next, child, spans)
        longest = max(longest, _monotonic() - start)
        (traced if traced_next else plain).append(sample)
        enough = bool(plain) and (len(traced) >= 2 or not trace)
        if enough and _monotonic() + longest > deadline:
            return plain, traced


def tail(values: list[float], better: str) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values, reverse=(better == "higher"))
    return 100.0 * (n - 10) / n, ordered[n - 11]


def verdict(samples: list[dict], traced: list[dict]) -> dict:
    """Output checks over every sample of one run."""
    everything = samples + traced
    attempted = sum(s["attempted"] for s in everything)
    failed = sum(s["failed"] for s in everything)
    raised = sum(s["raised"] for s in everything)
    digests = sorted({s["digest"] for s in everything})
    unsteady = set()
    if traced:
        first = traced[0]["layers"]
        unsteady = {m for s in traced[1:] for m, v in s["layers"].items()
                    if tracer.is_exact_count(m) and v != first[m]}
    return {
        "attempted": attempted,
        "failed": failed,
        "raised": raised,
        "failed_ratio": (failed + raised) / attempted,
        "digests": digests,
        "unsteady_counts": sorted(unsteady),
        "correct": failed == 0 and raised == 0 and len(digests) == 1 and not unsteady,
    }


def end_to_end_metrics(samples: list[dict]) -> dict[str, dict]:
    """Each metric's value, and the raw best, median and tail of the samples.

    Other tenants of a shared machine slow the CPU by up to 60%, in spells
    that last from seconds to minutes, and wall and CPU time both rise
    with them.  Each child therefore times child.reference_s() just before
    and just after the workload, and a time metric's value is the median
    over samples of the time scaled to the reference speed: time *
    REFERENCE_S / reference time.  The raw figures are printed next to it:
    they are what a user waits on this machine now.
    """
    out = {}
    for name, (unit, better, value, power) in END_TO_END.items():
        raw = [value(s) for s in samples]
        scaled = [v * (REFERENCE_S / s["ref_s"]) ** power for v, s in zip(raw, samples)]
        pick = min if better == "lower" else max
        out[name] = {"value": statistics.median(scaled), "unit": unit, "raw_best": pick(raw),
                     "median": statistics.median(raw), "tail": tail(raw, better), "samples": raw}
    return out


def per_layer_metrics(plain: list[dict], traced: list[dict]) -> dict[str, dict]:
    """Counts from the first traced sample (they repeat), times as medians."""
    out = {}
    for spec in tracer.metric_specs():
        name = spec["name"]
        if name == tracer.OVERHEAD_METRIC:
            value = (statistics.median(s["wall_s"] for s in traced)
                     - statistics.median(s["wall_s"] for s in plain))
        elif tracer.is_exact_count(name):
            value = traced[0]["layers"][name]
        else:
            value = statistics.median(s["layers"][name] for s in traced)
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def _fmt_tail(t) -> str:
    return "n/a (needs 11+ samples)" if t is None else f"p{t[0]:.0f}={t[1]:.6g}"


def report(workload: str, seed: int, size: str, trace: bool, env: dict,
           plain: list[dict], traced: list[dict]) -> dict:
    """Print the human-readable block and return the result object."""
    check = verdict(plain, traced)
    metrics = per_layer_metrics(plain, traced) if trace else end_to_end_metrics(plain)
    print(f"legbench workload={workload} seed={seed} size={size} trace={int(trace)} "
          f"samples={len(plain)} traced_samples={len(traced)}")
    print(f"env python={env['python']} nproc={env['nproc']} cpu={env['cpu']!r} "
          f"commit={env['commit'] or 'unknown'} src_sha256={env['src_sha256'][:16]} "
          f"src_lines={env['src_lines']} "
          + " ".join(f"{k}={v}" for k, v in env["src_lines_by_file"].items()))
    print(f"check correct={check['correct']} checks_attempted={check['attempted']} "
          f"failed={check['failed']} raised={check['raised']} "
          f"failed_ratio={check['failed_ratio']:.6g} "
          f"report_sha256={','.join(d[:16] for d in check['digests'])}")
    if check["unsteady_counts"]:
        print("check exact counts differ between traced samples: "
              + " ".join(check["unsteady_counts"]))
    if trace:
        for name in WORKLOADS[workload].bypasses:
            calls = metrics[f"{name}.calls"]["value"]
            print(f"bypass {name}.calls={calls} {'ok' if calls == 0 else 'NOT BYPASSED'}")
        wall = statistics.median(s["wall_s"] for s in traced)
        top = sorted((m for m in metrics if m.endswith(".self_s")),
                     key=lambda m: metrics[m]["value"], reverse=True)[:5]
        print("top self time: " + ", ".join(
            f"{m[:-len('.self_s')]} {metrics[m]['value'] / wall:.1%}" for m in top)
              + f" of traced wall_s {wall:.4g} s")
        for name, m in metrics.items():
            print(f"metric {name} {m['value']:.6g} {m['unit']}")
    else:
        speed = [REFERENCE_S / s["ref_s"] for s in plain]
        print(f"speed vs reference best={max(speed):.4g} median={statistics.median(speed):.4g} "
              f"samples={','.join(f'{v:.4g}' for v in speed)}")
        for name, m in metrics.items():
            print(f"metric {name} value={m['value']:.6g} {m['unit']} raw best={m['raw_best']:.6g} "
                  f"median={m['median']:.6g} tail={_fmt_tail(m['tail'])} n={len(m['samples'])} "
                  f"samples={','.join(f'{v:.6g}' for v in m['samples'])}")
    return {
        "correct": check["correct"],
        "attempted": check["attempted"],
        "failed": check["failed"] + check["raised"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }


def main(argv=None, child: Path = CHILD) -> int:
    ap = argparse.ArgumentParser(prog="legbench", description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0, help="measuring time per workload (default: 40)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke runs a tiny input through the same code path, for tests")
    args = ap.parse_args(argv)

    if not (SRC_PKG / "__init__.py").is_file():
        print(f"legbench: no legdet sources at {SRC_PKG}; run from a legdet checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    code = 0
    for name in names:
        try:
            plain, traced = collect(name, args.seed, args.seconds, args.size, bool(args.trace), child)
        except BenchError as exc:
            print(f"legbench: {exc}", file=sys.stderr)
            return 2
        result = report(name, args.seed, args.size, bool(args.trace), env, plain, traced)
        print(json.dumps(result), flush=True)
        if not result["correct"]:
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
