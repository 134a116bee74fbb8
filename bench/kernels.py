"""Timings of the check families, the kernels under the C(x), adjugate, cyclotomic and lemma checks, and the lemma report.

    python3 bench/kernels.py [--quick] [--parent DIR] [--change DIR] [--out FILE]

Cases:
  check families  one table, FAMILIES: each sample of a family's case calls
           identities.run_checks(ctx, names) on a fresh
           identities.PrimeContext(p), handed the context values that the
           family lists, computed once before the clock starts:
             sun_check      verify_sun_congruence for every d, its table
                            included, at p = 29, 61, 101, 157 (29 the
                            small-minor regime of legbench's intdet);
             carlitz_check  verify_carlitz, its Legendre table included, at
                            p = 61, 101, 157, 401;
             decomposition  verify_decomposition at p = 29, 53, given D
                            (vsemirnov), E (cauchy), C (evil) and chi, so
                            the sample is the right side V (s D U D) V and
                            the comparison;
             cyclo_products verify_prod_2j, verify_lemma_sum and
                            verify_d00_detG at p = 29, 53, given the unit
                            data, so the sample is the products and not the
                            continued fraction behind b_p.
  evil_adjugate  identities.PrimeContext(p).evil_adjugate, the adjugate that
           minor antisymmetry reads, on a fresh context at p = 67 and 151;
           one sample is one adjugate, its inputs included.
  toeplitz legdet.linalg.toeplitz_columns, the determinant with the
           first and last columns of the adjugate, on C + J and C - J for
           the evil matrix C at p = 401; one sample is both runs.
  det_fractions  legdet.linalg.det_fractions on two-vector lemma
           matrices [(u_i + v_j)/(1 + u_i v_j)] at m = 3, 5, 7, each entry
           the integer pair (a_i d_j + b_i c_j, b_i d_j + a_i c_j) for
           u_i = a_i/b_i and v_j = c_j/d_j from seeded
           identities.random_uv_instance draws of that m; one sample is one
           pass over a fixed batch of matrices.
  lemma_uv identities.verify_lemma_uv on the same batches of (u, v) at
           m = 3, 5, 7: the whole check, its matrix entries built from the
           integer numerators and denominators and its closed form
           included; one sample is one pass over a batch.
  vsemirnov_build  PrimeContext.vsemirnov and PrimeContext.cauchy on a
           fresh identities.PrimeContext at p = 29 and 53: the diagonal of
           Vsemirnov's D and the Cauchy-type matrix
           [(u_i + u_j)/(1 + u_i u_j)], u_j = (j/p) z^j; one sample is one
           build.
  det_field_cyclo  legdet.linalg.det_field over Q(zeta_p) on the matrix
           of the f1f2_u00 check at p = 29 and 41, the Cauchy-type matrix
           (PrimeContext.cauchy, its slot vectors folded into CycloElems
           where the checkout builds them so); one sample is one
           determinant.
  emit_report  legdet.cli.emit_report as JSON, into a fresh StringIO, of
           a pre-built report of 6000 lemma rows, identities.uv_trial_checks
           at m <= 7, seed 1: the report of legbench's lemma_uv workload;
           one sample is one report.
  random_uv_instance  6000 identities.random_uv_instance draws at
           m_max = 7 from random.Random(1), the instances of the lemma_uv
           workload's set-up; one sample is the 6000 draws.
  random_uv_instance cold  the first draws of a process: the lookup
           tables of identities._uv_box built from a cleared cache, then
           the draws that run_suite makes with the default SuiteOptions
           (100 at m_max = 5 from random.Random(0)); one sample is the
           build and the draws.

Two checkouts are timed side by side: --parent and --change name the
``src`` directories legdet is imported from (--change defaults to the one
next to this script, --parent to --change).  A third side, control,
imports the parent checkout again, so the control/parent ratio of a case
shows how far two timings of the same code drift apart in one run, beside
the change/parent ratio.  Each side runs in child processes, each of which
builds the inputs, takes one untimed pass over every case, and then, on
each request, takes one sample of every case.  A process has a speed of
its own (its memory layout, for one), which would read as a change if one
child per side took every sample.  So the samples of a side come from 3
children, run one after another: each round starts a fresh child per side
and asks the three for an equal share of the samples in turn, the order
rotating each sample, so that a slow spell of a shared machine lands on
every side, not on one.  Each case gets 9 samples per side, reported as
seconds per call: the median of the samples, and their minimum and
maximum.  The result is one JSON object, {"parent": ..., "change": ...,
"control": ...}, printed as the last line; --out FILE writes it there.
kernels_sha256 in each side's environment hashes every legdet/*.py of
that side, in sorted order.
A checkout holding legdet/__pycache__ while PYTHONDONTWRITEBYTECODE is set
draws a warning: its cached modules load from bytecode that is never
refreshed, the others compile, so two checkouts are not set up alike.
The committed BENCH_kernels.json holds the run made with

    python3 bench/kernels.py --parent PARENT_CHECKOUT/src --out BENCH_kernels.json

--quick runs 3 samples of a small batch, one per child: a smoke test that
every case still runs.  Each family runs at its --quick prime in FAMILIES
(61 for sun_check and carlitz_check, 13 for the others), evil_adjugate
and toeplitz at p = 67 and 61, vsemirnov_build and det_field_cyclo at
p = 13, det_fractions and lemma_uv at m = 3, and emit_report and
random_uv_instance take 60 rows and 60 draws; the cold case keeps its
100 draws.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ADJUGATE_PRIMES = (67, 151)
EVIL_PRIME = 401
LEMMA_ORDERS = (3, 5, 7)
LEMMA_BATCH = 50
VSEMIRNOV_PRIMES = (29, 53)
CYCLO_DET_PRIMES = (29, 41)
CYCLO_QUICK_PRIME = 13
UV_BATCH = 6000
UV_M_MAX = 7
PROCESSES = 3


# The check families (module docstring): case name, the names run_checks
# runs, the PrimeContext values handed to each sample's fresh context, the
# primes, the --quick primes.
FAMILIES = (
    ("sun_check p={} all d", ("verify_sun_congruence",), (), (29, 61, 101, 157), (61,)),
    ("carlitz_check p={}", ("verify_carlitz",), (), (61, 101, 157, 401), (61,)),
    ("decomposition p={}", ("verify_decomposition",), ("vsemirnov", "cauchy", "evil", "chi"),
     VSEMIRNOV_PRIMES, (CYCLO_QUICK_PRIME,)),
    ("cyclo_products p={}", ("verify_prod_2j", "verify_lemma_sum", "verify_d00_detG"), ("unit",),
     VSEMIRNOV_PRIMES, (CYCLO_QUICK_PRIME,)),
)


def family_cases(legdet, quick: bool) -> dict:
    ids = legdet.identities
    out = {}
    for case, names, given, primes, quick_primes in FAMILIES:
        for p in quick_primes if quick else primes:
            built = ids.PrimeContext(p)
            values = {name: getattr(built, name) for name in given}

            def run(p=p, names=names, values=values):
                ctx = ids.PrimeContext(p)
                ctx.__dict__.update(values)
                ids.run_checks(ctx, names)
                return 1

            out[case.format(p)] = run
    return out


def evil_adjugate_cases(legdet, quick: bool) -> dict:
    ids = legdet.identities
    out = {}
    for p in ADJUGATE_PRIMES[:1] if quick else ADJUGATE_PRIMES:
        def run(p=p):
            ids.PrimeContext(p).evil_adjugate
            return 1

        out[f"evil_adjugate p={p}"] = run
    return out


def toeplitz_cases(legdet, quick: bool) -> dict:
    """C +- J, from the builder that the C(x) checks use, as diagonals
    t_(1-k), ..., t_(k-1)."""
    ids = legdet.identities
    p = 61 if quick else EVIL_PRIME
    ts = [ids.evil_toeplitz(p, x) for x in (1, -1)]
    k = (len(ts[0]) + 1) // 2

    def run():
        for t in ts:
            legdet.linalg.toeplitz_columns(t, k)
        return len(ts)

    return {f"toeplitz_columns C +- J p={p}": run}


def lemma_cases(legdet, quick: bool) -> dict:
    """Seeded batches of two-vector lemma instances of order m, timed as
    det_fractions on their pre-built rows of integer pairs and as the whole
    verify_lemma_uv check, entries and closed form included."""
    ids = legdet.identities
    lin = legdet.linalg
    out = {}
    for m in LEMMA_ORDERS[:1] if quick else LEMMA_ORDERS:
        rng = random.Random(m)
        batch = []
        while len(batch) < (LEMMA_BATCH // 10 if quick else LEMMA_BATCH):
            k, u, v = ids.random_uv_instance(rng, m)
            if k == m:
                batch.append((u, v))
        mats = [[[(ui.numerator * vj.denominator + ui.denominator * vj.numerator,
                   ui.denominator * vj.denominator + ui.numerator * vj.numerator) for vj in v] for ui in u]
                for u, v in batch]

        def run(mats=mats):
            for rows in mats:
                lin.det_fractions(rows)
            return len(mats)

        def run_check(batch=batch, m=m):
            for u, v in batch:
                ids.verify_lemma_uv(m, u, v)
            return len(batch)

        out[f"det_fractions lemma m={m}"] = run
        out[f"lemma_uv m={m}"] = run_check
    return out


def cauchy_matrix(legdet, p: int):
    """det_field's matrix in verify_f1f2: PrimeContext.cauchy where it is
    an ExactMatrix, else its p-slot vectors folded into CycloElems."""
    lin, cyc = legdet.linalg, legdet.cyclotomic
    e = legdet.identities.PrimeContext(p).cauchy
    if isinstance(e, lin.ExactMatrix):
        return e
    return lin.ExactMatrix(lin.cyclo_ring(p), [[cyc.CycloElem(p, cyc._fold(v)) for v in row] for row in e])


def cyclo_cases(legdet, quick: bool) -> dict:
    """The builds of verify_f1f2 and verify_decomposition, and the
    determinant of verify_f1f2."""
    ids = legdet.identities
    lin = legdet.linalg
    out = {}
    for p in (CYCLO_QUICK_PRIME,) if quick else VSEMIRNOV_PRIMES:
        def run_build(p=p):
            ctx = ids.PrimeContext(p)
            ctx.vsemirnov
            ctx.cauchy
            return 1

        out[f"vsemirnov_build D cauchy p={p}"] = run_build
    for p in (CYCLO_QUICK_PRIME,) if quick else CYCLO_DET_PRIMES:
        def run(mat=cauchy_matrix(legdet, p)):
            lin.det_field(mat)
            return 1

        out[f"det_field_cyclo cauchy p={p}"] = run
    return out


def lemma_report_cases(legdet, quick: bool) -> dict:
    """The work around the lemma checks in a lemma_uv report: the JSON of
    a pre-built report, and the draws of the instances."""
    ids = legdet.identities
    n = UV_BATCH // 100 if quick else UV_BATCH
    config = {"uv_trials": n, "uv_m_max": UV_M_MAX, "seed": 1}
    report = ids.VerificationReport(tuple(ids.uv_trial_checks(n, UV_M_MAX, 1)), config, 0.0)

    def run_emit():
        legdet.cli.emit_report(report, "json", io.StringIO())
        return 1

    def run_draws():
        rng = random.Random(1)
        for _ in range(n):
            ids.random_uv_instance(rng, UV_M_MAX)
        return 1

    suite = ids.SuiteOptions()

    def run_cold():
        ids._uv_box.cache_clear()
        rng = random.Random(suite.seed)
        for _ in range(suite.uv_trials):
            ids.random_uv_instance(rng, suite.uv_m_max)
        return 1

    return {f"emit_report json {n} lemma rows": run_emit,
            f"random_uv_instance {n} draws m_max={UV_M_MAX}": run_draws,
            f"random_uv_instance cold box {suite.uv_trials} draws m_max={suite.uv_m_max}": run_cold}


def child(src: Path, quick: bool) -> int:
    """Build every case on legdet from src, run each once untimed, print
    their names as one JSON line, then print one JSON line of seconds per
    call per case for each line read from stdin, until stdin closes."""
    sys.path.insert(0, str(src))
    import legdet.cli
    import legdet.identities
    import legdet.linalg

    cases = {}
    for build in (family_cases, evil_adjugate_cases, toeplitz_cases, lemma_cases, cyclo_cases, lemma_report_cases):
        cases.update(build(legdet, quick))
    for run in cases.values():
        run()
    print(json.dumps(list(cases)), flush=True)
    for _ in sys.stdin:
        sample = {}
        for name, run in cases.items():
            t = time.perf_counter()
            calls = run()
            sample[name] = (time.perf_counter() - t) / calls
        print(json.dumps(sample), flush=True)
    return 0


def measure(srcs: dict[str, Path], quick: bool, repeats: int) -> dict:
    """Seconds per call of each case on each side, from PROCESSES rounds of
    one fresh child process per side, each round's children asked for
    repeats / PROCESSES samples in turn (the order rotating each sample)."""
    env = {**os.environ, "PYTHONHASHSEED": "0"}  # the same dict and set layouts on every side
    sides = list(srcs)
    times = {side: {} for side in sides}
    sample = 0
    for _ in range(PROCESSES):
        procs = {side: subprocess.Popen([sys.executable, __file__, "--child", str(src)] + ["--quick"] * quick,
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
                 for side, src in srcs.items()}
        try:
            for side, proc in procs.items():
                for name in json.loads(proc.stdout.readline()):
                    times[side].setdefault(name, [])
            for _ in range(repeats // PROCESSES):
                for side in sides[sample % len(sides):] + sides[:sample % len(sides)]:
                    procs[side].stdin.write("sample\n")
                    procs[side].stdin.flush()
                    for name, t in json.loads(procs[side].stdout.readline()).items():
                        times[side][name].append(t)
                sample += 1
        finally:
            for proc in procs.values():
                proc.stdin.close()
                proc.wait()
        if any(proc.returncode for proc in procs.values()):
            raise RuntimeError("a timing child failed")
    return {side: {name: {"median_s": statistics.median(v), "min_s": min(v), "max_s": max(v), "repeats": repeats}
                   for name, v in t.items()} for side, t in times.items()}


def environment(src: Path) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((src / "legdet").glob("*.py")):
        digest.update(path.read_bytes())
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "kernels_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--quick", action="store_true", help="smallest cases, 3 samples")
    ap.add_argument("--change", type=Path, default=ROOT / "src", help="directory holding the changed legdet")
    ap.add_argument("--parent", type=Path, default=None, help="directory holding the parent legdet (default: --change)")
    ap.add_argument("--out", type=Path, default=None, help="JSON file to write the result to")
    ap.add_argument("--child", type=Path, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child is not None:
        return child(args.child, args.quick)
    parent = (args.parent or args.change).resolve()
    srcs = {"parent": parent, "change": args.change.resolve(), "control": parent}
    for src in dict.fromkeys(srcs.values()):
        if not (src / "legdet" / "__init__.py").is_file():
            ap.error(f"no legdet package under {src}")
        if os.environ.get("PYTHONDONTWRITEBYTECODE") and (src / "legdet" / "__pycache__").is_dir():
            print(f"warning: {src / 'legdet' / '__pycache__'} exists and PYTHONDONTWRITEBYTECODE is set: "
                  "its stale bytecode is never refreshed; time clean checkouts", file=sys.stderr)
    timed = measure(srcs, args.quick, 3 if args.quick else 9)
    print(f"{'case':40s} {'parent':>12s}    {'change':>10s}     change/parent  control/parent")
    for name, c in timed["change"].items():
        before, ctl = timed["parent"].get(name), timed["control"].get(name)
        if before:
            print(f"{name:40s} {before['median_s'] * 1e6:12.1f} us -> {c['median_s'] * 1e6:10.1f} us  "
                  f"{c['median_s'] / before['median_s']:10.2f}  {ctl['median_s'] / before['median_s']:14.2f}")
        else:
            print(f"{name:40s} {'':19s}{c['median_s'] * 1e6:10.1f} us")
    result = {side: {"environment": environment(src), "quick": args.quick, "cases": timed[side]}
              for side, src in srcs.items()}
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
