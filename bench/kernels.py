"""Timings of the kernels under the cyclotomic, Sun, Carlitz, C(x), adjugate and lemma checks and their report.

    python3 bench/kernels.py [--quick] [--parent DIR] [--change DIR] [--out FILE]

Cases:
  mul_vec  legdet.cyclotomic._mul_vec at p = 13, 29, 59, a monomial or a
           dense vector times a dense vector, entries of 3, 40 or 300 bits;
           one sample is one pass over a fixed batch of seeded operand pairs.
  sun_check  the whole Sun check of one prime: a fresh
           identities.PrimeContext and verify_sun_congruence for every d, at
           p = 61, 101, 157, its table included; one sample is one prime.
  evil_adjugate  identities.PrimeContext(p).evil_adjugate, the adjugate that
           minor antisymmetry reads, on a fresh context at p = 67 and 151;
           one sample is one adjugate, its inputs included.
  carlitz_check  the whole Carlitz check of one prime: a fresh
           identities.PrimeContext and verify_carlitz, at p = 61, 101, 157
           and 401, its Legendre table included; one sample is one prime.
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
           (PrimeContext.cauchy); one sample is one determinant.
  decomposition  identities.verify_decomposition at p = 29 and 53 on a
           context whose D, Cauchy-type matrix and evil matrix are already
           built, so the sample is the right side V (s D U D) V and the
           comparison; one sample is one check.
  cyclo_products  identities.verify_prod_2j, verify_lemma_sum and
           verify_d00_detG, the product checks that take no determinant,
           at p = 29 and 53 on a fresh context given the prime's unit data
           (ctx.unit), built once; one sample is the three checks.
  emit_report  legdet.cli.emit_report as JSON, into a fresh StringIO, of
           a pre-built report of 6000 lemma rows, identities.uv_trial_checks
           at m <= 7, seed 1: the report of legbench's lemma_uv workload;
           one sample is one report.
  random_uv_instance  6000 identities.random_uv_instance draws at
           m_max = 7 from random.Random(1), the instances of the lemma_uv
           workload's set-up; one sample is the 6000 draws.

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
A checkout holding legdet/__pycache__ while PYTHONDONTWRITEBYTECODE is set
draws a warning: its cached modules load from bytecode that is never
refreshed, the others compile, so two checkouts are not set up alike.
The committed BENCH_kernels.json holds the run made with

    python3 bench/kernels.py --parent PARENT_CHECKOUT/src --out BENCH_kernels.json

--quick runs p = 13, 61 and 67 only, with 3 samples of a small batch,
one per child: a smoke test that every case still runs.  Its carlitz_check
and toeplitz cases are at p = 61, its det_fractions and lemma_uv cases at m = 3,
and its vsemirnov_build, det_field_cyclo, decomposition and cyclo_products
cases at p = 13, and its emit_report and random_uv_instance cases take
60 rows and 60 draws.
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

MUL_PRIMES = (13, 29, 59)
MUL_BITS = (3, 40, 300)
MUL_BATCH = 200
SUN_PRIMES = (61, 101, 157)
ADJUGATE_PRIMES = (67, 151)
CARLITZ_CHECK_PRIMES = (61, 101, 157, 401)
EVIL_PRIME = 401
LEMMA_ORDERS = (3, 5, 7)
LEMMA_BATCH = 50
VSEMIRNOV_PRIMES = (29, 53)
CYCLO_DET_PRIMES = (29, 41)
CYCLO_QUICK_PRIME = 13
UV_BATCH = 6000
UV_M_MAX = 7
PROCESSES = 3


def _vector(rng: random.Random, p: int, bits: int, monomial: bool) -> list[int]:
    m = 1 << bits
    if monomial:
        v = [0] * (p - 1)
        v[rng.randrange(p - 1)] = rng.randint(1, m) * rng.choice((1, -1))
        return v
    return [rng.randint(-m, m) for _ in range(p - 1)]


def mul_vec_cases(legdet, quick: bool) -> dict:
    mul = legdet.cyclotomic._mul_vec
    out = {}
    for p in MUL_PRIMES[:1] if quick else MUL_PRIMES:
        for bits in MUL_BITS:
            for shape in ("monomial", "dense"):
                rng = random.Random(p * 1000 + bits)
                pairs = [(_vector(rng, p, bits, shape == "monomial"), _vector(rng, p, bits, False))
                         for _ in range(MUL_BATCH // 10 if quick else MUL_BATCH)]

                def run(pairs=pairs, p=p):
                    for a, b in pairs:
                        mul(p, a, b)
                    return len(pairs)

                out[f"mul_vec p={p} {shape} x dense {bits}-bit"] = run
    return out


def sun_check_cases(legdet, quick: bool) -> dict:
    ids = legdet.identities
    out = {}
    for p in SUN_PRIMES[:1] if quick else SUN_PRIMES:
        def run(p=p):
            ctx = ids.PrimeContext(p)
            for d in range(p):
                ids.verify_sun_congruence(ctx, d)
            return 1

        out[f"sun_check p={p} all d"] = run
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


def carlitz_check_cases(legdet, quick: bool) -> dict:
    ids = legdet.identities
    out = {}
    for p in CARLITZ_CHECK_PRIMES[:1] if quick else CARLITZ_CHECK_PRIMES:
        def run(p=p):
            ids.verify_carlitz(ids.PrimeContext(p))
            return 1

        out[f"carlitz_check p={p}"] = run
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


def cyclo_cases(legdet, quick: bool) -> dict:
    """The builds and kernels of verify_f1f2 and verify_decomposition; the
    decomposition check runs on a context that already holds its inputs."""
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
        def run(mat=ids.PrimeContext(p).cauchy):
            lin.det_field(mat)
            return 1

        out[f"det_field_cyclo cauchy p={p}"] = run
    for p in (CYCLO_QUICK_PRIME,) if quick else VSEMIRNOV_PRIMES:
        ctx = ids.PrimeContext(p)
        ctx.vsemirnov
        ctx.cauchy
        ctx.evil

        def run_check(ctx=ctx):
            ids.verify_decomposition(ctx)
            return 1

        out[f"decomposition p={p}"] = run_check
    return out


def cyclo_product_cases(legdet, quick: bool) -> dict:
    """The three product checks on a fresh context per sample, handed the
    unit data computed once, so a sample times the products and not the
    continued fraction behind b_p."""
    ids = legdet.identities
    out = {}
    for p in (CYCLO_QUICK_PRIME,) if quick else VSEMIRNOV_PRIMES:
        def run(p=p, unit=ids.PrimeContext(p).unit):
            ctx = ids.PrimeContext(p)
            ctx.unit = unit
            ids.verify_prod_2j(ctx)
            ids.verify_lemma_sum(ctx)
            ids.verify_d00_detG(ctx)
            return 1

        out[f"cyclo_products p={p}"] = run
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

    return {f"emit_report json {n} lemma rows": run_emit,
            f"random_uv_instance {n} draws m_max={UV_M_MAX}": run_draws}


def child(src: Path, quick: bool) -> int:
    """Build every case on legdet from src, run each once untimed, print
    their names as one JSON line, then print one JSON line of seconds per
    call per case for each line read from stdin, until stdin closes."""
    sys.path.insert(0, str(src))
    import legdet.cli
    import legdet.cyclotomic
    import legdet.identities
    import legdet.linalg

    cases = {}
    for build in (mul_vec_cases, sun_check_cases, evil_adjugate_cases, carlitz_check_cases,
                  toeplitz_cases, lemma_cases, cyclo_cases, cyclo_product_cases, lemma_report_cases):
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
    for name in ("cli.py", "cyclotomic.py", "identities.py", "linalg.py", "ntheory.py", "render.py"):
        digest.update((src / "legdet" / name).read_bytes())
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
