"""Timings of the integer kernels under the cyclotomic, Sun, Carlitz, C(x) and minor-antisymmetry checks.

    python3 bench/kernels.py [--quick] [--parent DIR] [--change DIR] [--out FILE]

Cases:
  mul_vec  legdet.cyclotomic._mul_vec at p = 13, 29, 59, a monomial or a
           dense vector times a dense vector, entries of 3, 40 or 300 bits;
           one sample is one pass over a fixed batch of seeded operand pairs.
  det_mod_p  legdet.linalg.det_mod_p over the Sun matrices [((i + d j)/p)],
           built from a Legendre table, for every d, at p = 61, 101, 157; one
           sample is one pass over all d.
  sun_check  the whole Sun check of one prime: a fresh
           identities.PrimeContext and verify_sun_congruence for every d, at
           p = 61, 101, 157, rows included; one sample is one prime.
  evil_adjugate  identities.PrimeContext(p).evil_adjugate, the adjugate that
           minor antisymmetry reads, on a fresh context at p = 67 and 151;
           one sample is one adjugate, its inputs included.
  toeplitz legdet.linalg.det_toeplitz beside det_bareiss on the same
           matrices: the Carlitz T = [((j-i-1)/p)] at p = 61, 101, 157, and
           C + J and C - J for the evil matrix C at p = 401; one sample is
           one determinant, or both of C +- J.
  det_field legdet.linalg.det_field over QQ on two-vector lemma matrices
           [(u_i + v_j)/(1 + u_i v_j)] at m = 3, 5, 7, u and v from seeded
           identities.random_uv_instance draws of that m; one sample is one
           pass over a fixed batch of matrices.
  det_field_cyclo  legdet.linalg.det_field over Q(zeta_p) on the two
           matrices of the f1f2_u00 check at p = 29 and 41: the Cauchy-type
           [(u_i + u_j)/(1 + u_i u_j)], u_j = (j/p) z^j, and Vsemirnov's U
           without row and column 0; one sample is one determinant.
  matmul_cyclo  V @ W @ V over Q(zeta_p), the right side of the
           decomposition check at p = 29, W = s D U D for the scalar s of
           that check; one sample is the two products.

Two checkouts are timed side by side: --parent and --change name the
``src`` directories legdet is imported from (--change defaults to the one
next to this script, --parent to --change).  Each side runs in child
processes, each of which builds the inputs, takes one untimed pass over
every case, and then, on each request, takes one sample of every case.
A process has a speed of its own (its memory layout, for one), which
would read as a change if one child per side took every sample.  So the
samples of a side come from 3 children, run one after another: each round
starts a fresh child per side and asks the two for an equal share of the
samples in turn, the first side swapping each sample, so that a slow spell
of a shared machine lands on both checkouts, not on one.  Each case gets 9
samples per side, reported as seconds per call: the median of the
samples, and their minimum and maximum.  The result is one JSON object,
{"parent": ..., "change": ...}, printed as the last line; --out FILE
writes it there.  The committed BENCH_kernels.json holds the run made with

    python3 bench/kernels.py --parent PARENT_CHECKOUT/src --out BENCH_kernels.json

--quick runs p = 13, 61 and 67 only, with 3 samples of a small batch,
one per child: a smoke test that every case still runs.  Its C +- J case
is at p = 61, its det_field case at m = 3, and its det_field_cyclo and
matmul_cyclo cases at p = 13.
"""

from __future__ import annotations

import argparse
import hashlib
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
CARLITZ_PRIMES = (61, 101, 157)
EVIL_PRIME = 401
LEMMA_ORDERS = (3, 5, 7)
LEMMA_BATCH = 50
CYCLO_DET_PRIMES = (29, 41)
CYCLO_MATMUL_PRIME = 29
CYCLO_QUICK_PRIME = 13
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


def det_mod_p_cases(legdet, quick: bool) -> dict:
    lin = legdet.linalg
    out = {}
    for p in SUN_PRIMES[:1] if quick else SUN_PRIMES:
        chi = [legdet.ntheory.legendre(r, p) for r in range(p)]
        k = (p + 1) // 2
        mats = [lin.ExactMatrix(lin.ZZ, [[chi[(i + d * j) % p] for j in range(k)] for i in range(k)])
                for d in range(p)]

        def run(mats=mats, p=p):
            for m in mats:
                lin.det_mod_p(m, p)
            return len(mats)

        out[f"det_mod_p sun p={p} all d"] = run
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


def toeplitz_cases(legdet, quick: bool) -> dict:
    """Diagonals t_(1-k), ..., t_(k-1) of each matrix, from the builders
    that the Carlitz and C(x) checks use."""
    ids = legdet.identities
    inputs = [(f"carlitz T p={p}", [ids.carlitz_toeplitz(p)])
              for p in (CARLITZ_PRIMES[:1] if quick else CARLITZ_PRIMES)]
    p = CARLITZ_PRIMES[0] if quick else EVIL_PRIME
    inputs.append((f"C +- J p={p}", [ids.evil_toeplitz(p, x) for x in (1, -1)]))
    out = {}
    for name, ts in inputs:
        k = (len(ts[0]) + 1) // 2
        mats = [legdet.linalg.ExactMatrix(legdet.linalg.ZZ, [[t[k - 1 + j - i] for j in range(k)] for i in range(k)])
                for t in ts]

        def run(ts=ts, k=k):
            for t in ts:
                legdet.linalg.det_toeplitz(t, k)
            return len(ts)

        def run_dense(mats=mats):
            for m in mats:
                legdet.linalg.det_bareiss(m)
            return len(mats)

        out[f"det_toeplitz {name}"] = run
        out[f"det_bareiss {name}"] = run_dense
    return out


def det_field_cases(legdet, quick: bool) -> dict:
    ids = legdet.identities
    lin = legdet.linalg
    out = {}
    for m in LEMMA_ORDERS[:1] if quick else LEMMA_ORDERS:
        rng = random.Random(m)
        mats = []
        while len(mats) < (LEMMA_BATCH // 10 if quick else LEMMA_BATCH):
            k, u, v = ids.random_uv_instance(rng, m)
            if k == m:
                mats.append(lin.ExactMatrix(lin.QQ, [[(ui + vj) / (1 + ui * vj) for vj in v] for ui in u]))

        def run(mats=mats):
            for mat in mats:
                lin.det_field(mat)
            return len(mats)

        out[f"det_field QQ lemma m={m}"] = run
    return out


def cyclo_cases(legdet, quick: bool) -> dict:
    """The matrices of verify_f1f2 and verify_decomposition, built as those
    checks build them."""
    ids = legdet.identities
    lin = legdet.linalg
    cyc = legdet.cyclotomic
    out = {}
    for p in (CYCLO_QUICK_PRIME,) if quick else CYCLO_DET_PRIMES:
        ctx = ids.PrimeContext(p)
        u = ctx.u
        mats = {"cauchy": lin.ExactMatrix(lin.cyclo_ring(p), [[(ui + uj) * ctx.inverse(1 + ui * uj) for uj in u]
                                                              for ui in u]),
                "U_00": ctx.vsemirnov[0].submatrix(0, 0)}
        for name, mat in mats.items():
            def run(mat=mat):
                lin.det_field(mat)
                return 1

            out[f"det_field_cyclo {name} p={p}"] = run
    p = CYCLO_QUICK_PRIME if quick else CYCLO_MATMUL_PRIME
    ctx = ids.PrimeContext(p)
    uu, v, d = ctx.vsemirnov
    scalar = ctx.chi[2] * cyc.gauss_sum(p) * cyc.zeta_pow(p, (p - 1) // 4)
    sd = [scalar * di for di in d]
    w = lin.ExactMatrix(uu.ring, [[sdi * uij * dj for uij, dj in zip(row, d)] for sdi, row in zip(sd, uu.entries)])

    def run_matmul(v=v, w=w):
        v @ w @ v
        return 1

    out[f"matmul_cyclo V @ W @ V p={p}"] = run_matmul
    return out


def child(src: Path, quick: bool) -> int:
    """Build every case on legdet from src, run each once untimed, print
    their names as one JSON line, then print one JSON line of seconds per
    call per case for each line read from stdin, until stdin closes."""
    sys.path.insert(0, str(src))
    import legdet.cyclotomic
    import legdet.identities
    import legdet.linalg
    import legdet.ntheory

    cases = {}
    for build in (mul_vec_cases, det_mod_p_cases, sun_check_cases, evil_adjugate_cases, toeplitz_cases,
                  det_field_cases, cyclo_cases):
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
    one fresh child process per side, each round's two children asked for
    repeats / PROCESSES samples in turn (the first side swapping each
    sample)."""
    env = {**os.environ, "PYTHONHASHSEED": "0"}  # the same dict and set layouts on both sides
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
                for side in sides if sample % 2 == 0 else sides[::-1]:
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
    for name in ("cyclotomic.py", "linalg.py", "ntheory.py"):
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
    srcs = {"parent": (args.parent or args.change).resolve(), "change": args.change.resolve()}
    for src in srcs.values():
        if not (src / "legdet" / "__init__.py").is_file():
            ap.error(f"no legdet package under {src}")
    timed = measure(srcs, args.quick, 3 if args.quick else 9)
    for name, c in timed["change"].items():
        before = timed["parent"].get(name)
        was = f"{before['median_s'] * 1e6:12.1f} us -> " if before else " " * 19
        print(f"{name:40s} {was}{c['median_s'] * 1e6:10.1f} us  "
              f"(min {c['min_s'] * 1e6:.1f}, max {c['max_s'] * 1e6:.1f})")
    result = {side: {"environment": environment(src), "quick": args.quick, "cases": timed[side]}
              for side, src in srcs.items()}
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
