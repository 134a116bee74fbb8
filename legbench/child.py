"""One benchmark sample in a fresh process.

    python3 legbench/child.py --workload NAME --seed N --size full|smoke
                              --trace 0|1 --spawned-at T [--spans PATH]

Imports legdet from ``src/`` of the checkout this file sits in, builds the
workload's inputs, times the calls into legdet, checks the outputs and
prints one JSON line.  ``--spawned-at`` is CLOCK_MONOTONIC in the parent
just before it started this process, so ``setup_s`` covers process start,
``import legdet`` and input generation.  With ``--trace 1`` the layers are
wrapped for the timed part only, and the spans go to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_s() -> float:
    """Seconds for a fixed piece of pure-Python integer and Fraction work.

    The same kind of arithmetic legdet does, and independent of legdet, so
    its time measures how fast this machine runs Python at the moment.
    """
    start = time.perf_counter()
    s = 0
    for i in range(400_000):
        s += (i * i) % 7
    f = Fraction(0)
    for i in range(1, 6000):
        f += Fraction(1, i)
    return time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="legbench-child")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "smoke"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True, dest="spawned_at")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC_DIR))
    sys.path.insert(1, str(BENCH_DIR))
    import legdet

    if Path(legdet.__file__).resolve().parent != (SRC_DIR / "legdet").resolve():
        print(f"legdet was imported from {legdet.__file__}, not from {SRC_DIR}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed, workload.sizes[args.size])
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    ready = _monotonic()
    ref_before = reference_s()
    cpu0 = time.process_time()
    start = _monotonic()
    result = workload.run(inputs)
    cpu_s = time.process_time() - cpu0
    wall_s = _monotonic() - start
    if tracer:
        tracer.uninstall()
    ref_s = (ref_before + reference_s()) / 2
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    outcome = workload.check(result)

    sample = {
        "setup_s": ready - args.spawned_at,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mib": peak_rss_mib,
        "ref_s": ref_s,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "raised": outcome.raised,
        "digest": outcome.digest,
    }
    if tracer:
        sample["layers"] = tracer.metrics()
        if args.spans:
            tracer.write(args.spans, f"{args.workload}-seed{args.seed}")
    sys.stdout.write(json.dumps(sample) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
