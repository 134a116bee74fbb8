"""Command-line front end.

Subcommands map one-to-one onto the identities operations; every report can
be emitted as human-readable text, JSON, or CSV.  Exit codes distinguish the
interesting failure from the boring one: 0 all checks passed, 1 some
identity failed, 2 the invocation itself was invalid.

Output is deterministic for fixed flags and seed: results arrive sorted,
values are canonical exact strings, and the machine formats carry no
timings.  Text mode shows elapsed time, which is the one permitted
run-to-run difference.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from .identities import (
    PrimeContext,
    SuiteOptions,
    VerificationReport,
    c_polynomial,
    run_suite,
    uv_trial_checks,
    verify_carlitz,
    verify_decomposition,
    verify_sun_congruence,
)
from .ntheory import OddPrime
from .quadfield import ab_coeffs
from .render import format_poly, format_value


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="legdet",
        description="Exact verification of Legendre-symbol determinant identities.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=("text", "json", "csv"), default="text",
                        help="report format (default: text)")

    v = sub.add_parser("verify", help="run every applicable check for odd primes up to --pmax")
    v.add_argument("--pmax", type=int, required=True, help="largest prime to check (>= 3)")
    v.add_argument("--decomp-pmax", type=int, default=29, dest="decomp_pmax",
                   help="cap for the costly matrix decomposition check (default: 29)")
    v.add_argument("--trials", type=int, default=100, help="random instances of the two-variable determinant lemma")
    v.add_argument("--m", type=int, default=5, help="largest random instance size")
    v.add_argument("--seed", type=int, default=0, help="seed for the random instances")
    add_format(v)

    c = sub.add_parser("cx", help="print the determinant polynomial C(x) for one prime")
    c.add_argument("--p", type=int, required=True)

    u = sub.add_parser("unit", help="print fundamental unit data for p = 1 (mod 4)")
    u.add_argument("--p", type=int, required=True)

    d = sub.add_parser("decomp", help="check the V D U D V decomposition for one prime")
    d.add_argument("--p", type=int, required=True)
    add_format(d)

    ca = sub.add_parser("carlitz", help="check the (p-1) x (p-1) determinant for one prime")
    ca.add_argument("--p", type=int, required=True)
    add_format(ca)

    s = sub.add_parser("sun", help="check the shifted-column determinant congruence")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--d", default="all", help="column multiplier in [0, p-1], or 'all' (default)")
    add_format(s)

    l = sub.add_parser("lemma-uv", help="random exact-rational checks of the two-variable determinant lemma")
    l.add_argument("--trials", type=int, default=100)
    l.add_argument("--m", type=int, default=5)
    l.add_argument("--seed", type=int, default=0)
    add_format(l)

    return ap


def emit_report(report: VerificationReport, fmt: str, out) -> None:
    if fmt == "json":
        doc = {
            "config": report.config,
            "all_pass": report.all_passed,
            "checks": [
                {
                    "name": c.name,
                    "p": c.p,
                    "status": c.status,
                    "lhs": c.lhs,
                    "rhs": c.rhs,
                    "detail": c.detail,
                }
                for c in report.checks
            ],
        }
        out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    elif fmt == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["check_name", "p", "status", "lhs", "rhs", "detail"])
        for c in report.checks:
            w.writerow([c.name, "" if c.p is None else c.p, c.status, c.lhs, c.rhs, c.detail])
    else:
        for c in report.checks:
            pcol = f"p={c.p}" if c.p is not None else "-"
            rel = "==" if c.passed else "!="
            tail = f"  [{c.detail}]" if c.detail else ""
            out.write(f"{c.status:<5} {pcol:<6} {c.name:<14} {c.lhs} {rel} {c.rhs}{tail}\n")
        npass = sum(1 for c in report.checks if c.passed)
        nfail = len(report.checks) - npass
        out.write(f"{len(report.checks)} checks: {npass} passed, {nfail} failed "
                  f"({report.elapsed_seconds:.2f}s)\n")


def _dispatch(args, out) -> int:
    if args.command == "cx":
        out.write(format_poly(c_polynomial(args.p)) + "\n")
        return 0

    if args.command == "unit":
        p = OddPrime(args.p)
        if p.mod4 == 3:
            raise ValueError(
                f"p = {p} is 3 (mod 4): C(x) is the constant 1 and needs no unit data"
            )
        ud = ab_coeffs(p)
        for field in ("eps", "h", "exponent", "a", "b"):
            out.write(f"{field} = {format_value(getattr(ud, field))}\n")
        return 0

    if args.command == "verify":
        options = SuiteOptions(
            decomp_p_max=args.decomp_pmax,
            uv_trials=args.trials,
            uv_m_max=args.m,
            seed=args.seed,
        )
        report = run_suite(args.pmax, options)
    else:
        start = time.perf_counter()
        if args.command == "decomp":
            checks = [verify_decomposition(args.p)]
        elif args.command == "carlitz":
            checks = [verify_carlitz(args.p)]
        elif args.command == "sun":
            ctx = PrimeContext(args.p)
            if args.d == "all":
                ds = range(ctx.p)
            else:
                try:
                    ds = [int(args.d)]
                except ValueError:
                    raise ValueError(f"--d must be an integer or 'all', got {args.d!r}") from None
            checks = [verify_sun_congruence(ctx, d) for d in ds]
        else:  # lemma-uv
            checks = uv_trial_checks(args.trials, args.m, args.seed)
        config = {k: v for k, v in vars(args).items() if k != "format"}
        report = VerificationReport(tuple(checks), config, time.perf_counter() - start)
    emit_report(report, args.format, out)
    return 0 if report.all_passed else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args, sys.stdout)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
