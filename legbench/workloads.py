"""The benchmark's workloads: inputs made from a seed, the timed calls into
legdet, and the check of every output.

Each workload stresses some layers and bypasses others, so that a change to
one layer has a workload that should move and one that should not (see
DESIGN.md for the prediction table).  ``bypasses`` lists layers a workload
never calls; the traced run reports whether their call counts are 0.

A workload is three steps.  ``setup(seed, size)`` builds the inputs before
the clock starts.  ``run(inputs)`` is the timed part: only calls into
legdet, looked up as module attributes at call time so the tracer's
wrappers are seen.  An exception inside one call is counted as "raised" and
the rest of the work goes on.  ``check(result)`` then turns the outputs into
an Outcome, outside the timed region.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
import traceback
from dataclasses import dataclass
from typing import Any, Callable

# largest instance order for the lemma_uv workload
UV_M_MAX = 7


@dataclass(frozen=True)
class Outcome:
    attempted: int  # checks whose verdict was asked for
    failed: int     # checks that ran and reported two unequal sides
    raised: int     # calls that raised instead of returning a verdict
    digest: str     # sha256 of the verdicts; identical across runs of one seed


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict[str, int]  # "full" is what the benchmark measures, "smoke" is for its tests
    setup: Callable[[int, int], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any], Outcome]
    bypasses: tuple[str, ...] = ()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _raised() -> None:
    # an error inside a computation is not a verdict; show it, count it, go on
    traceback.print_exc()


def _report_outcome(text: str, raised: int) -> Outcome:
    """Outcome of a JSON report as cli.emit_report writes it."""
    try:
        doc = json.loads(text)
    except ValueError:
        return Outcome(1 + raised, 1, raised, _sha256(text))  # not a report at all
    failed = sum(c["status"] != "pass" for c in doc["checks"])
    if doc["all_pass"] != (failed == 0):
        failed = max(failed, 1)  # the verdict contradicts its own checks
    return Outcome(len(doc["checks"]) + raised, failed, raised, _sha256(text))


# -- suite60: the CLI verify command the acceptance gate uses ------------------

def _suite_setup(seed: int, pmax: int) -> list[str]:
    return ["verify", "--pmax", str(pmax), "--seed", str(seed), "--format", "json"]


def _suite_run(argv: list[str]):
    from legdet import cli

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception:
        _raised()
        return None
    return code, out.getvalue()


def _suite_check(result) -> Outcome:
    if result is None:
        return Outcome(1, 0, 1, "")
    code, text = result
    outcome = _report_outcome(text, 0)
    if code != 0 and outcome.failed == 0:
        return dataclasses.replace(outcome, failed=1)  # exit code without a failed check
    return outcome


# -- intdet: every integer-determinant check, no cyclotomic arithmetic ---------

def _intdet_setup(seed: int, pmax: int) -> tuple[int, int]:
    return pmax, seed


def _intdet_run(args: tuple[int, int]):
    from legdet import identities

    pmax, seed = args
    try:
        return identities.run_suite(
            pmax, identities.SuiteOptions(cyclo_p_max=0, decomp_p_max=0, seed=seed))
    except Exception:
        _raised()
        return None


def _intdet_check(report) -> Outcome:
    if report is None:
        return Outcome(1, 0, 1, "")
    lines = "\n".join(f"{c.name}|{c.p}|{c.status}|{c.lhs}|{c.rhs}|{c.detail}" for c in report.checks)
    failed = sum(not c.passed for c in report.checks)
    return Outcome(len(report.checks), failed, 0, _sha256(lines))


# -- lemma_uv: many tiny det_field instances over QQ, plus the JSON report ------

def _uv_setup(seed: int, count: int):
    from legdet.identities import random_uv_instance

    rng = random.Random(seed)
    return seed, [random_uv_instance(rng, UV_M_MAX) for _ in range(count)]


def _uv_run(inputs):
    from legdet import cli, identities

    seed, instances = inputs
    checks = []
    raised = 0
    for i, (m, u, v) in enumerate(instances):
        try:
            check = identities.verify_lemma_uv(m, u, v)
        except Exception:
            if not raised:
                _raised()
            raised += 1
            continue
        checks.append(dataclasses.replace(check, name=f"lemma_uv[{i:04d}]"))
    config = {"uv_trials": len(instances), "uv_m_max": UV_M_MAX, "seed": seed}
    out = io.StringIO()
    cli.emit_report(identities.VerificationReport(tuple(checks), config, 0.0), "json", out)
    return out.getvalue(), raised


def _uv_check(result) -> Outcome:
    text, raised = result
    return _report_outcome(text, raised)


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload("suite60", {"full": 60, "smoke": 13}, _suite_setup, _suite_run, _suite_check),
        Workload("intdet", {"full": 70, "smoke": 23}, _intdet_setup, _intdet_run, _intdet_check,
                 bypasses=("cyclotomic.CycloElem.inv", "cyclotomic.CycloElem.mul",
                           "cli.main", "cli.emit_report")),
        Workload("lemma_uv", {"full": 6000, "smoke": 60}, _uv_setup, _uv_run, _uv_check,
                 bypasses=("cyclotomic.CycloElem.inv", "cyclotomic.CycloElem.mul",
                           "exact.UniPoly.divmod", "linalg.det_bareiss", "cli.main")),
    )
}
