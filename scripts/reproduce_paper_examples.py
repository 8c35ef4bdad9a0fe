#!/usr/bin/env python3
"""Reproduce the four bundled example equations end to end.

For each bundled example: verify its closed-form solution against the
equation, classify the sampled trajectory, and run the applicable hypothesis
checks and certificates.  Everything prints as a compact report; exit status
is nonzero if any verification fails.

Usage:
    python scripts/reproduce_paper_examples.py [--horizon N]
"""

import argparse
import random
import sys

import quasidiff as qd
from quasidiff.numerics import EPS_RESIDUAL

CHECK_HORIZON = 100_000


def verify_line(name: str, horizon: int) -> bool:
    eq = qd.example_equation(name)
    form = qd.example_closed_form(name)
    worst = max(qd.relative_residual(eq, form, n) for n in range(eq.n0, eq.n0 + horizon))
    ok = worst <= EPS_RESIDUAL
    print(f"  residual check over {horizon} indices: max relative {worst:.3e} "
          f"-> {'PASS' if ok else 'FAIL'}")
    return ok


def classify_line(name: str, horizon: int) -> None:
    eq = qd.example_equation(name)
    form = qd.example_closed_form(name)
    start = eq.n0 - max(eq.delta, 0)
    traj = qd.sample_trajectory(eq, form, start, eq.n0 + horizon)
    verdict = qd.classify(traj)
    extra = ""
    if verdict.quick is not None:
        extra = f" (positive parity: {verdict.quick.positive_parity.value})"
    print(f"  classification: {verdict.kind.value}{extra}, "
          f"tends-to-zero evidence: {verdict.tends_to_zero}")
    profile = qd.component_sign_profile(traj)
    print(f"  component sign profile: {profile.case.value}")


def exclusion_lines(name: str) -> None:
    eq = qd.example_equation(name)
    report = qd.check_quick_exclusion(eq)
    print(f"  quick-oscillation exclusion: {report.conclusion}")
    if not report.alternation_excluded:
        return
    windows = 50
    for parity in qd.QuickParity:
        rngq = random.Random(0)
        valid = 0
        for _ in range(windows):
            q = qd.Window(eq.n0, tuple(10.0 ** rngq.uniform(-3, 3) for _ in range(16)))
            valid += qd.sign_conflict_certificate(eq, q, parity).valid
        print(f"  sign-conflict certificates ({parity.value}): "
              f"{valid}/{windows} valid on random positive magnitude windows")


def almost_oscillation_lines(name: str) -> None:
    eq = qd.example_equation(name)
    report = qd.check_almost_oscillation(eq, horizon=CHECK_HORIZON)
    print(f"  almost-oscillation hypotheses: {report.conclusion}")
    for entry in report.entries:
        mark = {True: "ok", False: "FAIL", None: "?"}[entry.satisfied]
        print(f"    [{mark:>4}] {entry.condition}: {entry.detail}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--horizon", type=int, default=60)
    args = parser.parse_args()

    all_ok = True
    for name in qd.EXAMPLE_NAMES:
        print(f"{name}: {qd.example_summary(name)}")
        all_ok &= verify_line(name, args.horizon)
        classify_line(name, args.horizon)
        exclusion_lines(name)
        if name in ("example-3", "example-4"):
            almost_oscillation_lines(name)
        print()
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
