"""Command-line driver: solve, verify, check, classify, list-examples.

Exit codes are a stable contract:
  0  success (including success-with-warning, e.g. a truncated overflow run)
  1  a verification or hypothesis/certificate check failed
  2  usage or document parse error
  3  numeric failure that prevented producing a result (overflow in the seed
     chain, a near-zero neutral pivot, a zero coefficient to invert through,
     a verify candidate that is inf or NaN at an index its residuals read)

Each command computes its whole answer (exit code, stdout lines, --out report,
--csv trajectory) and then ends with `_finish`: it reads the --csv chain, so that
a chain that fails prints and writes nothing, prints, writes --out, then --csv.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import operator
import os
import sys
from typing import Callable

# sign_conflict_certificate stays importable here: perfbench/tracing.py rebinds cli.sign_conflict_certificate.
from .analysis import (
    QuickParity,
    check_almost_oscillation,
    check_quick_exclusion,
    classify,
    companion_bound_certificate,
    component_sign_profile,
    p_tail,
    prepare_certificate,
    sign_conflict_certificate,  # noqa: F401
)
from .document import _integer, _need, build_equation, build_sequence, load_document
from .errors import (
    DocumentError,
    HypothesisViolation,
    NumericRangeError,
    PivotError,
    QuasidiffError,
    SequenceDomainError,
)
from .examples import EXAMPLE_NAMES, example_closed_form, example_document, example_summary
# relative_residual stays importable here: perfbench/tracing.py rebinds cli.relative_residual.
from .model import (EquationSpec, _chain_reach, _residual_reach, relative_residual, relative_residuals,  # noqa: F401
                    residual_range, residual_reads)
from .numerics import EPS_RESIDUAL
from . import solver
from .solver import (
    Trajectory,
    forward_seed_span,
    inverse_seed_span,
    sample_trajectory,
    solve_forward,
    solve_inverse,
)
from .windows import Window

MIN_HORIZON = 8


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="quasidiff",
        description="Simulate, classify, and certify solutions of fourth-order "
                    "neutral difference equations with quasidifferences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, horizon_default: int) -> None:
        p.add_argument("equation", help="bundled example name or path to a JSON equation document")
        p.add_argument("--horizon", type=int, default=horizon_default)
        p.add_argument("--beta", default=None, help="override beta for bundled examples (num/den)")
        p.add_argument("--lambda", dest="lam", type=int, default=None,
                       help="override the half-delay lambda for bundled examples")
        p.add_argument("--out", default=None, help="write a JSON report to this path")

    p_solve = sub.add_parser("solve", help="run the recursion and export the trajectory")
    add_common(p_solve, 200)
    p_solve.add_argument("--seed-values", default=None,
                         help="comma-separated x values covering the seed span")

    p_verify = sub.add_parser("verify", help="check a closed-form candidate against the equation")
    add_common(p_verify, 200)
    p_verify.add_argument("--closed-form", default=None,
                          help="'alternating:scale,ratio' or 'geometric:scale,ratio'")
    p_verify.add_argument("--perturb-d", type=float, default=None,
                          help="multiply d by this factor (for negative controls)")

    p_check = sub.add_parser("check", help="hypothesis reports and certificates")
    add_common(p_check, 100_000)
    mode = p_check.add_mutually_exclusive_group(required=True)
    mode.add_argument("--quick-exclusion", action="store_true",
                      help="hypotheses excluding alternating solutions")
    mode.add_argument("--almost-oscillation", action="store_true",
                      help="hypotheses for the almost-oscillation property")
    mode.add_argument("--certificate", action="store_true",
                      help="sign-conflict certificates for every positive q window in the box [1e-3, 1e3], "
                           "decided by one run over sign bands")
    mode.add_argument("--bound", action="store_true",
                      help="companion bound certificate on the sampled closed form")
    p_check.add_argument("--windows", type=int, default=50,
                         help="the N of the certificate's N/N line (at least 1)")
    p_check.add_argument("--rng-seed", type=int, default=0, help="accepted, but changes no answer")
    p_check.add_argument("--parity", choices=["even", "odd"], default=None,
                         help="positive parity of the candidate (default: even, "
                              "when alternating solutions are excluded)")
    p_check.add_argument("--delta", dest="delta_override", type=int, default=None,
                         help="override delta in the document (n0 is raised as needed)")

    p_classify = sub.add_parser("classify", help="classify a trajectory's sign pattern")
    add_common(p_classify, 64)
    source = p_classify.add_mutually_exclusive_group()
    source.add_argument("--closed-form", default=None,
                        help="'alternating:scale,ratio' or 'geometric:scale,ratio'")
    source.add_argument("--solve", action="store_true",
                        help="classify a solved trajectory instead of a sampled closed form")
    p_classify.add_argument("--seed-values", default=None,
                            help="comma-separated x values covering the seed span (with --solve)")
    for p in (p_solve, p_verify, p_classify):  # check writes no CSV
        p.add_argument("--csv", default=None, help="write an n,x,z,y,w,t CSV to this path")

    sub.add_parser("list-examples", help="list the bundled example equations")
    return parser


# ---------------------------------------------------------------------------
# Equation and closed-form loading
# ---------------------------------------------------------------------------


# The benchmark's workloads each load at most 52 distinct equations (sweep); replaying their requests
# through an LRU cache, 32 entries miss about 28% of sweep's loads, and 64 only the first load of each.
EQUATION_CACHE_SIZE = 64


def _load_equation(args) -> tuple[EquationSpec, str]:
    """The equation a request names, with its overrides, and the name it is reported under."""
    ref = args.equation
    text = None
    if ref not in EXAMPLE_NAMES:
        if args.beta is not None or args.lam is not None:
            raise ValueError("--beta/--lambda apply only to bundled examples")
        try:
            with open(ref, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DocumentError(f"cannot read {ref!r}: {exc}") from None
    eq = _cached_equation(ref if text is None else None, text, args.beta, args.lam,
                          getattr(args, "delta_override", None), getattr(args, "perturb_d", None))
    return eq, ref


@functools.lru_cache(maxsize=EQUATION_CACHE_SIZE)
def _cached_equation(example: str | None, text: str | None, beta: str | None, lam: int | None,
                     delta_override: int | None, perturb_d: float | None) -> EquationSpec:
    """The equation of a bundled example or of a document's text, with the overrides applied.

    An equation is frozen, with every derived field set when it is built (its series probes' memo
    changes no answer), so one spec serves every request with the same key; a file is keyed on its
    text, so a rewritten file is built again.  An input that fails raises here and is not cached."""
    if example is not None:
        kwargs = {key: value for key, value in (("beta", beta), ("lam", lam)) if value is not None}
        document = example_document(example, **kwargs)
    else:
        document = load_document(text)
    if delta_override is not None:
        document = dict(document, delta=delta_override)
        with contextlib.suppress(DocumentError):  # a bad n0 or tau is left to build_equation, in its order
            document["n0"] = max(_integer(_need(document, "n0", "$"), "$.n0"), 1, delta_override,
                                 _integer(_need(document, "tau", "$"), "$.tau"))
    if perturb_d is not None:
        if not math.isfinite(perturb_d):
            raise ValueError(f"--perturb-d must be a finite factor, got {perturb_d!r}")
        with contextlib.suppress(DocumentError):  # a missing or malformed d is left to build_equation, in its order
            build_sequence(_need(document, "d", "$"), "$.d")
            document = dict(document, d={"kind": "combine", "op": "*", "left": document["d"],
                                         "right": {"kind": "constant", "value": perturb_d}})
    return build_equation(document)  # looked up at each call, so that a rebinding of it sees every build


def _closed_form(args, name: str) -> Callable[[int], float]:
    spec = args.closed_form
    if spec is not None:
        try:
            family, params = spec.split(":", 1)
            scale, ratio = (float(v) for v in params.split(","))
        except ValueError:
            raise ValueError(f"cannot parse closed form {spec!r}; "
                             "expected 'alternating:scale,ratio' or 'geometric:scale,ratio'") from None
        if not (math.isfinite(scale) and math.isfinite(ratio)):
            raise ValueError(f"closed form {spec!r} needs a finite scale and ratio")
        if family == "alternating":
            return lambda n: (scale if n % 2 == 0 else -scale) * ratio ** n
        if family == "geometric":
            return lambda n: scale * ratio ** n
        raise ValueError(f"unknown closed-form family {family!r}")
    if name in EXAMPLE_NAMES:
        return example_closed_form(name)
    raise ValueError("a closed form is required for a document equation (--closed-form)")


def _sample_finite(form: Callable[[int], float], reads: range) -> Window:
    """The form over the indices the residuals read.  A value that is inf or NaN is a numeric
    failure at its index, raised before any later index is evaluated; an OverflowError escapes."""
    values = []
    for n in reads:
        v = form(n)
        if not math.isfinite(v):
            raise NumericRangeError(f"closed form is not finite at n = {n}: x = {v!r}", index=n)
        values.append(v)
    return Window(reads.start, values)


def _check_horizon(horizon: int) -> None:
    if horizon < MIN_HORIZON:
        raise ValueError(f"horizon must be at least {MIN_HORIZON}, got {horizon}")


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _say(line: str) -> None:
    # Here and in the --csv and --out writers, a reader that left (as `| head` does) gets no more output.
    with contextlib.suppress(BrokenPipeError):
        print(line)


def write_csv(path: str, traj: Trajectory) -> None:
    # The chain is read before the file is opened, so a chain that fails leaves no file.
    x = traj.x
    lag = traj.chain[0].start - x.start  # every chain column starts lag values into x
    columns = [(None,) * lag + win.values + (None,) * (len(x) - lag - len(win)) for win in traj.chain]
    with contextlib.suppress(BrokenPipeError), open(path, "w", encoding="utf-8") as fh:
        fh.write("n,x,z,y,w,t\n")
        for n, *row in zip(range(x.start, x.end + 1), x.values, *columns):
            fh.write(f"{n},{','.join('' if v is None else '%.17g' % v for v in row)}\n")
        if traj.truncated:
            fh.write(f"# truncated: first non-finite value at n = {traj.truncation_index}\n")


def _write_report(path: str | None, report: dict | None) -> None:
    if path:
        with contextlib.suppress(BrokenPipeError), open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, default=dataclasses.asdict)
            fh.write("\n")


def _finish(args, code: int, lines: list[str], report: dict | None, traj: Trajectory | None = None) -> int:
    """End a request: read the --csv trajectory's chain, print the lines, write --out, write --csv."""
    csv = getattr(args, "csv", None)  # check takes no --csv
    if csv:
        traj.chain  # a chain that fails ends the request before any output
    for line in lines:
        _say(line)
    _write_report(args.out, report)
    if csv:
        write_csv(csv, traj)
    return code


def _solve(args, eq: EquationSpec, name: str) -> Trajectory:
    """Solve from --seed-values, or from the closed form of a bundled example."""
    forward = eq.forward_mode
    lo, hi = forward_seed_span(eq) if forward else inverse_seed_span(eq)
    if args.seed_values is not None:
        values = [float(v) for v in args.seed_values.split(",")]
        if len(values) != hi - lo + 1:
            raise ValueError(f"seed must supply {hi - lo + 1} values for indices [{lo}, {hi}], "
                             f"got {len(values)}")
        seed = Window(lo, tuple(values))
    elif name in EXAMPLE_NAMES:
        seed = Window.from_evaluator(example_closed_form(name), lo, hi)
    else:
        raise ValueError("--seed-values is required to solve a document equation")
    return solve_forward(eq, seed, args.horizon) if forward else solve_inverse(eq, seed, args.horizon)


def _sample_for_components(eq: EquationSpec, form, horizon: int) -> Trajectory:
    below, above = _chain_reach(eq)  # z on [n0, n0 + horizon + 3]: t, and so every residual, to n0 + horizon - 1
    return sample_trajectory(eq, form, eq.n0 - below, eq.n0 + horizon + 3 + above)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    _check_horizon(args.horizon)
    eq, name = _load_equation(args)
    traj = _solve(args, eq, name)
    # None when no index of the window reads only x values it holds; solver's name is looked up at each call, so
    # that a rebinding of it sees every solve.
    worst = solver.max_relative_residual(eq, traj.x)[0] if residual_range(eq, traj.x) else None
    lines = [f"solve {name} ({traj.provenance.value})", f"  x range: n = {traj.n_start} .. {traj.n_end}",
             "  max relative residual: none (no index has its residual inside the x range)" if worst is None
             else f"  max relative residual: {worst:.3e}"]
    if traj.truncated:
        lines.append(f"  warning: truncated (first non-finite value at n = {traj.truncation_index})")
    lines += [f"  warning: {w}" for w in traj.warnings]
    report = {"command": "solve", "equation": name, "mode": traj.provenance.value, "horizon": args.horizon,
              "n_start": traj.n_start, "n_end": traj.n_end, "max_rel_residual": worst,
              "truncated": traj.truncated, "truncation_index": traj.truncation_index,
              "warnings": list(traj.warnings)}
    return _finish(args, 0, lines, report, traj)


def cmd_verify(args) -> int:
    _check_horizon(args.horizon)
    eq, name = _load_equation(args)
    form = _closed_form(args, name)
    indices = range(eq.n0, eq.n0 + args.horizon)
    x = _sample_finite(form, residual_reads(eq, indices))
    rels = relative_residuals(eq, x, indices)
    # the first index of the largest residual; a NaN never wins, and a zero maximum is reported at n0
    worst, worst_at = max([(0.0, eq.n0), *zip(rels, indices)], key=operator.itemgetter(0))
    passed = worst <= EPS_RESIDUAL
    lines = [f"verify {name}: {'PASS' if passed else 'FAIL'}",
             f"  indices: n = {eq.n0} .. {eq.n0 + args.horizon - 1} ({args.horizon})",
             f"  max relative residual: {worst:.3e} at n = {worst_at}", f"  tolerance: {EPS_RESIDUAL:.1e}"]
    report = {"command": "verify", "equation": name, "horizon": args.horizon, "eps_residual": EPS_RESIDUAL,
              "max_rel_residual": worst, "argmax": worst_at, "pass": passed,
              "residuals": [{"n": n, "rel_residual": rel} for n, rel in zip(indices, rels)],
              } if args.out else None  # the per-index residuals are built only to be written
    # the --csv chain reads no coefficient that the residuals did not read
    traj = _sample_for_components(eq, x, args.horizon) if args.csv else None
    return _finish(args, 0 if passed else 1, lines, report, traj)


def cmd_classify(args) -> int:
    if args.seed_values is not None and not args.solve:
        raise ValueError("--seed-values applies only with --solve")
    _check_horizon(args.horizon)
    eq, name = _load_equation(args)
    traj = (_solve(args, eq, name) if args.solve
            else _sample_for_components(eq, _closed_form(args, name), args.horizon))
    t = traj.chain[3]  # read first: a chain that fails ends the request
    verdict = classify(traj)
    lines = [f"classify {name}: {verdict.kind.value}", f"  tends to zero (evidence): {verdict.tends_to_zero}"]
    if verdict.degenerate_zero:
        lines.append("  note: degenerate zero window")
    if verdict.quick_q is not None:
        lines.append(f"  alternation magnitudes q from n = {verdict.quick_q_start}, "
                     f"positive parity: {verdict.quick_positive_parity.value}")
    report = {"command": "classify", "equation": name, "horizon": args.horizon, "verdict": verdict.to_dict()}
    if len(t) >= 16:
        profile = component_sign_profile(traj)
        lines.append(f"  component profile: {profile.case.value}")
        report["component_profile"] = profile
    return _finish(args, 0, lines, report, traj)


def _condition_lines(report) -> list[str]:
    marks = {True: "ok", False: "FAIL", None: "?"}
    return [f"{report.title}:",
            *(f"  [{marks[e.satisfied]:>4}] {e.condition} ({e.status.value}): {e.detail}" for e in report.entries),
            f"  conclusion: {report.conclusion}"]


def _cmd_check_certificate(args, eq: EquationSpec, name: str) -> tuple[int, list[str], dict]:
    if args.windows < 1:
        raise ValueError(f"--windows must be at least 1, got {args.windows}")
    below, above = _residual_reach(eq)
    plan = prepare_certificate(eq, eq.n0, below + 16 + above)  # each window certifies 16 indices
    if args.parity is not None:
        parity = QuickParity.EVEN_POSITIVE if args.parity == "even" else QuickParity.ODD_POSITIVE
    elif plan.exclusion.alternation_excluded:
        parity = QuickParity.EVEN_POSITIVE  # both parities are excluded
    else:
        raise HypothesisViolation(f"no parity to certify: {plan.exclusion.conclusion}; "
                                  "pass --parity to force one")
    if plan.refusal is not None:
        raise HypothesisViolation(plan.refusal)
    all_valid = plan.decide(parity)  # every window of the q box is valid, or none is
    if all_valid is None:
        raise HypothesisViolation(f"certificate undecided ({parity.value}): the sign bands neither prove nor "
                                  "refute a conflict for every q window in the box [1e-3, 1e3]")
    valid_count = args.windows if all_valid else 0
    lines = [f"sign-conflict certificates ({parity.value}): "
             f"{valid_count}/{args.windows} valid on random positive q windows"]
    report = {"command": "check", "check": "certificate", "equation": name, "parity": parity.value,
              "windows": args.windows, "valid_count": valid_count, "all_valid": all_valid}
    return (0 if all_valid else 1), lines, report


def _cmd_check_bound(args, eq: EquationSpec, name: str) -> tuple[int, list[str], dict]:
    _check_horizon(args.horizon)
    if name not in EXAMPLE_NAMES:
        raise ValueError("check --bound samples the closed form of a bundled example; a document equation has none")
    traj = _sample_for_components(eq, example_closed_form(name), min(args.horizon, 512))
    z = traj.chain[0]
    horizon = max(args.horizon, 1000)
    p_limit, _, stable = p_tail(eq, horizon)
    if not stable:
        raise HypothesisViolation(f"p does not stabilize over horizon {horizon}; cannot estimate its limit")
    cert = companion_bound_certificate(z, eq.p, p_limit, eq.delta, eq.n0, traj.x)
    lines = [f"companion bound certificate: {'valid' if cert.valid else 'NOT VALID'}",
             f"  K = {cert.K:.6g}, L = {cert.L:.6g}, P = {cert.P:.6g}",
             f"  bound K + L/(1-P) = {cert.bound:.6g}, max |x| observed = {cert.max_abs_x:.6g}"]
    report = {"command": "check", "check": "bound", "equation": name, "certificate": cert}
    return (0 if cert.valid else 1), lines, report


def cmd_check(args) -> int:
    eq, name = _load_equation(args)
    if args.certificate:
        return _finish(args, *_cmd_check_certificate(args, eq, name))
    if args.bound:
        return _finish(args, *_cmd_check_bound(args, eq, name))
    if args.quick_exclusion:
        result, check = check_quick_exclusion(eq), "quick-exclusion"
        code = 0 if result.alternation_excluded else 1
    else:
        result, check = check_almost_oscillation(eq, horizon=args.horizon), "almost-oscillation"
        code = 0 if result.all_hold else 1
    report = {"command": "check", "check": check, "equation": name, "report": result}
    return _finish(args, code, _condition_lines(result), report)


def cmd_list_examples(_args) -> int:
    for name in EXAMPLE_NAMES:
        _say(f"{name}: {example_summary(name)}")
    return 0


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    handlers = {
        "solve": cmd_solve,
        "verify": cmd_verify,
        "check": cmd_check,
        "classify": cmd_classify,
        "list-examples": cmd_list_examples,
    }
    try:
        return handlers[args.command](args)
    except (DocumentError, ValueError, OSError) as exc:  # OSError: an unwritable --out or --csv
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypothesisViolation as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (PivotError, NumericRangeError, SequenceDomainError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except QuasidiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry(run: Callable[[], int] = main) -> None:  # sys.exit(run()), with no traceback for a reader who left
    code = run()
    try:
        sys.stdout.flush()
    except BrokenPipeError:  # nobody reads the rest: the flush at shutdown then writes it nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
