#!/usr/bin/env python3
"""Write the CLI's reports on a fixed corpus of runs into a directory.

Each run of ``quasidiff.cli.main`` gets its own subdirectory holding
``stdout.txt``, ``stderr.txt``, ``exit.txt`` (the exit code, or the exception
that escaped ``main``) and whatever ``--out`` / ``--csv`` wrote.  The corpus
covers solve, verify, classify, classify --solve and the four check modes on
the bundled examples and on an inverse-regime document whose exact solution
is 2^-n, plus the solver's edge paths: an inverse march that truncates, one
stopped by a near-zero d, one with fractional exponents, a forward march
stopped by a zero pivot and one that warns that d left its sign.  It also
forces each certificate parity on every example, verifies the negated
closed forms of the alternating examples (the equation is odd in x, so they
are exact solutions too), and runs solve, verify and classify --solve on
examples 1 and 2 at beta 1/3 and 5/3, exponents that are not exact decimals.
Last come almost-oscillation reports of example 2 whose settled d series
trips just past, at and before the horizon, or never, one long
certificate run (400 windows on example 3), runs through the --delta and
--perturb-d overrides, a classify --solve from a zero seed (the
degenerate-zero note), and one usage error (exit 2) per command.  Two runs
close the corpus whose coefficient 1e10^n leaves the double range, so that
the residual meets inputs that are not finite: a verify on example 3 with
that a, and a solve on example 2 at beta 5/3 with that b.  Then come two
almost-oscillation reports on example 3: with a = 2^n, whose series A
converges, and with a d table that ends inside the horizon.  Next, a run
verifies example 3 with cubic exponents, whose residual differences grow
wide enough to halve the block (``model.RESIDUAL_WIDTH``).  The last two
runs are usage errors (exit 2): a verify and a classify whose --closed-form
literal is not finite (``nan``, and ``1e400``, which parses to inf).

After the runs, ``answers/<workload>-<seed>/<position>.json`` holds each
answer of the benchmark's traffic: march, hypotheses and sweep at seeds 1-3
for the rounds ``perfbench/run.py --seconds 10`` sends, one record of
``replay_answers.answer`` per request.  These depend on the generator in
``perfbench/workloads.py`` and on what it takes from
``perfbench/oracle.py``, so a change to either alters them too.
Everything written is deterministic, so comparing the directories written
by two versions of the package is a byte-identity check, and ``diff -r``
shows each run and answer that differs:

    PYTHONPATH=src python scripts/report_corpus.py /tmp/corpus-new
    diff -r /tmp/corpus-old /tmp/corpus-new

``--manifest PATH`` also writes one ``sha256sum`` line per file (sorted by
relative path), and without OUTDIR the runs go to a temporary directory.
The committed ``tests/golden/corpus.sha256`` is that manifest; a change
that alters answers, the benchmark's generator included, regenerates it,
and its diff lists the changed runs and answers:

    PYTHONPATH=src python scripts/report_corpus.py --manifest tests/golden/corpus.sha256

The digests tie the answers to this platform's libm (``**``, ``math.pow``).
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from replay_answers import ROUNDS, SEEDS, answer, workload_requests

from quasidiff.cli import main
from quasidiff.examples import example_document

EXAMPLES = ("example-1", "example-2", "example-3", "example-4")
BETAS = ("1/1", "3/5")
LAMBDAS = (1, 2)
HORIZONS = (200, 2000)
# Neither 1/3 nor 5/3 is a finite decimal, unlike 3/5.
INEXACT_BETAS = ("1/3", "5/3")
INEXACT_HORIZONS = (300, 1000)
CHECKS = ("--quick-exclusion", "--almost-oscillation", "--certificate", "--bound")

# x_n = 2^-n solves this equation exactly: p = 1, delta = 0 and unit
# coefficients give D t_n = 2^-(n+3), and d = -16 makes x_{n+7} the forcing
# preimage.  tau = -7 puts it in the inverse regime.
INVERSE_DOCUMENT = {
    "exponents": {"alpha": "1/1", "beta": "1/1", "gamma": "1/1"},
    "tau": -7, "delta": 0, "n0": 1,
    "p": {"kind": "constant", "value": 1.0},
    "d": {"kind": "constant", "value": -16.0},
    "a": {"kind": "constant", "value": 1.0},
    "b": {"kind": "constant", "value": 1.0},
    "c": {"kind": "constant", "value": 1.0},
    "f": {"kind": "odd-power", "scale": 1.0, "exponent": "1/1"},
}
INVERSE_PATH = "inverse.json"
INVERSE_SEED = ",".join(repr(2.0 ** -n) for n in range(1, 8))
INVERSE_FORM = "geometric:1,0.5"
# Alternating 1e300 values overflow the chain: at n = 164 on the
# unit-exponent document, at the first step where gamma = 5/3.
HUGE_SEED = ",".join(("1e300", "-1e300")[n % 2] for n in range(7))
# -x_n of the alternating examples 1, 2 and 4.
NEGATED_FORMS = {"example-1": "alternating:-1,2", "example-2": "alternating:-1,1",
                 "example-4": "alternating:-0.1,1"}

FRACTIONAL_DOCUMENT = {**INVERSE_DOCUMENT,
                       "exponents": {"alpha": "1/1", "beta": "3/5", "gamma": "5/3"}}
# |d_n| = 16 * 2^-n falls below EPS_SIGN = 1e-12 at n = 44: exit 3.
FADING_D_DOCUMENT = {**INVERSE_DOCUMENT, "d": {"kind": "geometric", "scale": -16.0, "ratio": 0.5}}
# delta = 0 and p = -1 make the forward pivot 1 + p_n zero: exit 3 at n0 + 4.
PIVOT_DOCUMENT = {**INVERSE_DOCUMENT, "tau": 1, "p": {"kind": "constant", "value": -1.0},
                  "d": {"kind": "constant", "value": 1.0}}
PIVOT_SEED = "1,1,1,1,1"
# d_n = 0.2595 - 0.001 n is positive on the 256-index validation sample and
# turns negative at n = 260, so the forward march warns.
SIGN_BREAK_DOCUMENT = {**INVERSE_DOCUMENT, "tau": 1, "delta": 2, "n0": 2,
                       "p": {"kind": "constant", "value": 0.0},
                       "d": {"kind": "affine", "slope": -0.001, "intercept": 0.2595}}
SIGN_BREAK_SEED = "0.5,0.6,0.7,0.8,0.9,1.0"

# Example-2's d is one double from n = 35 on, so its series sums a settled tail: at beta 1/1 (d near 16)
# the partial sums pass the 1e6 threshold at term 62,500, and the horizons end one term before, at and
# after it; at beta 3/1 they pass it at term 3,907, and at beta 1/3 never.
SETTLED_SERIES = (("1/1", (62_499, 62_500, 62_501)), ("3/1", (100_000,)), ("1/3", (100_000,)))

# A coefficient of 1e10^n is inf from n = 31 on, so the residual meets inputs that are not finite: the
# indices of a block that read the inf are NaN, and the others stay exact in the block's one integer pass
# (example-3's unit exponents, and example-2 at beta 5/3).
STEEP = {"kind": "geometric", "scale": 1, "ratio": 1e10}
STEEP_A_DOCUMENT = {**example_document("example-3"), "a": STEEP}
STEEP_B_DOCUMENT = {**example_document("example-2", beta="5/3"), "b": STEEP}

# A = a**-1 = 2^-n sums to 0.5: the probe reads it as convergent.  A d table of 300 values ends at n = 299,
# inside the horizon: its series is not checkable.
GEOMETRIC_A_DOCUMENT = {**example_document("example-3"), "a": {"kind": "geometric", "scale": 1, "ratio": 2}}
ENDING_D_DOCUMENT = {**example_document("example-3"),
                     "d": {"kind": "table", "values": [1 - n for n in range(300)], "start": 0,
                           "out_of_range": "error"}}

# Each cubic power triples the width of the residual's integer differences: the block of verify at horizon 60
# passes RESIDUAL_WIDTH bits and is halved, into [2, 31] and [32, 61].
CUBIC_DOCUMENT = {**example_document("example-3"), "exponents": {"alpha": "3/1", "beta": "3/1", "gamma": "3/1"}}

DOCUMENTS = {INVERSE_PATH: INVERSE_DOCUMENT, "fractional.json": FRACTIONAL_DOCUMENT,
             "fading-d.json": FADING_D_DOCUMENT, "pivot.json": PIVOT_DOCUMENT,
             "sign-break.json": SIGN_BREAK_DOCUMENT, "steep-a.json": STEEP_A_DOCUMENT,
             "steep-b.json": STEEP_B_DOCUMENT, "geometric-a.json": GEOMETRIC_A_DOCUMENT,
             "ending-d.json": ENDING_D_DOCUMENT, "cubic.json": CUBIC_DOCUMENT}


def corpus() -> list[list[str]]:
    """The fixed argument list, without the --out/--csv paths."""
    runs = []
    for name in EXAMPLES:
        for beta in BETAS:
            for lam in LAMBDAS:
                for h in HORIZONS:
                    common = [name, "--beta", beta, "--lambda", str(lam), "--horizon", str(h)]
                    runs += [["solve", *common], ["verify", *common], ["classify", *common],
                             ["classify", "--solve", *common]]
                    runs += [["check", *common, mode] for mode in CHECKS]
    for h in HORIZONS:
        common = [INVERSE_PATH, "--horizon", str(h)]
        runs += [["solve", *common, "--seed-values", INVERSE_SEED],
                 ["verify", *common, "--closed-form", INVERSE_FORM],
                 ["classify", *common, "--closed-form", INVERSE_FORM],
                 ["classify", "--solve", *common, "--seed-values", INVERSE_SEED]]
        runs += [["check", *common, mode] for mode in CHECKS]
    for h in HORIZONS:
        runs += [["solve", INVERSE_PATH, "--horizon", str(h), "--seed-values", HUGE_SEED],
                 ["solve", "fractional.json", "--horizon", str(h), "--seed-values", INVERSE_SEED],
                 ["classify", "--solve", "fractional.json", "--horizon", str(h),
                  "--seed-values", INVERSE_SEED]]
    runs += [["solve", "fractional.json", "--horizon", "200", "--seed-values", HUGE_SEED],
             ["solve", "fading-d.json", "--horizon", "200", "--seed-values", INVERSE_SEED],
             ["solve", "pivot.json", "--horizon", "200", "--seed-values", PIVOT_SEED],
             ["solve", "sign-break.json", "--horizon", "300", "--seed-values", SIGN_BREAK_SEED]]
    for name in EXAMPLES:
        for beta in BETAS:
            for lam in LAMBDAS:
                common = [name, "--beta", beta, "--lambda", str(lam), "--horizon", "200"]
                runs += [["check", *common, "--certificate", "--parity", parity]
                         for parity in ("even", "odd")]
                if name in NEGATED_FORMS:
                    runs.append(["verify", *common, "--closed-form", NEGATED_FORMS[name]])
    for name in EXAMPLES[:2]:
        for beta in INEXACT_BETAS:
            for h in INEXACT_HORIZONS:
                common = [name, "--beta", beta, "--lambda", "1", "--horizon", str(h)]
                runs += [["solve", *common], ["verify", *common], ["classify", "--solve", *common]]
    for beta, horizons in SETTLED_SERIES:
        runs += [["check", "example-2", "--beta", beta, "--horizon", str(h), "--almost-oscillation"]
                 for h in horizons]
    runs.append(["check", "example-3", "--certificate", "--windows", "400"])
    runs += [["check", "example-3", "--quick-exclusion", "--delta", "3"],
             ["check", "example-3", "--certificate", "--delta", "4", "--windows", "5"],
             ["verify", "example-4", "--perturb-d", "2"],
             ["verify", "example-1", "--perturb-d", "1.01"],
             ["classify", "--solve", "example-3", "--seed-values", "0,0,0,0,0,0"]]
    runs += [["verify", "example-3", "--closed-form", "bogus"],
             ["classify", "example-3", "--horizon", "4"],
             ["solve", "example-3", "--seed-values", "1,2"],
             ["check", "example-3", "--certificate", "--windows", "0"]]
    runs += [["verify", "steep-a.json", "--horizon", "60", "--closed-form", "geometric:1,0.5"],
             ["solve", "steep-b.json", "--horizon", "300", "--seed-values", "1,-1,1,-1,1,-1"]]
    runs += [["check", "geometric-a.json", "--almost-oscillation", "--horizon", "2000"],
             ["check", "ending-d.json", "--almost-oscillation", "--horizon", "1000"]]
    runs.append(["verify", "cubic.json", "--horizon", "60", "--closed-form", "geometric:1,1e-5"])
    runs += [["verify", "example-3", "--horizon", "20", "--closed-form", "geometric:nan,1"],
             ["classify", "example-3", "--horizon", "20", "--closed-form", "alternating:1e400,0.5"]]
    return runs


def run_name(index: int, argv: list[str]) -> str:
    words = [w for i, w in enumerate(argv)
             if w != "--seed-values" and (i == 0 or argv[i - 1] != "--seed-values")]
    label = "_".join(w.lstrip("-").replace("/", "-").replace(":", "-").replace(".json", "")
                     for w in words)
    return f"{index:03d}_{label}"


def run(argv: list[str], outdir: str) -> None:
    os.makedirs(outdir)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            csv = [] if argv[0] == "check" else ["--csv", os.path.join(outdir, "out.csv")]  # check takes no --csv
            status = str(main([*argv, "--out", os.path.join(outdir, "out.json"), *csv]))
        except Exception as exc:  # an escaped exception is part of the observed behaviour
            status = f"exception {type(exc).__name__}"
    for name, stream in (("stdout.txt", stdout), ("stderr.txt", stderr)):
        with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
            fh.write(stream.getvalue())
    with open(os.path.join(outdir, "exit.txt"), "w", encoding="utf-8") as fh:
        fh.write(status + "\n")


def write_answers(outdir: str) -> int:
    """Write each answer of the benchmark's traffic under outdir/answers; the number of answers."""
    count = 0
    for workload, rounds in ROUNDS.items():
        for seed in SEEDS:
            folder = os.path.abspath(os.path.join(outdir, "answers", f"{workload}-{seed}"))
            os.makedirs(folder)
            with workload_requests(workload, seed, rounds) as requests:  # which changes directory
                for position, request in enumerate(requests):
                    with open(os.path.join(folder, f"{position:04d}.json"), "w", encoding="utf-8") as fh:
                        fh.write(json.dumps(answer(request), indent=2) + "\n")
                    count += 1
    return count


def write_corpus(outdir: str) -> tuple[int, int]:
    """Write every run's files and every answer under outdir (which must not exist yet); (runs, answers)."""
    os.makedirs(outdir)
    cwd = os.getcwd()
    os.chdir(outdir)  # relative paths keep the reports independent of where outdir lives
    try:
        for path, document in DOCUMENTS.items():
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(document, fh, indent=2)
        runs = corpus()
        for index, argv in enumerate(runs):
            run(argv, run_name(index, argv))
    finally:
        os.chdir(cwd)
    return len(runs), write_answers(outdir)


def manifest(outdir: str) -> str:
    """One `sha256sum` line per file under outdir, sorted by relative path."""
    lines = []
    for root, _, files in os.walk(outdir):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append((os.path.relpath(path, outdir).replace(os.sep, "/"), digest))
    return "".join(f"{digest}  {rel}\n" for rel, digest in sorted(lines))


def main_corpus() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", nargs="?", help="directory to create (must not exist yet); "
                        "a temporary one when only --manifest is given")
    parser.add_argument("--manifest", metavar="PATH", help="also write the sha256 manifest of the files to PATH")
    args = parser.parse_args()
    if args.outdir is None and args.manifest is None:
        parser.error("give OUTDIR, --manifest PATH, or both")
    with tempfile.TemporaryDirectory() as scratch:
        outdir = args.outdir or os.path.join(scratch, "corpus")
        runs, answers = write_corpus(outdir)
        if args.manifest:
            with open(args.manifest, "w", encoding="utf-8") as fh:
                fh.write(manifest(outdir))
    print(f"{runs} runs and {answers} answers written to {args.outdir or 'a temporary directory'}"
          + (f", manifest to {args.manifest}" if args.manifest else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main_corpus())
