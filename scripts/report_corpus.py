#!/usr/bin/env python3
"""Write the CLI's reports on a fixed corpus of runs into a directory.

Each run of ``quasidiff.cli.main`` gets its own subdirectory holding
``stdout.txt``, ``exit.txt`` (the exit code, or the exception that escaped
``main``) and whatever ``--out`` / ``--csv`` wrote.  The corpus covers solve,
verify, classify, classify --solve and the four check modes on the bundled
examples and on an inverse-regime document whose exact solution is 2^-n.
Everything the runs write is deterministic, so comparing the directories
written by two versions of the package is a byte-identity check:

    PYTHONPATH=src python scripts/report_corpus.py /tmp/corpus-new
    diff -r /tmp/corpus-old /tmp/corpus-new
"""

import argparse
import contextlib
import io
import json
import os
import sys

from quasidiff.cli import main

EXAMPLES = ("example-1", "example-2", "example-3", "example-4")
BETAS = ("1/1", "3/5")
LAMBDAS = (1, 2)
HORIZONS = (200, 2000)
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
    return runs


def run_name(index: int, argv: list[str]) -> str:
    words = [w for w in argv if w not in ("--seed-values", INVERSE_SEED)]
    label = "_".join(w.lstrip("-").replace("/", "-").replace(":", "-").replace(".json", "")
                     for w in words)
    return f"{index:03d}_{label}"


def run(argv: list[str], outdir: str) -> None:
    os.makedirs(outdir)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            status = str(main([*argv, "--out", os.path.join(outdir, "out.json"),
                               "--csv", os.path.join(outdir, "out.csv")]))
        except Exception as exc:  # an escaped exception is part of the observed behaviour
            status = f"exception {type(exc).__name__}"
    with open(os.path.join(outdir, "stdout.txt"), "w", encoding="utf-8") as fh:
        fh.write(stdout.getvalue())
    with open(os.path.join(outdir, "exit.txt"), "w", encoding="utf-8") as fh:
        fh.write(status + "\n")


def main_corpus() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", help="directory to create (must not exist yet)")
    args = parser.parse_args()
    os.makedirs(args.outdir)
    # Relative paths keep the reports independent of where OUTDIR lives.
    os.chdir(args.outdir)
    with open(INVERSE_PATH, "w", encoding="utf-8") as fh:
        json.dump(INVERSE_DOCUMENT, fh, indent=2)
    runs = corpus()
    for index, argv in enumerate(runs):
        run(argv, run_name(index, argv))
    print(f"{len(runs)} runs written to {args.outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main_corpus())
