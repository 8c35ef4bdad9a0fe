#!/usr/bin/env python3
"""Reproduce the paper's claims on the four bundled example equations through the CLI.

For each bundled example: print its summary, then run and echo `verify` and
`classify` over the horizon, the quick-exclusion check, the sign-conflict
certificates of both parities where quick exclusion applies (exits 0), and,
on examples 3 and 4, the almost-oscillation hypotheses.  Exit status is 1 if
any verify does not pass.

Usage:
    python scripts/reproduce_paper_examples.py [--horizon N]
"""

import argparse
import sys

from quasidiff import EXAMPLE_NAMES, example_summary
from quasidiff.cli import main as quasidiff


def run(*argv: str) -> int:
    print("$ quasidiff", *argv)
    return quasidiff(list(argv))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--horizon", type=int, default=60)
    horizon = str(parser.parse_args().horizon)

    verified = True
    for name in EXAMPLE_NAMES:
        print(f"{name}: {example_summary(name)}")
        verified &= run("verify", name, "--horizon", horizon) == 0
        run("classify", name, "--horizon", horizon)
        if run("check", name, "--quick-exclusion") == 0:
            for parity in ("even", "odd"):
                run("check", name, "--certificate", "--parity", parity, "--windows", "50")
        if name in ("example-3", "example-4"):
            run("check", name, "--almost-oscillation")
        print()
    return 0 if verified else 1


if __name__ == "__main__":
    sys.exit(main())
