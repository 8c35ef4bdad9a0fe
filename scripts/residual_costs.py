#!/usr/bin/env python3
"""Time the residual pass per index, and the verify requests whose residuals read values that are not finite.

    PYTHONPATH=src python scripts/residual_costs.py [--repeat N] [--count INDICES]

Each row times ``model.relative_residuals`` over one block of INDICES
indices (default 256, ``model.RESIDUAL_BLOCK``), on a window sampled once
from the closed form, and prints the best of N runs (default 15) in
microseconds per index, with the arithmetic the exponents select:

* examples 1 and 2 at each beta of the benchmark (1/1, 3/1, 1/3, 3/5, 5/3)
  and examples 3 and 4, from n0;
* the inverse-regime document, whose exact solution is 2^-n, from n = 1;
* a wide unit-exponent equation: a = b = c = 2^-1000 * 16^n and
  x_n = (-1)^n 2^(4n-500), so that each column of a block spans about a
  thousand binary orders of magnitude; 16^n overflows doubles from
  n = 256, so the last five indices of its block read an inf;
* example-1 at beta 3/1 from n = 600, where d overflows doubles (from
  n = 337), so every index of the block reads an inf and is NaN.

Then three verify requests whose residuals read an input that is not
finite (d overflows doubles, or is perturbed to about 1e308) are timed
end to end through ``quasidiff.cli.main``, in-process with their output
discarded: the median of N runs in milliseconds, and the µs per index of
their residual pass over the whole horizon (best of N).  Nothing is
written to disk, and a reader that leaves early (``| head``) ends the
output without a traceback.
"""

import argparse
import contextlib
import io
import statistics
import time
from dataclasses import replace

from quasidiff import model
from quasidiff.cli import _cached_equation, _sample_finite, _say, entry, main
from quasidiff.examples import example_closed_form
from quasidiff.model import Constant, Geometric, Window, residual_reads

BETAS = ("1/1", "3/1", "1/3", "3/5", "5/3")
NON_FINITE_VERIFIES = (["verify", "example-1", "--beta", "3/1", "--horizon", "1000"],
                       ["verify", "example-1", "--beta", "5/3", "--horizon", "1000"],
                       ["verify", "example-4", "--perturb-d", "1e308", "--horizon", "300"])


def example(name: str, beta: str | None = None):
    return _cached_equation(name, None, beta, None, None, None)


def cases():
    """(label, equation, x evaluator, first index or None for n0) of each timed residual block."""
    for name in ("example-1", "example-2"):
        for beta in BETAS:
            yield f"{name} beta {beta}", example(name, beta), example_closed_form(name), None
    for name in ("example-3", "example-4"):
        yield name, example(name), example_closed_form(name), None
    unit = Constant(1.0)  # the inverse regime: tau = -7, and d = -16 makes x_{n+7} the forcing preimage
    yield "inverse document", replace(example("example-3"), tau=-7, delta=0, n0=1, p=unit, a=unit, b=unit,
                                      c=unit, d=Constant(-16.0)), lambda n: 2.0 ** -n, None
    wide = Geometric(2.0 ** -1000, 16.0)
    yield "wide columns (unit exponents)", replace(example("example-3"), a=wide, b=wide, c=wide), \
        lambda n: (-1.0) ** n * 2.0 ** (4 * n - 500), None
    yield "example-1 beta 3/1 from 600 (all NaN)", example("example-1", "3/1"), example_closed_form("example-1"), 600


def best_us_per_index(eq, x, indices: range, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        model.relative_residuals(eq, x, indices)
        best = min(best, time.perf_counter() - start)
    return best / len(indices) * 1e6


def sampled(eq, form, indices: range) -> Window:
    reads = residual_reads(eq, indices)
    return Window.from_evaluator(form, reads.start, reads.stop - 1)


def main_costs() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=15)
    parser.add_argument("--count", type=int, default=model.RESIDUAL_BLOCK)
    args = parser.parse_args()
    _say(f"residual pass over one block of {args.count} indices, best of {args.repeat}, us per index")
    for label, eq, form, start in cases():
        indices = range(start or eq.n0, (start or eq.n0) + args.count)
        _say(f"  {label:38s} {best_us_per_index(eq, sampled(eq, form, indices), indices, args.repeat):8.2f}")
    _say(f"verify requests that read values that are not finite, median of {args.repeat} in main")
    for argv in NON_FINITE_VERIFIES:
        times = []
        for _ in range(args.repeat):
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                main(list(argv))
            times.append((time.perf_counter() - start) * 1e3)
        beta = argv[argv.index("--beta") + 1] if "--beta" in argv else None
        perturb = float(argv[argv.index("--perturb-d") + 1]) if "--perturb-d" in argv else None
        eq = _cached_equation(argv[1], None, beta, None, None, perturb)
        indices = range(eq.n0, eq.n0 + int(argv[-1]))
        x = _sample_finite(example_closed_form(argv[1]), residual_reads(eq, indices))
        _say(f"  {' '.join(argv[1:]):45s} {statistics.median(times):7.2f} ms "
              f"{best_us_per_index(eq, x, indices, args.repeat):7.2f} us/index")
    return 0


if __name__ == "__main__":
    entry(main_costs)
