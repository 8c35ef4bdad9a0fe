#!/usr/bin/env python3
"""Time every request of a benchmark workload and show where the time goes, by request kind and target.

    PYTHONPATH=src python scripts/request_costs.py WORKLOAD SEED ROUNDS

The requests are the first ROUNDS rounds that the seeded generator of
``perfbench/workloads.py`` yields for WORKLOAD and SEED, in the order the
benchmark sends them (``replay_answers.workload_requests``).  Each is
answered by ``quasidiff.cli.main`` in-process, with its output discarded,
and timed with ``time.perf_counter``.  A request's target is the example it
names, or the file name of the generated document it reads.  One row per
request kind and target gives the count, the median and total milliseconds
and the share of all the time spent in ``main``, largest total first.  The
working directory is a temporary directory, and the CSV and JSON exports a
request writes are deleted after it; nothing is written under
``perfbench/``.  A last line gives the hits, misses and entries of the
equation cache (``cli.EQUATION_CACHE_SIZE``) over those requests.  A reader
that leaves early (``| head``) ends the output without a traceback.
"""

import argparse
import contextlib
import io
import os
import statistics
import time
from collections import defaultdict

from replay_answers import WORKLOADS, workload_requests

from quasidiff.cli import _cached_equation, _say, entry, main


def target(argv: list[str]) -> str:
    return os.path.basename(argv[1]) if len(argv) > 1 else "-"


def request_costs(workload: str, seed: int, rounds: int) -> dict[tuple[str, str], list[float]]:
    """Milliseconds of each request, by (kind, target)."""
    costs = defaultdict(list)
    with workload_requests(workload, seed, rounds) as requests:
        for request in requests:
            sink = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    main(list(request.argv))
            except (SystemExit, Exception):  # an exit or an escaped exception ends the request as its answer
                pass
            costs[request.kind, target(request.argv)].append((time.perf_counter() - start) * 1e3)
            for path in (request.csv, request.out):
                if path and os.path.exists(path):
                    os.remove(path)
    return costs


def main_costs() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("rounds", type=int)
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error(f"rounds must be at least 1, got {args.rounds}")
    costs = request_costs(args.workload, args.seed, args.rounds)
    total = sum(map(sum, costs.values()))
    _say(f"{args.workload} seed {args.seed}, {args.rounds} rounds: "
          f"{sum(map(len, costs.values()))} requests, {total:.1f} ms in main")
    _say(f"{'kind':<20}{'target':<16}{'count':>7}{'median ms':>11}{'total ms':>11}{'share':>8}")
    for (kind, name), ms in sorted(costs.items(), key=lambda item: -sum(item[1])):
        _say(f"{kind:<20}{name:<16}{len(ms):>7}{statistics.median(ms):>11.3f}{sum(ms):>11.1f}"
              f"{sum(ms) / total:>8.1%}")
    cache = _cached_equation.cache_info()
    _say(f"equation cache: {cache.hits} hits, {cache.misses} misses, {cache.currsize} entries "
          f"(maxsize {cache.maxsize})")
    return 0


if __name__ == "__main__":
    entry(main_costs)
