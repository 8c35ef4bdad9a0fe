#!/usr/bin/env python3
"""Benchmark a change against its parent and write BENCH_<topic>.json.

    python scripts/bench_pair.py PARENT_CHECKOUT TOPIC --workload hypotheses [--trace 0]

PARENT_CHECKOUT is a directory holding the other version of the repository,
usually the parent commit (``git clone`` of the repository, checked out
there).  Each side runs its own ``perfbench/run.py``, which imports the
package from that side's ``src/``:

    python3 perfbench/run.py --workload W --seconds RUN_SECONDS --trace T --seed S

with RUN_SECONDS the ``run_seconds`` of this checkout's BENCHMARK.json, for
seeds 1-N, one run at a time, alternating which side goes first (parent:1
change:1 change:2 parent:2 parent:3 change:3 ...), so that a drift of the
machine during the runs does not favour one side.  ``--trace 1`` (the
default, N = 3) records the per-layer metrics; ``--trace 0`` (N = 10)
records the end-to-end metrics, which tracing would slow.  The JSON result
line of every run is kept; the median of each metric over the seeds is
stored under ``medians``, and the parent's interquartile range and the
number of seeds on which the change did better (by the direction
BENCHMARK.json gives the metric) under ``comparison``; all three are
printed.  The file is written at the root of this
checkout; nothing is written under ``perfbench/`` (``run.py`` itself writes
its logs under each side's ``perfbench_out/``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

CHANGE = Path(__file__).resolve().parent.parent
SEEDS = {1: (1, 2, 3), 0: tuple(range(1, 11))}  # by --trace


def git_commit(checkout: Path) -> str:
    done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def cpu() -> str:
    model = platform.processor() or "unknown cpu"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"{model}, {len(os.sched_getaffinity(0))} vCPU"


def run_once(checkout: Path, argv: list[str]) -> dict:
    """One perfbench run in checkout; its last stdout line, the JSON result."""
    done = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=checkout,
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"perfbench/run.py {' '.join(argv)} failed in {checkout} "
                 f"(exit {done.returncode}):\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def values(runs: list[dict], name: str) -> list[float]:
    return [r["result"]["metrics"][name]["value"] for r in runs]


def medians(runs: list[dict]) -> dict:
    return {name: statistics.median(values(runs, name)) for name in runs[0]["result"]["metrics"]}


def comparison(parent: list[dict], change: list[dict], better: dict) -> dict:
    """Per metric: the parent's interquartile range, and on how many seeds the change did better."""
    out = {}
    for name in parent[0]["result"]["metrics"]:
        before, after = values(parent, name), values(change, name)
        q1, _, q3 = statistics.quantiles(before, n=4)
        sign = -1 if better.get(name) == "lower" else 1
        wins = sum(sign * (b - a) > 0 for a, b in zip(before, after))
        out[name] = {"parent_iqr": q3 - q1, "change_better": f"{wins}/{len(before)}"}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the version to compare against")
    parser.add_argument("topic", help="names the output file, BENCH_<topic>.json")
    parser.add_argument("--workload", required=True, help="a perfbench workload: march, hypotheses or sweep")
    parser.add_argument("--what", default="", help="one sentence on what the change does")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: per-layer metrics (default); 0: end-to-end metrics, untraced")
    args = parser.parse_args()
    seeds = SEEDS[args.trace]
    parent = args.parent.resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        parser.error(f"{parent} holds no perfbench/run.py")
    sides = {"parent": parent, "change": CHANGE}
    benchmark = json.loads((CHANGE / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    argv = ["--workload", args.workload, "--seconds", str(benchmark["run_seconds"]), "--trace", str(args.trace)]
    order = [f"{side}:{seed}" for seed in seeds
             for side in (("parent", "change") if seed % 2 else ("change", "parent"))]
    runs = {side: {} for side in sides}
    for entry in order:
        side, seed = entry.split(":")
        result = run_once(sides[side], [*argv, "--seed", seed])
        runs[side][int(seed)] = {"seed": int(seed), "result": result}
        print(f"{entry}: correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}", flush=True)
    bench = {
        "topic": args.topic,
        "what": args.what,
        "command": f"python3 perfbench/run.py {' '.join(argv)} --seed S",
        "seeds": list(seeds),
        "run_order": order,
        "python": platform.python_version(),
        "cpu": cpu(),
    }
    for side, checkout in sides.items():
        side_runs = [runs[side][seed] for seed in seeds]
        commit = git_commit(checkout) if side == "parent" else "the commit that adds this file"
        bench[side] = {"commit": commit, "runs": side_runs, "medians": medians(side_runs)}
    bench["comparison"] = comparison(bench["parent"]["runs"], bench["change"]["runs"], better)
    out = CHANGE / f"BENCH_{args.topic}.json"
    out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    print(f"\n{'metric (median of seeds)':<40}{'parent':>12}{'change':>12}{'parent IQR':>12}{'better':>8}")
    for name, value in bench["parent"]["medians"].items():
        row = bench["comparison"][name]
        print(f"{name:<40}{value:>12.6g}{bench['change']['medians'][name]:>12.6g}"
              f"{row['parent_iqr']:>12.4g}{row['change_better']:>8}")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
