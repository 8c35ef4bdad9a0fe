#!/usr/bin/env python3
"""Benchmark a change against its parent and write BENCH_<topic>.json.

    python scripts/bench_pair.py PARENT_CHECKOUT TOPIC --workload hypotheses

PARENT_CHECKOUT is a directory holding the other version of the repository,
usually the parent commit (``git clone`` of the repository, checked out
there).  Each side runs its own ``perfbench/run.py``, which imports the
package from that side's ``src/``:

    python3 perfbench/run.py --workload W --seconds RUN_SECONDS --trace 1 --seed S

with RUN_SECONDS the ``run_seconds`` of this checkout's BENCHMARK.json, for
seeds 1-3, one run at a time, alternating which side goes first (parent:1
change:1 change:2 parent:2 parent:3 change:3), so that a drift of the
machine during the runs does not favour one side.  The JSON result line of
every run is kept, and the median of each metric over the seeds is printed
and stored under ``medians``.  The file is written at the root of this
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
SEEDS = (1, 2, 3)


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


def medians(runs: list[dict]) -> dict:
    names = runs[0]["result"]["metrics"]
    return {name: statistics.median(r["result"]["metrics"][name]["value"] for r in runs) for name in names}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the version to compare against")
    parser.add_argument("topic", help="names the output file, BENCH_<topic>.json")
    parser.add_argument("--workload", required=True, help="a perfbench workload: march, hypotheses or sweep")
    parser.add_argument("--what", default="", help="one sentence on what the change does")
    args = parser.parse_args()
    parent = args.parent.resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        parser.error(f"{parent} holds no perfbench/run.py")
    sides = {"parent": parent, "change": CHANGE}
    seconds = json.loads((CHANGE / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    argv = ["--workload", args.workload, "--seconds", str(seconds), "--trace", "1"]
    order = [f"{side}:{seed}" for seed in SEEDS
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
        "seeds": list(SEEDS),
        "run_order": order,
        "python": platform.python_version(),
        "cpu": cpu(),
    }
    for side, checkout in sides.items():
        side_runs = [runs[side][seed] for seed in SEEDS]
        commit = git_commit(checkout) if side == "parent" else "the commit that adds this file"
        bench[side] = {"commit": commit, "runs": side_runs, "medians": medians(side_runs)}
    out = CHANGE / f"BENCH_{args.topic}.json"
    out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    print(f"\n{'metric (median of seeds)':<48}{'parent':>14}{'change':>14}")
    for name, value in bench["parent"]["medians"].items():
        print(f"{name:<48}{value:>14.6g}{bench['change']['medians'][name]:>14.6g}")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
