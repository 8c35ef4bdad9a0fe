"""End-to-end benchmark of the quasidiff CLI, with an optional traced run.

    python3 perfbench/run.py --workload march --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 10       # every workload

One closed-loop client (one process, one thread) calls ``quasidiff.cli.main``
in-process with generated argv vectors; each request is sent after the
previous one returned.  Requests come from a seeded generator (workloads.py),
and every answer is checked against a reference derived from the mathematics
(oracle.py).  The program is imported from ``src/`` of the checkout that holds
this directory; without it the benchmark exits with code 2.

With ``--trace 0`` the last line of standard output is a JSON object carrying
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced pass over the same requests (tracing.py).  Rates and latencies count
only the wall time spent inside ``main``, not the benchmark's own generation
and checking.  Failed requests, provenance and spans are written under
``perfbench_out/`` in the checkout.

A run is a fixed number of whole rounds, sized by ``--seconds`` and the
nominal duration of one round of the workload, rather than a time limit: so
the requests a run sends, and which of them fail, depend on the seed alone,
and two runs with the same seed report the same ``attempted`` and ``failed``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench_out"

sys.path.insert(0, str(HERE))
from oracle import DEFECTS, Outcome, judge  # noqa: E402
from workloads import CYCLES_PER_ROUND, WORKLOADS, Workload  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("indices_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# At least this many latency samples, so that ten lie beyond p90.
MIN_REQUESTS = 100
# Wall seconds of one round, judging included, on a 2-vCPU AMD EPYC VM; a run
# of --seconds s makes round(seconds / ROUND_SECONDS) rounds.
ROUND_SECONDS = {"march": 4.6, "hypotheses": 2.2, "sweep": 0.52}
# A pass stops here even short of its rounds, so a run ends within 180 s.
PASS_CAP_S = 140.0
SETUP_REPEATS = 11
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from quasidiff.cli import main; sys.exit(main(['list-examples']))")


@dataclass
class PassResult:
    """What a pass keeps: per-request latencies, per-round sums and the failures.

    Answers are dropped once judged, so memory does not grow with the
    number of requests a faster program fits into a run.
    """

    latencies: array = field(default_factory=lambda: array("d"))
    rounds: list = field(default_factory=list)  # [busy s, completed, indices delivered]
    failures: list = field(default_factory=list)
    report_bytes: int = 0
    unexplained: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def busy(self) -> float:
        return sum(r[0] for r in self.rounds)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def measure_setup() -> float:
    """Median wall time of a fresh interpreter answering ``list-examples``.

    The first child compiles the bytecode cache and is not counted.
    """
    times = []
    for k in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-E", "-s", "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=60, cwd=ROOT)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or proc.stdout.count("\n") != 4:
            raise RuntimeError(f"set-up child failed (exit {proc.returncode}): {proc.stderr.strip()}")
        if k:
            times.append(elapsed)
    return statistics.median(times)


def execute(main, request, tracer=None, index: int = 0) -> tuple[Outcome, int]:
    out, err = io.StringIO(), io.StringIO()
    code = exception = None
    span = None
    if tracer is not None:
        tracer.request = index
        span = tracer.enter("cli.main")
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(request.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # anything escaping main is a failed request, not a crash
        exception = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if span is not None:
        tracer.leave(span)
    stdout, stderr = out.getvalue(), err.getvalue()
    written = len(stdout) + len(stderr)
    for path in (request.csv, request.out):
        if path and os.path.exists(path):
            written += os.path.getsize(path)
    return Outcome(code, exception, stdout, stderr, latency), written


def rounds_for(workload: Workload, seconds: float) -> int:
    """Whole rounds that last about ``seconds`` and give at least MIN_REQUESTS."""
    size = len(workload.templates) * CYCLES_PER_ROUND
    return max(math.ceil(MIN_REQUESTS / size), round(seconds / ROUND_SECONDS[workload.name]))


def run_pass(main, workload: Workload, rounds: int, cap: float, tracer=None) -> PassResult:
    """Closed loop: send each request after the previous one has been judged.

    Exactly ``rounds`` whole rounds are run, so every run sees the full
    stratified mix of its workload; ``cap`` stops a pass regardless.
    """
    result = PassResult()
    start = time.perf_counter()
    for batch in itertools.islice(workload.rounds(), rounds):
        totals = [0.0, 0, 0]
        result.rounds.append(totals)
        for request in batch:
            if time.perf_counter() - start >= cap:
                return result
            outcome, written = execute(main, request, tracer, result.attempted)
            verdict = judge(request, outcome)
            for path in (request.csv, request.out):
                if path and os.path.exists(path):
                    os.remove(path)
            result.latencies.append(outcome.latency_s)
            result.report_bytes += written
            totals[0] += outcome.latency_s
            totals[1] += outcome.exception is None
            totals[2] += verdict.delivered if verdict.ok else 0
            if not verdict.ok:
                result.unexplained += verdict.defect not in DEFECTS
                result.failures.append({
                    "workload": workload.name, "request": result.attempted - 1, "argv": request.argv,
                    "expected": verdict.expected, "observed": verdict.observed,
                    "defect": verdict.defect or "unexplained"})
    return result


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(result: PassResult, setup_s: float) -> dict[str, float]:
    """The end-to-end metrics; the two rates are medians over rounds."""
    rounds = [r for r in result.rounds if r[0] > 0]
    latencies = sorted(result.latencies)
    return {
        "setup_s": setup_s,
        "requests_per_s": statistics.median(completed / busy for busy, completed, _ in rounds),
        "indices_per_s": statistics.median(indices / busy for busy, _, indices in rounds),
        "latency_p50_ms": percentile(latencies, 0.50) * 1e3,
        "latency_p90_ms": percentile(latencies, 0.90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ---------------------------------------------------------------------------
# Provenance and output
# ---------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git directly; 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(quasidiff) -> dict:
    return {
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "quasidiff_version": quasidiff.__version__,
        "git_commit": git_commit(),
    }


def summary_lines(result: PassResult) -> list[str]:
    failed = len(result.failures)
    lines = [f"ops_failed_frac      {failed / result.attempted:.4f}  "
             f"({failed} failed / {result.attempted} attempted)"]
    by_defect: dict[str, int] = {}
    for entry in result.failures:
        by_defect[entry["defect"]] = by_defect.get(entry["defect"], 0) + 1
    for name, count in sorted(by_defect.items()):
        lines.append(f"  {count:5d} x {name}: {DEFECTS.get(name, 'matches no catalogued defect')}")
    return lines


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_workload(args) -> int:
    if not (SRC / "quasidiff" / "__init__.py").is_file():
        print(f"error: no quasidiff sources under {SRC}", file=sys.stderr)
        return 2
    setup_s = measure_setup()
    sys.path.insert(0, str(SRC))
    import quasidiff
    from quasidiff.cli import main
    if Path(quasidiff.__file__).resolve().parent != SRC / "quasidiff":
        print(f"error: imported quasidiff from {quasidiff.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload = Workload(args.workload, args.seed, workdir)
        if args.trace:
            result, payload, metrics = traced_run(main, workload, args)
        else:
            result = run_pass(main, workload, rounds_for(workload, args.seconds), PASS_CAP_S)
            metrics = end_to_end(result, setup_s)
            payload = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    info = provenance(quasidiff)
    with open(OUT_DIR / f"failures-{tag}.jsonl", "w", encoding="utf-8") as fh:
        for entry in result.failures:
            fh.write(json.dumps(entry) + "\n")
    if args.trace:
        with open(OUT_DIR / f"spans-{tag}.json", "w", encoding="utf-8") as fh:
            json.dump({"provenance": info, **payload}, fh)
        units = {m["name"]: m["unit"] for m in payload["table"]}
        notes = {m["name"]: f"  -> {m['moves']}" for m in payload["table"]}
    else:
        units, notes = dict(END_TO_END), {}

    beyond = result.attempted - math.ceil(0.9 * result.attempted)
    print(f"# workload {args.workload}: {WORKLOADS[args.workload]}")
    print(f"# seed {args.seed}, {args.seconds:g} s, trace {'on' if args.trace else 'off'}; "
          "closed loop: 1 client, 1 thread, next request after the previous returned")
    print("# " + ", ".join(f"{k} {v}" for k, v in info.items()))
    for name, value in metrics.items():
        print(f"{name:<48} {value:>14.6g} {units[name]:<6}{notes.get(name, '')}")
    print(f"latency samples      {result.attempted} ({beyond} beyond p90)")
    for line in summary_lines(result):
        print(line)
    print(f"# failure log: {OUT_DIR.name}/failures-{tag}.jsonl"
          + (f"; spans: {OUT_DIR.name}/spans-{tag}.json" if args.trace else ""))
    print(json.dumps({
        "correct": result.unexplained == 0,
        "attempted": result.attempted,
        "failed": len(result.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def traced_run(main, workload: Workload, args):
    """Untraced pass, then a traced pass over the same requests; per-layer metrics."""
    import tracing
    cap = PASS_CAP_S / 2
    rounds = rounds_for(workload, args.seconds / 2)
    plain = run_pass(main, workload, rounds, cap)
    tracer = tracing.Tracer()
    with tracing.Instrumented(tracer):
        result = run_pass(main, workload, rounds, cap, tracer=tracer)
    overhead = result.busy / plain.busy - 1.0
    metrics = tracing.layer_metrics(tracer, result.attempted, result.report_bytes, args.seed, overhead)
    origin = tracer.spans[0].start if tracer.spans else 0.0
    payload = {
        "workload": args.workload, "seed": args.seed,
        "table": [{"name": n, "value": metrics[n], "unit": u, "better": b, "moves": moves}
                  for n, u, b, moves in tracing.LAYER_METRICS],
        "trace.overhead_frac": overhead,
        "untraced_s": plain.busy, "traced_s": result.busy,
        "spans": [s.to_dict(origin) for s in tracer.spans],
    }
    return result, payload, metrics


def run_all(args) -> int:
    """Each workload in a fresh process, then one table of every metric."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(results["march"]["metrics"])
    print(f"\n{'metric':<48}" + "".join(f"{w:>14}" for w in results) + "  unit")
    for metric in names:
        cells = "".join(f"{results[w]['metrics'][metric]['value']:>14.6g}" for w in results)
        print(f"{metric:<48}{cells}  {results['march']['metrics'][metric]['unit']}")
    print(f"{'ops_failed_frac':<48}"
          + "".join(f"{r['failed'] / r['attempted']:>14.4f}" for r in results.values()) + "  ratio")
    print(f"{'  = failed / attempted':<48}"
          + "".join(f"{str(r['failed']) + ' / ' + str(r['attempted']):>14}" for r in results.values()))
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


if __name__ == "__main__":
    arguments = parse_args()
    sys.exit(run_all(arguments) if arguments.workload == "all" else run_workload(arguments))
