"""Per-layer spans for the traced run, taken from outside the program.

Spans are recorded at layer boundaries by rebinding a public name in the
module that calls it (``quasidiff.solver.max_relative_residual`` is what the
solver calls), so the program itself is unchanged.  The layers are the
package modules: cli, document, solver, model, numerics and analysis.  Each
span records its name, start, end, parent and request id; a span's self time
is its duration less the time of its child spans.  Spans stay in memory and
are written out when the run ends.

The per-index residual that ``verify`` calls in a loop is recorded as one
aggregate span per request (summed time and call count) to keep tracing cheap.
"""

from __future__ import annotations

import functools
import importlib
import random
import statistics
import time
from collections import defaultdict

# name, unit, better, and the end-to-end metric it should move on which workload
MARCH_INDICES = "indices_per_s on march"
MODEL = "indices_per_s and latency_p50_ms on march, latency_p50_ms on sweep"
HYPOTHESES = "requests_per_s and latency_p90_ms on hypotheses"
SHORT_REQUESTS = "latency_p50_ms on sweep and hypotheses"
LAYER_METRICS = (
    ("cli.self_ms", "ms", "lower", "requests_per_s on sweep"),
    ("cli.solve_ms", "ms", "lower", "requests_per_s on sweep"),
    ("cli.verify_ms", "ms", "lower", "requests_per_s on sweep"),
    ("cli.classify_ms", "ms", "lower", "requests_per_s on sweep"),
    ("cli.check_ms", "ms", "lower", "requests_per_s on sweep"),
    ("cli.csv_us_per_row", "us", "lower", "latency_p90_ms on march"),
    ("cli.report_bytes", "bytes", "lower", "latency_p90_ms on march"),
    ("document.build_ms", "ms", "lower", "requests_per_s on sweep, nothing on march"),
    ("document.builds", "count", "lower", "requests_per_s on sweep, nothing on march"),
    ("solver.us_per_step", "us", "lower", MARCH_INDICES),
    ("solver.inverse_us_per_step", "us", "lower", MARCH_INDICES),
    ("solver.steps", "count", "higher", MARCH_INDICES),
    ("solver.truncations", "count", "lower", MARCH_INDICES),
    ("solver.delivered_ratio", "ratio", "higher", MARCH_INDICES),
    ("model.residual_us_per_index.int", "us", "lower", MODEL),
    ("model.residual_us_per_index.frac", "us", "lower", MODEL),
    ("model.residual_indices", "count", "lower", MODEL),
    ("model.chain_us_per_index", "us", "lower", MODEL),
    ("model.seq_at_ns", "ns", "lower", "latency_p90_ms on hypotheses"),
    ("numerics.spow_ns", "ns", "lower", MARCH_INDICES),
    ("analysis.series_ns_per_term", "ns", "lower", HYPOTHESES),
    ("analysis.series_terms", "count", "lower", HYPOTHESES),
    ("analysis.certificate_us", "us", "lower", HYPOTHESES),
    ("analysis.certificates_valid_ratio", "ratio", "higher", HYPOTHESES),
    ("analysis.quick_exclusion_calls_per_certificate", "ratio", "lower", HYPOTHESES),
    ("analysis.classify_ms", "ms", "lower", SHORT_REQUESTS),
    ("analysis.profile_ms", "ms", "lower", SHORT_REQUESTS),
    ("analysis.bound_ms", "ms", "lower", SHORT_REQUESTS),
    ("trace.overhead_frac", "ratio", "lower", "nothing: the cost of tracing itself"),
)


class Span:
    __slots__ = ("id", "name", "parent", "request", "start", "end", "total", "child", "calls", "attrs", "hot")

    def __init__(self, span_id, name, parent, request, start):
        self.id, self.name, self.parent, self.request = span_id, name, parent, request
        self.start = self.end = start
        self.total = self.child = 0.0
        self.calls = 1
        self.attrs = {}
        self.hot = {}

    @property
    def self_time(self) -> float:
        return self.total - self.child

    def to_dict(self, origin: float) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent, "request": self.request,
                "start": self.start - origin, "end": self.end - origin, "calls": self.calls,
                "total": self.total, "self": self.self_time, **self.attrs}


class Tracer:
    """Records spans in memory; one instance per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.request: int | None = None
        self.equations: list = []

    def enter(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(len(self.spans), name, parent.id if parent else None, self.request,
                    time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def leave(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.total = span.end - span.start
        self.stack.pop()
        if self.stack:
            self.stack[-1].child += span.total

    def add_hot(self, name: str, start: float, end: float, attrs: dict) -> None:
        """Fold one call of a hot function into an aggregate child span."""
        parent = self.stack[-1]
        span = parent.hot.get(name)
        if span is None:
            span = Span(len(self.spans), name, parent.id, self.request, start)
            span.calls = 0
            span.attrs = attrs
            self.spans.append(span)
            parent.hot[name] = span
        span.end = end
        span.total += end - start
        span.calls += 1
        parent.child += end - start


def _is_frac(eq) -> bool:
    return any(e.denominator != 1 for e in (eq.alpha, eq.beta, eq.gamma))


def _solver_attrs(args, result) -> dict:
    eq, seed, horizon = args[:3]
    return {"steps": len(result.x) - len(seed), "horizon": horizon, "truncated": result.truncated}


def _residual_attrs(args, result) -> dict:
    from quasidiff.model import residual_range
    eq, x = args[:2]
    return {"indices": len(residual_range(eq, x)), "frac": _is_frac(eq)}


# module, attribute, span name, attributes taken from (args, result)
INSTRUMENTS = (
    ("quasidiff.cli", "cmd_solve", "cli.solve", None),
    ("quasidiff.cli", "cmd_verify", "cli.verify", None),
    ("quasidiff.cli", "cmd_classify", "cli.classify", None),
    ("quasidiff.cli", "cmd_check", "cli.check", None),
    ("quasidiff.cli", "cmd_list_examples", "cli.list_examples", None),
    ("quasidiff.cli", "write_csv", "cli.write_csv", lambda a, r: {"rows": len(a[1].x)}),
    ("quasidiff.cli", "build_equation", "document.build_equation", None),
    ("quasidiff.cli", "solve_forward", "solver.solve_forward", _solver_attrs),
    ("quasidiff.cli", "solve_inverse", "solver.solve_inverse", _solver_attrs),
    ("quasidiff.cli", "sample_trajectory", "solver.sample_trajectory", None),
    ("quasidiff.solver", "max_relative_residual", "model.max_relative_residual", _residual_attrs),
    ("quasidiff.solver", "chain_windows", "model.chain_windows", lambda a, r: {"indices": len(a[1])}),
    ("quasidiff.cli", "classify", "analysis.classify", None),
    ("quasidiff.cli", "component_sign_profile", "analysis.component_sign_profile", None),
    ("quasidiff.cli", "check_quick_exclusion", "analysis.check_quick_exclusion", None),
    ("quasidiff.analysis", "check_quick_exclusion", "analysis.check_quick_exclusion", None),
    ("quasidiff.cli", "check_almost_oscillation", "analysis.check_almost_oscillation", None),
    ("quasidiff.analysis", "check_series_divergence", "analysis.check_series_divergence",
     lambda a, r: {"terms": r.terms_summed}),
    ("quasidiff.cli", "sign_conflict_certificate", "analysis.sign_conflict_certificate",
     lambda a, r: {"valid": r.valid}),
    ("quasidiff.cli", "companion_bound_certificate", "analysis.companion_bound_certificate", None),
)
# Called once per verified index, so aggregated rather than recorded per call.
HOT_INSTRUMENTS = (("quasidiff.cli", "relative_residual", "model.relative_residual"),)


class Instrumented:
    """Context manager that rebinds the instrumented names and restores them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved = []

    def __enter__(self) -> Tracer:
        for module_name, attr, name, attrs_of in INSTRUMENTS:
            self._rebind(module_name, attr, self._span_wrapper(name, attrs_of))
        for module_name, attr, name in HOT_INSTRUMENTS:
            self._rebind(module_name, attr, self._hot_wrapper(name))
        return self.tracer

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()

    def _rebind(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self.saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def _span_wrapper(self, name: str, attrs_of):
        tracer = self.tracer

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = tracer.enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.leave(span)
                if attrs_of is not None:
                    span.attrs.update(attrs_of(args, result))
                if name == "document.build_equation" and len(tracer.equations) < 32:
                    tracer.equations.append(result)  # for the seq_at probe
                return result
            return wrapper
        return make

    def _hot_wrapper(self, name: str):
        tracer = self.tracer

        def make(fn):
            @functools.wraps(fn)
            def wrapper(eq, *args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(eq, *args, **kwargs)
                finally:
                    tracer.add_hot(name, start, time.perf_counter(), {"frac": _is_frac(eq)})
            return wrapper
        return make


# ---------------------------------------------------------------------------
# Direct-call probes
# ---------------------------------------------------------------------------


def _median_ns_per_call(run, calls: int, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / calls * 1e9


def seq_at_ns(equations) -> float:
    """Mean time of one coefficient evaluation over the workload's own equations."""
    seqs = [(getattr(eq, name).at, eq.n0) for eq in equations for name in ("p", "d", "a", "b", "c")]
    if not seqs:
        return 0.0
    span = 128  # generated tables cover at least this many indices from n0

    def run():
        for at, n0 in seqs:
            for n in range(n0, n0 + span):
                at(n)
    return _median_ns_per_call(run, len(seqs) * span)


def spow_ns(seed: int) -> float:
    """Mean time of one signed power over a seeded batch of integer and fractional exponents."""
    from quasidiff.numerics import OddRatio, spow
    rng = random.Random(f"spow:{seed}")
    exponents = [OddRatio(*e) for e in ((1, 1), (3, 1), (5, 1), (1, 3), (3, 5), (5, 3))]
    batch = [(rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-3.0, 3.0), rng.choice(exponents))
             for _ in range(4096)]

    def run():
        for x, e in batch:
            spow(x, e)
    return _median_ns_per_call(run, len(batch))


# ---------------------------------------------------------------------------
# Per-layer table
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Tracer, requests: int, report_bytes: int, seed: int,
                  overhead: float) -> dict[str, float]:
    """Every per-layer metric of LAYER_METRICS from a traced pass of ``requests`` requests.

    A layer the workload does not reach reads 0.
    """
    by_name = defaultdict(list)
    for span in tracer.spans:
        by_name[span.name].append(span)
    layer_self = defaultdict(float)
    for span in tracer.spans:
        layer_self[span.name.split(".")[0]] += span.self_time
    n_requests = max(1, requests)

    def mean_total(name: str, scale: float) -> float:
        spans = by_name[name]
        return sum(s.total for s in spans) / len(spans) * scale if spans else 0.0

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    def attr_sum(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    fwd, inv = by_name["solver.solve_forward"], by_name["solver.solve_inverse"]
    steps = attr_sum("solver.solve_forward", "steps") + attr_sum("solver.solve_inverse", "steps")
    horizon = attr_sum("solver.solve_forward", "horizon") + attr_sum("solver.solve_inverse", "horizon")
    residual = {True: [0.0, 0], False: [0.0, 0]}
    for s in by_name["model.max_relative_residual"]:
        residual[s.attrs["frac"]][0] += s.total
        residual[s.attrs["frac"]][1] += s.attrs["indices"]
    for s in by_name["model.relative_residual"]:
        residual[s.attrs["frac"]][0] += s.total
        residual[s.attrs["frac"]][1] += s.calls
    chain = by_name["model.chain_windows"]
    series = by_name["analysis.check_series_divergence"]
    certs = by_name["analysis.sign_conflict_certificate"]
    cert_requests = {s.request for s in certs}
    quick_in_cert = sum(1 for s in by_name["analysis.check_quick_exclusion"] if s.request in cert_requests)

    values = {
        "cli.self_ms": layer_self["cli"] / n_requests * 1e3,
        "cli.solve_ms": mean_total("cli.solve", 1e3),
        "cli.verify_ms": mean_total("cli.verify", 1e3),
        "cli.classify_ms": mean_total("cli.classify", 1e3),
        "cli.check_ms": mean_total("cli.check", 1e3),
        "cli.csv_us_per_row": ratio(sum(s.total for s in by_name["cli.write_csv"]),
                                    attr_sum("cli.write_csv", "rows"), 1e6),
        "cli.report_bytes": report_bytes / n_requests,
        "document.build_ms": mean_total("document.build_equation", 1e3),
        "document.builds": float(len(by_name["document.build_equation"])),
        "solver.us_per_step": ratio(sum(s.self_time for s in fwd),
                                    attr_sum("solver.solve_forward", "steps"), 1e6),
        "solver.inverse_us_per_step": ratio(sum(s.self_time for s in inv),
                                            attr_sum("solver.solve_inverse", "steps"), 1e6),
        "solver.steps": float(steps),
        "solver.truncations": float(sum(1 for s in fwd + inv if s.attrs.get("truncated"))),
        "solver.delivered_ratio": ratio(steps, horizon),
        "model.residual_us_per_index.int": ratio(residual[False][0], residual[False][1], 1e6),
        "model.residual_us_per_index.frac": ratio(residual[True][0], residual[True][1], 1e6),
        "model.residual_indices": float(residual[False][1] + residual[True][1]),
        "model.chain_us_per_index": ratio(sum(s.total for s in chain),
                                          attr_sum("model.chain_windows", "indices"), 1e6),
        "model.seq_at_ns": seq_at_ns(tracer.equations),
        "numerics.spow_ns": spow_ns(seed),
        "analysis.series_ns_per_term": ratio(sum(s.total for s in series),
                                             attr_sum("analysis.check_series_divergence", "terms"), 1e9),
        "analysis.series_terms": float(attr_sum("analysis.check_series_divergence", "terms")),
        "analysis.certificate_us": mean_total("analysis.sign_conflict_certificate", 1e6),
        "analysis.certificates_valid_ratio": ratio(attr_sum("analysis.sign_conflict_certificate", "valid"),
                                                   len(certs)),
        "analysis.quick_exclusion_calls_per_certificate": ratio(quick_in_cert, len(certs)),
        "analysis.classify_ms": mean_total("analysis.classify", 1e3),
        "analysis.profile_ms": mean_total("analysis.component_sign_profile", 1e3),
        "analysis.bound_ms": mean_total("analysis.companion_bound_certificate", 1e3),
        "trace.overhead_frac": overhead,
    }
    return values
