"""Seeded request generators for the three benchmark workloads.

A workload is an endless stream of *rounds*.  A round holds every request
template of the workload (which command on which equation) five times, once
per cycle, and the cycles are laid out as a stratified design: over a round a
template meets each of the five beta ratios once and each fifth of its
horizon range once, in a fixed pairing, and exports a CSV once and a JSON
report once.  The seed chooses everything else: the horizon inside its
stratum, the half-delay lambda, which cycles export, the certificate rng
seeds, the generated documents and the order of the requests inside a round.  So every seed gives
the same mix of cheap and expensive requests, and the figures of a run do not
depend on which seed it drew.

The program receives only the generated argv vectors and the JSON documents
written to the work directory during set-up.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Callable, Iterator

from oracle import EXAMPLES, INVERSE_DOCUMENT, Expect, seq_value

WORKLOADS = {
    "march": "long-horizon solve, verify and classify --solve (horizons 500-5000): "
             "model residual, solver step, chain materialization and CLI export",
    "hypotheses": "almost-oscillation series probes (50k-200k terms), sign-conflict certificates, "
                  "quick exclusion and companion bounds: sequence evaluation and analysis",
    "sweep": "many short requests (horizons 16-128) on bundled examples and generated documents: "
             "per-request fixed cost in cli, document and short-window residuals",
}

BETAS = ("1/1", "3/1", "1/3", "3/5", "5/3")
CYCLES_PER_ROUND = len(BETAS)
# Longest horizon a sweep request asks for; generated tables cover it.
SWEEP_MAX_HORIZON = 128
TABLE_MARGIN = 12
SWEEP_DOCUMENTS = 20
DOCUMENT_SLOTS = 4  # documents per command per cycle; 4 x 5 cycles = 20


@dataclass
class Request:
    """One CLI invocation plus what the oracle needs to judge its answer."""

    kind: str  # solve | verify | classify | classify-solve | check-* | list-examples
    argv: list[str]
    expect: Expect
    csv: str | None = None
    out: str | None = None
    horizon: int = 0


@dataclass
class Draw:
    """The values of one template in one cycle."""

    cycle: int
    beta: str
    lam: int
    u: float  # position in the template's range, stratified over a round
    export: str | None  # None | "csv" | "out"
    rng: random.Random

    def log_between(self, lo: float, hi: float) -> int:
        return round(math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * self.u))

    def between(self, lo: int, hi: int) -> int:
        return lo + round((hi - lo) * self.u)


def _example_args(name: str, draw: Draw) -> list[str]:
    if EXAMPLES[name].free_beta:
        return ["--beta", draw.beta, "--lambda", str(draw.lam)]
    return []


def _expect(name: str, draw: Draw, **extra) -> Expect:
    return Expect(equation=name, beta=draw.beta, lam=draw.lam, **extra)


class Workload:
    """Seeded, endless request stream of one workload."""

    def __init__(self, name: str, seed: int, workdir: str):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.templates: list[Callable[[Draw], Request]] = []
        getattr(self, f"_setup_{name}")(random.Random(f"{name}:{seed}:setup"))

    def draw(self, index: int, cycle: int) -> Draw:
        rng = random.Random(f"{self.name}:{self.seed}:{index}:{cycle}")
        step = cycle % CYCLES_PER_ROUND
        stratum = (2 * step + index) % CYCLES_PER_ROUND
        # The exported cycle moves on by one each round, so that no seed ties
        # an export to the same horizon stratum for a whole run.
        slot = random.Random(f"{self.name}:{self.seed}:export:{index}").randrange(CYCLES_PER_ROUND)
        slot += cycle // CYCLES_PER_ROUND
        export = {1: "csv", 2: "out"}.get((step + slot) % CYCLES_PER_ROUND)
        return Draw(cycle, BETAS[step], rng.randint(1, 3),
                    (stratum + rng.random()) / CYCLES_PER_ROUND, export, rng)

    def rounds(self) -> Iterator[list[Request]]:
        """Rounds of requests; the same seed always yields the same rounds."""
        number = 0
        while True:
            batch = [build(self.draw(index, number * CYCLES_PER_ROUND + step))
                     for step in range(CYCLES_PER_ROUND)
                     for index, build in enumerate(self.templates)]
            random.Random(f"{self.name}:{self.seed}:order:{number}").shuffle(batch)
            yield batch
            number += 1

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    # -- march --------------------------------------------------------------

    def _setup_march(self, rng: random.Random) -> None:
        inverse = self._path("inverse.json")
        with open(inverse, "w", encoding="utf-8") as fh:
            json.dump(INVERSE_DOCUMENT, fh)
        seed_values = ",".join(repr(2.0 ** -n) for n in range(1, 8))

        def exported(draw: Draw, req: Request) -> Request:
            if draw.export is not None:
                path = self._path("out.csv" if draw.export == "csv" else "out.json")
                setattr(req, draw.export, path)
                req.argv += [f"--{draw.export}", path]
            return req

        def example_request(command: str, name: str):
            def build(draw: Draw) -> Request:
                h = draw.log_between(500, 5000)
                argv = [command, name, "--horizon", str(h), *_example_args(name, draw)]
                if command == "classify":
                    argv.insert(2, "--solve")
                kind = "classify-solve" if command == "classify" else command
                return exported(draw, Request(kind, argv, _expect(name, draw), horizon=h))
            return build

        def inverse_request(draw: Draw) -> Request:
            h = draw.log_between(500, 5000)
            argv = ["solve", inverse, "--seed-values", seed_values, "--horizon", str(h)]
            return exported(draw, Request("solve", argv, Expect(equation="inverse"), horizon=h))

        for name in EXAMPLES:
            for command in ("solve", "verify", "classify"):
                self.templates.append(example_request(command, name))
        self.templates.append(inverse_request)

    # -- hypotheses ---------------------------------------------------------

    def _setup_hypotheses(self, rng: random.Random) -> None:
        def series(name: str):
            def build(draw: Draw) -> Request:
                h = draw.log_between(50_000, 200_000)
                argv = ["check", name, "--almost-oscillation", "--horizon", str(h),
                        *_example_args(name, draw)]
                return Request("check-almost", argv, _expect(name, draw), horizon=h)
            return build

        def certificate(name: str):
            def build(draw: Draw) -> Request:
                windows = draw.between(100, 400)
                argv = ["check", name, "--certificate", "--windows", str(windows),
                        "--rng-seed", str(draw.rng.randrange(1 << 30)), *_example_args(name, draw)]
                return Request("check-certificate", argv, _expect(name, draw, windows=windows))
            return build

        def exclusion(name: str):
            def build(draw: Draw) -> Request:
                argv = ["check", name, "--quick-exclusion", *_example_args(name, draw)]
                return Request("check-quick", argv, _expect(name, draw))
            return build

        def bound(name: str):
            def build(draw: Draw) -> Request:
                h = draw.log_between(50_000, 200_000)
                argv = ["check", name, "--bound", "--horizon", str(h)]
                return Request("check-bound", argv, Expect(equation=name), horizon=h)
            return build

        for name in EXAMPLES:
            self.templates += [series(name), certificate(name), exclusion(name)]
        self.templates += [bound("example-3"), bound("example-4")]

    # -- sweep --------------------------------------------------------------

    def _setup_sweep(self, rng: random.Random) -> None:
        docs = []
        for k in range(SWEEP_DOCUMENTS):
            doc, meta = manufacture_document(rng, k)
            path = self._path(f"doc-{k:02d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            docs.append((path, meta))

        def bundled(command: str, name: str):
            def build(draw: Draw) -> Request:
                if command == "check":
                    argv = ["check", name, "--quick-exclusion", *_example_args(name, draw)]
                    return Request("check-quick", argv, _expect(name, draw))
                h = draw.between(16, SWEEP_MAX_HORIZON)
                argv = [command, name, "--horizon", str(h), *_example_args(name, draw)]
                return Request(command, argv, _expect(name, draw), horizon=h)
            return build

        def document(command: str, slot: int):
            def build(draw: Draw) -> Request:
                # Over a round every document is used once per command.
                path, meta = docs[(DOCUMENT_SLOTS * (draw.cycle % CYCLES_PER_ROUND) + slot) % len(docs)]
                expect = Expect(equation="document", document=meta)
                if command == "check":
                    return Request("check-quick", ["check", path, "--quick-exclusion"], expect)
                h = draw.between(16, SWEEP_MAX_HORIZON)
                argv = [command, path, "--horizon", str(h), "--closed-form", meta["closed_form"]]
                return Request(command, argv, expect, horizon=h)
            return build

        self.templates.append(lambda draw: Request("list-examples", ["list-examples"],
                                                   Expect(equation="none")))
        for name in EXAMPLES:
            for command in ("classify", "verify", "check"):
                self.templates.append(bundled(command, name))
        for slot in range(DOCUMENT_SLOTS):
            for command in ("classify", "verify", "check"):
                self.templates.append(document(command, slot))


# ---------------------------------------------------------------------------
# Generated equation documents with a manufactured exact solution
# ---------------------------------------------------------------------------

INTEGER_RATIOS = ("1/1", "1/1", "3/1")
FRACTIONAL_RATIOS = ("1/3", "3/5", "5/3")


def closed_form_value(family: str, scale: float, ratio: float, n: int) -> float:
    """x_n of a '--closed-form family:scale,ratio' candidate, as the CLI defines it."""
    if family == "alternating":
        return (scale if n % 2 == 0 else -scale) * ratio ** n
    return scale * ratio ** n


def _ratio(text: str) -> tuple[int, int]:
    num, den = text.split("/")
    return int(num), int(den)


def _dec_spow(v: Decimal, e: str) -> Decimal:
    num, den = _ratio(e)
    if v == 0:
        return Decimal(0)
    mag = abs(v) ** num if den == 1 else abs(v) ** (Decimal(num) / Decimal(den))
    return mag if v > 0 else -mag


def _spow(v: float, e: str) -> float:
    num, den = _ratio(e)
    if v == 0.0 or (num == 1 and den == 1):
        return v
    mag = abs(v) ** num if den == 1 else abs(v) ** (num / den)
    return math.copysign(mag, v)


def _positive_sequence(rng: random.Random, table_len: int) -> dict:
    kind = rng.choice(("constant", "affine", "power", "geometric", "table"))
    if kind == "constant":
        return {"kind": "constant", "value": rng.uniform(0.5, 2.0)}
    if kind == "affine":
        return {"kind": "affine", "slope": rng.uniform(0.01, 0.1), "intercept": rng.uniform(0.5, 2.0)}
    if kind == "power":
        return {"kind": "power", "scale": rng.uniform(0.5, 2.0), "exponent": rng.choice((0.5, 1.0, -0.5))}
    if kind == "geometric":
        return {"kind": "geometric", "scale": rng.uniform(0.5, 2.0), "ratio": rng.uniform(1.0005, 1.005)}
    return _smooth_table(rng, table_len, 1.0, 0.3)


def _smooth_table(rng: random.Random, length: int, level: float, wobble: float) -> dict:
    phase, freq = rng.uniform(0, 2 * math.pi), rng.uniform(0.01, 0.05)
    values = [level * (1.0 + wobble * math.cos(freq * k + phase)) for k in range(length)]
    return {"kind": "table", "values": values, "start": 0, "out_of_range": "hold-last"}


def _companion_sequence(rng: random.Random, table_len: int) -> dict:
    kind = rng.choice(("constant", "constant", "affine", "power", "geometric", "table"))
    if kind == "constant":
        # Negative p sometimes, so that quick exclusion is refused as well.
        return {"kind": "constant", "value": rng.choice((rng.uniform(0.0, 0.5), -rng.uniform(0.05, 0.3)))}
    if kind == "affine":
        return {"kind": "affine", "slope": rng.uniform(0.0001, 0.001), "intercept": rng.uniform(0.0, 0.3)}
    if kind == "power":
        return {"kind": "power", "scale": rng.uniform(0.1, 0.5), "exponent": -1.0}
    if kind == "geometric":
        return {"kind": "geometric", "scale": rng.uniform(0.1, 0.5), "ratio": rng.uniform(0.9, 0.99)}
    return _smooth_table(rng, table_len, 0.25, 0.5)


def manufacture_document(rng: random.Random, k: int) -> tuple[dict, dict]:
    """An equation document built around a closed-form solution.

    The coefficients p, a, b, c and the nonlinearity are drawn at random; d
    is then the table that makes the drawn closed form an exact solution:
    d_n = -(t_{n+1} - t_n) / f(x_{n-tau}), with the chain of x computed in
    50-digit decimal arithmetic from the same doubles the program will use.
    Draws whose d is not of one sign (which the equation requires) are
    discarded.

    The k-th document of a set has properties that change its cost fixed by
    k rather than drawn, so every seed gets the same share of them: even k
    have integer chain exponents (odd k one fractional, also chosen by k),
    every fourth has a geometric rather than alternating solution, and every
    eighth has one table that errors past its end, a faithful description of
    finite data.
    Returns the document and the facts the oracle needs.
    """
    while True:
        doc, meta = _draw_document(rng, k)
        if doc is not None:
            return doc, meta


def _draw_document(rng: random.Random, k: int):
    delta = rng.choice((0, 1, 2, 2, 4))
    tau = rng.choice((-3, -2, -1, 1, 2, 3))
    n0 = max(1, delta, tau)
    family = "geometric" if k % 4 == 3 else "alternating"
    scale = rng.choice((1.0, -1.0)) * rng.uniform(0.5, 2.0)
    ratio = rng.choice((rng.uniform(0.85, 0.95), rng.uniform(1.05, 1.15)))
    exps = {name: rng.choice(INTEGER_RATIOS) for name in ("alpha", "beta", "gamma")}
    if k % 2:
        # The residual takes 2, 3 and 4 powers per index by alpha, beta and
        # gamma, so which exponent is fractional is fixed by k as well.
        j = k // 2
        exps[("alpha", "beta", "gamma")[(j // 3) % 3]] = FRACTIONAL_RATIOS[j % 3]
    f_exp = rng.choice(INTEGER_RATIOS + FRACTIONAL_RATIOS)
    f_scale = rng.uniform(0.5, 2.0)
    length = SWEEP_MAX_HORIZON + TABLE_MARGIN
    doc = {
        "exponents": exps, "tau": tau, "delta": delta, "n0": n0,
        "p": _companion_sequence(rng, length + 8),
        "a": _positive_sequence(rng, length + 8),
        "b": _positive_sequence(rng, length + 8),
        "c": _positive_sequence(rng, length + 8),
        "f": {"kind": "odd-power", "scale": f_scale, "exponent": f_exp},
    }

    def x(n: int) -> float:
        return closed_form_value(family, scale, ratio, n)

    d_values = []
    with localcontext() as ctx:
        ctx.prec = 50
        for n in range(n0, n0 + length):
            z = [Decimal(x(j)) + Decimal(seq_value(doc["p"], j)) * Decimal(x(j - delta))
                 for j in range(n, n + 5)]
            y = [Decimal(seq_value(doc["c"], j)) * _dec_spow(z[i + 1] - z[i], exps["gamma"])
                 for i, j in enumerate(range(n, n + 4))]
            w = [Decimal(seq_value(doc["b"], j)) * _dec_spow(y[i + 1] - y[i], exps["beta"])
                 for i, j in enumerate(range(n, n + 3))]
            t = [Decimal(seq_value(doc["a"], j)) * _dec_spow(w[i + 1] - w[i], exps["alpha"])
                 for i, j in enumerate(range(n, n + 2))]
            forcing = f_scale * _spow(x(n - tau), f_exp)
            if forcing == 0.0 or not math.isfinite(forcing):
                return None, None
            d_values.append(float(-(t[1] - t[0]) / Decimal(forcing)))
    signs = {(v > 0.0) - (v < 0.0) for v in d_values}
    if len(signs) != 1 or 0 in signs or not all(map(math.isfinite, d_values)):
        return None, None
    doc["d"] = {"kind": "table", "values": d_values, "start": n0, "out_of_range": "hold-last"}
    if k % 8 == 5:
        tables = [name for name in ("p", "a", "b", "c", "d") if doc[name]["kind"] == "table"]
        doc[rng.choice(tables)]["out_of_range"] = "error"
    error_tables = [name for name in ("p", "a", "b", "c", "d")
                    if doc[name]["kind"] == "table" and doc[name]["out_of_range"] == "error"]
    meta = {
        "closed_form": f"{family}:{scale!r},{ratio!r}",
        "family": family, "scale": scale, "ratio": ratio,
        "tau": tau, "delta": delta, "n0": n0,
        "p": doc["p"], "d_sign": signs.pop(), "f_scale": f_scale,
        "error_tables": error_tables,
    }
    return doc, meta
