"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not configurable.
"""

import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import quasidiff as qd
from quasidiff import (
    Affine,
    Constant,
    Geometric,
    OddRatio,
    QuickParity,
    Table,
    VerdictKind,
    Window,
)
from quasidiff.cli import main
from support import seeded_forward

ROOT = Path(__file__).resolve().parent.parent


def _max_rel_residual(eq, form, count):
    return max(qd.relative_residual(eq, form, n) for n in range(eq.n0, eq.n0 + count))


def test_criterion_01_signum_example_residuals():
    started = time.perf_counter()
    eq1 = qd.example_equation("example-1", beta="1/1", lam=1)
    worst1 = _max_rel_residual(eq1, qd.example_closed_form("example-1"), 41)
    assert worst1 <= 1e-9
    eq3 = qd.example_equation("example-1", beta="3/1", lam=1)
    worst3 = _max_rel_residual(eq3, qd.example_closed_form("example-1"), 41)
    assert worst3 <= 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 01 PASS alternating 2^n candidate: beta=1 max rel residual "
          f"{worst1:.2e} <= 1e-9, beta=3 {worst3:.2e} <= 1e-8 ({elapsed:.2f}s)")


def test_criterion_02_identity_example_residuals():
    started = time.perf_counter()
    worsts = {}
    for beta in ("1/1", "5/3"):
        eq = qd.example_equation("example-2", beta=beta, lam=1)
        worsts[beta] = _max_rel_residual(eq, qd.example_closed_form("example-2"), 200)
        assert worsts[beta] <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 02 PASS unit alternating candidate over 200 indices: "
          f"beta=1 {worsts['1/1']:.2e}, beta=5/3 {worsts['5/3']:.2e} <= 1e-9 ({elapsed:.2f}s)")


def test_criterion_03_decaying_solution():
    eq = qd.example_equation("example-3")
    form = qd.example_closed_form("example-3")
    worst = _max_rel_residual(eq, form, 60)
    assert worst <= 1e-9
    verdict = qd.classify(qd.sample_trajectory(eq, form, eq.n0, eq.n0 + 59))
    assert verdict.kind is VerdictKind.NONOSC_NEGATIVE
    assert verdict.tends_to_zero
    print(f"\nACCEPTANCE 03 PASS -1/2^n fixture: max rel residual {worst:.2e} <= 1e-9 "
          f"over 60 indices; verdict {verdict.kind.value}, tends-to-zero evidence True")


def test_criterion_04_oscillatory_solution_and_hypotheses():
    eq = qd.example_equation("example-4")
    form = qd.example_closed_form("example-4")
    worst = _max_rel_residual(eq, form, 200)
    assert worst <= 1e-9
    verdict = qd.classify(qd.sample_trajectory(eq, form, eq.n0, eq.n0 + 199))
    assert verdict.kind is VerdictKind.QUICKLY_OSCILLATORY
    assert all(v == pytest.approx(0.1, rel=1e-12) for v in verdict.quick_q)
    report = qd.check_almost_oscillation(eq, horizon=100_000)
    assert report.all_hold
    for name in ("series-A-divergent", "series-B-divergent", "series-C-divergent",
                 "series-d-divergent"):
        assert "heuristic-divergent" in report.entry(name).detail
    print(f"\nACCEPTANCE 04 PASS (-1)^n/10 fixture: max rel residual {worst:.2e} <= 1e-9 "
          f"over 200 indices; quickly-oscillatory with q = 1/10; all hypotheses hold "
          f"(series heuristic-divergent at horizon 1e5)")


EXPONENT_CHOICES = [(1, 1), (3, 1), (5, 3)]


def _random_equation(rng: random.Random) -> tuple[qd.EquationSpec, Window]:
    delta = rng.choice([0, 1, 2, 3])
    tau = rng.choice([-2, -1, 0, 1, 2, 3])  # never the excluded min(-4, delta-4)

    def coefficient():
        kind = rng.randrange(3)
        if kind == 0:
            return Constant(rng.uniform(0.5, 2.0))
        if kind == 1:
            return Affine(rng.uniform(0.02, 0.2), rng.uniform(0.5, 1.5))
        return Geometric(rng.uniform(0.5, 1.5), rng.uniform(0.95, 1.05))

    sign = rng.choice([1.0, -1.0])
    if rng.random() < 0.5:
        d = Constant(sign * rng.uniform(0.02, 0.3))
    else:
        d = Geometric(sign * rng.uniform(0.02, 0.3), rng.uniform(0.9, 1.0))
    if rng.random() < 0.5:
        p = Constant(rng.uniform(0.0, 0.75))
    else:
        p = Geometric(rng.uniform(0.0, 0.75), rng.uniform(0.7, 0.95))
    alpha, beta, gamma = (OddRatio(*rng.choice(EXPONENT_CHOICES)) for _ in range(3))
    eq = qd.EquationSpec(alpha, beta, gamma, tau=tau, delta=delta, p=p, d=d,
                         a=coefficient(), b=coefficient(), c=coefficient(),
                         f=qd.OddPowerMap(1.0, OddRatio(1, 1)), n0=max(1, delta, tau))
    lo, hi = qd.forward_seed_span(eq)
    seed = Window(lo, tuple(rng.uniform(0.5, 1.5) for _ in range(hi - lo + 1)))
    return eq, seed


def test_criterion_05_solver_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(32)
    worst = 0.0
    for _ in range(100):
        eq, seed = _random_equation(rng)
        traj = qd.solve_forward(eq, seed, 50)
        for n in qd.residual_range(eq, traj.x):
            rel = qd.relative_residual(eq, traj.x, n)
            assert rel <= 1e-9
            worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 05 PASS 100 random equations x 50 steps: residual contract "
          f"holds at every interior index (worst {worst:.2e} <= 1e-9, {elapsed:.1f}s)")


def test_criterion_06_closed_form_reproduction():
    eq = qd.example_equation("example-3")
    form = qd.example_closed_form("example-3")
    traj = seeded_forward(eq, form, 60)
    worst = 0.0
    for n in range(eq.n0, eq.n0 + 30):
        worst = max(worst, abs(traj.x(n) - form(n)) / abs(form(n)))
    assert worst <= 1e-6
    print(f"\nACCEPTANCE 06 PASS exact-seeded recursion reproduces -1/2^n: "
          f"max rel deviation {worst:.2e} <= 1e-6 over 30+ steps")


def test_criterion_07_sign_conflict_certificates():
    # example-1: tau = 3 odd, d > 0, so (-1)^n 2^n and its negation are exact
    # solutions and no parity conflicts; example-3: tau = -3 odd, d < 0, so
    # both parities conflict at every index
    rng = random.Random(7571)
    for name, excluded in (("example-1", False), ("example-3", True)):
        eq = qd.example_equation(name)
        for _ in range(100):
            q = Window(eq.n0, tuple(10.0 ** rng.uniform(-3.0, 3.0) for _ in range(16)))
            for parity in QuickParity:
                cert = qd.sign_conflict_certificate(eq, q, parity)
                assert cert.chain_finite_nonzero
                assert all(cert.conflicts) if excluded else not any(cert.conflicts)
                assert cert.valid is excluded
    print("\nACCEPTANCE 07 PASS 100 random positive q windows per example: example-3 "
          "certificates valid at every index for both parities; example-1 not valid at any "
          "index for either parity")


def test_criterion_08_companion_bound_certificates():
    rng = random.Random(88)
    for _ in range(100):
        delta = rng.choice([1, 2, 5])
        p_limit = rng.uniform(-0.9, 0.9)
        envelope = (1.0 + abs(p_limit)) / 2.0
        L = rng.uniform(0.5, 4.0)
        n1 = 1
        count = 500
        p_values = tuple(
            p_limit + (envelope - abs(p_limit)) * 0.9 * rng.uniform(-1.0, 1.0) / (k + 1)
            for k in range(count)
        )
        z = Window(n1, tuple(rng.uniform(-L, L) for _ in range(count)))
        startup = Window(n1, tuple(rng.uniform(-2.0, 2.0) for _ in range(delta + 2)))
        cert = qd.companion_bound_certificate(
            z, Table(p_values, n1, "hold-last"), p_limit, delta, n1, startup)
        assert cert.valid
        assert cert.max_abs_x <= cert.K + cert.L / (1.0 - cert.P)
    print("\nACCEPTANCE 08 PASS 100 random bound instances (delta in {1,2,5}, 500 indices): "
          "max |x_n| <= K + L/(1-P) certified in every case")


def test_criterion_09_signed_power_properties():
    rng = random.Random(909)
    exponents = [OddRatio(1, 1), OddRatio(3, 1), OddRatio(5, 3), OddRatio(1, 3),
                 OddRatio(7, 5), OddRatio(9, 7)]
    for _ in range(10_000):
        e = rng.choice(exponents)
        x = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-6, 6)
        assert qd.spow(-x, e) == -qd.spow(x, e)
        back = qd.spow(qd.spow(x, e), e.reciprocal())
        assert back == pytest.approx(x, rel=1e-12)
    for num, den in ((2, 1), (1, 2), (4, 2), (0, 3), (-3, 1)):
        with pytest.raises(ValueError):
            OddRatio(num, den)
    print("\nACCEPTANCE 09 PASS signed power: oddness exact and round trip within 1e-12 "
          "on 10^4 random inputs; even/invalid exponent components rejected")


def test_criterion_10_cli_end_to_end(tmp_path, capsys):
    horizons = {"example-1": 41, "example-2": 200, "example-3": 60, "example-4": 200}
    for name, horizon in horizons.items():
        assert main(["verify", name, "--horizon", str(horizon)]) == 0
    assert main(["verify", "example-1", "--horizon", "40", "--perturb-d", "1.01"]) == 1

    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    assert main(["verify", str(bad), "--horizon", "20"]) == 2

    csv_path = tmp_path / "overflow.csv"
    out_path = tmp_path / "overflow.json"
    assert main(["solve", "example-1", "--horizon", "1100",
                 "--csv", str(csv_path), "--out", str(out_path)]) == 0
    stdout = capsys.readouterr().out
    assert "warning: truncated" in stdout
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n,x,z,y,w,t"
    assert lines[-1].startswith("# truncated:")
    assert json.loads(out_path.read_text())["truncated"] is True

    pivot_doc = dict(qd.example_document("example-3"))
    pivot_doc["delta"] = 0
    pivot_doc["tau"] = 1
    pivot_doc["n0"] = 1
    pivot_doc["p"] = {"kind": "constant", "value": -1.0}
    pivot_doc["d"] = {"kind": "constant", "value": 1.0}
    pivot = tmp_path / "pivot.json"
    pivot.write_text(json.dumps(pivot_doc))
    assert main(["solve", str(pivot), "--horizon", "10", "--seed-values", "1,1,1,1,1"]) == 3

    print("\nACCEPTANCE 10 PASS CLI contract: verify example-1..4 exit 0; perturbed d "
          "exits 1; malformed document exits 2; overflow run maps to 0 with warning and "
          "CSV truncation marker; pivot failure exits 3")


def test_reproduce_paper_examples_script_passes():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "reproduce_paper_examples.py"),
                           "--horizon", "50"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert sorted(line for line in lines if line.startswith("verify ")) == [
        f"verify example-{k}: PASS" for k in range(1, 5)]
    assert [line for line in lines if line.startswith("sign-conflict certificates")] == [
        f"sign-conflict certificates ({parity}-positive): 50/50 valid: decided for every q_n in [1e-3, 1e3] "
        "at n = 4 .. 19" for parity in ("even", "odd")]  # example-3 is the one example whose quick exclusion applies
    assert lines.count("  conclusion: hypotheses hold (heuristically for series)") == 2  # examples 3 and 4


def test_request_costs_script_times_one_hypotheses_round(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "request_costs.py"), "hypotheses", "1", "1"],
                          capture_output=True, text=True, env=env, timeout=120, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("hypotheses seed 1, 1 rounds: 70 requests, ")
    assert lines[1].split() == ["kind", "target", "count", "median", "ms", "total", "ms", "share"]
    rows = [line.split() for line in lines[2:-1]]
    assert ["check-almost", "example-3", "5"] in [row[:3] for row in rows]
    assert sum(int(row[2]) for row in rows) == 70
    # 70 loads of the round's distinct equations, each built on its first load
    assert re.fullmatch(r"equation cache: (\d+) hits, (\d+) misses, \2 entries \(maxsize 64\)", lines[-1])
    hits, misses = map(int, re.findall(r"\d+", lines[-1])[:2])
    assert hits + misses == 70
    assert list(tmp_path.iterdir()) == []  # the exports and documents lived in a temporary directory


def test_request_costs_script_stops_quietly_when_its_reader_leaves(tmp_path):
    # as `request_costs.py ... | head` does: the reader is gone before the first line is written
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, str(ROOT / "scripts" / "request_costs.py"), "sweep", "1", "1"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=tmp_path)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")
