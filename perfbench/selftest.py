"""Self-tests of the benchmark: python3 perfbench/selftest.py

They check that the seeded generator is deterministic, that the oracle marks
known-bad answers as failed instead of crashing, and that the metric names the
benchmark prints are the ones BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from oracle import DEFECTS, Outcome, judge  # noqa: E402
from workloads import WORKLOADS, Request, Workload, manufacture_document  # noqa: E402
from quasidiff.cli import main  # noqa: E402


def first_round(name: str, seed: int) -> tuple[list[list[str]], list[str]]:
    with tempfile.TemporaryDirectory() as workdir:
        batch = next(Workload(name, seed, workdir).rounds())
        argvs = [[a.replace(workdir, "<work>") for a in r.argv] for r in batch]
        docs = sorted(p.read_text() for p in Path(workdir).glob("*.json"))
    return argvs, docs


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_requests_and_documents(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(first_round(name, 7), first_round(name, 7))

    def test_other_seed_other_requests(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                self.assertNotEqual(first_round(name, 7)[0], first_round(name, 8)[0])

    def test_manufactured_alternating_solutions_are_never_excluded(self):
        # A document built around an alternating solution must not meet the
        # condition under which alternating solutions cannot exist.
        from oracle import alternation_excluded
        rng = random.Random(3)
        for k in range(24):
            _, meta = manufacture_document(rng, k)
            if meta["family"] == "alternating" and meta["delta"] % 2 == 0:
                self.assertFalse(alternation_excluded(meta["tau"], meta["d_sign"]), meta)


class PassTest(unittest.TestCase):
    def test_same_seed_same_attempted_and_failed(self):
        counts = []
        for _ in range(2):
            with tempfile.TemporaryDirectory() as workdir:
                workload = Workload("sweep", 5, workdir)
                result = run.run_pass(main, workload, run.rounds_for(workload, 0.0), run.PASS_CAP_S)
                counts.append((result.attempted, [f["request"] for f in result.failures]))
        self.assertEqual(counts[0], counts[1])
        self.assertGreaterEqual(counts[0][0], run.MIN_REQUESTS)


class OracleTest(unittest.TestCase):
    def judged(self, request: Request):
        outcome, _ = run.execute(main, request)
        return judge(request, outcome)

    def example(self, argv: list[str], kind: str, horizon: int = 0) -> Request:
        from oracle import Expect
        return Request(kind, argv, Expect(equation=argv[1]), horizon=horizon)

    def test_exact_closed_form_passes(self):
        verdict = self.judged(self.example(["verify", "example-4", "--horizon", "64"], "verify", 64))
        self.assertTrue(verdict.ok, verdict)
        self.assertEqual(verdict.delivered, 64)

    def test_overflow_escaping_main_is_a_named_failure(self):
        verdict = self.judged(self.example(["verify", "example-1", "--horizon", "1100"], "verify", 1100))
        self.assertFalse(verdict.ok)
        self.assertEqual(verdict.defect, "overflow-escapes-main")
        self.assertIn(verdict.defect, DEFECTS)

    def test_underflow_fail_is_a_named_failure(self):
        verdict = self.judged(self.example(["verify", "example-3", "--horizon", "1100"], "verify", 1100))
        self.assertFalse(verdict.ok)
        self.assertEqual(verdict.defect, "underflow-reported-as-valid")

    def test_wrong_classification_is_a_named_failure(self):
        verdict = self.judged(self.example(["classify", "example-2", "--solve", "--horizon", "200"],
                                           "classify-solve", 200))
        self.assertFalse(verdict.ok)
        self.assertEqual(verdict.defect, "parasitic-growth")

    def test_certificate_against_an_existing_solution_is_a_named_failure(self):
        # -x solves example-1 exactly, with positive odd terms, yet the
        # certificate claims that no such solution exists.
        import quasidiff as qd
        eq = qd.example_equation("example-1")
        form = qd.example_closed_form("example-1")
        self.assertEqual(max(qd.relative_residual(eq, lambda n: -form(n), n)
                             for n in range(eq.n0, eq.n0 + 40)), 0.0)
        from oracle import Expect
        request = Request("check-certificate", ["check", "example-1", "--certificate", "--windows", "5"],
                          Expect(equation="example-1", windows=5))
        verdict = self.judged(request)
        self.assertFalse(verdict.ok)
        self.assertEqual(verdict.defect, "parity-sign-error")

    def test_garbled_answer_fails_without_raising(self):
        request = self.example(["verify", "example-4", "--horizon", "64"], "verify", 64)
        for outcome in (Outcome(0, None, "nonsense", "", 0.0), Outcome(7, None, "", "", 0.0),
                        Outcome(None, "RuntimeError: boom", "", "", 0.0)):
            verdict = judge(request, outcome)
            self.assertFalse(verdict.ok)
            self.assertIsNone(verdict.defect)


class MetricNamesTest(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         [m[:3] for m in tracing.LAYER_METRICS])


if __name__ == "__main__":
    unittest.main()
