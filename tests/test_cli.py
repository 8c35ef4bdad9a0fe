import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quasidiff as qd
from quasidiff import analysis, cli, model, solver
from quasidiff.cli import main, write_csv
from support import plain_equation, seeded_forward

SRC = Path(__file__).resolve().parent.parent / "src"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_examples(capsys):
    code, out, _ = run(["list-examples"], capsys)
    assert code == 0
    for name in qd.EXAMPLE_NAMES:
        assert name in out


@pytest.mark.parametrize("name, horizon", [
    ("example-1", 40), ("example-2", 80), ("example-3", 60), ("example-4", 80),
])
def test_verify_bundled_examples_pass(name, horizon, capsys):
    code, out, _ = run(["verify", name, "--horizon", str(horizon)], capsys)
    assert code == 0
    assert "PASS" in out


def test_verify_perturbed_forcing_fails(capsys):
    code, out, _ = run(["verify", "example-1", "--horizon", "40", "--perturb-d", "1.01"], capsys)
    assert code == 1
    assert "FAIL" in out


def test_verify_underflowing_closed_form_fails_at_the_same_index(capsys):
    # -1/2^n leaves the normal double range near n = 1075 (underflow-reported-as-valid)
    code, out, _ = run(["verify", "example-3", "--horizon", "1100"], capsys)
    assert code == 1
    assert "FAIL" in out
    assert "max relative residual: 2.000e+00 at n = 1075\n" in out


def test_verify_reports_the_first_index_of_a_tied_maximum(tmp_path, capsys):
    # x_n = 1 makes the chain vanish, so every relative residual is |d f(1)| / |d f(1)| = 1
    doc = qd.example_document("example-3")
    doc["d"] = {"kind": "constant", "value": -1.0}
    path = tmp_path / "eq.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(["verify", str(path), "--horizon", "20", "--closed-form", "geometric:1,1"], capsys)
    assert code == 1
    assert "max relative residual: 1.000e+00 at n = 2\n" in out


@pytest.mark.parametrize("f", [
    {"kind": "signum", "scale": 1.0},
    {"kind": "odd-power", "scale": 1.0, "exponent": "3/1"},
])
def test_verify_non_finite_candidate_is_a_numeric_failure(f, tmp_path, capsys):
    # x_1 = 1e300 * 1e10 is inf; the residual at n0 = 2 reads x from n = 0
    doc = qd.example_document("example-3")
    doc["d"] = {"kind": "constant", "value": -1.0}
    doc["f"] = f
    path = tmp_path / "eq.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["verify", str(path), "--horizon", "20", "--closed-form", "geometric:1e300,1e10"],
                         capsys)
    assert code == 3
    assert out == ""
    assert err == "numeric failure: closed form is not finite at n = 1: x = inf\n"


def test_verify_reports_the_first_non_finite_read_before_a_later_overflow(capsys):
    # 1e300 * 10**n is inf from n = 9 on, and 10.0 ** n raises from n = 309 on
    eq = qd.example_equation("example-3")
    reads = model.residual_reads(eq, range(eq.n0, eq.n0 + 400))
    assert reads.start < 9 and reads.stop > 309
    code, out, err = run(["verify", "example-3", "--horizon", "400", "--closed-form", "geometric:1e300,10"],
                         capsys)
    assert (code, out, err) == (3, "", "numeric failure: closed form is not finite at n = 9: x = inf\n")


def test_verify_evaluates_the_closed_form_once_per_read_index(monkeypatch, tmp_path, capsys):
    form = qd.example_closed_form("example-2")
    seen = []

    def counting(n):
        seen.append(n)
        return form(n)

    monkeypatch.setattr(cli, "example_closed_form", lambda name: counting)
    argv = ["verify", "example-2", "--horizon", "300", "--csv", str(tmp_path / "x.csv")]
    assert run(argv, capsys)[0] == 0
    eq = qd.example_equation("example-2")
    assert seen == list(model.residual_reads(eq, range(eq.n0, eq.n0 + 300)))


def test_verify_raised_overflow_escapes(capsys):
    # 2.0 ** n raises past n = 1023 (overflow-escapes-main); it is not a non-finite value
    with pytest.raises(OverflowError):
        main(["verify", "example-1", "--horizon", "1100"])


@pytest.mark.parametrize("key, value, shown", [
    ("p", float("nan"), "nan"), ("p", float("inf"), "inf"), ("d", float("-inf"), "-inf"),
])
def test_non_finite_document_literal_exits_2(key, value, shown, tmp_path, capsys):
    # example-3's document with a NaN or infinite coefficient used to PASS with residual 0
    doc = qd.example_document("example-3")
    doc[key] = {"kind": "constant", "value": value}
    path = tmp_path / "eq.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["verify", str(path), "--horizon", "20", "--closed-form", "geometric:-1,0.5"],
                         capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: $.{key}.value: expected a finite number, got {shown}\n"


def test_integer_literal_past_the_digit_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "eq.json"
    path.write_text(json.dumps(qd.example_document("example-3")).replace('"value": 0.25', '"value": ' + "7" * 4301))
    code, out, err = run(["solve", str(path), "--horizon", "20"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: $: not valid JSON: Exceeds the limit (4300 digits)")


def test_nesting_past_the_recursion_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(["solve", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: $: not valid JSON: maximum recursion depth exceeded")


SOLVE_TO_PIPE = ["solve", "example-4", "--horizon", "2000", "--csv", "/dev/stdout"]
FAILING_VERIFY_TO_PIPE = ["verify", "example-4", "--horizon", "2000", "--closed-form", "geometric:1,0.5",
                          "--csv", "/dev/stdout", "--out", "/dev/stdout"]


@pytest.mark.parametrize("argv, buffered, first_line, code", [
    (SOLVE_TO_PIPE, True, b"n,x,z,y,w,t\n", 0),
    (SOLVE_TO_PIPE, False, b"solve example-4 (solved-forward)\n", 0),
    (FAILING_VERIFY_TO_PIPE, True, b"{\n", 1),
    (FAILING_VERIFY_TO_PIPE, False, b"verify example-4: FAIL\n", 1),
], ids=["solve-buffered", "solve-unbuffered", "failing-verify-buffered", "failing-verify-unbuffered"])
def test_closed_pipe_keeps_the_exit_code_quietly(argv, buffered, first_line, code):
    # `... --csv /dev/stdout | head -1`: the reader leaves after one line, long before
    # the 2000-row CSV is written.  Block-buffered, the summary lines are still in
    # sys.stdout's buffer then, and the flush at exit meets the closed pipe.  The
    # command still ends with its own code: a failing verify exits 1, not 0.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-c", "from quasidiff.cli import entry; entry()", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == code
    assert first == first_line
    assert err == b""


@pytest.mark.parametrize("factor", ["inf", "-inf", "nan"])
def test_non_finite_perturb_d_exits_2(factor, capsys):
    code, out, err = run(["verify", "example-3", f"--perturb-d={factor}", "--horizon", "20"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: --perturb-d must be a finite factor, got {float(factor)!r}\n"


@pytest.mark.parametrize("argv", [
    ["verify", "example-3", "--closed-form", "geometric:nan,1"],
    ["classify", "example-3", "--closed-form", "alternating:inf,0.5"],
    ["verify", "example-3", "--closed-form", "geometric:1,1e400"],  # 1e400 parses to inf
])
def test_non_finite_closed_form_literal_exits_2(argv, capsys):
    code, out, err = run([*argv, "--horizon", "20"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: closed form {argv[-1]!r} needs a finite scale and ratio\n"


@pytest.mark.parametrize("options", [["--out", "MISSING"], ["--csv", "MISSING"],
                                     ["--out", "OUT", "--csv", "MISSING"]], ids=["--out", "--csv", "--out-then-csv"])
def test_unwritable_output_path_exits_2(options, tmp_path, capsys):
    path, report_path, alone_path = tmp_path / "missing" / "x.out", tmp_path / "x.json", tmp_path / "alone.json"
    paths = {"MISSING": str(path), "OUT": str(report_path)}
    for command in ("solve", "verify", "classify"):
        argv = [command, "example-3", "--horizon", "20"]
        code, out, err = run([*argv, *(paths.get(a, a) for a in options)], capsys)
        assert code == 2
        assert err.startswith("error: [Errno 2] No such file or directory")
        assert str(path) in err
        # the paths are opened after the answer is printed, so stdout holds the whole answer
        _, answer, _ = run(argv, capsys)
        assert answer and out == answer
        if "OUT" in options:  # --out is written before --csv, as a request without --csv writes it
            assert run([*argv, "--out", str(alone_path)], capsys)[0] == 0
            assert report_path.read_text() == alone_path.read_text()


def test_example_1_lambda_out_of_range_exits_2(capsys):
    code, out, err = run(["solve", "example-1", "--lambda", "-600"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: example-1 needs lambda >= -510, so that 2^(2-2*lambda) is a finite double; got -600\n"


def test_verify_file_document_equals_bundled(tmp_path, capsys):
    path = tmp_path / "eq.json"
    path.write_text(json.dumps(qd.example_document("example-3")))
    code_file, out_file, _ = run(
        ["verify", str(path), "--horizon", "30", "--closed-form", "geometric:-1,0.5"], capsys)
    code_name, out_name, _ = run(["verify", "example-3", "--horizon", "30"], capsys)
    assert code_file == code_name == 0
    # same document, same residual line
    assert out_file.splitlines()[2] == out_name.splitlines()[2]


def test_malformed_document_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ this is not json")
    code, _, err = run(["verify", str(path), "--horizon", "20"], capsys)
    assert code == 2
    assert "error" in err


def test_missing_field_exits_2(tmp_path, capsys):
    doc = qd.example_document("example-3")
    del doc["tau"]
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["verify", str(path), "--horizon", "20"], capsys)
    assert code == 2
    assert "tau" in err


def _document_file(tmp_path, name: str, **fields) -> str:
    """Example-3's document with `fields` set, or removed where the value is None, as a file."""
    doc = qd.example_document("example-3")
    for key, value in fields.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("fields, argv, override, message", [
    ({"n0": None}, ["check", "--quick-exclusion"], ["--delta", "4"], "$: missing field 'n0'"),
    ({"tau": None}, ["check", "--quick-exclusion"], ["--delta", "4"], "$: missing field 'tau'"),
    ({"n0": "2"}, ["check", "--quick-exclusion"], ["--delta", "4"], "$.n0: expected an integer, got '2'"),
    ({"d": None}, ["verify", "--closed-form", "geometric:-1,0.5"], ["--perturb-d", "2"], "$: missing field 'd'"),
    ({"d": 5}, ["verify", "--closed-form", "geometric:-1,0.5"], ["--perturb-d", "2"], "$.d: expected an object"),
    ({"d": {"kind": "table", "values": [1.0, "x"], "start": 0}}, ["verify", "--closed-form", "geometric:-1,0.5"],
     ["--perturb-d", "2"], "$.d.values[1]: expected a number, got 'x'"),
    ({"d": 5, "p": 5}, ["verify", "--closed-form", "geometric:-1,0.5"], ["--perturb-d", "2"],
     "$.p: expected an object"),  # p is read before d, with the option too
], ids=["no-n0", "no-tau", "string-n0", "no-d", "number-d", "bad-table-d", "bad-p-and-d"])
def test_an_override_on_a_malformed_document_reports_the_document(fields, argv, override, message, tmp_path,
                                                                 capsys):
    path = _document_file(tmp_path, "malformed.json", **fields)
    plain = run([argv[0], path, *argv[1:]], capsys)
    assert plain == (2, "", f"error: {message}\n")
    assert run([argv[0], path, *argv[1:], *override], capsys) == plain


@pytest.fixture
def equation_cache():
    cli._cached_equation.cache_clear()
    return cli._cached_equation


def test_identical_requests_build_once(equation_cache, monkeypatch, capsys):
    builds = []
    build = cli.build_equation
    monkeypatch.setattr(cli, "build_equation", lambda document: builds.append(document) or build(document))
    first = run(["verify", "example-1", "--horizon", "20"], capsys)
    second = run(["verify", "example-1", "--horizon", "20"], capsys)
    assert len(builds) == 1
    assert first == second and first[0] == 0


def test_a_rewritten_file_is_built_again(equation_cache, tmp_path, capsys):
    path = tmp_path / "eq.json"
    answers = {}
    for name in ("example-3", "example-4"):
        path.write_text(json.dumps(qd.example_document(name)))
        answers[name] = run(["check", str(path), "--quick-exclusion"], capsys)
        assert answers[name] == run(["check", name, "--quick-exclusion"], capsys)
    assert answers["example-3"][0] == 0 and answers["example-4"][0] == 1
    assert equation_cache.cache_info().currsize == 4


def test_a_failing_document_is_not_cached(equation_cache, tmp_path, capsys):
    path = short_table_document(tmp_path, "d", 1.0)
    answers = [run(["check", path, "--quick-exclusion"], capsys) for _ in range(3)]
    assert answers[0][0] == 2 and answers[0][2].startswith("error: $: invalid equation: sequence d")
    assert answers == [answers[0]] * 3
    assert equation_cache.cache_info().currsize == 0


def test_each_override_is_its_own_entry(equation_cache, capsys):
    requests = [[], ["--beta", "5/3"], ["--lambda", "2"], ["--delta", "4"]]
    for _ in range(2):
        for extra in requests:
            run(["check", "example-1", "--quick-exclusion", *extra], capsys)
        run(["verify", "example-1", "--horizon", "20", "--perturb-d", "2"], capsys)
    info = equation_cache.cache_info()
    assert (info.currsize, info.misses, info.hits) == (5, 5, 5)


def test_short_horizon_exits_2(capsys):
    code, _, err = run(["solve", "example-3", "--horizon", "4"], capsys)
    assert code == 2
    assert "at least 8" in err


@pytest.mark.parametrize("horizon", [0, -1])
def test_check_bound_short_horizon_exits_2(horizon, capsys):
    code, out, err = run(["check", "example-4", "--bound", "--horizon", str(horizon)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: horizon must be at least 8, got {horizon}\n"


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, option", [
    (["solve", "example-4", "--horizon", "16", "--eps-sign", "1e-3"], "--eps-sign"),
    (["check", "example-3", "--quick-exclusion", "--eps-residual", "1"], "--eps-residual"),
], ids=["solve", "check"])
def test_tolerance_options_are_unrecognized(argv, option, capsys):
    # The tolerances are fixed in quasidiff.numerics; no subcommand takes one.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_check_takes_no_csv(tmp_path, capsys):
    # check writes no CSV, so it takes no --csv path.
    with pytest.raises(SystemExit) as exc:
        main(["check", "example-1", "--quick-exclusion", "--csv", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --csv" in capsys.readouterr().err


def test_verify_reports_the_fixed_tolerance(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    code, out, _ = run(["verify", "example-4", "--horizon", "16", "--out", str(out_path)], capsys)
    assert code == 0
    assert "  tolerance: 1.0e-09\n" in out
    assert '"eps_residual": 1e-09,' in out_path.read_text()


def test_solve_writes_csv_schema(tmp_path, capsys):
    csv_path = tmp_path / "t.csv"
    code, out, _ = run(["solve", "example-3", "--horizon", "60", "--csv", str(csv_path)], capsys)
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n,x,z,y,w,t"
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == -1.0  # 17 significant digits round-trip
    # components are blank before the chain is defined, populated inside
    assert first[2] == ""
    row = dict(zip("n,x,z,y,w,t".split(","), lines[5].split(",")))
    assert row["z"] != "" and row["t"] != ""
    # the solved x column reproduces the closed form
    for line in lines[1:32]:
        cells = line.split(",")
        n, x = int(cells[0]), float(cells[1])
        assert x == pytest.approx(-(0.5 ** n), rel=1e-6)


def test_solve_overflow_is_success_with_warning(tmp_path, capsys):
    csv_path = tmp_path / "overflow.csv"
    out_path = tmp_path / "overflow.json"
    code, out, _ = run(["solve", "example-1", "--horizon", "1100",
                        "--csv", str(csv_path), "--out", str(out_path)], capsys)
    assert code == 0
    assert "warning: truncated" in out
    assert csv_path.read_text().splitlines()[-1].startswith("# truncated:")
    report = json.loads(out_path.read_text())
    assert report["truncated"] is True
    assert report["truncation_index"] is not None


def test_solve_pivot_failure_exits_3(tmp_path, capsys):
    doc = {
        "exponents": {"alpha": "1/1", "beta": "1/1", "gamma": "1/1"},
        "tau": 1, "delta": 0, "n0": 1,
        "p": {"kind": "constant", "value": -1.0},
        "d": {"kind": "constant", "value": 1.0},
        "a": {"kind": "constant", "value": 1.0},
        "b": {"kind": "constant", "value": 1.0},
        "c": {"kind": "constant", "value": 1.0},
        "f": {"kind": "odd-power", "scale": 1.0, "exponent": "1/1"},
    }
    path = tmp_path / "pivot.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["solve", str(path), "--horizon", "10",
                        "--seed-values", "1,1,1,1,1"], capsys)
    assert code == 3
    assert "numeric failure" in err


def test_solve_explicit_seed_values(capsys):
    # equals form is needed when the first value is negative
    code, out, _ = run(["solve", "example-3", "--horizon", "20",
                        "--seed-values=-1,-0.5,-0.25,-0.125,-0.0625,-0.03125"], capsys)
    assert code == 0
    assert "max relative residual" in out


def test_solve_reports_no_residual_when_no_index_is_computable(tmp_path, capsys):
    # tau = -7: the residual at n reads x up to n + 7, and a 1e300 seed
    # overflows the march at n = 8, so x on [1, 7] holds no residual index
    doc = {
        "exponents": {"alpha": "1/1", "beta": "3/5", "gamma": "5/3"},
        "tau": -7, "delta": 0, "n0": 1,
        "p": {"kind": "constant", "value": 1.0},
        "d": {"kind": "constant", "value": -16.0},
        "a": {"kind": "constant", "value": 1.0},
        "b": {"kind": "constant", "value": 1.0},
        "c": {"kind": "constant", "value": 1.0},
        "f": {"kind": "odd-power", "scale": 1.0, "exponent": "1/1"},
    }
    path, out_path = tmp_path / "eq.json", tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    seed = ",".join(("1e300", "-1e300")[n % 2] for n in range(7))
    code, out, _ = run(["solve", str(path), "--horizon", "200", "--seed-values", seed,
                        "--out", str(out_path)], capsys)
    assert code == 0
    assert "  x range: n = 1 .. 7\n" in out
    assert "  max relative residual: none (no index has its residual inside the x range)\n" in out
    assert json.loads(out_path.read_text())["max_rel_residual"] is None


def test_solve_zero_seed_reports_a_zero_residual(tmp_path, capsys):
    out_path = tmp_path / "out.json"
    code, out, _ = run(["solve", "example-3", "--horizon", "40", "--seed-values", "0,0,0,0,0,0",
                        "--out", str(out_path)], capsys)
    assert code == 0
    assert "  max relative residual: 0.000e+00\n" in out
    assert json.loads(out_path.read_text())["max_rel_residual"] == 0.0


def test_solve_report_carries_the_solved_window_residual(tmp_path, capsys):
    out_path = tmp_path / "out.json"
    code, out, _ = run(["solve", "example-4", "--horizon", "300", "--out", str(out_path)], capsys)
    assert code == 0
    eq = qd.example_equation("example-4")
    lo, hi = qd.forward_seed_span(eq)
    x = qd.solve_forward(eq, qd.Window.from_evaluator(qd.example_closed_form("example-4"), lo, hi), 300).x
    worst = qd.max_relative_residual(eq, x)[0]
    assert 0.0 < worst <= 1e-9
    assert json.loads(out_path.read_text())["max_rel_residual"] == worst
    assert f"  max relative residual: {worst:.3e}\n" in out


def test_solve_reaches_its_residual_through_the_solver_module(monkeypatch, capsys):
    # the name a rebinding of solver.max_relative_residual (a tracer's span) replaces is the one solve calls
    calls, residual = [], solver.max_relative_residual
    monkeypatch.setattr(solver, "max_relative_residual", lambda eq, x: calls.append(x) or residual(eq, x))
    code, out, _ = run(["solve", "example-3", "--horizon", "200"], capsys)
    assert code == 0 and "max relative residual:" in out
    assert len(calls) == 1


def test_classify_solve_runs_no_residual(monkeypatch, capsys):
    argv = ["classify", "--solve", "example-3", "--horizon", "200"]
    code, expected, _ = run(argv, capsys)
    assert code == 0

    def refuse(*_args):
        raise AssertionError("classify --solve computed a residual")

    monkeypatch.setattr(model, "_residual_parts", refuse)
    assert run(argv, capsys) == (0, expected, "")


def test_consecutive_calls_share_one_parser_and_no_options(tmp_path, capsys):
    assert cli.make_parser() is cli.make_parser()
    out_path = tmp_path / "out.json"
    argv = ["solve", "example-3", "--horizon", "20"]
    code, first, _ = run([*argv, "--out", str(out_path)], capsys)
    assert code == 0 and out_path.exists()
    out_path.unlink()
    code, second, _ = run(argv, capsys)
    assert code == 0 and second == first
    assert not out_path.exists()  # the second call did not inherit --out


def test_solve_wrong_seed_count_exits_2(capsys):
    code, _, err = run(["solve", "example-3", "--horizon", "20", "--seed-values", "1,2"], capsys)
    assert code == 2
    assert "seed" in err


def test_classify_closed_forms(capsys):
    code, out, _ = run(["classify", "example-4", "--horizon", "64"], capsys)
    assert code == 0
    assert "quickly-oscillatory" in out
    code, out, _ = run(["classify", "example-3", "--horizon", "64"], capsys)
    assert code == 0
    assert "nonoscillatory-negative" in out
    assert "tends to zero (evidence): True" in out


def test_classify_solved_trajectory(capsys):
    code, out, _ = run(["classify", "example-3", "--horizon", "40", "--solve"], capsys)
    assert code == 0
    assert "nonoscillatory-negative" in out


def test_classify_zero_seed_is_degenerate(capsys):
    code, out, _ = run(["classify", "example-3", "--horizon", "40", "--solve",
                        "--seed-values", "0,0,0,0,0,0"], capsys)
    assert code == 0
    assert "undetermined" in out
    assert "degenerate zero" in out


def test_check_quick_exclusion_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(["check", "example-1", "--quick-exclusion", "--out", str(out_path)], capsys)
    assert code == 1
    assert "conclusion: hypotheses hold, but no alternating solutions are excluded" in out
    report = json.loads(out_path.read_text())
    assert report["report"]["all_hold"] is True
    assert report["report"]["alternation_excluded"] is False
    code, out, _ = run(["check", "example-3", "--quick-exclusion", "--out", str(out_path)], capsys)
    assert code == 0
    assert ("conclusion: no quickly oscillatory solutions with positive even or positive odd terms"
            in out)
    assert json.loads(out_path.read_text())["report"]["alternation_excluded"] is True


REPORT_KEYS = ["title", "entries", "all_hold", "conclusion", "alternation_excluded"]
ENTRY_KEYS = ["condition", "status", "satisfied", "detail", "fail_index"]


@pytest.mark.parametrize("argv, section, keys, item_keys", [
    (["check", "example-4", "--quick-exclusion"], "report", REPORT_KEYS, ENTRY_KEYS),
    (["check", "example-4", "--almost-oscillation", "--horizon", "1000"], "report", REPORT_KEYS,
     ENTRY_KEYS),
    (["check", "example-4", "--bound", "--horizon", "64"], "certificate",
     ["L", "P", "K", "bound", "n_start", "n_end", "delta", "n1", "max_abs_x", "valid"], None),
    (["classify", "example-4", "--horizon", "64"], "component_profile",
     ["case", "components", "degenerate_zero", "max_abs_x", "x_tends_to_zero"],
     ["name", "sign_status", "monotone", "tends_to_zero"]),
], ids=["quick-exclusion", "almost-oscillation", "bound", "classify"])
def test_out_sections_keep_the_documented_key_order(argv, section, keys, item_keys, tmp_path, capsys):
    # The README's "Report field names" list, in order: a reordered result field would change it.
    out_path = tmp_path / "r.json"
    run([*argv, "--out", str(out_path)], capsys)
    body = json.loads(out_path.read_text())[section]
    assert list(body) == keys
    if item_keys is not None:
        items = body["entries" if section == "report" else "components"]
        assert list(items[0]) == item_keys


def test_check_quick_exclusion_delta_override_fails(capsys):
    code, out, _ = run(["check", "example-2", "--quick-exclusion", "--delta", "3"], capsys)
    assert code == 1
    assert "delta-even" in out and "FAIL" in out


def test_check_quick_exclusion_negative_f_fails_the_sign_condition(tmp_path, capsys):
    doc = qd.example_document("example-3")
    doc["f"] = {"kind": "odd-power", "scale": -1.0, "exponent": "1/1"}
    path = tmp_path / "eq.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(["check", str(path), "--quick-exclusion"], capsys)
    assert code == 1
    assert "  [FAIL] sign-condition (fails-at-index): x*f(x) > 0 for x != 0 does not hold\n" in out
    assert "conclusion: hypotheses not satisfied; no exclusion follows" in out


def test_check_almost_oscillation(capsys):
    code, out, _ = run(["check", "example-4", "--almost-oscillation", "--horizon", "20000"], capsys)
    assert code == 0
    assert "hypotheses hold" in out


def test_check_almost_oscillation_tiny_constant_d_diverges(tmp_path, capsys):
    doc = qd.example_document("example-4")
    doc["d"] = {"kind": "constant", "value": 1e-310}
    path = tmp_path / "eq.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(["check", str(path), "--almost-oscillation"], capsys)
    assert code == 0
    assert ("  [  ok] series-d-divergent (heuristic-evidence): heuristic-divergent: partial sum 1e-305 "
            "over 100000 terms from n = 2, tail ratio 3.333e-01\n") in out


@pytest.mark.parametrize("a, alpha", [(5e-324, "1/1"), (1e-300, "1/7")])
def test_check_almost_oscillation_overflowing_reciprocal_coefficient(a, alpha, tmp_path, capsys):
    # a**(-1/alpha) overflows: the term saturates to inf, as PowerLaw's does, instead of escaping main
    doc = qd.example_document("example-3")
    doc["a"] = {"kind": "constant", "value": a}
    doc["exponents"]["alpha"] = alpha
    path = tmp_path / "eq.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(["check", str(path), "--almost-oscillation", "--horizon", "1000"], capsys)
    assert code in (0, 1)
    assert ("  [  ok] series-A-divergent (heuristic-evidence): heuristic-divergent: partial sum inf "
            "over 1 terms from n = 2, tail ratio 1.000e+00\n") in out


def test_a_series_whose_terms_end_is_not_checkable(tmp_path, capsys):
    # d's table ends inside the horizon: the d series is not checkable, as a p that ends is, and the report goes on
    doc = qd.example_document("example-3")
    doc["d"] = {"kind": "table", "values": [1.0 - n for n in range(300)], "start": 0, "out_of_range": "error"}
    path = tmp_path / "eq.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["check", str(path), "--almost-oscillation", "--horizon", "1000"], capsys)
    assert (code, err) == (1, "")
    assert ("  [   ?] series-d-divergent (not-checkable): series d not evaluable across the horizon: "
            "table ends at 299, asked for 300\n") in out
    assert out.endswith("conclusion: hypotheses not confirmed: first failing condition 'series-d-divergent'\n")


def test_almost_oscillation_on_a_cached_equation_answers_as_on_a_fresh_one(equation_cache, capsys):
    # the later reports resume from the partial sums the earlier ones left on the cached equation
    argv = ["check", "example-3", "--almost-oscillation", "--horizon"]
    horizons = ("200000", "50000", "120000")
    warm = [run([*argv, h], capsys) for h in horizons]
    assert equation_cache.cache_info().misses == 1
    eq, _ = cli._load_equation(cli.make_parser().parse_args([*argv, "3"]))
    assert {200_000, 50_000, 120_000} <= eq._series_ends["A"].keys()
    fresh = []
    for h in horizons:
        equation_cache.cache_clear()
        fresh.append(run([*argv, h], capsys))
    assert warm == fresh


def test_check_certificates(capsys):
    code, out, err = run(["check", "example-1", "--certificate", "--windows", "50"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("check failed: no parity to certify: hypotheses hold, but no alternating")
    code, out, _ = run(["check", "example-3", "--certificate", "--windows", "50"], capsys)
    assert code == 0
    assert "certificates (even-positive): 50/50 valid" in out
    for parity in ("even", "odd"):
        code, out, _ = run(["check", "example-3", "--certificate", "--windows", "50",
                            "--parity", parity], capsys)
        assert code == 0
        assert f"certificates ({parity}-positive): 50/50 valid" in out


def test_check_certificate_runs_quick_exclusion_once(monkeypatch, capsys):
    calls = []
    original = analysis.check_quick_exclusion

    def spy(eq):
        calls.append(eq)
        return original(eq)

    monkeypatch.setattr(analysis, "check_quick_exclusion", spy)
    monkeypatch.setattr(cli, "check_quick_exclusion", spy)
    code, out, _ = run(["check", "example-3", "--certificate", "--windows", "5"], capsys)
    assert code == 0
    assert "certificates (even-positive): 5/5 valid" in out
    assert len(calls) == 1


def test_check_certificate_forced_parity_is_refused_when_hypotheses_fail(capsys):
    code, out, err = run(["check", "example-2", "--delta", "3", "--certificate", "--windows", "5",
                          "--parity", "even"], capsys)
    assert code == 1
    assert out == ""
    assert err == ("check failed: certificate refused: condition 'delta-even' fails "
                   "(delta = 3 is odd (structural))\n")


@pytest.mark.parametrize("name, extra, scale, ratio", [
    ("example-1", [], 1.0, 2.0),
    ("example-1", ["--beta", "3/5", "--lambda", "2"], 1.0, 2.0),
    ("example-2", [], 1.0, 1.0),
    ("example-2", ["--beta", "3/5", "--lambda", "2"], 1.0, 1.0),
    ("example-4", [], 0.1, 1.0),
])
def test_exact_alternating_solutions_are_never_excluded(name, extra, scale, ratio, capsys):
    # the equation is odd in x: the closed form and its negation both solve it
    for sign in (1.0, -1.0):
        code, out, _ = run(["verify", name, *extra, "--horizon", "60",
                            "--closed-form", f"alternating:{sign * scale},{ratio}"], capsys)
        assert code == 0 and "PASS" in out
    code, out, _ = run(["check", name, *extra, "--quick-exclusion"], capsys)
    assert code == 1
    assert "no alternating solutions are excluded" in out
    for parity in ("even", "odd"):
        code, out, _ = run(["check", name, *extra, "--certificate", "--windows", "20",
                            "--parity", parity], capsys)
        assert code == 1
        assert f"certificates ({parity}-positive): 0/20 valid" in out


@pytest.mark.parametrize("solve", [False, True])
def test_classify_growing_alternation_is_quick(solve, capsys):
    code, out, _ = run(["classify", "example-1", "--horizon", "200", *(["--solve"] if solve else [])],
                       capsys)
    assert code == 0
    assert "classify example-1: quickly-oscillatory" in out
    assert "positive parity: even-positive" in out


def test_check_certificate_non_excluded_parity_fails(capsys):
    code, out, _ = run(["check", "example-1", "--certificate", "--windows", "5",
                        "--parity", "even"], capsys)
    assert code == 1
    assert "0/5 valid" in out


@pytest.mark.parametrize("delta", [2, -14, -16, -20])
def test_check_certificate_windows_certify_16_indices(delta, monkeypatch, capsys):
    # a q window reaches as far as the residual reads x: an advanced neutral term reads 4 - delta ahead
    plans = []
    prepare = cli.prepare_certificate
    monkeypatch.setattr(cli, "prepare_certificate", lambda *args: plans.append(plan := prepare(*args)) or plan)
    argv = ["check", "example-3", f"--delta={delta}"]
    assert run([*argv, "--quick-exclusion"], capsys)[0] == 0
    code, out, _ = run([*argv, "--certificate", "--windows", "3"], capsys)
    assert (code, out) == (0, "sign-conflict certificates (even-positive): 3/3 valid on random positive q windows\n")
    assert [len(plan.certified) for plan in plans] == [16]


@pytest.mark.parametrize("argv, calls, line", [
    (["example-3", "--windows", "400"], 0, "(even-positive): 400/400 valid"),  # proved
    (["example-1", "--parity", "even", "--windows", "50"], 0, "(even-positive): 0/50 valid"),  # refuted
    # example-3 with p = 0: x + 0 is x in the bands, so it is proved
    (["ZERO-P", "--windows", "30"], 0, "(even-positive): 30/30 valid"),
    # example-3 with a = 1e250 n: its bands stay inside 2**+-1000, so it is proved
    (["A-1E250", "--windows", "30"], 0, "(even-positive): 30/30 valid"),
    # neither proved nor refuted: exit 1 with no report
    (["example-1", "--parity", "even", "--beta", "99/1"], 0, None),
    (["example-1", "--parity", "odd", "--windows", "1000000"], 0, "(odd-positive): 0/1000000 valid"),
])
def test_check_certificate_certifies_windows_only_where_unproved(argv, calls, line, tmp_path, monkeypatch, capsys):
    # calls: the windows a request certifies one by one; the band run decides every request, so there are none
    documents = {"ZERO-P": {"p": {"kind": "constant", "value": 0.0}},
                 "A-1E250": {"a": {"kind": "affine", "slope": 1e250, "intercept": 0.0}}}
    for key, fields in documents.items():
        (tmp_path / key).write_text(json.dumps({**qd.example_document("example-3"), **fields}))
    certified = []
    certificate = cli.sign_conflict_certificate
    monkeypatch.setattr(cli, "sign_conflict_certificate",
                        lambda *args: certified.append(cert := certificate(*args)) or cert)
    report = tmp_path / "out.json"
    code, out, err = run(["check", "--certificate", "--out", str(report),
                          *(str(tmp_path / arg) if arg in documents else arg for arg in argv)], capsys)
    assert len(certified) == calls
    if line is None:
        assert (code, out, report.exists()) == (1, "", False)
        assert err == ("check failed: certificate undecided (even-positive): the sign bands neither prove nor "
                       "refute a conflict for every q window in the box [1e-3, 1e3]\n")
        return
    valid, windows = line.split()[1].split("/")
    assert code == (0 if valid == windows else 1)
    assert f"sign-conflict certificates {line} on random positive q windows\n" == out
    assert json.loads(report.read_text())["valid_count"] == int(valid)


def test_classify_takes_a_closed_form_or_a_solve_not_both(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "example-3", "--solve", "--closed-form", "geometric:1,2", "--horizon", "20"])
    assert exc.value.code == 2
    assert "argument --closed-form: not allowed with argument --solve" in capsys.readouterr().err


def test_classify_seed_values_need_solve(capsys):
    code, out, err = run(["classify", "example-3", "--seed-values", "1,2,3", "--horizon", "20"], capsys)
    assert (code, out, err) == (2, "", "error: --seed-values applies only with --solve\n")


@pytest.mark.parametrize("windows", [0, -3])
def test_check_certificate_needs_a_window(windows, capsys):
    code, out, err = run(["check", "example-3", "--certificate", "--windows", str(windows)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: --windows must be at least 1, got {windows}\n"


def test_check_bound_certificate(capsys):
    code, out, _ = run(["check", "example-4", "--bound"], capsys)
    assert code == 0
    assert "valid" in out


@pytest.mark.parametrize("delta", [-2, -1, 0])
def test_check_bound_names_its_delta_precondition(delta, capsys):
    # x is reconstructed from z_n = x_n + p_n x_{n-delta}, which needs delta >= 1
    code, out, err = run(["check", "example-4", "--bound", f"--delta={delta}"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: bound reconstruction needs delta >= 1, got {delta}\n"


def test_beta_on_file_document_rejected(tmp_path, capsys):
    path = tmp_path / "eq.json"
    path.write_text(json.dumps(qd.example_document("example-2")))
    code, _, err = run(["verify", str(path), "--horizon", "20", "--beta", "3/1"], capsys)
    assert code == 2
    assert "bundled" in err


def test_check_bound_on_a_document_asks_for_a_bundled_example(tmp_path, capsys):
    # check takes no --closed-form, so the message must not ask for one
    path = tmp_path / "eq.json"
    path.write_text(json.dumps(qd.example_document("example-3")))
    code, out, err = run(["check", str(path), "--bound", "--horizon", "200"], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: check --bound samples the closed form of a bundled example; "
                   "a document equation has none\n")


def test_verify_requires_closed_form_for_files(tmp_path, capsys):
    path = tmp_path / "eq.json"
    path.write_text(json.dumps(qd.example_document("example-2")))
    code, _, err = run(["verify", str(path), "--horizon", "20"], capsys)
    assert code == 2
    assert "closed form" in err


@pytest.mark.parametrize("text, message", [
    ("{not json", "error: $: not valid JSON: "),
    ("[1, 2]", "error: $: top level must be an object\n"),
])
def test_undecodable_document_file_exits_2(text, message, tmp_path, capsys):
    path = tmp_path / "eq.json"
    path.write_text(text)
    code, _, err = run(["solve", str(path), "--seed-values", "1"], capsys)
    assert code == 2
    assert err.startswith(message)


def short_table_document(tmp_path, name, value):
    doc = qd.example_document("example-3")
    doc[name] = {"kind": "table", "values": [value] * 40, "start": doc["n0"], "out_of_range": "error"}
    path = tmp_path / f"short-{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["verify", "--horizon", "20", "--closed-form", "geometric:1,0.5"],
    ["check", "--quick-exclusion"],
])
def test_short_d_table_is_a_document_error(argv, tmp_path, capsys):
    path = short_table_document(tmp_path, "d", 1.0)
    code, _, err = run([argv[0], path, *argv[1:]], capsys)
    assert code == 2
    assert err.startswith("error: $: invalid equation: sequence d not evaluable on the "
                          "validation sample [2, 257]: table ends at 41, asked for 42")


def test_short_p_table_is_not_checkable_for_quick_exclusion(tmp_path, capsys):
    code, out, _ = run(["check", short_table_document(tmp_path, "p", 0.25), "--quick-exclusion"], capsys)
    assert code == 1
    assert "[   ?] p-nonnegative (not-checkable): p not evaluable on sample [2, 257]: table ends at 41" in out
    assert "conclusion: hypotheses not satisfied" in out


@pytest.mark.parametrize("argv, calls", [
    (["solve", "example-4", "--horizon", "40"], 0),
    (["solve", "example-4", "--horizon", "40", "--csv", "CSV"], 1),
    (["verify", "example-4", "--horizon", "40"], 0),
    (["verify", "example-4", "--horizon", "40", "--csv", "CSV"], 1),
    (["classify", "example-4", "--horizon", "40", "--solve", "--csv", "CSV"], 1),
    (["check", "example-4", "--bound", "--horizon", "64"], 1),
], ids=["solve", "solve-csv", "verify", "verify-csv", "classify-solve-csv", "check-bound"])
def test_chain_is_computed_where_it_is_read_once_per_request(argv, calls, monkeypatch, tmp_path, capsys):
    # classify's component profile and its CSV share one chain.
    seen = []
    chain_windows = solver.chain_windows
    monkeypatch.setattr(solver, "chain_windows", lambda eq, x: seen.append(x) or chain_windows(eq, x))
    code, _, _ = run([str(tmp_path / "t.csv") if a == "CSV" else a for a in argv], capsys)
    assert code == 0
    assert len(seen) == calls


def _chain_below_n0_document(tmp_path) -> str:
    # tau > delta: the chain starts at n0 - tau + delta = 0, where a = n**-1 is not evaluable,
    # while the march itself reads a only from n0 + 1 on.
    doc = {
        "exponents": {"alpha": "1/1", "beta": "1/1", "gamma": "1/1"},
        "tau": 1, "delta": 0, "n0": 1,
        "p": {"kind": "constant", "value": 0.0},
        "d": {"kind": "constant", "value": 1.0},
        "a": {"kind": "power", "scale": 1.0, "exponent": -1.0},
        "b": {"kind": "constant", "value": 1.0},
        "c": {"kind": "constant", "value": 1.0},
        "f": {"kind": "odd-power", "scale": 1.0, "exponent": "1/1"},
    }
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_chain_below_n0_fails_only_when_read(tmp_path, capsys):
    csv_path = tmp_path / "edge.csv"
    argv = ["solve", _chain_below_n0_document(tmp_path), "--horizon", "20",
            "--seed-values", "1,0.5,0.25,0.125,0.0625"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert "  x range: n = 0 .. 24\n" in out
    failure = "numeric failure: n**-1.0 not evaluable at n = 0\n"
    code, out, err = run([*argv, "--csv", str(csv_path)], capsys)
    assert (code, out, err) == (3, "", failure)
    assert not csv_path.exists()
    code, out, err = run(["classify", *argv[1:], "--solve"], capsys)
    assert (code, out, err) == (3, "", failure)


def test_failed_csv_leaves_no_out_report(tmp_path, capsys):
    # the chain is read before --out is written: a request that exits 3 leaves neither file
    out_path, csv_path = tmp_path / "edge.json.out", tmp_path / "edge.csv"
    argv = [_chain_below_n0_document(tmp_path), "--horizon", "20", "--seed-values", "1,0.5,0.25,0.125,0.0625",
            "--out", str(out_path), "--csv", str(csv_path)]
    for command in (["solve"], ["classify", "--solve"]):
        code, out, err = run([*command, *argv], capsys)
        assert (code, out, err) == (3, "", "numeric failure: n**-1.0 not evaluable at n = 0\n")
        assert not out_path.exists() and not csv_path.exists()


def _reference_csv(traj) -> str:
    """The CSV as a per-cell membership test on each chain window writes it."""
    lines = ["n,x,z,y,w,t"]
    for n, xv in traj.x.items():
        cells = [str(n), format(xv, ".17g")]
        cells += [format(win[n], ".17g") if n in win else "" for win in traj.chain]
        lines.append(",".join(cells))
    if traj.truncated:
        lines.append(f"# truncated: first non-finite value at n = {traj.truncation_index}")
    return "\n".join(lines) + "\n"


def _sampled_with_delta(delta):
    eq = plain_equation(delta=delta, p=qd.Constant(0.5))
    return qd.sample_trajectory(eq, lambda n: math.cos(n) * 1.5 ** -n, 3, 30)


@pytest.mark.parametrize("make", [
    lambda: _sampled_with_delta(2),
    lambda: _sampled_with_delta(0),
    lambda: _sampled_with_delta(-2),
    lambda: seeded_forward(qd.example_equation("example-1"), qd.example_closed_form("example-1"), 1100),
], ids=["delta-positive", "delta-zero", "delta-negative", "truncated"])
def test_csv_cells_line_up_with_the_chain_at_both_ends(make, tmp_path):
    # delta > 0 leaves the first rows' chain cells blank, delta < 0 the last rows' z cells.
    traj = make()
    path = tmp_path / "t.csv"
    write_csv(str(path), traj)
    text = path.read_text()
    assert text == _reference_csv(traj)
    rows = text.splitlines()
    assert rows[-1].startswith("# truncated:") is traj.truncated
    rows = rows[1:-1] if traj.truncated else rows[1:]
    assert (rows[0].split(",")[2] == "") is (traj.eq.delta > 0)
    assert (rows[-1].split(",")[2] == "") is (traj.eq.delta < 0)
