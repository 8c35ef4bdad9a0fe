"""A seed must end exactly where the solver starts appending new x values."""

import pytest

import quasidiff as qd
from quasidiff.cli import main
from support import inverse_fixture


def test_forward_seed_running_past_the_span_is_rejected():
    eq = qd.example_equation("example-2")
    form = qd.example_closed_form("example-2")
    lo, hi = qd.forward_seed_span(eq)
    with pytest.raises(ValueError, match="seed must cover"):
        qd.solve_forward(eq, qd.Window.from_evaluator(form, lo, hi + 3), 50)


def test_forward_seed_starting_early_is_accepted():
    eq = qd.example_equation("example-2")
    form = qd.example_closed_form("example-2")
    lo, hi = qd.forward_seed_span(eq)
    traj = qd.solve_forward(eq, qd.Window.from_evaluator(form, lo - 2, hi), 30)
    assert qd.max_relative_residual(eq, traj.x)[0] <= 1e-12
    assert traj.x[hi + 1] == pytest.approx(form(hi + 1))


def test_inverse_seed_running_past_the_span_is_rejected():
    eq, form = inverse_fixture()
    lo, hi = qd.inverse_seed_span(eq)
    with pytest.raises(ValueError, match="seed must cover"):
        qd.solve_inverse(eq, qd.Window.from_evaluator(form, lo, hi + 1), 20)


def _seed_values(name: str, extra: int) -> str:
    eq = qd.example_equation(name)
    lo, hi = qd.forward_seed_span(eq)
    form = qd.example_closed_form(name)
    return ",".join(repr(form(n)) for n in range(lo, hi + 1 + extra))


@pytest.mark.parametrize("argv", [
    ["solve", "example-2"],
    ["classify", "example-2", "--solve"],
])
@pytest.mark.parametrize("extra", [-1, 3])
def test_cli_rejects_seed_of_wrong_length(argv, extra, capsys):
    code = main([*argv, "--horizon", "40", "--seed-values", _seed_values("example-2", extra)])
    assert code == 2
    assert "seed must supply" in capsys.readouterr().err


def test_cli_classify_solve_accepts_exact_seed(capsys):
    code = main(["classify", "example-2", "--solve", "--horizon", "40",
                 "--seed-values", _seed_values("example-2", 0)])
    assert code == 0
    assert "classify example-2" in capsys.readouterr().out
