import json
import math
import random

import pytest

import quasidiff as qd
from quasidiff import (
    Affine,
    Constant,
    NumericRangeError,
    PivotError,
    Provenance,
    SignumMap,
    Window,
    forward_seed_span,
    inverse_seed_span,
    sample_trajectory,
    solve_forward,
    solve_inverse,
)
from quasidiff.cli import main
from support import inverse_fixture, plain_equation, seeded_forward


def test_forward_zero_seed_gives_zero_trajectory():
    eq = plain_equation(delta=2, tau=1)
    lo, hi = forward_seed_span(eq)
    traj = solve_forward(eq, Window(lo, (0.0,) * (hi - lo + 1)), 30)
    assert all(v == 0.0 for v in traj.x.values)
    assert traj.provenance is Provenance.FORWARD
    assert qd.max_relative_residual(eq, traj.x)[0] == 0.0
    assert not traj.truncated


def test_forward_reproduces_decaying_closed_form():
    eq = qd.example_equation("example-3")
    form = qd.example_closed_form("example-3")
    traj = seeded_forward(eq, form, 60)
    for n in range(eq.n0, eq.n0 + 30):
        assert traj.x(n) == pytest.approx(form(n), rel=1e-6)
    assert qd.max_relative_residual(eq, traj.x)[0] <= 1e-9


def test_forward_residual_contract_on_random_equation():
    eq = plain_equation(delta=2, tau=1)
    rng = random.Random(17)
    lo, hi = forward_seed_span(eq)
    seed = Window(lo, tuple(rng.uniform(-1, 1) for _ in range(hi - lo + 1)))
    traj = solve_forward(eq, seed, 50)
    for n in qd.residual_range(eq, traj.x):
        assert qd.relative_residual(eq, traj.x, n) <= 1e-10


def test_forward_is_deterministic():
    eq = qd.example_equation("example-4")
    form = qd.example_closed_form("example-4")
    a = seeded_forward(eq, form, 40)
    b = seeded_forward(eq, form, 40)
    assert a.x.values == b.x.values
    assert a.chain[3].values == b.chain[3].values


def test_forward_seed_must_cover_span():
    eq = plain_equation(delta=2, tau=1)
    with pytest.raises(ValueError, match="seed must cover"):
        solve_forward(eq, Window(eq.n0, (1.0, 1.0)), 10)


def test_forward_seed_must_be_finite():
    eq = plain_equation(delta=2, tau=1)
    lo, hi = forward_seed_span(eq)
    values = [1.0] * (hi - lo + 1)
    values[2] = math.inf
    with pytest.raises(ValueError, match="finite"):
        solve_forward(eq, Window(lo, tuple(values)), 10)


def test_forward_rejects_inverse_regime():
    eq, form = inverse_fixture()
    lo, hi = inverse_seed_span(eq)
    with pytest.raises(ValueError, match="forward"):
        solve_forward(eq, Window.from_evaluator(form, lo, hi), 10)


def test_forward_rejects_advanced_neutral_term():
    eq = plain_equation(delta=-2, tau=0, n0=1)
    with pytest.raises(ValueError, match="delta"):
        solve_forward(eq, Window(-5, (1.0,) * 20), 10)


def test_forward_pivot_error_at_zero_neutral_divisor():
    eq = plain_equation(delta=0, tau=1, p=Constant(-1.0), n0=1)
    lo, hi = forward_seed_span(eq)
    with pytest.raises(PivotError) as err:
        solve_forward(eq, Window(lo, (1.0,) * (hi - lo + 1)), 10)
    assert err.value.index == eq.n0 + 4


def test_forward_overflow_truncates_with_marker():
    eq = qd.example_equation("example-1")
    form = qd.example_closed_form("example-1")
    traj = seeded_forward(eq, form, 1100)
    assert traj.truncated
    assert traj.truncation_index is not None
    assert traj.n_end == traj.truncation_index - 1
    assert traj.x.all_finite()
    assert 1000 <= traj.truncation_index <= 1030  # doubles give out near 2^1024
    assert qd.max_relative_residual(eq, traj.x)[0] <= 1e-9


def test_forward_warns_when_d_changes_sign_past_validation_sample():
    # positive on the 256-index validation prefix, flips later
    eq = plain_equation(delta=2, tau=1, d=Affine(-0.001, 0.2595), n0=2)
    lo, hi = forward_seed_span(eq)
    rng = random.Random(2)
    seed = Window(lo, tuple(rng.uniform(0.5, 1.0) for _ in range(hi - lo + 1)))
    traj = solve_forward(eq, seed, 280)
    assert any("one-sign" in w for w in traj.warnings)


def test_inverse_recovers_manufactured_solution():
    eq, form = inverse_fixture()
    lo, hi = inverse_seed_span(eq)
    assert (lo, hi) == (1, 7)
    traj = solve_inverse(eq, Window.from_evaluator(form, lo, hi), 40)
    assert traj.provenance is Provenance.INVERSE
    for n in range(traj.n_start, traj.n_end + 1):
        assert traj.x(n) == pytest.approx(form(n), rel=1e-8)
    for n in qd.residual_range(eq, traj.x):
        assert qd.relative_residual(eq, traj.x, n) <= 1e-9


def test_inverse_zero_seed_gives_zero_trajectory():
    eq, _ = inverse_fixture()
    lo, hi = inverse_seed_span(eq)
    traj = solve_inverse(eq, Window(lo, (0.0,) * (hi - lo + 1)), 20)
    assert all(v == 0.0 for v in traj.x.values)


def test_inverse_requires_invertible_nonlinearity():
    eq = plain_equation(tau=-7, delta=0, p=Constant(1.0), d=Constant(-16.0),
                        f=SignumMap(1.0), n0=1)
    lo, hi = inverse_seed_span(eq)
    with pytest.raises(ValueError, match="invertible"):
        solve_inverse(eq, Window(lo, (1.0,) * (hi - lo + 1)), 10)


def test_inverse_rejects_forward_regime():
    eq = plain_equation(delta=2, tau=1)
    with pytest.raises(ValueError, match="inverse"):
        solve_inverse(eq, Window(0, (1.0,) * 10), 10)


def test_inverse_zero_forcing_coefficient_is_a_numeric_error():
    eq = plain_equation(tau=-7, delta=0, p=Constant(1.0), d=Constant(1e-20), n0=1)
    lo, hi = inverse_seed_span(eq)
    with pytest.raises(NumericRangeError):
        solve_inverse(eq, Window.from_evaluator(lambda n: 2.0 ** -n, lo, hi), 10)


@pytest.mark.parametrize("d, f_scale", [(-1e-10, 1.0), (-1.0, 1e-10)])
def test_inverse_preimage_overflow_truncates(d, f_scale, tmp_path, capsys):
    # Alternating 1e300 seeds keep D t_n finite, but -D t_n / d_n overflows
    # (tiny d), or its preimage under f does (tiny f scale).
    doc = {"exponents": {"alpha": "1/1", "beta": "1/1", "gamma": "1/1"},
           "tau": -7, "delta": 0, "n0": 1,
           "p": {"kind": "constant", "value": 1.0}, "d": {"kind": "constant", "value": d},
           "a": {"kind": "constant", "value": 1.0}, "b": {"kind": "constant", "value": 1.0},
           "c": {"kind": "constant", "value": 1.0},
           "f": {"kind": "odd-power", "scale": f_scale, "exponent": "1/1"}}
    path = tmp_path / "eq.json"
    path.write_text(json.dumps(doc))
    seed = ",".join(("1e300", "-1e300")[n % 2] for n in range(7))
    code = main(["solve", str(path), "--horizon", "50", "--seed-values", seed])
    out = capsys.readouterr().out
    assert code == 0
    assert "x range: n = 1 .. 7" in out
    assert "warning: truncated (first non-finite value at n = 8)" in out


def test_sample_trajectory_materializes_components():
    eq = qd.example_equation("example-4")
    form = qd.example_closed_form("example-4")
    traj = sample_trajectory(eq, form, 0, 40)
    assert traj.provenance is Provenance.SAMPLED
    z, y, _, t = traj.chain
    # components satisfy the defining relations of the system
    for n in range(t.start, t.end):
        assert z[n] == pytest.approx(form(n) + 0.25 * form(n - 2), rel=1e-12)
        assert y[n] == pytest.approx(z[n + 1] - z[n], rel=1e-12)


def test_sample_trajectory_alternating_growth_pattern():
    # signum-forcing example with the alternating candidate: t alternates in
    # sign and grows in magnitude
    eq = qd.example_equation("example-1")
    form = qd.example_closed_form("example-1")
    traj = sample_trajectory(eq, form, 0, 30)
    t = traj.chain[3]
    for n in range(t.start, t.end):
        assert t[n] * t[n + 1] < 0.0
    mags = [abs(v) for v in t.values]
    assert all(a < b for a, b in zip(mags, mags[1:]))


def test_sample_trajectory_zero():
    eq = plain_equation()
    traj = sample_trajectory(eq, lambda n: 0.0, 0, 20)
    assert all(v == 0.0 for v in traj.x.values)


def test_sample_trajectory_rejects_non_finite():
    eq = qd.example_equation("example-1")
    form = qd.example_closed_form("example-1")
    with pytest.raises(NumericRangeError) as err:
        sample_trajectory(eq, form, 0, 1200)
    assert err.value.index == 1024


def test_sample_trajectory_rejects_empty_range():
    with pytest.raises(ValueError):
        sample_trajectory(plain_equation(), lambda n: 1.0, 5, 4)


def test_trajectory_surface():
    eq = plain_equation(delta=2, tau=1)
    traj = sample_trajectory(eq, lambda n: float(n), 0, 15)
    assert traj.n_start == 0 and traj.n_end == 15 and len(traj.x) == 16
    z, _, _, t = traj.chain
    assert z.start == 2 and t.end == z.end - 3
