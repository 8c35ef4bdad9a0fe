"""The staircase kernel and the block-wise residual built on it: integers, and NaN where an index reads a value
that is not finite."""

import dataclasses
import json
import math
import random
from collections import Counter
from decimal import Context, Decimal, InvalidOperation, localcontext
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import quasidiff as qd
from quasidiff import model
from quasidiff.cli import main
from quasidiff.model import RESIDUAL_BLOCK, staircase
from quasidiff.solver import MARCH_BLOCK
from support import (ARITHMETIC_NAN, SPECIAL_VALUES, inverse_fixture, plain_equation, seeded_forward, sequences,
                     spy_coefficient_reads)


def per_index_max(eq, x):
    """max_relative_residual's contract, one relative_residual call per index."""
    worst, worst_at = 0.0, None
    for n in qd.residual_range(eq, x):
        r = qd.relative_residual(eq, x, n)
        if math.isfinite(r) and r > worst:
            worst, worst_at = r, n
    return worst, worst_at


@pytest.mark.parametrize("beta", ["1/1", "3/1", "3/5", "5/3"])
@pytest.mark.parametrize("name", qd.EXAMPLE_NAMES)
def test_block_residual_equals_per_index_maximum(name, beta):
    eq = qd.example_equation(name, beta=beta)
    start = eq.n0 - max(eq.delta, 0)
    x = qd.Window.from_evaluator(qd.example_closed_form(name), start, start + 640)
    assert len(qd.residual_range(eq, x)) > 2 * RESIDUAL_BLOCK
    assert qd.max_relative_residual(eq, x) == per_index_max(eq, x)


def test_block_residual_on_a_solved_window():
    eq = qd.example_equation("example-4")
    form = qd.example_closed_form("example-4")
    lo, hi = qd.forward_seed_span(eq)
    traj = qd.solve_forward(eq, qd.Window.from_evaluator(form, lo, hi), 700)
    assert qd.max_relative_residual(eq, traj.x)[0] == per_index_max(eq, traj.x)[0]


def spied_calls(monkeypatch, name):
    """The arguments after the equation of every later call of model.<name>, which still runs."""
    calls, original = [], getattr(model, name)

    def spy(eq_, *args):
        calls.append(args)
        return original(eq_, *args)

    monkeypatch.setattr(model, name, spy)
    return calls


def test_block_falls_back_index_by_index():
    # a = 2^n is infinite from n = 1024, which integers cannot hold: the indices that read it (a to n + 1)
    # are NaN, each block is one pass, and every index equals its one-index call
    eq = plain_equation(a=qd.Geometric(1.0, 2.0))
    x = qd.Window.from_evaluator(lambda n: 1.0 + 1e-12 * (n % 5), 700, 1300)
    indices = qd.residual_range(eq, x)
    rels = model.relative_residuals(eq, x, indices)
    assert [n for n, r in zip(indices, rels) if math.isnan(r)] == list(range(1023, indices.stop))
    assert [r.hex() for r in rels] == [qd.relative_residual(eq, x, n).hex() for n in indices]
    got = qd.max_relative_residual(eq, x)
    assert got == per_index_max(eq, x)
    assert got[1] is not None and got[1] < 1023


def test_block_residuals_equal_one_index_calls_through_the_fallback():
    eq = plain_equation(a=qd.Geometric(1.0, 2.0))
    x = qd.Window.from_evaluator(lambda n: 1.0 + 1e-12 * (n % 5), 700, 1300)
    indices = qd.residual_range(eq, x)
    got = [r.hex() for r in model.relative_residuals(eq, x, indices)]
    assert got == [qd.relative_residual(eq, x, n).hex() for n in indices]


@pytest.mark.parametrize("beta", ["1/1", "3/5", "1/3", "5/3"])
@pytest.mark.parametrize("name", qd.EXAMPLE_NAMES)
def test_verify_report_residuals_equal_one_index_calls(name, beta, tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", name, "--beta", beta, "--horizon", "600", "--out", str(out)]) == 0
    eq = qd.example_equation(name, beta=beta)
    form = qd.example_closed_form(name)
    indices = range(eq.n0, eq.n0 + 600)
    residuals = json.loads(out.read_text())["residuals"]
    assert [r["n"] for r in residuals] == list(indices)
    assert [r["rel_residual"].hex() for r in residuals] == \
        [qd.relative_residual(eq, form, n).hex() for n in indices]


def test_kernel_columns_agree_with_one_index_chain():
    eq = qd.example_equation("example-2", beta="5/3", lam=2)
    x = qd.Window.from_evaluator(qd.example_closed_form("example-2"), 0, 40)
    z, y, w, t = qd.chain_windows(eq, x)
    for n, t_n in t.items():
        one_index = staircase(eq, list(x.values), x.start, n, n + 3)
        assert tuple(column[0] for column in one_index) == (z[n], y[n], w[n], t_n)
    assert (z.start, z.end, y.end, w.end, t.end) == (4, 40, 39, 38, 37)


# ---------------------------------------------------------------------------
# The column kernel against the per-index formula
# ---------------------------------------------------------------------------


def reference_staircase(eq, xs, x0, lo, hi, num=float, power=model._xpow):
    """The staircase index by index: z by one comprehension, each later column by difference_column."""
    def difference_column(coeff, prev, e):
        return [num(coeff.at(lo + i)) * power(prev[i + 1] - prev[i], e) for i in range(len(prev) - 1)]

    z = [xs[j - x0] + num(eq.p.at(j)) * xs[j - eq.delta - x0] for j in range(lo, hi + 1)]
    y = difference_column(eq.c, z, eq.gamma)
    w = difference_column(eq.b, y, eq.beta)
    return z, y, w, difference_column(eq.a, w, eq.alpha)


def floor_log2(v: Fraction) -> int:
    """floor(log2(v)) for a Fraction v > 0."""
    e = v.numerator.bit_length() - v.denominator.bit_length()
    return e if Fraction(2) ** e <= v else e - 1


def floor_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for an integer n >= 0, one bit at a time."""
    r = 0
    for bit in reversed(range(n.bit_length() // k + 1)):
        if (r | 1 << bit) ** k <= n:
            r |= 1 << bit
    return r


def binary_power(v: Fraction, e) -> Fraction:
    """The signed power of the binary residual: v ** m exactly for e = m/1, else |v| rounded to odd at 152
    bits, raised to m, and its k-th root rounded to odd with its last place at 2**q, where q is chosen so
    that the root has 144 or 145 bits: q = (floor(log2(power)) + 1) // k - 144."""
    m, k = e.numerator, e.denominator
    if v == 0 or k == 1:
        return v ** m
    mag = abs(v)
    place = Fraction(2) ** (floor_log2(mag) - 151)
    head = math.floor(mag / place)
    head |= head != mag / place
    power = (head * place) ** m
    q = (floor_log2(power) + 1) // k - 144
    n = power / Fraction(2) ** (k * q)
    r = floor_root(math.floor(n), k)
    r |= r ** k != n
    return (r if v > 0 else -r) * Fraction(2) ** q


def rounded(v: Fraction) -> float:
    """v correctly rounded to a double, an infinity beyond the double range."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def staircase_reads(eq, n):
    """The indices of x, p, c, b and a that the staircase of the residual at n reads: x at n..n+4 and
    n-delta..n+4-delta (for |delta| > 5 not the indices between), p to n+4, c to n+3, b to n+2, a to n+1."""
    return {"x": {*range(n, n + 5), *range(n - eq.delta, n + 5 - eq.delta)},
            **{name: range(n, n + 5 - k) for k, name in enumerate("pcba")}}


def reference_parts(eq, x, lo, hi):
    """model._residual_parts index by index, from the x, coefficient and forcing values read over the whole
    range first: (NaN, NaN) where a value the index reads (`staircase_reads`, or the forcing at n) is not
    finite; else in Fractions with `binary_power`, the values of x that it does not read set to 0, each
    result correctly rounded."""
    forcing_f = {n: eq.d.at(n) * eq.f.apply(x(n - eq.tau)) for n in range(lo, hi + 1)}
    below, above = max(eq.delta, 0), max(-eq.delta, 0)
    xs = {m: float(x(m)) for m in range(lo - below, hi + 5 + above)}
    read = {name: {n: seq.at(n) for n in range(lo, hi + 5 - k)}
            for k, (name, seq) in enumerate(zip("pcba", (eq.p, eq.c, eq.b, eq.a)))}
    parts = []
    for n in range(lo, hi + 1):
        reads = staircase_reads(eq, n)
        values = [forcing_f[n], *(xs[m] for m in reads["x"]), *(read[name][m] for name in "pcba" for m in reads[name])]
        if not all(map(math.isfinite, values)):
            parts.append((math.nan, math.nan))
            continue
        x_n = [Fraction(xs[m]) if m in reads["x"] else Fraction(0) for m in range(n - below, n + 5 + above)]
        t = reference_staircase(eq, x_n, n - below, n, n + 4, Fraction, binary_power)[3]
        forcing = Fraction(forcing_f[n])
        parts.append((rounded(t[1] - t[0] + forcing), rounded(max(abs(t[1]), abs(t[0]), abs(forcing)))))
    return parts


def shown(fn, show=repr):
    """What fn() does: its nested lists of values through show, or the type, message and index it raises."""
    try:
        result = fn()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return "raises", type(exc), str(exc), getattr(exc, "index", None)
    return "returns", [[show(v) for v in item] for item in result]


FINITE_X = st.floats(-1e3, 1e3, allow_nan=False)
ANY_X = st.one_of(st.sampled_from(SPECIAL_VALUES), FINITE_X)
ODD_RATIOS = st.sampled_from([qd.OddRatio(1), qd.OddRatio(3), qd.OddRatio(1, 3), qd.OddRatio(5, 3)])
# random trees (often failing or non-finite somewhere in the range), and positive ones that are neither
COEFFICIENTS = st.one_of(sequences, st.builds(qd.Constant, st.floats(0.5, 3.0)),
                         st.builds(qd.Affine, st.floats(0.0, 1.0), st.floats(0.5, 3.0)))


@st.composite
def staircase_problems(draw, x_values=ANY_X, unit=st.just(False)):
    """An unvalidated stand-in equation with random coefficient trees, and x over the indices z reads; all
    three exponents are 1 where `unit` draws True."""
    exponents = [qd.OddRatio(1)] * 3 if draw(unit) else [draw(ODD_RATIOS) for _ in range(3)]
    eq = SimpleNamespace(p=draw(sequences), a=draw(COEFFICIENTS), b=draw(COEFFICIENTS), c=draw(COEFFICIENTS),
                         d=draw(COEFFICIENTS), f=qd.OddPowerMap(1.0, draw(ODD_RATIOS)),
                         alpha=exponents[0], beta=exponents[1], gamma=exponents[2],
                         delta=draw(st.integers(-2, 3)), tau=draw(st.integers(-3, 3)))
    lo = draw(st.integers(-3, 12))
    hi = lo + draw(st.integers(3, 30))
    x0 = lo - max(eq.delta, 0, eq.tau)
    values = draw(st.lists(x_values, min_size=hi + 6 + max(-eq.delta, -eq.tau, 0) - x0,
                           max_size=hi + 6 + max(-eq.delta, -eq.tau, 0) - x0))
    return eq, qd.Window(x0, tuple(values)), lo, hi


@given(staircase_problems())
@settings(max_examples=150, deadline=None)
def test_columns_equal_the_per_index_formula_in_both_number_types(problem):
    # -0.0, inf, NaN, tables that end or start inside the range, PowerLaw below min_index
    eq, x, lo, hi = problem
    xs, x0 = list(x.values), x.start
    assert shown(lambda: staircase(eq, xs, x0, lo, hi), float.hex) == \
        shown(lambda: reference_staircase(eq, xs, x0, lo, hi), float.hex)
    if all(map(math.isfinite, xs)):  # exact: Fractions and the residual's signed power
        fs = list(map(Fraction, xs))
        assert shown(lambda: staircase(eq, fs, x0, lo, hi, Fraction, binary_power), Fraction.as_integer_ratio) == \
            shown(lambda: reference_staircase(eq, fs, x0, lo, hi, Fraction, binary_power), Fraction.as_integer_ratio)


@given(staircase_problems(st.one_of(st.just(-0.0), FINITE_X), unit=st.booleans()), st.booleans())
@settings(max_examples=200, deadline=None)
def test_residual_parts_equal_the_per_index_formula(problem, callable_x):
    # f(inf) raises, so x stays finite here; the coefficients still reach inf, NaN and failures.  Half the
    # problems have unit exponents; an index that reads only finite values runs in integers.
    eq, x, lo, hi = problem
    if callable_x:
        x = x.__call__  # not a Window: read one index at a time
    assert shown(lambda: [model._residual_parts(eq, x, lo, hi)]) == shown(lambda: [reference_parts(eq, x, lo, hi)])


NON_UNIT_RATIOS = st.sampled_from([qd.OddRatio(3), qd.OddRatio(1, 3), qd.OddRatio(5, 3), qd.OddRatio(3, 5)])


@given(st.lists(FINITE_X, min_size=44, max_size=44),
       st.lists(st.tuples(st.sampled_from(["x", "p", "c", "b", "a", "d"]), st.integers(8, 34),
                          st.sampled_from([math.inf, -math.inf, ARITHMETIC_NAN])), min_size=1, max_size=3),
       st.tuples(ODD_RATIOS, NON_UNIT_RATIOS, ODD_RATIOS), st.integers(-7, 7), st.integers(-3, 3))
# at delta = 6 the residual at 21 reads x at 15..19 and 21..25, not x(20)
@example([math.sin(n) for n in range(44)], [("x", 20, math.inf)], (qd.OddRatio(1), qd.OddRatio(3), qd.OddRatio(1)),
         6, 0)
# at delta = -7 the block from 3 reads x(8) as x_n at n = 4..8, and as x_{n+7} at no index: that read ends before 3
@example([math.sin(n) for n in range(44)], [("x", 8, math.inf)], (qd.OddRatio(1), qd.OddRatio(3), qd.OddRatio(1)),
         -7, 3)
@settings(max_examples=150, deadline=None)
def test_non_unit_blocks_with_values_that_are_not_finite_equal_their_one_index_calls(xs, holes, exponents,
                                                                                    delta, tau):
    # inf and NaN mid-block in x, p, the coefficients or d: an index that reads one is NaN, and every other
    # index has the value it has without them, as a one-index call does.  f = sgn(x) is finite at inf and NaN.
    finite = {"x": xs, "p": [0.5 * math.cos(n) for n in range(44)], "d": [-1.0 - (n % 3) for n in range(44)],
              **{name: [1.0 + 0.25 * ((n * k) % 5) for n in range(44)] for k, name in ((2, "c"), (3, "b"), (7, "a"))}}
    columns = {name: list(values) for name, values in finite.items()}
    for name, n, value in holes:
        columns[name][n] = value

    def problem(columns):
        tables = {name: qd.Table(tuple(values), 0, "hold-last") for name, values in columns.items() if name != "x"}
        return SimpleNamespace(**tables, f=qd.SignumMap(1.0), alpha=exponents[0], beta=exponents[1],
                               gamma=exponents[2], delta=delta, tau=tau), qd.Window(0, tuple(columns["x"]))

    eq, x = problem(columns)
    indices = qd.residual_range(eq, x)
    block = model._residual_parts(eq, x, indices.start, indices.stop - 1)
    assert [repr(part) for part in block] == \
        [repr(part) for n in indices for part in model._residual_parts(eq, x, n, n)] == \
        [repr(part) for part in reference_parts(eq, x, indices.start, indices.stop - 1)]
    holed = {(name, n) for name, n, _ in holes}
    unholed = model._residual_parts(*problem(finite), indices.start, indices.stop - 1)
    for n, part, finite_part in zip(indices, block, unholed):
        reads = {(name, m) for name, ms in staircase_reads(eq, n).items() for m in ms} | {("d", n), ("x", n - tau)}
        if not reads & holed:
            assert repr(part) == repr(finite_part), n


@given(st.lists(FINITE_X, min_size=48, max_size=48), st.integers(10, 20), st.integers(28, 36))
@settings(max_examples=100, deadline=None)
def test_a_block_with_an_infinite_coefficient_equals_its_one_index_values(xs, flat_at, steep_at):
    # a is inf at flat_at and at steep_at.  With p = 0, t = a * D^3 x: x is flat around flat_at, so
    # D^3 x = 0 there, and D^3 x = 1 at steep_at.  Exact where no inf is read; else NaN, as a(flat_at) * 0
    # is, though a(steep_at) * 1 is an inf.
    xs[flat_at - 6:flat_at + 6] = [0.5] * 12
    xs[steep_at:steep_at + 4] = [0.0, 0.0, 0.0, 1.0]
    a = qd.Table(tuple(math.inf if n in (flat_at, steep_at) else 1.0 for n in range(48)), 0, "hold-last")
    eq = plain_equation(a=a)
    x = qd.Window(0, tuple(xs))
    indices = qd.residual_range(eq, x)
    got = model._residual_parts(eq, x, indices.start, indices.stop - 1)
    assert [repr(part) for part in got] == \
        [repr(part) for n in indices for part in model._residual_parts(eq, x, n, n)] == \
        [repr(part) for part in reference_parts(eq, x, indices.start, indices.stop - 1)]
    residuals = [r for r, _ in got]
    assert math.isnan(residuals[flat_at - 1 - indices.start]) and math.isnan(residuals[flat_at - indices.start])
    assert math.isnan(residuals[steep_at - 1 - indices.start]) and math.isnan(residuals[steep_at - indices.start])
    exact = [n for n, r in zip(indices, residuals) if math.isfinite(r)]
    assert exact == [n for n in indices if not {n, n + 1} & {flat_at, steep_at}]


def infinite_a_block():
    """A beta 3/1 equation whose a(20) is inf, read by the indices 19 and 20 alone, on an x that is flat around
    it, so that a(20) * D w = inf * 0 there; and the residual range of that x."""
    xs = [math.sin(n) for n in range(48)]
    xs[14:26] = [0.5] * 12
    a = qd.Table(tuple(math.inf if n == 20 else 1.0 for n in range(48)), 0, "hold-last")
    eq = plain_equation(beta=qd.OddRatio(3), a=a)
    x = qd.Window(0, tuple(xs))
    return eq, x, qd.residual_range(eq, x)


def test_a_non_unit_block_with_an_infinite_coefficient_is_one_call(monkeypatch):
    # the indices 19 and 20 are NaN, and those on either side stay in integers, in the block's one pass
    eq, x, indices = infinite_a_block()
    calls = spied_calls(monkeypatch, "_residual_parts")
    got = model.relative_residuals(eq, x, indices)
    monkeypatch.undo()
    assert [(lo, hi) for _, lo, hi in calls] == [(indices.start, indices.stop - 1)]
    assert [r.hex() for r in got] == [qd.relative_residual(eq, x, n).hex() for n in indices]
    assert [n for n, r in zip(indices, got) if math.isnan(r)] == [19, 20]


def test_a_block_that_reads_an_infinite_coefficient_reads_each_coefficient_once(monkeypatch):
    eq, x, indices = infinite_a_block()
    reads = Counter()
    spy_coefficient_reads(monkeypatch, eq, lambda name, start, stop: reads.update([name]))
    model.relative_residuals(eq, x, indices)
    assert reads == dict.fromkeys("dabcp", 1)


def test_an_infinite_x_is_nan_at_exactly_the_indices_that_read_it():
    # with delta = 2 the residual at n reads x from n - 2 to n + 4, so x(30) = inf is read by n = 26 .. 32,
    # and f = sgn(x) keeps the forcing finite
    xs = [math.sin(n) for n in range(60)]
    xs[30] = math.inf
    eq = plain_equation(beta=qd.OddRatio(5, 3), f=qd.SignumMap(1.0))
    x = qd.Window(0, tuple(xs))
    indices = qd.residual_range(eq, x)
    got = model.relative_residuals(eq, x, indices)
    assert [n for n, r in zip(indices, got) if math.isnan(r)] == list(range(26, 33))
    assert [r.hex() for r in got] == [qd.relative_residual(eq, x, n).hex() for n in indices]


def test_a_nan_forcing_over_a_zero_scale_is_a_nan_residual():
    # x = 0 makes every t zero, and d(20) = NaN makes the forcing NaN * f(0) = NaN at 20 alone: its residual
    # is NaN, not the inf of a non-zero residual over a zero scale, and the others are exact zeros
    eq = SimpleNamespace(p=qd.Constant(0.0), a=qd.Constant(1.0), b=qd.Constant(1.0), c=qd.Constant(1.0),
                         d=qd.Table(tuple(math.nan if n == 20 else 1.0 for n in range(40)), 0, "hold-last"),
                         f=qd.OddPowerMap(1.0, qd.OddRatio(1)), alpha=qd.OddRatio(1), beta=qd.OddRatio(1),
                         gamma=qd.OddRatio(1), delta=2, tau=1)
    x = qd.Window(0, (0.0,) * 40)
    indices = range(15, 25)
    got = model.relative_residuals(eq, x, indices)
    assert [r.hex() for r in got] == [qd.relative_residual(eq, x, n).hex() for n in indices]
    assert [repr(r) for r in got] == ["nan" if n == 20 else "0.0" for n in indices]


def test_a_block_whose_column_is_too_wide_for_a_power_is_halved(monkeypatch):
    # at beta 3/1, w = b (D y)^3, and D y_n is about 2^n: with a bound of 200 bits, a block is halved until
    # its D y is at most 200 bits wide or it is one index, and each index keeps its value
    eq = qd.example_equation("example-1", beta="3/1")
    indices = range(eq.n0, eq.n0 + 300)
    reads = model.residual_reads(eq, indices)
    x = qd.Window.from_evaluator(qd.example_closed_form("example-1"), reads.start, reads.stop - 1)
    calls = spied_calls(monkeypatch, "_residual_parts")
    expected = [r.hex() for r in model.relative_residuals(eq, x, indices)]
    assert [(lo, hi) for _, lo, hi in calls] == [(3, 258), (259, 302)]
    monkeypatch.setattr(model, "RESIDUAL_WIDTH", 200)
    assert [r.hex() for r in model.relative_residuals(eq, x, indices)] == expected
    assert [(lo, hi) for _, lo, hi in calls[2:8]] == [(3, 258), (3, 130), (131, 258), (131, 194), (195, 258),
                                                     (195, 226)]
    assert any(lo == hi for _, lo, hi in calls)


def test_a_block_that_is_not_exact_is_redone_index_by_index():
    # x = 2^-n solves the inverse fixture exactly; c(150) = inf is read by the indices 147 to 150, which are
    # NaN, and every index that does not read it stays exact, though the pass runs over the whole block.
    eq, form = inverse_fixture()
    eq = dataclasses.replace(eq, c=qd.Table(tuple(math.inf if n == 150 else 1.0 for n in range(400)), 0, "hold-last"))
    indices = range(100, 100 + RESIDUAL_BLOCK)
    reads = model.residual_reads(eq, indices)
    x = qd.Window.from_evaluator(form, reads.start, reads.stop - 1)
    rels = model.relative_residuals(eq, x, indices)
    assert [r.hex() for r in rels] == [qd.relative_residual(eq, x, n).hex() for n in indices]
    assert [n for n, r in zip(indices, rels) if r != 0.0] == [147, 148, 149, 150]
    assert all(map(math.isnan, rels[47:51]))


def closed_form_parts(name, beta, horizon, lam=1):
    """The example's equation, and _residual_parts block by block over the horizon on its closed form."""
    eq = qd.example_equation(name, beta=beta, lam=lam)
    indices = range(eq.n0, eq.n0 + horizon)
    reads = model.residual_reads(eq, indices)
    x = qd.Window.from_evaluator(qd.example_closed_form(name), reads.start, reads.stop - 1)
    parts = [part for lo in indices[::RESIDUAL_BLOCK]
             for part in model._residual_parts(eq, x, lo, min(lo + RESIDUAL_BLOCK, indices.stop) - 1)]
    return eq, x, indices, parts


@pytest.mark.parametrize("name, lam, horizon", [("example-2", 2, 847), ("example-1", 1, 330)])
def test_integer_exponent_residuals_are_the_exact_staircase_rounded_once(name, lam, horizon):
    # at beta 3/1, every (r, scale) pair is the exact rational value correctly rounded.  Example-1's d
    # overflows doubles from n = 337, so its horizon stops before.
    eq, x, indices, parts = closed_form_parts(name, "3/1", horizon, lam)
    assert all(map(math.isfinite, x.values))
    forcing = [eq.d.at(n) * eq.f.apply(x(n - eq.tau)) for n in indices]
    assert all(map(math.isfinite, forcing))
    t = reference_staircase(eq, list(map(Fraction, x.values)), x.start, indices.start, indices.stop + 3,
                            Fraction, lambda v, e: v ** e.numerator)[3]
    exact = [(rounded(t[i + 1] - t[i] + Fraction(f)), rounded(max(abs(t[i + 1]), abs(t[i]), abs(Fraction(f)))))
             for i, f in enumerate(forcing)]
    assert [repr(part) for part in parts] == [repr(part) for part in exact]


def assert_within_2_to_the_minus_140_of_100_digits(eq, x, indices, parts):
    """Each (r, scale) of parts is the correct rounding of a value within 2^-140 of the scale of the residual
    that a 100-digit staircase computes, its powers by `reference_power`, and scale that of its scale."""
    def power(v, e):
        return reference_power(abs(v), e).copy_sign(v) if v else Decimal(0)

    with localcontext(Context(prec=100)):
        t = staircase(eq, list(map(Decimal, x.values)), x.start, indices.start, indices.stop + 3, Decimal, power)[3]
        forcing = [Decimal(eq.d.at(n) * eq.f.apply(x(n - eq.tau))) for n in indices]
        digits100 = [(t[i + 1] - t[i] + f, max(abs(t[i + 1]), abs(t[i]), abs(f))) for i, f in enumerate(forcing)]
    for n, (r, scale), (r100, scale100) in zip(indices, parts, digits100):
        reach = Fraction(scale100) / 2 ** 140
        assert float(Fraction(r100) - reach) <= r <= float(Fraction(r100) + reach), n
        assert scale == float(scale100), n


@pytest.mark.parametrize("beta", ["1/3", "3/5", "5/3"])
@pytest.mark.parametrize("name", ["example-1", "example-2"])
def test_fractional_exponent_residuals_are_within_2_to_the_minus_140_of_100_digits(name, beta):
    # each power is rounded once at 144 bits
    assert_within_2_to_the_minus_140_of_100_digits(*closed_form_parts(name, beta, 600))


def test_a_fractional_power_rounds_below_2_to_the_minus_140_where_the_residual_cancels():
    # x_n = 3 * 8^-n and a_n = 2^n give t_n = a_n (D^3 x_n)^(1/3) = -(7/8) 3^(1/3) at every n, and no forcing:
    # the residual D t_n is 0, and what is left of it is the rounding of the powers.  Their values differ by
    # powers of 8, so the 144-bit roots of all of them have the same bits, and r is exactly 0.
    eq = SimpleNamespace(p=qd.Constant(0.0), c=qd.Constant(1.0), b=qd.Constant(1.0), a=qd.Geometric(1.0, 2.0),
                         d=qd.Constant(0.0), f=qd.OddPowerMap(1.0, qd.OddRatio(1)), alpha=qd.OddRatio(1, 3),
                         beta=qd.OddRatio(1), gamma=qd.OddRatio(1), delta=0, tau=0)
    x = qd.Window.from_evaluator(lambda n: 3.0 * 8.0 ** -n, 0, 300)
    indices = range(0, 296)
    parts = model._residual_parts(eq, x, indices.start, indices.stop - 1)
    assert {r for r, _ in parts} == {0.0}
    assert_within_2_to_the_minus_140_of_100_digits(eq, x, indices, parts)


def test_verify_example_3_has_an_exact_zero_residual(capsys):
    # x = -2^-n solves example 3 exactly, and its unit-exponent residual is computed without rounding
    assert main(["verify", "example-3", "--horizon", "1000"]) == 0
    assert "  max relative residual: 0.000e+00 at n = 2\n" in capsys.readouterr().out


@pytest.mark.parametrize("inf_at, raised", [(7, InvalidOperation), (9, model.SequenceDomainError),
                                            (11, model.SequenceDomainError)])
def test_failing_coefficient_raises_where_the_per_index_loop_does(inf_at, raised):
    # c ends at n = 8; z_n = 2 x_n is inf at inf_at and inf_at + 1, so a Decimal y, which traps, meets
    # inf - inf at n = inf_at: before the missing c(9) when inf_at < 9, after it otherwise.  The exponents
    # are 1: the power is v, or 0 for a zero.
    eq = SimpleNamespace(p=qd.Constant(1.0), delta=0, c=qd.Table((1.0,) * 6, start=3),
                         b=qd.Constant(1.0), a=qd.Constant(1.0),
                         alpha=qd.OddRatio(1), beta=qd.OddRatio(1), gamma=qd.OddRatio(1))
    xs = [math.inf if n in (inf_at, inf_at + 1) else 1.0 for n in range(3, 20)]
    with localcontext() as ctx:
        ctx.prec = 40
        ds = [Decimal(v) for v in xs]
        got = shown(lambda: staircase(eq, ds, 3, 3, 19, Decimal))
        assert got == shown(lambda: reference_staircase(eq, ds, 3, 3, 19, Decimal, lambda v, e: v or Decimal(0)))
    assert got[1] is raised
    expected = ("raises", model.SequenceDomainError, "table ends at 8, asked for 9", 9)
    assert shown(lambda: staircase(eq, xs, 3, 3, 19)) == expected


def test_one_index_ranges_and_the_fallback_block_equal_the_reference():
    eq = qd.example_equation("example-2", beta="5/3")
    x = qd.Window.from_evaluator(qd.example_closed_form("example-2"), 0, 60)
    for n in (eq.n0, 30, 50):
        assert shown(lambda: [model._residual_parts(eq, x, n, n)]) == shown(lambda: [reference_parts(eq, x, n, n)])
        assert model.relative_residuals(eq, x, range(n, n + 1)) == [qd.relative_residual(eq, x, n)]
    # a = 2^n is infinite from n = 1024: the indices of the block [900, 1155] from 1023 on are NaN
    eq = plain_equation(a=qd.Geometric(1.0, 2.0))
    x = qd.Window.from_evaluator(lambda n: 1.0 + 1e-12 * (n % 5), 700, 1300)
    got = model._residual_parts(eq, x, 900, 1155)
    assert shown(lambda: [got]) == shown(lambda: [reference_parts(eq, x, 900, 1155)])
    assert math.isfinite(got[0][0]) and not math.isfinite(got[-1][0])


def test_a_block_whose_every_index_reads_an_infinite_value_runs_no_pass(monkeypatch):
    # a = 2^n is inf from n = 1024, and the residual at n reads a to n + 1: every index of [1100, 1355] reads
    # it, and of [900, 1155] those from 1023 on
    eq = plain_equation(a=qd.Geometric(1.0, 2.0))
    x = qd.Window.from_evaluator(lambda n: 1.0 + 1e-12 * (n % 5), 700, 1400)
    for lo, hi, passes in ((1100, 1355, 0), (900, 1155, 1)):
        calls = spied_calls(monkeypatch, "_parts")
        got = model._residual_parts(eq, x, lo, hi)
        monkeypatch.undo()
        assert len(calls) == passes
        assert shown(lambda: [got]) == shown(lambda: [reference_parts(eq, x, lo, hi)])


def reference_power(mag: Decimal, e: qd.OddRatio) -> Decimal:
    """mag ** e through a 120-digit decimal power, rounded once to the caller's context."""
    with localcontext() as ctx:
        ctx.prec = 120
        power = mag ** (Decimal(e.numerator) / Decimal(e.denominator))
    return +power


@pytest.mark.parametrize("m, k", [(1, 3), (3, 5), (5, 3), (7, 9), (9, 7), (1, 5)])
def test_binary_fractional_power_is_rounded_to_odd_at_144_bits(m, k):
    # (v / 2^s)^(m/k) from integers of 1 to 400 bits on scales from 2^200 to 2^-600: the 144-bit round to odd
    # of binary_power, within 2^-142 of the 120-digit power
    rng = random.Random(10 * m + k)
    for _ in range(300):
        v, s = (rng.getrandbits(rng.randint(1, 400)) or 1) * rng.choice((1, -1)), rng.randint(-200, 600)
        r, q = model._root_pow(v, s, m, k)
        assert r * Fraction(2) ** q == binary_power(Fraction(v) / Fraction(2) ** s, qd.OddRatio(m, k)), (v, s)
        with localcontext() as ctx:
            ctx.prec = 120
            exact = Fraction(reference_power(abs(v) * Decimal(2) ** -s, qd.OddRatio(m, k)))
        assert 2 ** 143 <= abs(r) < 2 ** 145
        assert abs(abs(r) * Fraction(2) ** q - exact) < exact / 2 ** 142, (v, s)


EXPONENTS = st.sampled_from([qd.OddRatio(1), qd.OddRatio(3), qd.OddRatio(3, 5), qd.OddRatio(5, 3),
                             qd.OddRatio(1, 3), qd.OddRatio(7, 9)])


@given(
    values=st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=12, max_size=300),
    delta=st.integers(min_value=-3, max_value=4),
    tau=st.integers(min_value=-3, max_value=3),
    beta=EXPONENTS,
    gamma=EXPONENTS,
    p=st.floats(min_value=-2.0, max_value=2.0),
    c=st.floats(min_value=0.1, max_value=10.0),
)
@settings(max_examples=60, deadline=None)
def test_block_residual_property(values, delta, tau, beta, gamma, p, c):
    eq = plain_equation(delta=delta, tau=tau, beta=beta, gamma=gamma,
                        p=qd.Constant(p), c=qd.Constant(c))
    x = qd.Window(eq.n0, tuple(values))
    assert qd.max_relative_residual(eq, x) == per_index_max(eq, x)


# ---------------------------------------------------------------------------
# The march: one loop over a rolling chain frontier
# ---------------------------------------------------------------------------


def replay_inverse(eq, seed, horizon, eps_sign=1e-12):
    """The inverse march recomputing the staircase on [n, n+4] at every step,
    then x_{n-tau} = f^{-1}(-D t_n / d_n): (x values, truncated, warnings)."""
    xs, d_sign, warnings = list(seed.values), model.sign_of(eq.d.at(eq.n0)), []
    for n in range(eq.n0, eq.n0 + horizon):
        d_n = eq.d.at(n)
        if not warnings and model.sign_of(d_n) != d_sign:
            warnings.append(f"one-sign assumption on d violated at n = {n}")
        if abs(d_n) <= eps_sign:
            raise qd.NumericRangeError(f"d({n}) = {d_n!r} too close to zero to invert through", index=n)
        t = staircase(eq, xs, seed.start, n, n + 4)[3]
        dt = t[1] - t[0]
        if not math.isfinite(dt):
            return xs, True, warnings
        x_new = eq.f.invert(-dt / d_n)
        if not math.isfinite(x_new):
            return xs, True, warnings
        xs.append(x_new)
    return xs, False, warnings


def replay_forward(eq, seed, horizon, eps_sign=1e-12):
    """The forward march index by index through at(): t_{n+1} = t_n - d_n f(x_{n-tau}), then w, y and z
    unwound through a_{n+1}, b_{n+2} and c_{n+3} with spow's inverse powers, then x_{n+4} from z_{n+4}:
    (x values, truncated, warnings)."""
    xs, n0 = list(seed.values), eq.n0
    z, y, w, t = staircase(eq, xs, seed.start, n0, n0 + 3)
    if not all(map(math.isfinite, [*z, *y, *w, *t])):
        raise qd.NumericRangeError("seed chain not finite", index=n0)
    frontier = [t[0], w[1], y[2], z[3]]
    d_sign, warnings = model.sign_of(eq.d.at(n0)), []
    for n in range(n0, n0 + horizon):
        d_n = eq.d.at(n)
        if not warnings and model.sign_of(d_n) != d_sign:
            warnings.append(f"one-sign assumption on d violated at n = {n}")
        frontier[0] = frontier[0] - d_n * eq.f.apply(xs[n - eq.tau - seed.start])
        if not math.isfinite(frontier[0]):
            return xs, True, warnings
        for k, (seq, e) in enumerate(((eq.a, eq.alpha), (eq.b, eq.beta), (eq.c, eq.gamma)), 1):
            coeff = seq.at(n + k)
            try:
                ratio = frontier[k - 1] / coeff
            except ZeroDivisionError:
                raise qd.NumericRangeError(f"division by zero coefficient at n = {n + k}", index=n + k) from None
            if not math.isfinite(ratio):
                return xs, True, warnings
            frontier[k] = frontier[k] + qd.spow(ratio, e.reciprocal())
            if not math.isfinite(frontier[k]):
                return xs, True, warnings
        p_n = eq.p.at(n + 4)
        if eq.delta == 0:
            pivot = 1.0 + p_n
            if abs(pivot) <= eps_sign * max(1.0, abs(p_n)):
                raise qd.PivotError(n + 4, pivot)
            x_new = frontier[3] / pivot
        else:
            x_new = frontier[3] - p_n * xs[n + 4 - eq.delta - seed.start]
        if not math.isfinite(x_new):
            return xs, True, warnings
        xs.append(x_new)
    return xs, False, warnings


def outcome(run):
    """(x values as float.hex, and the rest of what the run returns), or the exception it raised."""
    try:
        xs, *rest = run()
    except (ValueError, ArithmeticError, qd.QuasidiffError) as exc:
        return type(exc).__name__, str(exc)
    return [v.hex() for v in xs], *rest


def assert_inverse_matches_replay(eq, seed, horizon):
    def solved():
        traj = qd.solve_inverse(eq, seed, horizon)
        assert traj.truncation_index == (traj.n_end + 1 if traj.truncated else None)
        return traj.x.values, traj.truncated, list(traj.warnings)

    assert outcome(solved) == outcome(lambda: replay_inverse(eq, seed, horizon))


@pytest.mark.parametrize("horizon", [200, 2000])
def test_inverse_march_equals_replay_on_corpus_document(horizon):
    # the 2^-n equation of scripts/report_corpus.py
    eq, form = inverse_fixture()
    lo, hi = qd.inverse_seed_span(eq)
    assert_inverse_matches_replay(eq, qd.Window.from_evaluator(form, lo, hi), horizon)


FRACTIONAL_EXPONENTS = st.sampled_from([qd.OddRatio(1), qd.OddRatio(3), qd.OddRatio(1, 3),
                                        qd.OddRatio(3, 5), qd.OddRatio(5, 3)])
POSITIVE_AFFINE = st.builds(qd.Affine, st.floats(0.0, 0.5), st.floats(0.1, 10.0))
HORIZONS = st.one_of(st.integers(1, 60), st.integers(250, 400))  # the longer ones pass the validation sample


def ending_table(n0: int, count: int, tail=()) -> qd.Table:
    """Positive values on [n0, n0 + count), then the tail: an error past it, or its last value held."""
    return qd.Table(tuple(1.0 + (m % 7) / 8 for m in range(count)) + tuple(tail), n0, "hold-last" if tail else "error")


@st.composite
def march_coefficients(draw, n0, horizon):
    """A coefficient that is positive on the validation sample [n0, n0 + 255], as an equation's a, b, c and d
    must be, and may then, inside the horizon, raise (a Table that ends, 1 / (k - n)), reach zero (k - n),
    turn NaN, or overflow (a ratio of 1e3 from n = 103) or underflow (0.1**n) on the way."""
    k = n0 + model.VALIDATION_SAMPLE + draw(st.integers(0, max(horizon - model.VALIDATION_SAMPLE, 0)))
    return draw(st.one_of(
        st.builds(qd.Constant, st.floats(0.5, 3.0)), POSITIVE_AFFINE,
        st.builds(qd.Geometric, st.floats(0.5, 3.0), st.sampled_from((0.1, 0.5, 1.5, 1e3))),
        st.just(ending_table(n0, k - n0)), st.just(ending_table(n0, k - n0, [math.nan])),
        st.just(qd.Combine("/", qd.Constant(1.0), qd.Affine(-1.0, float(k)))), st.just(qd.Affine(-1.0, float(k))),
    ))


@st.composite
def inverse_problems(draw):
    delta = draw(st.integers(min_value=-2, max_value=2))
    tau = min(-4, delta - 4) - draw(st.integers(min_value=1, max_value=3))
    horizon, n0 = draw(HORIZONS), max(1, delta)
    coefficients = st.one_of(POSITIVE_AFFINE, march_coefficients(n0, horizon))
    eq = plain_equation(
        alpha=draw(FRACTIONAL_EXPONENTS), beta=draw(FRACTIONAL_EXPONENTS),
        gamma=draw(FRACTIONAL_EXPONENTS), tau=tau, delta=delta,
        # p is read on [n0, n0 + 3] for the seed, then at n + 4: a table of 4 to horizon + 3 values ends in the march
        p=draw(st.one_of(st.builds(qd.Affine, st.floats(-0.1, 0.1), st.floats(-2.0, 2.0)),
                         st.integers(4, horizon + 3).map(lambda count: ending_table(n0, count)))),
        d=qd.Combine("*", qd.Constant(draw(st.sampled_from([-1.0, 1.0]))), draw(coefficients)),
        a=draw(coefficients), b=draw(coefficients), c=draw(coefficients),
        f=qd.OddPowerMap(draw(st.floats(0.5, 2.0)), draw(FRACTIONAL_EXPONENTS)),
    )
    lo, hi = qd.inverse_seed_span(eq)
    values = draw(st.lists(st.floats(-10.0, 10.0), min_size=hi - lo + 1, max_size=hi - lo + 1))
    return eq, qd.Window(lo, tuple(values)), horizon


def inverse_case(horizon, **fields):
    eq = plain_equation(tau=-7, delta=0, p=qd.Constant(1.0), **fields)  # inverse_fixture's shape
    lo, hi = qd.inverse_seed_span(eq)
    return eq, qd.Window.from_evaluator(lambda n: 2.0 ** -n, lo, hi), horizon


@given(inverse_problems())
@example(inverse_case(300, d=qd.Combine("*", qd.Constant(-16.0), ending_table(1, 270, [math.nan]))))  # a warning
@settings(max_examples=80, deadline=None)
def test_inverse_march_equals_replay_property(problem):
    assert_inverse_matches_replay(*problem)


def assert_forward_matches_replay(eq, seed, horizon):
    def solved():
        traj = qd.solve_forward(eq, seed, horizon)
        assert traj.truncation_index == (traj.n_end + 1 if traj.truncated else None)
        return traj.x.values, traj.truncated, list(traj.warnings)

    assert outcome(solved) == outcome(lambda: replay_forward(eq, seed, horizon))


@st.composite
def forward_problems(draw):
    """Unit and other exponents, signum and odd-power f, delta = 0 (the pivot) and delta > 0, and
    coefficients that raise, reach zero, turn NaN or overflow in the march; p may be any sequence."""
    delta, tau, horizon = draw(st.integers(0, 2)), draw(st.integers(-3, 3)), draw(HORIZONS)
    n0 = max(1, delta, tau)
    coefficients = march_coefficients(n0, horizon)
    p = draw(st.one_of(sequences, coefficients))
    assume(p.min_index is None or p.min_index <= n0)
    eq = plain_equation(
        alpha=draw(FRACTIONAL_EXPONENTS), beta=draw(FRACTIONAL_EXPONENTS),
        gamma=draw(FRACTIONAL_EXPONENTS), tau=tau, delta=delta, p=p,
        d=qd.Combine("*", qd.Constant(draw(st.sampled_from([-1.0, 1.0]))), draw(coefficients)),
        a=draw(coefficients), b=draw(coefficients), c=draw(coefficients),
        f=draw(st.one_of(st.builds(qd.SignumMap, st.floats(0.5, 2.0)),
                         st.builds(qd.OddPowerMap, st.floats(0.5, 2.0), FRACTIONAL_EXPONENTS))),
    )
    lo, hi = qd.forward_seed_span(eq)
    values = draw(st.lists(st.floats(-10.0, 10.0), min_size=hi - lo + 1, max_size=hi - lo + 1))
    return eq, qd.Window(lo, tuple(values)), horizon


def forward_case(horizon, seed_value=0.0, **fields):
    eq = plain_equation(**fields)
    lo, hi = qd.forward_seed_span(eq)
    return eq, qd.Window(lo, (seed_value,) * (hi - lo + 1)), horizon


@given(forward_problems())
@example(forward_case(400, a=ending_table(2, 300)))  # a ends at n = 301: raises at the step n = 301
@example(forward_case(400, c=qd.Combine("/", qd.Constant(1.0), qd.Affine(-1.0, 290.0))))  # raises at n = 290
@example(forward_case(400, b=qd.Affine(-1.0, 280.0)))  # b_280 = 0: division by zero coefficient
@example(forward_case(400, 1.0, d=ending_table(2, 270, [math.nan])))  # d turns NaN: truncated, with a warning
@example(forward_case(200, d=qd.Geometric(1.0, 1e3), gamma=qd.OddRatio(3)))  # d_103 = inf: inf * f(0) is NaN
@example(forward_case(20, 1.0, delta=0, p=qd.Constant(-1.0)))  # a zero pivot
@example(forward_case(300, 1.0, f=qd.SignumMap(1.0), alpha=qd.OddRatio(3, 5)))
@settings(max_examples=100, deadline=None)
def test_forward_march_equals_replay_property(problem):
    assert_forward_matches_replay(*problem)


def huge_seed(lo, hi):
    return qd.Window(lo, tuple((1e300, -1e300)[n % 2] for n in range(lo, hi + 1)))


def test_forward_seed_chain_not_finite_raises():
    eq = plain_equation(delta=2, tau=1, gamma=qd.OddRatio(3))
    with pytest.raises(qd.NumericRangeError, match="seed chain not finite") as err:
        qd.solve_forward(eq, huge_seed(*qd.forward_seed_span(eq)), 10)
    assert err.value.index == eq.n0


def test_inverse_huge_seed_truncates_at_the_first_step():
    eq = plain_equation(tau=-7, delta=0, p=qd.Constant(1.0), d=qd.Constant(-16.0),
                        gamma=qd.OddRatio(3), n0=1)
    seed = huge_seed(*qd.inverse_seed_span(eq))
    traj = qd.solve_inverse(eq, seed, 10)
    assert traj.truncated
    assert traj.truncation_index == eq.n0 - eq.tau == traj.n_end + 1
    assert traj.x.values == seed.values


def test_forward_truncation_index_is_the_first_index_not_produced():
    eq = qd.example_equation("example-1")
    form = qd.example_closed_form("example-1")
    traj = seeded_forward(eq, form, 1100)
    assert traj.truncated and traj.truncation_index == traj.n_end + 1
    assert seeded_forward(eq, form, 100).truncation_index is None


def coefficient_reads(monkeypatch, eq):
    """The last index of each of eq's d, a, b, c and p that a read or an at() evaluates, by name, from here on
    (a read counts its whole range)."""
    last = dict.fromkeys("dabcp", -math.inf)
    spy_coefficient_reads(monkeypatch, eq, lambda name, start, stop: last.update({name: max(last[name], stop - 1)}))
    return last


def test_a_truncated_march_reads_at_most_one_block_past_its_last_step(monkeypatch):
    eq = plain_equation(d=qd.Geometric(1.0, 1e3), a=qd.Affine(0.0, 1.0), b=qd.Affine(0.0, 2.0),
                        c=qd.Affine(0.0, 0.5), p=qd.Affine(0.0, 0.25), gamma=qd.OddRatio(3))
    lo, hi = qd.forward_seed_span(eq)
    last = coefficient_reads(monkeypatch, eq)
    traj = qd.solve_forward(eq, qd.Window(lo, (0.0,) * (hi - lo + 1)), 5000)
    step = traj.truncation_index - 4  # the step at n makes x_{n+4}; d_103 = inf, and inf * f(0) is NaN
    assert traj.truncated and step == 103
    # the step at n reads d_n, a_{n+1}, b_{n+2}, c_{n+3} and p_{n+4}
    assert all(step + k - 1 <= last[name] < step + k + MARCH_BLOCK for k, name in enumerate("dabcp")), last


@pytest.mark.parametrize("tau, delta, d, seed", [(1, 2, 1.0, lambda n: 0.0), (-7, 0, -16.0, lambda n: 2.0 ** -n)],
                         ids=["forward", "inverse"])
def test_a_march_reads_no_coefficient_past_its_last_step(monkeypatch, tau, delta, d, seed):
    # x = 2^-n solves the inverse equation exactly, as in inverse_fixture; x = 0 the forward one
    eq = plain_equation(tau=tau, delta=delta, d=qd.Affine(0.0, d), a=qd.Affine(0.0, 1.0), b=qd.Affine(0.0, 1.0),
                        c=qd.Affine(0.0, 1.0), p=qd.Affine(0.0, 1.0))
    horizon = 300  # not a multiple of MARCH_BLOCK: the last block is clipped
    lo, hi = qd.forward_seed_span(eq) if eq.forward_mode else qd.inverse_seed_span(eq)
    last = coefficient_reads(monkeypatch, eq)
    traj = (qd.solve_forward if eq.forward_mode else qd.solve_inverse)(eq, qd.Window.from_evaluator(seed, lo, hi),
                                                                       horizon)
    assert not traj.truncated
    assert last == {name: eq.n0 + horizon - 1 + k for k, name in enumerate("dabcp")}
