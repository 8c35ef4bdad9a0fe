import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quasidiff as qd
from quasidiff import analysis, examples, model
from quasidiff import (
    Affine,
    Combine,
    Constant,
    Geometric,
    OddPowerMap,
    OddRatio,
    PowerLaw,
    SequenceDomainError,
    SignedPower,
    SignumMap,
    Table,
    Window,
    WindowIndexError,
    chain_windows,
    check_almost_oscillation,
    relative_residual,
)
from support import outcome, plain_equation, sequences, signed_sequences

SRC = os.path.dirname(os.path.dirname(os.path.abspath(model.__file__)))

# ---------------------------------------------------------------------------
# Windows
# ---------------------------------------------------------------------------


class TestWindow:
    def test_indexing_and_bounds(self):
        w = Window(3, (1.0, 2.0, 3.0))
        assert w.end == 5
        assert w[4] == 2.0
        assert w(5) == 3.0
        assert 3 in w and 6 not in w
        assert w.covers(3, 5) and not w.covers(2, 5)

    def test_missing_index_carries_the_index(self):
        w = Window(0, (1.0,))
        with pytest.raises(WindowIndexError) as err:
            w[7]
        assert err.value.index == 7

    def test_suffix(self):
        w = Window(0, tuple(float(i) for i in range(10)))
        s = w.suffix(3)
        assert s.start == 7 and s.values == (7.0, 8.0, 9.0)

    def test_from_evaluator(self):
        w = Window.from_evaluator(lambda n: n * n, -2, 2)
        assert w.values == (4.0, 1.0, 0.0, 1.0, 4.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Window(0, ())


# ---------------------------------------------------------------------------
# Sequences
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seq, n, expected", [
    (Geometric(1.0, 0.5), 3, 0.125),
    (Affine(2.0, 1.0), 0, 1.0),
    (Table((5.0, 7.0), 0, "hold-last"), 9, 7.0),
    (Constant(4.25), 123, 4.25),
    (PowerLaw(2.0, -1.0), 4, 0.5),
    (Combine("+", Constant(1.0), Geometric(1.0, 2.0)), 3, 9.0),
    (Combine("*", Affine(1.0, 0.0), Constant(0.5)), 6, 3.0),
    (Combine("/", Constant(1.0), Affine(1.0, 0.0)), 4, 0.25),
    (SignedPower(Constant(-8.0), OddRatio(1, 3)), 0, -2.0),
])
def test_evaluate_sequence(seq, n, expected):
    assert seq.at(n) == pytest.approx(expected, rel=1e-12)


def test_sequence_determinism():
    seq = Combine("+", Geometric(1.3, 0.97), PowerLaw(0.5, 1.5))
    assert all(seq.at(n) == seq.at(n) for n in range(1, 50))


def test_table_error_rule():
    t = Table((5.0, 7.0), 0, "error")
    with pytest.raises(SequenceDomainError) as err:
        t.at(9)
    assert err.value.index == 9
    with pytest.raises(SequenceDomainError):
        Table((5.0,), 3, "hold-last").at(2)  # below start always errors


def test_table_validation():
    with pytest.raises(ValueError):
        Table((), 0)
    with pytest.raises(ValueError):
        Table((1.0,), 0, "clamp")


def test_power_law_domain():
    with pytest.raises(SequenceDomainError):
        PowerLaw(1.0, -2.0).at(0)
    assert PowerLaw(1.0, -2.0).min_index == 1
    assert PowerLaw(1.0, 2.0).min_index is None


def test_combine_division_by_zero():
    seq = Combine("/", Constant(1.0), Affine(1.0, 0.0))
    with pytest.raises(SequenceDomainError):
        seq.at(0)


def test_combine_of_two_nans_is_one_value():
    # -inf * 0.0 is a NaN with the sign bit set, Constant(nan) one without; the unit power maps a NaN's sign
    # to +-inf, so every read of n = 0 must carry the same NaN
    seq = SignedPower(Combine("*", Affine(-math.inf, -9e-209), Constant(math.nan)), OddRatio(1))
    reads = {seq.at(0) for _ in range(20)}
    assert len(reads) == 1
    assert seq.block(0, 3) == [seq.at(n) for n in range(3)]


def test_leaf_of_two_nans_is_one_value():
    # a leaf's float operation could keep one NaN operand or the other depending on whether the interpreter
    # had specialized it yet, so the reads run in a fresh interpreter: 40 reads of each give one value
    script = ("import math\n"
              "from quasidiff import Affine, Geometric, OddRatio, PowerLaw, SignedPower\n"
              "nan = math.nan\n"
              "for leaf, n in ((Affine(nan, -nan), 0), (Geometric(nan, -nan), 1), (PowerLaw(nan, -nan), 2)):\n"
              "    seq = SignedPower(leaf, OddRatio(1))\n"
              "    print(len({seq.at(n) for _ in range(40)}))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout.split() == ["1", "1", "1"], proc.stderr


def test_combine_rejects_unknown_op():
    with pytest.raises(ValueError):
        Combine("%", Constant(1.0), Constant(1.0))


def test_geometric_overflow_saturates():
    assert Geometric(1.0, 2.0).at(5000) == math.inf
    assert Geometric(-1.0, 2.0).at(5000) == -math.inf


# ---------------------------------------------------------------------------
# Block evaluation: block(start, count) is the scalar loop, bit for bit
# ---------------------------------------------------------------------------


def scalar_block(seq, start, count):
    return [seq.at(n) for n in range(start, start + count)]


def scan_sign_break(seq, start, count):
    """(first index of [start, start+count) where seq is zero or leaves its sign at start,
    or None; that sign, or 0 when there is such an index), index by index."""
    sign = 0
    for n in range(start, start + count):
        s = model.sign_of(seq.at(n))
        if s == 0 or (sign != 0 and s != sign):
            return n, 0
        sign = s
    return None, sign


def scan_first_failure(seq, start, count, holds):
    for n in range(start, start + count):
        if not holds(seq.at(n)):
            return n
    return None


@settings(max_examples=400, deadline=None)
@given(sequences, st.integers(-10, 40), st.integers(0, 70))
@example(Combine("/", Constant(1.0), Affine(1.0, -5.0)), 0, 10)  # zero divisor at n = 5
@example(Combine("/", Table((1.0,) * 3, 0, "error"), Affine(1.0, -1.0)), 0, 10)  # divisor 0 before the table ends
@example(Table((1.0, 2.0, 3.0), 2, "error"), 0, 10)
@example(Table((1.0, 2.0, 3.0), 2, "hold-last"), 3, 10)
@example(PowerLaw(1.0, -1.0), -3, 10)
@example(Geometric(1.0, 1e10), 25, 20)
@example(Geometric(-1.0, -1e10), 25, 20)
@example(Geometric(1.0, 0.0), -3, 10)
@example(SignedPower(Table((0.0, -0.0, math.inf, -math.inf, math.nan, 1.0), 0, "error"), OddRatio(1)), 0, 6)
@example(SignedPower(Table((0.0, -0.0, math.inf, -math.inf, math.nan, 1.0), 0, "error"), OddRatio(1, 3)), 0, 6)
@example(Combine("*", Affine(-math.inf, -9e-209), Constant(math.nan)), 0, 3)  # two NaN operands: one C call
def test_block_matches_the_scalar_loop(seq, start, count):
    assert outcome(lambda: seq.block(start, count)) == outcome(lambda: scalar_block(seq, start, count))


@pytest.mark.parametrize("e", [OddRatio(3), OddRatio(1, 3), OddRatio(5, 3)], ids=str)
@pytest.mark.parametrize("values, count", [
    ((2.0, 3.0), 0),
    ((1e200, 2.0, 0.5), 3),  # overflows at 3/1 and 5/3: spow saturates to inf
    ((5e-324, 2.0 ** -1070, 1e-310, 2.2250738585072014e-308), 4),
    ((2.0, 0.0, 3.0), 3),  # a block that is not all positive and finite runs the scalar loop
    ((2.0, -0.5, 3.0), 3),
    ((2.0, math.nan, 3.0), 3),
    ((2.0, math.inf, 3.0), 3),
])
def test_signed_power_block_of_positive_values(values, count, e):
    seq = SignedPower(Table(values, 0, "error"), e)
    assert outcome(lambda: seq.block(0, count)) == outcome(lambda: scalar_block(seq, 0, count))


def _signed_powers(seq):
    if isinstance(seq, SignedPower):
        yield seq
    for name in ("left", "right", "base"):
        if hasattr(seq, name):
            yield from _signed_powers(getattr(seq, name))


# Blocks that neither one-pass map takes: the d nodes of example-1 at beta 3/1 overflow math.pow from n = 515,
# and the root of an affine that crosses 0 meets a zero and negative values.
@pytest.mark.parametrize("seq, start", [
    *((node, 515) for node in _signed_powers(examples.example_equation("example-1", beta="3/1").d)),
    (SignedPower(Affine(1.0, -5.0), OddRatio(1, 3)), 0),
], ids=["d-node-1", "d-node-2", "d-node-3", "affine-crossing-0"])
def test_signed_power_block_reads_its_base_once(monkeypatch, seq, start):
    expected = [seq.at(n).hex() for n in range(start, start + 232)]
    calls, at = [], type(seq.base).at
    monkeypatch.setattr(type(seq.base), "at", lambda s, n: (s is seq.base and calls.append(n)) or at(s, n))
    assert [v.hex() for v in seq.block(start, 232)] == expected
    assert calls == []  # the block powers the base block it read, not base.at(n) index by index


def test_block_of_a_tree_too_deep_for_two_frames_per_level():
    # a block nests two calls per level where at() nests one
    depth = sys.getrecursionlimit() * 3 // 5
    seq = Constant(1.0)
    for _ in range(depth):
        seq = Combine("*", seq, Constant(1.0))
    assert seq.block(0, 3) == [1.0] * 3
    plain_equation(a=seq)  # the validation sample reads blocks of a


# Constant +- Geometric trees whose tails settle in doubles: ratios 1/3, -0.9, 0.5 and 0.0, a scale of
# 1e308 (only a large c absorbs it), and constants whose ulp is below 2**-1000 (they never settle).
_absorbing_constants = st.sampled_from((4.0, -4.0, 1.0, 3.0, -2.5, 1e300, 2.0 ** -990, -(2.0 ** -1060)))
_absorbed_geometrics = st.builds(Geometric, st.sampled_from((16.0 / 9.0, 1.0, -3.0, 1e308, 0.0)),
                                 st.sampled_from((1.0 / 3.0, -0.9, 0.5, 0.0)))


def _absorption(c, g, op, c_left):
    return Combine(op, Constant(c), g) if c_left else Combine(op, g, Constant(c))


settling_trees = st.recursive(
    st.builds(_absorption, _absorbing_constants, _absorbed_geometrics, st.sampled_from("+-"), st.booleans()),
    lambda inner: st.one_of(
        st.builds(SignedPower, inner, st.sampled_from((OddRatio(1), OddRatio(3), OddRatio(1, 3), OddRatio(5, 3)))),
        st.builds(Combine, st.just("*"), inner, st.builds(Constant, _absorbing_constants)),
        st.builds(Combine, st.sampled_from("+-"), inner, inner),
        st.builds(Combine, st.sampled_from("+-"), inner, _absorbed_geometrics),  # c settles late itself
    ),
    max_leaves=4,
)


@settings(max_examples=300, deadline=None)
@given(settling_trees, st.integers(-3, 2000), st.integers(0, 70))
@example(Combine("+", Constant(4.0), Geometric(16.0 / 9.0, 1.0 / 3.0)), 34, 5)  # settles at 35
@example(Combine("-", Constant(3.0), Geometric(1.0, -0.9)), 355, 10)  # c on the left of '-' settles to c
@example(Combine("-", Geometric(1.0, -0.9), Constant(3.0)), 355, 10)  # on the right, to -c
@example(Combine("+", Constant(1e300), Geometric(1e308, 0.5)), 80, 10)  # settles at 84
@example(Combine("+", Constant(4.0), Geometric(1e308, 0.5)), 1070, 10)  # not settled: 1e308 * 2**-1074 > ulp(4)/16
@example(Combine("+", Constant(2.0 ** -990), Geometric(1.0, 0.5)), 1990, 10)
@example(Combine("-", Constant(1.0), Geometric(-3.0, 0.0)), 0, 3)  # 0**0 is 1: the tail starts at n = 1
@example(SignedPower(Combine("+", Constant(4.0), Geometric(16.0 / 81.0, 1.0 / 3.0)), OddRatio(1, 3)), 30, 10)
@example(Combine("+", Combine("+", Constant(4.0), Geometric(1.0, -0.9)), Geometric(1.0, 0.5)), 100, 10)
@example(Constant("not a number"), 0, 3)  # no settled tail and no one-pass block: the loop raises what at() does
def test_settled_block_matches_the_scalar_loop(seq, start, count):
    assert outcome(lambda: seq.block(start, count)) == outcome(lambda: scalar_block(seq, start, count))
    if seq.settled is not None:
        lo, v = seq.settled
        assert outcome(lambda: scalar_block(seq, max(lo, start), count)) == outcome(lambda: [v] * count)


class _NeverSmall(Geometric):
    def at(self, n):
        return self.scale


def test_settled_tails():
    assert Constant(2.5).settled == (-math.inf, 2.5)
    assert Combine("+", Constant(4.0), Geometric(16.0 / 9.0, 1.0 / 3.0)).settled == (35, 4.0)
    assert Combine("-", Geometric(1.0, -0.9), Constant(3.0)).settled == (362, -3.0)
    assert Combine("+", Constant(4.0), Geometric(1.0, 0.0)).settled == (1, 4.0)
    assert SignedPower(Combine("+", Constant(4.0), Geometric(1.0, 0.5)), OddRatio(1, 3)).settled[1] == 4.0 ** (1 / 3)
    for unsettled in (Geometric(1.0, 0.5), Combine("+", Constant(4.0), Geometric(1.0, 1.0)),
                      Combine("*", Constant(4.0), Geometric(1.0, 0.5)),
                      Combine("+", Constant(0.0), Geometric(1.0, 0.5)),
                      Combine("+", Constant(math.inf), Geometric(1.0, 0.5)),
                      Combine("+", Constant(4.0), Geometric(math.inf, 0.5)),
                      Combine("+", Constant(2.0 ** -990), Geometric(1.0, 0.5)),  # ulp(c) < 2**-1000
                      Combine("+", Constant(4.0), Geometric(1e308, 0.5)),  # 1e308 * 2**-1074 > ulp(4)/16
                      Combine("/", Constant(4.0), Constant(0.0)),  # at() raises
                      SignedPower(Affine(1.0, 0.0), OddRatio(3)),
                      Combine("+", Constant(4.0), _NeverSmall(1.0, 0.5))):  # no crossing within 64 steps
        assert unsettled.settled is None
    d = examples.example_equation("example-2", beta="1/3").d
    lo, v = d.settled
    assert lo <= 40 and d.at(lo) == d.at(10 ** 6) == v


def test_settled_tail_of_a_tree_deeper_than_the_recursion_limit():
    seq = Constant(1.0)
    for _ in range(2 * sys.getrecursionlimit()):
        seq = Combine("+", seq, Geometric(1.0, 0.5))
    assert seq.settled == (56, 1.0)  # worked out as the tree is built, without walking it


def test_an_equation_with_a_tree_deeper_than_the_recursion_limit():
    seq = Constant(1.0)
    for _ in range(2 * sys.getrecursionlimit()):
        seq = Combine("+", seq, Geometric(1.0, 0.5))
    eq = plain_equation(a=seq, n0=56)  # validated and probed through the settled blocks
    report = analysis.check_almost_oscillation(eq, horizon=3000)
    assert [e.satisfied for e in report.entries] == [True] * len(report.entries)


@settings(max_examples=200, deadline=None)
@given(sequences, st.integers(-10, 40), st.integers(0, 70),
       st.sampled_from(((0.0).__lt__, (0.0).__le__, (0.0).__gt__)))
def test_first_failure_matches_the_index_scan(seq, start, count, holds):
    assert (outcome(lambda: model.first_failure(seq, start, count, holds))
            == outcome(lambda: scan_first_failure(seq, start, count, holds)))


@settings(max_examples=200, deadline=None)
@given(sequences, sequences)
def test_validation_reports_what_the_index_scan_finds(a, d):
    """EquationSpec rejects a and d with the messages of the index-by-index validation."""
    def scan():
        for name, seq in (("d", d), ("a", a)):
            if seq.min_index is not None and seq.min_index > 2:
                raise ValueError(f"sequence {name} not evaluable from n0 = 2 (starts at {seq.min_index})")
        try:
            name = "a"
            n = scan_first_failure(a, 2, model.VALIDATION_SAMPLE, lambda v: v > 0.0)
            if n is not None:
                raise ValueError(f"sequence a must be strictly positive; a({n}) = {a.at(n)!r}")
            name = "d"
            bad, _ = scan_sign_break(d, 2, model.VALIDATION_SAMPLE)
        except SequenceDomainError as exc:
            raise ValueError(f"sequence {name} not evaluable on the validation sample [2, 257]: {exc}") from None
        if bad is not None:
            v = d.at(bad)
            if model.sign_of(v) == 0:
                raise ValueError(f"sequence d must be of one sign; d({bad}) = {v!r}")
            raise ValueError(f"sequence d changes sign at n = {bad}")
        return "valid"

    def build():
        plain_equation(a=a, d=d)  # n0 = 2
        return "valid"

    assert outcome(build) == outcome(scan)


def assert_sign_is_sound(seq, n0):
    """Where sign_from(n0) gives s, at(n) and block(n, count) raise nothing and every value has strict sign s."""
    s = seq.sign_from(n0)
    if s is None:
        return
    assert s in (1, -1)
    indices = [n0 + k for k in (0, 1, 2, 3, 10, 100, 1000, 10 ** 6)] + [n for n in (2 ** 40, 2 ** 52) if n >= n0]
    assert [model.sign_of(seq.at(n)) for n in indices] == [s] * len(indices)
    for start, count in ((n0, 300), (n0 + 2048, 64), (max(n0, 2 ** 40), 8), (max(n0, 2 ** 52), 8)):
        assert [model.sign_of(v) for v in seq.block(start, count)] == [s] * count


@settings(max_examples=500, deadline=None)
@given(st.one_of(sequences, signed_sequences), st.integers(-10, 40))
@example(Affine(5e-324, -0.0), 1)  # the least positive slope
@example(Affine(1e308, 1e308), 2)  # slope * n and the sum overflow to inf
@example(PowerLaw(5e-324, 0.5), 1)  # a subnormal scale times a power >= 1 does not round to 0
@example(PowerLaw(-1.0, 300.0), 1)  # n**300 overflows from n = 11: at() saturates to -inf
@example(Geometric(1.0, math.inf), 0)
def test_a_proved_sign_holds_at_every_index(seq, n0):
    assert_sign_is_sound(seq, n0)


@pytest.mark.parametrize("seq, n0, sign", [
    (Constant(0.25), 0, 1), (Constant(-3.0), 0, -1), (Constant(0.0), 0, None), (Constant(-0.0), 0, None),
    (Constant(math.nan), 0, None), (Constant(math.inf), 0, 1),
    (Affine(1.0, 0.0), 2, 1), (Affine(1.0, 0.0), 0, None),  # example-3's a: 0 at n = 0
    (Affine(-1.0, 1.0), 2, -1), (Affine(-1.0, 1.0), 1, None),  # example-3's d: 0 at n = 1
    (Affine(20.0, 10.0), 2, 1), (Affine(0.0, -2.0), 0, -1),
    (Affine(1.0, -5.0), 2, None), (Affine(-1.0, 5.0), 2, None),  # a slope against the sign at n0 crosses 0
    (Affine(math.inf, 1.0), 2, None), (Affine(1.0, math.nan), 2, None),
    (PowerLaw(2.0, 0.5), 1, 1), (PowerLaw(-2.0, 3.0), 1, -1), (PowerLaw(2.0, 0.0), 1, 1),
    (PowerLaw(2.0, 0.5), 0, None), (PowerLaw(2.0, -2.0), 1, None),  # n**-2 underflows to 0
    (PowerLaw(0.0, 1.0), 1, None), (PowerLaw(math.inf, 1.0), 1, None),
    (Geometric(3.0, 1.0), 0, 1), (Geometric(-3.0, 2.0), 0, -1), (Geometric(3.0, 2.0), -1, None),
    (Geometric(3.0, 0.5), 0, None), (Geometric(3.0, -2.0), 0, None),  # a ratio < 1 underflows or alternates
    (SignedPower(Constant(2.0), OddRatio(3)), 0, None),
    (Table((1.0, 2.0), 0, "hold-last"), 0, None),
])
def test_sign_from(seq, n0, sign):
    assert seq.sign_from(n0) == sign
    assert_sign_is_sound(seq, n0)


def test_building_a_proved_equation_scans_no_sample(monkeypatch):
    reads = []  # (sequence, first index, count) of every block and every at() of a sequence kind
    block = model._Blocks.block
    monkeypatch.setattr(model._Blocks, "block", lambda seq, start, count, *done: reads.append((seq, start, count))
                        or block(seq, start, count, *done))
    for kind in (Constant, Geometric, Affine, PowerLaw, Table, Combine, SignedPower):
        monkeypatch.setattr(kind, "at", lambda seq, n, at=kind.at: reads.append((seq, n, 1)) or at(seq, n))
    eq = examples.example_equation("example-3")  # a = n, b = c = 1, d = 1 - n and p = 1/4 are proved from n0 = 2
    report = qd.check_quick_exclusion(eq)
    assert reads == [(eq.d, 2, 1)] * 2  # only d(n0), whose sign the build and the report read
    assert report.entry("p-nonnegative").detail == "p >= 0 on sample [2, 257]"
    reads.clear()
    eq = examples.example_equation("example-1")  # a, b and c are proved; d (a product inside) and p are not
    qd.check_quick_exclusion(eq)
    names = {id(getattr(eq, name)): name for name in "abcdp"}
    assert [names[id(seq)] for seq, _, count in reads
            if id(seq) in names and count == model.VALIDATION_SAMPLE] == ["d", "p"]


@pytest.mark.parametrize("a, message", [
    (Affine(1.0, -5.0), "sequence a must be strictly positive; a(2) = -3.0"),
    (Affine(-1.0, 5.0), "sequence a must be strictly positive; a(5) = 0.0"),  # positive at n0, then not
])
def test_an_unproved_coefficient_is_still_sampled(a, message):
    with pytest.raises(ValueError) as err:
        plain_equation(a=a)  # n0 = 2
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# Nonlinearities
# ---------------------------------------------------------------------------


class TestNonlinearity:
    def test_odd_power_apply_invert(self):
        f = OddPowerMap(2.0, OddRatio(3, 1))
        assert f.apply(-2.0) == -16.0
        assert f.invert(-16.0) == pytest.approx(-2.0, rel=1e-12)
        assert f.sign_condition and f.invertible and f.continuous

    def test_odd_power_negative_scale_flags(self):
        f = OddPowerMap(-1.0, OddRatio(1, 1))
        assert not f.sign_condition and f.invertible

    def test_signum(self):
        f = SignumMap(3.0)
        assert f.apply(-0.25) == -3.0
        assert f.apply(0.0) == 0.0
        assert f.sign_condition and not f.invertible and f.continuous is False
        with pytest.raises(ValueError):
            f.invert(1.0)


# ---------------------------------------------------------------------------
# Companion sequence: the z column of the staircase
# ---------------------------------------------------------------------------


def companion(x, p, delta, lo, hi):
    """z on [lo, hi] as model.staircase computes it."""
    return model.staircase(plain_equation(p=p, delta=delta), list(x.values), x.start, lo, hi)[0]


def test_companion_direct_evaluation():
    x = Window(1, (1.0, 2.0, 3.0, 4.0))
    assert companion(x, Constant(0.5), 2, 3, 3) == [3.0 + 0.5 * 1.0]


def test_companion_zero_p_reduction():
    x = Window(0, tuple(float(i * i) for i in range(8)))
    assert companion(x, Constant(0.0), 2, 2, 7) == list(x.values[2:])


def test_companion_alternating_window():
    # x_n = (-1)^n 2^n,  p_n = 2^-n,  delta = 2:  16 + (1/16)*4 at n = 4
    x = Window(0, tuple((-1.0) ** n * 2.0 ** n for n in range(6)))
    assert companion(x, Geometric(1.0, 0.5), 2, 4, 4) == [16.25]


@given(st.integers(min_value=0, max_value=5),
       st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=10, max_size=10),
       st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=10, max_size=10),
       st.floats(min_value=-10, max_value=10), st.floats(min_value=-10, max_value=10))
@settings(max_examples=100)
def test_companion_is_linear_in_x(delta, xs, ys, s, t):
    p = Constant(0.7)
    wx, wy = Window(0, tuple(xs)), Window(0, tuple(ys))
    combo = Window(0, tuple(s * a + t * b for a, b in zip(xs, ys)))
    n = 7
    [lhs] = companion(combo, p, delta, n, n)
    rhs = s * companion(wx, p, delta, n, n)[0] + t * companion(wy, p, delta, n, n)[0]
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-6)


# ---------------------------------------------------------------------------
# Quasidifference chain
# ---------------------------------------------------------------------------


def test_chain_of_zero_window_is_zero():
    eq = plain_equation()
    x = Window(0, (0.0,) * 12)
    assert all(v == 0.0 for col in chain_windows(eq, x) for v in col.values)


def test_chain_collapses_to_plain_differences():
    # unit coefficients and identity exponents: (z, y, w, t) = (x, Dx, D2x, D3x)
    eq = plain_equation(delta=2)
    rng = random.Random(11)
    x = Window(0, tuple(rng.uniform(-5, 5) for _ in range(12)))

    def diff(vals):
        return [b - a for a, b in zip(vals, vals[1:])]

    xs = list(x.values)
    d1, d2, d3 = diff(xs), diff(diff(xs)), diff(diff(diff(xs)))
    z, y, w, t = chain_windows(eq, x)
    for n in range(2, 8):
        assert z[n] == pytest.approx(xs[n], rel=1e-12)
        assert y[n] == pytest.approx(d1[n], rel=1e-12, abs=1e-12)
        assert w[n] == pytest.approx(d2[n], rel=1e-12, abs=1e-12)
        assert t[n] == pytest.approx(d3[n], rel=1e-12, abs=1e-12)


def test_chain_against_closed_forms():
    # the alternating candidate of the bundled identity-forcing example has
    # closed-form chain components, derived independently of the code path:
    #   z_n = (-1)^n (1 + 3^-n)            y_n = Dz_n = (-1)^(n+1) (2 + 4/3^(n+1))
    #   w_n = (Dy_n)^beta = (-1)^n v_n      with v_n = (4 + 16/3^(n+2))^beta
    #   t_n = Dw_n = (-1)^(n+1) (v_{n+1} + v_n)
    for beta_text, beta_val in (("1/1", 1.0), ("5/3", 5.0 / 3.0)):
        eq = qd.example_equation("example-2", beta=beta_text)
        form = qd.example_closed_form("example-2")
        x = Window.from_evaluator(form, 0, 20)

        def v(n):
            return (4.0 + 16.0 / 3.0 ** (n + 2)) ** beta_val

        z, y, w, t = chain_windows(eq, x)
        for n in range(eq.n0, eq.n0 + 6):
            sign = 1.0 if n % 2 == 0 else -1.0
            assert z[n] == pytest.approx(sign * (1.0 + 3.0 ** -n), rel=1e-12)
            assert y[n] == pytest.approx(-sign * (2.0 + 4.0 / 3.0 ** (n + 1)), rel=1e-12)
            assert w[n] == pytest.approx(sign * v(n), rel=1e-12)
            assert t[n] == pytest.approx(-sign * (v(n + 1) + v(n)), rel=1e-12)


def test_chain_window_too_short():
    eq = plain_equation(delta=2)
    with pytest.raises(WindowIndexError):
        relative_residual(eq, Window(0, (1.0, 1.0, 1.0)), 2)


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------


def residual(eq, x, n):
    """The unscaled residual D t_n + d_n f(x_{n-tau})."""
    return model._residual_parts(eq, x, n, n)[0][0]


def test_residual_of_alternating_solution_signum_forcing():
    eq = qd.example_equation("example-1")  # beta=1, lambda=1, tau=3
    form = qd.example_closed_form("example-1")
    for n in range(eq.n0, eq.n0 + 20):
        assert relative_residual(eq, form, n) <= 1e-9


def test_residual_of_alternating_solution_identity_forcing():
    eq = qd.example_equation("example-2", beta="5/3")  # lambda=1, tau=1
    form = qd.example_closed_form("example-2")
    for n in range(eq.n0, eq.n0 + 20):
        assert relative_residual(eq, form, n) <= 1e-9


def test_residual_of_zero_solution_is_exact():
    eq = plain_equation()
    assert residual(eq, lambda n: 0.0, 5) == 0.0
    assert relative_residual(eq, lambda n: 0.0, 5) == 0.0


def test_residual_matches_chain_evaluation():
    # D t_n + d_n f(x_{n-tau}) recomputed through chain_windows
    eq = qd.example_equation("example-4")
    rng = random.Random(3)
    x = Window(0, tuple(rng.uniform(-2, 2) for _ in range(20)))
    t = chain_windows(eq, x)[3]
    for n in rng.sample(range(2, 12), 5):
        t_n, t_next = t[n], t[n + 1]
        expected = (t_next - t_n) + eq.d.at(n) * eq.f.apply(x(n - eq.tau))
        scale = max(abs(t_next), abs(t_n), abs(expected), 1e-300)
        assert residual(eq, x, n) == pytest.approx(expected, rel=1e-10, abs=1e-12 * scale)


def test_residual_reduces_to_fourth_difference():
    # independent binomial fourth difference as the oracle
    eq = plain_equation(delta=2, tau=1, d=Constant(0.75))
    rng = random.Random(9)
    x = Window(0, tuple(rng.uniform(-3, 3) for _ in range(16)))
    for n in range(2, 10):
        d4 = x(n + 4) - 4 * x(n + 3) + 6 * x(n + 2) - 4 * x(n + 1) + x(n)
        expected = d4 + 0.75 * x(n - 1)
        assert residual(eq, x, n) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_relative_residual_detects_perturbation():
    eq = qd.example_equation("example-2")
    form = qd.example_closed_form("example-2")
    perturbed = lambda n: form(n) * (1.0 + (1e-3 if n == 10 else 0.0))
    assert relative_residual(eq, perturbed, 9) > 1e-6


# ---------------------------------------------------------------------------
# Reciprocal coefficients A = a^(-1/alpha), B, C of the almost-oscillation series
# ---------------------------------------------------------------------------


def reciprocal_coefficients(eq):
    return (analysis._ReciprocalPower(eq.a, eq.alpha, "a", eq.n0),
            analysis._ReciprocalPower(eq.b, eq.beta, "b", eq.n0),
            analysis._ReciprocalPower(eq.c, eq.gamma, "c", eq.n0))


class TestDerivedCoefficients:
    def test_unit_coefficients(self):
        A, B, C = reciprocal_coefficients(plain_equation())
        assert A.at(5) == 1.0 and B.at(5) == 1.0 and C.at(5) == 1.0

    def test_affine_linear_exponent(self):
        eq = plain_equation(a=Affine(1.0, 0.0), n0=2, tau=1, delta=2)
        A = reciprocal_coefficients(eq)[0]
        for n in (2, 3, 10, 100):
            assert A.at(n) == pytest.approx(1.0 / n, rel=1e-12)

    def test_cube_exponent(self):
        eq = plain_equation(a=Constant(8.0), alpha=OddRatio(3, 1))
        assert reciprocal_coefficients(eq)[0].at(4) == pytest.approx(0.5, rel=1e-12)

    def test_inversion_identity(self):
        eq = plain_equation(a=Geometric(2.0, 1.01), b=Affine(0.3, 1.0), c=Constant(5.0),
                            alpha=OddRatio(5, 3), beta=OddRatio(3, 1), gamma=OddRatio(1, 3))
        A, B, C = reciprocal_coefficients(eq)
        for n in range(eq.n0, eq.n0 + 40):
            assert qd.spow(A.at(n), eq.alpha) * eq.a.at(n) == pytest.approx(1.0, rel=1e-12)
            assert qd.spow(B.at(n), eq.beta) * eq.b.at(n) == pytest.approx(1.0, rel=1e-12)
            assert qd.spow(C.at(n), eq.gamma) * eq.c.at(n) == pytest.approx(1.0, rel=1e-12)

    def test_nonpositive_coefficient_reported(self):
        # construction only samples a prefix, so the nonpositive value
        # surfaces when the series reaches it
        eq_bad = plain_equation(a=Table((1.0,) * 300 + (-1.0,), 1, "hold-last"))
        message = r"nonpositive coefficient a\(301\) = -1\.0"
        with pytest.raises(SequenceDomainError, match=message):
            reciprocal_coefficients(eq_bad)[0].at(301)
        entry = check_almost_oscillation(eq_bad, horizon=1000).entries[3]  # the report goes on past series A
        assert (entry.condition, entry.status, entry.satisfied) == ("series-A-divergent", qd.CheckStatus.NOT_CHECKABLE,
                                                                    None)
        assert entry.detail == "series A not evaluable across the horizon: nonpositive coefficient a(301) = -1.0"


# ---------------------------------------------------------------------------
# Equation validation
# ---------------------------------------------------------------------------


class TestEquationValidation:
    def test_excluded_deviating_argument(self):
        with pytest.raises(ValueError, match="excluded"):
            plain_equation(tau=-4, delta=0)
        with pytest.raises(ValueError, match="excluded"):
            plain_equation(tau=-7, delta=-3, n0=1)

    def test_n0_lower_bound(self):
        with pytest.raises(ValueError, match="n0"):
            plain_equation(tau=3, delta=2, n0=2)

    def test_positivity_of_abc(self):
        with pytest.raises(ValueError, match="strictly positive"):
            plain_equation(a=Constant(0.0))
        with pytest.raises(ValueError, match="strictly positive"):
            plain_equation(b=Affine(-1.0, 3.0))

    def test_d_one_signed(self):
        with pytest.raises(ValueError, match="one sign"):
            plain_equation(d=Constant(0.0))
        with pytest.raises(ValueError, match="changes sign"):
            plain_equation(d=Table(tuple(1.0 if i < 5 else -1.0 for i in range(300)), 1), n0=1, tau=1, delta=0)

    def test_sequences_must_cover_domain(self):
        with pytest.raises(ValueError, match="not evaluable"):
            plain_equation(d=Table((1.0, 1.0), 5, "hold-last"), n0=2)

    def test_forward_mode_flag(self):
        assert plain_equation(tau=1, delta=2).forward_mode
        assert not plain_equation(tau=-7, delta=0, n0=1).forward_mode
