"""Shared builders for the test suite."""

from __future__ import annotations

import math
import struct

from hypothesis import strategies as st

import quasidiff as qd
from quasidiff import model

ONE = qd.OddRatio(1)


def plain_equation(*, alpha=ONE, beta=ONE, gamma=ONE, tau=1, delta=2,
                   p=None, d=None, a=None, b=None, c=None, f=None, n0=None) -> qd.EquationSpec:
    """All-ones workhorse equation; override any field."""
    return qd.EquationSpec(
        alpha=alpha, beta=beta, gamma=gamma, tau=tau, delta=delta,
        p=p if p is not None else qd.Constant(0.0),
        d=d if d is not None else qd.Constant(1.0),
        a=a if a is not None else qd.Constant(1.0),
        b=b if b is not None else qd.Constant(1.0),
        c=c if c is not None else qd.Constant(1.0),
        f=f if f is not None else qd.OddPowerMap(1.0, ONE),
        n0=n0 if n0 is not None else max(1, delta, tau),
    )


def inverse_fixture() -> tuple[qd.EquationSpec, "function"]:
    """Synthetic inverse-mode equation manufactured so x_n = 1/2^n is exact.

    With p = 1, delta = 0, unit coefficients and identity powers the chain of
    x = 2^-n gives D t_n = 2^-(n+3), so d = -16 makes x_{n+7} the exact
    forcing preimage.
    """
    eq = plain_equation(tau=-7, delta=0, p=qd.Constant(1.0), d=qd.Constant(-16.0), n0=1)
    return eq, lambda n: 2.0 ** (-n)


def seeded_forward(eq: qd.EquationSpec, form, horizon: int) -> qd.Trajectory:
    lo, hi = qd.forward_seed_span(eq)
    return qd.solve_forward(eq, qd.Window.from_evaluator(form, lo, hi), horizon)


# ---------------------------------------------------------------------------
# Random coefficient sequences, for checking block evaluation against at()
# ---------------------------------------------------------------------------

# The NaN that arithmetic makes (inf - inf), so that every NaN in a tree has
# the same bits: when both operands of + or * are NaNs that differ, which one
# the result carries depends on whether the interpreter's specialized float
# op or the generic one ran, and spow turns that NaN's sign into +-inf.
ARITHMETIC_NAN = math.inf - math.inf
SPECIAL_VALUES = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e308, -1e308, 5e-324,
                  math.inf, -math.inf, ARITHMETIC_NAN)
_values = st.one_of(st.sampled_from(SPECIAL_VALUES),
                   st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
_ratios = st.sampled_from((0.0, 0.5, -0.5, 1.0, 2.0, -2.0, 1e10, -1e10, ARITHMETIC_NAN))
_power_exponents = st.sampled_from((-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, 300.0))
_odd_ratios = st.sampled_from((ONE, qd.OddRatio(3), qd.OddRatio(1, 3), qd.OddRatio(5, 3), qd.OddRatio(3, 5)))

_leaves = st.one_of(
    st.builds(qd.Constant, _values),
    st.builds(qd.Geometric, _values, _ratios),
    st.builds(qd.Affine, _values, _values),
    st.builds(qd.PowerLaw, _values, _power_exponents),
    st.builds(qd.Table, st.lists(_values, min_size=1, max_size=8).map(tuple),
              st.integers(-5, 20), st.sampled_from(("error", "hold-last"))),
)
# Trees of every kind: '/' by a zero divisor, tables that end or start inside
# a block, PowerLaw below its first index, Geometric overflow, and spow of
# +-0, +-inf and NaN all come up.
sequences = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.builds(qd.Combine, st.sampled_from("+-*/"), inner, inner),
        st.builds(qd.SignedPower, inner, _odd_ratios),
    ),
    max_leaves=6,
)

# Sequences whose sign sign_from often proves: the kinds it reasons about, with parameters on both sides of its
# rules (a ratio or an exponent at the bound, an infinite one, a zero or subnormal scale, an overflowing term).
_signed_values = st.one_of(_values, st.floats(5e-324, 1e3))  # mostly positive
signed_sequences = st.one_of(
    st.builds(qd.Constant, _signed_values),
    st.builds(qd.Affine, _signed_values, _signed_values),
    st.builds(qd.PowerLaw, _signed_values, st.sampled_from((0.0, 0.5, 1.0, 2.0, 300.0, math.inf, -0.5))),
    st.builds(qd.Geometric, _signed_values, st.sampled_from((1.0, 1.0 + 2.0 ** -52, 2.0, 1e10, math.inf, 0.5))),
)


def outcome(fn) -> tuple:
    """What fn() does, comparable bit for bit: its float list as packed
    doubles, or the type, message and index of what it raises."""
    try:
        result = fn()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return "raises", type(exc), str(exc), getattr(exc, "index", None)
    if isinstance(result, list):
        return "returns", [struct.pack("d", v) for v in result]
    return "returns", result


def spy_coefficient_reads(monkeypatch, eq, seen):
    """From here on, call seen(name, start, stop) at each read of eq's d, a, b, c or p over [start, stop), and
    at each at(n) with stop = n + 1."""
    names = {id(getattr(eq, name)): name for name in "dabcp"}

    def spy(seq, start, stop):
        if id(seq) in names:
            seen(names[id(seq)], start, stop)

    read = model._Blocks.read
    monkeypatch.setattr(model._Blocks, "read", lambda seq, start, count: spy(seq, start, start + count)
                        or read(seq, start, count))
    for kind in (qd.Constant, qd.Geometric, qd.Affine, qd.PowerLaw, qd.Table, qd.Combine, qd.SignedPower):
        monkeypatch.setattr(kind, "at", lambda seq, n, at=kind.at: spy(seq, n, n + 1) or at(seq, n))
