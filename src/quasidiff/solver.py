"""Trajectory production by exact recursion on the quasidifference system.

The equation D t_n = -d_n * f(x_{n-tau}) is marched one index at a time by
one loop per regime, which carries the chain frontier (t_n, w_{n+1}, y_{n+2},
z_{n+3}) and reads the coefficients a block at a time.
In forward mode (tau > min(-4, delta - 4)) the new t is unwound through the
chain with inverse signed powers to reach the next x; in inverse mode
(tau < min(-4, delta - 4)) the chain advances over known x values and the
far-ahead x_{n-tau} is read off through the inverse of f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, repeat

from .errors import NumericRangeError, PivotError
# cli.cmd_solve calls max_relative_residual through this module, where perfbench/tracing.py rebinds it.
from .model import (Constant, EquationSpec, SequenceSpec, _xpow, chain_windows,  # noqa: F401
                    max_relative_residual, sign_of, staircase)
from .numerics import EPS_SIGN
from .windows import Window


class Provenance(str, Enum):
    FORWARD = "solved-forward"
    INVERSE = "solved-inverse"
    SAMPLED = "sampled-from-evaluator"


@dataclass(frozen=True)
class Trajectory:
    """A finite solution window of the equation eq; its chain is computed on first read.

    x covers [x.start, x.end] contiguously.  When a recursion overflows, the
    trajectory holds everything up to the last finite value and carries a
    truncation marker instead of failing.
    """

    eq: EquationSpec
    x: Window
    provenance: Provenance
    truncated: bool = False
    warnings: tuple[str, ...] = ()

    @cached_property
    def chain(self) -> tuple[Window, Window, Window, Window]:
        """(z, y, w, t) over the sub-range of x where they are defined; a ValueError
        when x is too short to give z four indices."""
        return chain_windows(self.eq, self.x)

    @property
    def n_start(self) -> int:
        return self.x.start

    @property
    def n_end(self) -> int:
        return self.x.end

    @property
    def truncation_index(self) -> int | None:
        """The first index a truncated march did not produce; None when not truncated."""
        return self.x.end + 1 if self.truncated else None


def forward_seed_span(eq: EquationSpec) -> tuple[int, int]:
    """Index range the seed must cover in forward mode."""
    return eq.n0 - max(eq.delta, eq.tau, 0), eq.n0 + 3


def inverse_seed_span(eq: EquationSpec) -> tuple[int, int]:
    """Index range the seed must cover in inverse mode."""
    return eq.n0 - max(eq.delta, 0), eq.n0 - eq.tau - 1


def _check_seed(seed: Window, lo: int, hi: int, mode: str) -> None:
    # New x values are appended after the seed, so it must end exactly at hi.
    if not seed.covers(lo, hi) or seed.end != hi:
        raise ValueError(
            f"{mode} seed must cover indices [{lo}, {hi}] and end at {hi}, "
            f"got [{seed.start}, {seed.end}]"
        )
    if not seed.all_finite():
        raise ValueError("seed values must all be finite")


MARCH_BLOCK = 64  # coefficient values read at a time: a march evaluates at most this many past its last step


def _column(seq: SequenceSpec, lo: int, hi: int):
    """seq at lo, lo + 1, ..., hi - 1 as they are consumed, read MARCH_BLOCK at a time (a Constant once): an
    index that raises raises when it is reached, as the per-index loop would, and no later block is read."""
    if isinstance(seq, Constant):
        return repeat(seq.at(lo), hi - lo)
    return chain.from_iterable(seq.read(m, min(MARCH_BLOCK, hi - m)) for m in range(lo, hi, MARCH_BLOCK))


def _march(eq: EquationSpec, seed: Window, horizon: int) -> Trajectory:
    """Run `horizon` steps of the regime's step rule from a seeded x history.

    The step at n moves the frontier (t_n, w_{n+1}, y_{n+2}, z_{n+3}) on by one
    index and appends x_{n+4} (forward) or x_{n-tau} (inverse), reading d_n,
    a_{n+1}, b_{n+2}, c_{n+3} and p_{n+4} from their columns in the order that
    the step rule uses them.  A non-finite value ends the march, truncated at
    the index of the x it failed to produce.  A block may give a NaN another
    sign than at() (see `_Blocks`), but no NaN's sign reaches an answer: every
    NaN coefficient makes a NaN in its step, which truncates the march there.
    """
    forward = eq.forward_mode
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    lo, hi = forward_seed_span(eq) if forward else inverse_seed_span(eq)
    _check_seed(seed, lo, hi, "forward" if forward else "inverse")

    n0, start = eq.n0, seed.start
    xs = list(seed.values)
    # Chain state at the frontier, derived from the seed rather than accepted
    # as independent inputs, so the staircase is consistent by construction.
    z, y, w, t = staircase(eq, xs, start, n0, n0 + 3)
    if forward and not all(map(math.isfinite, [*z, *y, *w, *t])):
        raise NumericRangeError("seed chain not finite", index=n0)
    columns = [_column(seq, n0 + k, n0 + horizon + k) for k, seq in enumerate((eq.d, eq.a, eq.b, eq.c, eq.p))]
    d_break = (_forward if forward else _inverse)(eq, xs, start, (t[0], w[1], y[2], z[3]), *columns)
    warnings = () if d_break is None else (f"one-sign assumption on d violated at n = {d_break}",)
    return Trajectory(eq, Window(start, tuple(xs)), Provenance.FORWARD if forward else Provenance.INVERSE,
                      len(xs) < len(seed) + horizon, warnings)


def _zero_coefficient(index: int) -> NumericRangeError:
    return NumericRangeError(f"division by zero coefficient at n = {index}", index=index)


def _forward(eq: EquationSpec, xs: list[float], start: int, frontier, d, a, b, c, p) -> int | None:
    """Append x_{n+4} for each d_n as solve_forward describes, until a value is not finite; the first n at
    which d_n leaves the sign of d_{n0}, or None.  A unit power is v or 0.0, what spow gives, with no call."""
    t, w, y, z = frontier
    tau, delta, f, unit_f, scale = eq.tau, eq.delta, eq.f.apply, eq.f.unit, eq.f.scale
    (ua, ia), (ub, ib), (uc, ic) = ((e.unit, e.reciprocal()) for e in (eq.alpha, eq.beta, eq.gamma))
    d_sign, d_break, isfinite = eq.d_sign(), None, math.isfinite
    for n, d_n in enumerate(d, eq.n0):
        if d_break is None and sign_of(d_n) != d_sign:
            d_break = n
        v = xs[n - tau - start]
        t -= d_n * (scale * (v or 0.0) if unit_f else f(v))
        if not isfinite(t):
            break
        if not (a_n := next(a)):  # w_{n+2} = w_{n+1} + (t_{n+1} / a_{n+1})^(1/alpha); z, y alike
            raise _zero_coefficient(n + 1)
        if not isfinite(w := w + ((t / a_n or 0.0) if ua else _xpow(t / a_n, ia))):
            break
        if not (b_n := next(b)):
            raise _zero_coefficient(n + 2)
        if not isfinite(y := y + ((w / b_n or 0.0) if ub else _xpow(w / b_n, ib))):
            break
        if not (c_n := next(c)):
            raise _zero_coefficient(n + 3)
        if not isfinite(z := z + ((y / c_n or 0.0) if uc else _xpow(y / c_n, ic))):
            break
        if delta == 0:
            pivot = 1.0 + (p_n := next(p))
            if abs(pivot) <= EPS_SIGN * max(1.0, abs(p_n)):
                raise PivotError(n + 4, pivot)
            x = z / pivot
        else:
            x = z - next(p) * xs[n + 4 - delta - start]
        if not isfinite(x):
            break
        xs.append(x)
    return d_break


def _inverse(eq: EquationSpec, xs: list[float], start: int, frontier, d, a, b, c, p) -> int | None:
    """Append x_{n-tau} for each d_n: z_{n+4}, y_{n+3}, w_{n+2} and t_{n+1} from known x by the staircase's
    node formula, then x_{n-tau} = f^{-1}(-D t_n / d_n), until a value is not finite; as _forward otherwise."""
    t, w, y, z = frontier
    delta, alpha, beta, gamma = eq.delta, eq.alpha, eq.beta, eq.gamma
    scale, unit_f, invert = eq.f.scale, eq.f.unit, eq.f.invert  # f is an OddPowerMap: solve_inverse checks it
    ua, ub, uc = (e.unit for e in (alpha, beta, gamma))
    d_sign, d_break, isfinite = eq.d_sign(), None, math.isfinite
    for n, d_n in enumerate(d, eq.n0):
        if d_break is None and sign_of(d_n) != d_sign:
            d_break = n
        if abs(d_n) <= EPS_SIGN:
            raise NumericRangeError(f"d({n}) = {d_n!r} too close to zero to invert through", index=n)
        v = (z_next := xs[n + 4 - start] + next(p) * xs[n + 4 - delta - start]) - z
        v = (y_next := next(c) * ((v or 0.0) if uc else _xpow(v, gamma))) - y
        v = (w_next := next(b) * ((v or 0.0) if ub else _xpow(v, beta))) - w
        t_next = next(a) * ((v or 0.0) if ua else _xpow(v, alpha))
        if not isfinite(target := (t - t_next) / d_n):
            break
        if not isfinite(x := (target / scale or 0.0) if unit_f else invert(target)):
            break
        xs.append(x)
        t, w, y, z = t_next, w_next, y_next, z_next
    return d_break


def solve_forward(eq: EquationSpec, seed: Window, horizon: int) -> Trajectory:
    """March the recursion forward for `horizon` steps from a seeded x history.

    Each step advances the staircase t -> w -> y -> z -> x by one index:
    t_{n+1} = t_n - d_n f(x_{n-tau}), then the chain is unwound with inverse
    signed powers, then x_{n+4} = z_{n+4} - p_{n+4} x_{n+4-delta} (a division
    by 1 + p when delta = 0, guarded against near-zero pivots).
    """
    if not eq.forward_mode:
        raise ValueError(f"tau = {eq.tau} is not in the forward regime for delta = {eq.delta}")
    if eq.delta < 0:
        raise ValueError("forward mode does not support advanced neutral terms (delta < 0)")
    return _march(eq, seed, horizon)


def solve_inverse(eq: EquationSpec, seed: Window, horizon: int) -> Trajectory:
    """Recover far-ahead x values through the inverse of f.

    Requires tau < min(-4, delta - 4): the forcing index n - tau leads the
    chain, so D t_n is computable from known history and
    x_{n-tau} = f^{-1}(-D t_n / d_n).
    """
    if eq.forward_mode:
        raise ValueError(f"tau = {eq.tau} is not in the inverse regime for delta = {eq.delta}")
    if not eq.f.invertible:
        raise ValueError("inverse mode requires an invertible nonlinearity")
    return _march(eq, seed, horizon)


def sample_trajectory(eq: EquationSpec, x, start: int, end: int) -> Trajectory:
    """Wrap a closed-form evaluator as a trajectory.

    The evaluator must be total on [start, end]; non-finite samples are a
    range error carrying the index.
    """
    if end < start:
        raise ValueError(f"empty sample range [{start}, {end}]")
    values = []
    for n in range(start, end + 1):
        try:
            v = float(x(n))
        except OverflowError:
            raise NumericRangeError(f"evaluator overflowed at n = {n}", index=n) from None
        if not math.isfinite(v):
            raise NumericRangeError(f"evaluator returned non-finite value at n = {n}", index=n)
        values.append(v)
    return Trajectory(eq, Window(start, tuple(values)), Provenance.SAMPLED)
