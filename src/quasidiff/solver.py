"""Trajectory production by exact recursion on the quasidifference system.

The equation D t_n = -d_n * f(x_{n-tau}) is marched one index at a time by
one loop, which carries the chain frontier (t_n, w_{n+1}, y_{n+2}, z_{n+3}).
In forward mode (tau > min(-4, delta - 4)) the new t is unwound through the
chain with inverse signed powers to reach the next x; in inverse mode
(tau < min(-4, delta - 4)) the chain advances over known x values and the
far-ahead x_{n-tau} is read off through the inverse of f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial

from .errors import NumericRangeError, PivotError
# max_relative_residual stays importable here: perfbench/tracing.py rebinds solver.max_relative_residual.
from .model import (EquationSpec, _xpow, chain_windows, max_relative_residual,  # noqa: F401
                    sign_of, staircase)
from .numerics import EPS_SIGN, spow
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


def _march(eq: EquationSpec, seed: Window, horizon: int) -> Trajectory:
    """Run `horizon` steps of the regime's step rule from a seeded x history.

    The step at n moves the frontier (t_n, w_{n+1}, y_{n+2}, z_{n+3}) on by one
    index and appends x_{n+4} (forward) or x_{n-tau} (inverse).  A non-finite
    value ends the march, truncated at the index of the x it failed to produce.
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
    frontier = (t[0], w[1], y[2], z[3])
    step = (partial(_forward_step, (eq.alpha.reciprocal(), eq.beta.reciprocal(), eq.gamma.reciprocal()))
            if forward else _inverse_step)
    d_sign = eq.d_sign()
    d_break: int | None = None
    for n in range(n0, n0 + horizon):
        d_n = eq.d.at(n)
        if d_break is None and sign_of(d_n) != d_sign:
            d_break = n
        advanced = step(eq, n, d_n, xs, start, frontier)
        if advanced is None:
            break
        x_next, frontier = advanced
        xs.append(x_next)
    warnings = () if d_break is None else (f"one-sign assumption on d violated at n = {d_break}",)
    return Trajectory(eq, Window(start, tuple(xs)), Provenance.FORWARD if forward else Provenance.INVERSE,
                      advanced is None, warnings)


def _unwind(value: float, coeff: float, inverse_exponent, index: int) -> float | None:
    try:
        ratio = value / coeff
    except ZeroDivisionError:
        raise NumericRangeError(f"division by zero coefficient at n = {index}", index=index) from None
    if not math.isfinite(ratio):
        return None
    return spow(ratio, inverse_exponent)


def _forward_step(inverse_exponents, eq: EquationSpec, n: int, d_n: float, xs: list[float],
                  start: int, frontier):
    """(x_{n+4}, the next frontier) as solve_forward describes; None at a non-finite value."""
    t_n, w_n1, y_n2, z_n3 = frontier
    inv_alpha, inv_beta, inv_gamma = inverse_exponents
    t_next = t_n - d_n * eq.f.apply(xs[n - eq.tau - start])
    if not math.isfinite(t_next):
        return None
    dw = _unwind(t_next, eq.a.at(n + 1), inv_alpha, n + 1)
    if dw is None or not math.isfinite(w_next := w_n1 + dw):
        return None
    dy = _unwind(w_next, eq.b.at(n + 2), inv_beta, n + 2)
    if dy is None or not math.isfinite(y_next := y_n2 + dy):
        return None
    dz = _unwind(y_next, eq.c.at(n + 3), inv_gamma, n + 3)
    if dz is None or not math.isfinite(z_next := z_n3 + dz):
        return None
    if eq.delta == 0:
        pivot = 1.0 + eq.p.at(n + 4)
        if abs(pivot) <= EPS_SIGN * max(1.0, abs(eq.p.at(n + 4))):
            raise PivotError(n + 4, pivot)
        x_next = z_next / pivot
    else:
        x_next = z_next - eq.p.at(n + 4) * xs[n + 4 - eq.delta - start]
    if not math.isfinite(x_next):
        return None
    return x_next, (t_next, w_next, y_next, z_next)


def _inverse_step(eq: EquationSpec, n: int, d_n: float, xs: list[float], start: int, frontier):
    """(x_{n-tau}, the next frontier): z_{n+4}, y_{n+3}, w_{n+2} and t_{n+1} from known x,
    then x_{n-tau} = f^{-1}(-D t_n / d_n).  None at a non-finite value."""
    if abs(d_n) <= EPS_SIGN:
        raise NumericRangeError(f"d({n}) = {d_n!r} too close to zero to invert through", index=n)
    t_n, w_n1, y_n2, z_n3 = frontier
    z_next = xs[n + 4 - start] + eq.p.at(n + 4) * xs[n + 4 - eq.delta - start]
    y_next = float(eq.c.at(n + 3)) * _xpow(z_next - z_n3, eq.gamma)  # the staircase's node formula
    w_next = float(eq.b.at(n + 2)) * _xpow(y_next - y_n2, eq.beta)
    t_next = float(eq.a.at(n + 1)) * _xpow(w_next - w_n1, eq.alpha)
    target = (t_n - t_next) / d_n
    if not math.isfinite(target):
        return None
    x_next = eq.f.invert(target)
    if not math.isfinite(x_next):
        return None
    return x_next, (t_next, w_next, y_next, z_next)


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
