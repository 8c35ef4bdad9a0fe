"""The fourth-order neutral difference equation and its quasidifference chain.

An equation is

    D( a_n * ( D( b_n * ( D( c_n * (D z_n)^gamma ) )^beta ) )^alpha ) + d_n * f(x_{n-tau}) = 0,

where z_n = x_n + p_n * x_{n-delta} is the companion sequence of x, D is the
forward difference, and alpha, beta, gamma are odd ratios.  Introducing the
quasidifferences

    y_n = c_n * (D z_n)^gamma,   w_n = b_n * (D y_n)^beta,   t_n = a_n * (D w_n)^alpha,

the equation reads D t_n = -d_n * f(x_{n-tau}), which is the form the solver
and the certificates work with.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, repeat
from typing import Callable, Union

from .errors import SequenceDomainError
from .numerics import OddRatio, spow
from .windows import Window

# ---------------------------------------------------------------------------
# Coefficient sequences
# ---------------------------------------------------------------------------

# RecursionError: a block takes two frames per tree level where at() takes one.
EVALUATION_ERRORS = (OverflowError, ZeroDivisionError, SequenceDomainError, RecursionError)


def _raising(exc: Exception):
    raise exc
    yield  # a generator: it raises when its first value is asked for


class _Blocks:
    """block(start, count) is [self.at(n) for n in range(start, start + count)] bit for bit (but for the sign of
    a NaN that a leaf's inline block arithmetic makes of two NaN parameters; at() gives one on every call) or
    raises what that loop raises first: the loop runs if `_fast` gives None or raises."""

    min_index = None
    settled: tuple[float, float] | None = None  # (N, v): at(n) is v bit for bit, and raises nothing, for n >= N

    def _set_settled(self) -> None:
        """Work out `settled` once, at construction, from the children's (N = -inf: every n)."""
        try:
            object.__setattr__(self, "settled", self._settle())
        except (ArithmeticError, TypeError, ValueError):  # at() raises at the values: not settled
            pass

    def _fast(self, start: int, count: int) -> list[float] | None:
        return None  # no one-pass block: the loop runs

    def sign_from(self, n0: int) -> int | None:
        """+1 or -1 when, at every n >= n0 that a double holds, at(n) raises nothing and has that strict
        sign (never 0, never NaN); None when that is not proved."""
        return None

    def block(self, start: int, count: int, done: list | None = None) -> list[float]:
        settled = self.settled
        if settled is not None and start >= settled[0]:
            return [settled[1]] * count
        try:
            vals = self._fast(start, count)
        except EVALUATION_ERRORS:
            vals = None
        if vals is None:
            vals = [] if done is None else done  # the caller's list holds the values before an index that raises
            for n in range(start, start + count):
                vals.append(self.at(n))
        return vals

    def read(self, start: int, count: int):
        """The block over the range, a list; where it raises, the values before the index that raised, then its
        error: a reader stops, or raises, where the per-index loop would, and no index is evaluated twice."""
        done = []
        try:
            return self.block(start, count, done)
        except EVALUATION_ERRORS as exc:
            return chain(done, _raising(exc))


@dataclass(frozen=True)
class Constant(_Blocks):
    """n -> value."""

    value: float

    def at(self, n: int) -> float:
        return float(self.value)

    def __post_init__(self) -> None:
        self._set_settled()

    def _settle(self) -> tuple[float, float]:  # its blocks repeat the value
        return -math.inf, float(self.value)

    def sign_from(self, n0: int) -> int | None:
        return sign_of(float(self.value)) or None


@dataclass(frozen=True)
class Geometric(_Blocks):
    """n -> scale * ratio**n."""

    scale: float
    ratio: float

    def at(self, n: int) -> float:
        try:
            r = self.ratio ** n
        except OverflowError:
            negative = self.ratio < 0 and n % 2 != 0
            r = -math.inf if negative else math.inf
        except ZeroDivisionError:
            raise SequenceDomainError(f"0**{n} undefined in geometric sequence", index=n) from None
        return operator.mul(self.scale, r)

    def _fast(self, start: int, count: int) -> list[float]:
        scale, ratio = self.scale, self.ratio
        return [scale * ratio ** n for n in range(start, start + count)]

    def sign_from(self, n0: int) -> int | None:  # ratio**n >= 1, or an overflow that at() saturates to inf
        proved = math.isfinite(self.scale) and self.ratio >= 1.0 and n0 >= 0
        return sign_of(self.scale) or None if proved else None


@dataclass(frozen=True)
class Affine(_Blocks):
    """n -> slope * n + intercept."""

    slope: float
    intercept: float

    def at(self, n: int) -> float:
        return operator.add(operator.mul(self.slope, n), self.intercept)

    def _fast(self, start: int, count: int) -> list[float]:
        slope, intercept = self.slope, self.intercept
        return [slope * n + intercept for n in range(start, start + count)]

    def sign_from(self, n0: int) -> int | None:  # n -> fl(fl(slope * n) + intercept) is monotone: each rounding is
        finite = math.isfinite(self.slope) and math.isfinite(self.intercept)
        s = sign_of(self.slope * n0 + self.intercept) if finite else 0  # the sign of at(n0)
        return s if s and sign_of(self.slope) in (0, s) else None


@dataclass(frozen=True)
class PowerLaw(_Blocks):
    """n -> scale * n**exponent; negative exponents start at n = 1."""

    scale: float
    exponent: float

    def at(self, n: int) -> float:
        lo = self.min_index
        if lo is not None and n < lo:
            raise SequenceDomainError(f"n**{self.exponent} not evaluable at n = {n}", index=n)
        try:
            return operator.mul(self.scale, float(n) ** self.exponent)
        except OverflowError:
            return math.copysign(math.inf, self.scale)

    def _fast(self, start: int, count: int) -> list[float] | None:
        if self.min_index is not None and start < self.min_index:
            return None
        scale, exponent = self.scale, self.exponent
        return [scale * float(n) ** exponent for n in range(start, start + count)]

    def sign_from(self, n0: int) -> int | None:  # float(n)**e >= 1, or an overflow that at() saturates to inf
        proved = math.isfinite(self.scale) and self.exponent >= 0 and n0 >= 1
        return sign_of(self.scale) or None if proved else None

    @property
    def min_index(self) -> int | None:
        if self.exponent < 0 or not float(self.exponent).is_integer():
            return 1
        return None


@dataclass(frozen=True)
class Table(_Blocks):
    """Explicit values from a start index, with an out-of-range rule.

    ``hold-last`` extends the final value past the end of the table; indices
    before the start are always an error.
    """

    values: tuple[float, ...]
    start: int = 0
    out_of_range: str = "error"

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("table sequence needs at least one value")
        if self.out_of_range not in ("error", "hold-last"):
            raise ValueError(f"out_of_range must be 'error' or 'hold-last', got {self.out_of_range!r}")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def at(self, n: int) -> float:
        if n < self.start:
            raise SequenceDomainError(f"table starts at {self.start}, asked for {n}", index=n)
        if n > self.start + len(self.values) - 1:
            if self.out_of_range == "hold-last":
                return self.values[-1]
            raise SequenceDomainError(f"table ends at {self.start + len(self.values) - 1}, asked for {n}", index=n)
        return self.values[n - self.start]

    def _fast(self, start: int, count: int) -> list[float] | None:
        lo = start - self.start
        if lo < 0 or (self.out_of_range == "error" and lo + count > len(self.values)):
            return None
        vals = list(self.values[lo:lo + count])
        return vals + [self.values[-1]] * (count - len(vals))

    @property
    def min_index(self) -> int | None:
        return self.start


@dataclass(frozen=True)
class Combine(_Blocks):
    """Pointwise '+', '-', '*', or '/' of two sequences."""

    _OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

    op: str
    left: "SequenceSpec"
    right: "SequenceSpec"

    def __post_init__(self) -> None:
        if self.op not in ("+", "-", "*", "/"):
            raise ValueError(f"unknown combination op {self.op!r}")
        # One operator function for at, blocks and the settled value: a C call, which CPython never specializes,
        # so two NaN operands give one result (inline float ops may carry either NaN, depending on the site).
        object.__setattr__(self, "_apply", self._OPERATORS[self.op])
        los = [lo for lo in (self.left.min_index, self.right.min_index) if lo is not None]
        object.__setattr__(self, "min_index", max(los) if los else None)  # from the children's, without a walk
        self._set_settled()

    def at(self, n: int) -> float:
        lv, rv = self.left.at(n), self.right.at(n)
        try:
            return self._apply(lv, rv)
        except ZeroDivisionError:
            raise SequenceDomainError(f"division by zero at n = {n}", index=n) from None

    def _fast(self, start: int, count: int) -> list[float]:
        return list(map(self._apply, self.left.block(start, count), self.right.block(start, count)))

    def _settle(self) -> tuple[float, float] | None:
        left, right = self.left.settled, self.right.settled
        if left is not None and right is not None:  # as at() combines the values; '/' by zero raises
            return max(left[0], right[0]), self._apply(left[1], right[1])
        if self.op in "+-" and left is not None:
            return _absorbed(left, self.right, 1.0)
        if self.op in "+-" and right is not None:
            return _absorbed(right, self.left, -1.0 if self.op == "-" else 1.0)
        return None


@dataclass(frozen=True)
class SignedPower(_Blocks):
    """Pointwise signed power of a sequence by an odd ratio."""

    base: "SequenceSpec"
    exponent: OddRatio

    def __post_init__(self) -> None:
        object.__setattr__(self, "min_index", self.base.min_index)
        self._set_settled()

    def _of(self, v: float) -> float:  # the power of one base value; one that is not finite gives inf of its sign
        return spow(v, self.exponent) if math.isfinite(v) else math.copysign(math.inf, v)

    def at(self, n: int) -> float:
        return self._of(self.base.at(n))

    def _fast(self, start: int, count: int) -> list[float]:
        vals, e = self.base.block(start, count), self.exponent
        # The unit power maps every value but a zero (-0.0 -> 0.0) and a NaN (-> +-inf) to float(v).
        if e.unit and all(map((0.0).__lt__, map(abs, vals))):
            return list(map(float, vals))
        # A positive finite base takes spow's C pow(); where that overflows, _of saturates to inf.
        if all(map((0.0).__lt__, vals)) and max(vals, default=0.0) < math.inf:
            try:
                return list(map(math.pow, vals, repeat(e.numerator / e.denominator, count)))
            except OverflowError:
                pass
        return list(map(self._of, vals))

    def _settle(self) -> tuple[float, float] | None:
        if self.base.settled is None:
            return None
        lo, v = self.base.settled  # as at() takes the power
        return lo, self._of(v)


SequenceSpec = Union[Constant, Geometric, Affine, PowerLaw, Table, Combine, SignedPower]


def _absorbed(settled: tuple[float, float], g: SequenceSpec, sign: float) -> tuple[float, float] | None:
    """The settled tail of c + g, c - g (sign 1) or g - c (sign -1) for settled = (N_c, c) and a geometric g:
    from the first n >= 1, within 64 of the logs' estimate, whose term computes to at most eps = ulp(c)/16.  The
    exact terms never grow, and a pow error below 10% and the subnormal rounding of the product (eps >= 2**-1004)
    and of the power (|scale| * 2**-1074 <= eps) keep later terms below ulp(c)/4: c + v rounds to c."""
    lo, c = settled
    eps = math.ulp(c) / 16
    if not (isinstance(g, Geometric) and math.isfinite(c) and c and eps >= 2.0 ** -1004
            and abs(g.ratio) < 1.0 and abs(g.scale) * 5e-324 <= eps):
        return None
    start = max(1, lo)
    if g.scale and g.ratio:  # else every term from n = 1 on is a zero; logs, as eps / scale may underflow
        start = max(start, math.floor((math.log(eps) - math.log(abs(g.scale))) / math.log(abs(g.ratio))))
    for n in range(start, start + 64):
        if abs(g.at(n)) <= eps:
            return n, sign * c
    return None


# ---------------------------------------------------------------------------
# Nonlinearities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OddPowerMap:
    """x -> scale * sign(x) * |x|**exponent.  Invertible when scale != 0."""

    scale: float
    exponent: OddRatio
    continuous = True

    def apply(self, x: float) -> float:
        return self.scale * spow(x, self.exponent)

    def invert(self, value: float) -> float:
        if self.scale == 0.0:
            raise ValueError("zero-scale odd power has no inverse")
        return _xpow(value / self.scale, self.exponent.reciprocal())

    @property
    def unit(self) -> bool:
        """Whether the exponent is 1: apply is x -> scale * (x or 0.0) at a finite x, invert v -> v / scale or 0.0."""
        return self.exponent.unit

    @property
    def sign_condition(self) -> bool:
        return self.scale > 0.0

    @property
    def invertible(self) -> bool:
        return self.scale != 0.0


@dataclass(frozen=True)
class SignumMap:
    """x -> scale * sgn(x).  Not invertible, not continuous at zero."""

    scale: float
    unit = False  # not an odd power
    invertible = continuous = False

    def apply(self, x: float) -> float:
        if x > 0.0:
            return self.scale
        if x < 0.0:
            return -self.scale
        return 0.0

    def invert(self, value: float) -> float:
        raise ValueError("signum nonlinearity is not invertible")

    @property
    def sign_condition(self) -> bool:
        return self.scale > 0.0


Nonlinearity = Union[OddPowerMap, SignumMap]


# ---------------------------------------------------------------------------
# Equation
# ---------------------------------------------------------------------------

VALIDATION_SAMPLE = 256


def sign_of(v: float) -> int:
    """-1, 0 or +1; NaN counts as 0."""
    return (v > 0.0) - (v < 0.0)


def first_failure(seq: SequenceSpec, start: int, count: int,
                  holds: Callable[[float], bool]) -> int | None:
    """First index of [start, start+count) where holds(seq.at(n)) is false, else None, or what the scan index by
    index raises first.  holds gives at every value of strict sign s what it gives at s, as the callers'
    (0.0).__lt__, __le__ and __gt__ do, so a sign s that seq.sign_from(start) proves with holds(s) reads nothing;
    else one read that holds throughout ends the scan."""
    s = seq.sign_from(start)
    if s is not None and holds(s):
        return None
    vals = seq.read(start, count)
    if isinstance(vals, list) and all(map(holds, vals)):
        return None
    return next((n for n, v in zip(range(start, start + count), vals) if not holds(v)), None)


@dataclass(frozen=True)
class EquationSpec:
    """Full description of one equation instance.

    tau and delta are the deviating arguments (negative values mean advanced
    arguments); n0 is the first index of the domain and must satisfy
    n0 >= max(1, delta, tau).  The excluded case tau == min(-4, delta - 4)
    (where the recursion defines nothing) is rejected here, so the solvers
    never see it.  Positivity of a, b, c and one-signedness of d are checked
    on a sampled prefix, not proven; a sequence that cannot be evaluated on
    that prefix is rejected.  A sequence whose sign `sign_from(n0)` proves
    (+1 for a, b and c, either sign for d) holds the sample, and
    `first_failure` reads none of it.
    """

    alpha: OddRatio
    beta: OddRatio
    gamma: OddRatio
    tau: int
    delta: int
    p: SequenceSpec
    d: SequenceSpec
    a: SequenceSpec
    b: SequenceSpec
    c: SequenceSpec
    f: Nonlinearity
    n0: int
    # {series: {terms summed: partial sum}}, the memo of the almost-oscillation probes (analysis._series_entry)
    _series_ends: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("tau", "delta", "n0"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.tau == min(-4, self.delta - 4):
            raise ValueError(
                f"excluded case tau == min(-4, delta - 4): tau = {self.tau}, delta = {self.delta}"
            )
        bound = max(1, self.delta, self.tau)
        if self.n0 < bound:
            raise ValueError(f"n0 must be >= max(1, delta, tau) = {bound}, got {self.n0}")
        for name in ("p", "d", "a", "b", "c"):
            lo = getattr(self, name).min_index
            if lo is not None and lo > self.n0:
                raise ValueError(f"sequence {name} not evaluable from n0 = {self.n0} (starts at {lo})")
        try:
            for name in ("a", "b", "c"):
                seq = getattr(self, name)
                n = first_failure(seq, self.n0, VALIDATION_SAMPLE, (0.0).__lt__)
                if n is not None:
                    raise ValueError(f"sequence {name} must be strictly positive; {name}({n}) = {seq.at(n)!r}")
            name = "d"
            same_sign = (0.0).__lt__ if self.d_sign() > 0 else (0.0).__gt__  # a zero or NaN at n0 fails both
            bad = first_failure(self.d, self.n0, VALIDATION_SAMPLE, same_sign)
        except SequenceDomainError as exc:
            raise ValueError(f"sequence {name} not evaluable on the validation sample "
                             f"[{self.n0}, {self.n0 + VALIDATION_SAMPLE - 1}]: {exc}") from None
        if bad is not None:
            v = self.d.at(bad)
            if sign_of(v) == 0:
                raise ValueError(f"sequence d must be of one sign; d({bad}) = {v!r}")
            raise ValueError(f"sequence d changes sign at n = {bad}")

    @property
    def forward_mode(self) -> bool:
        """True when the recursion runs forward (tau > min(-4, delta - 4))."""
        return self.tau > min(-4, self.delta - 4)

    def d_sign(self) -> int:
        return sign_of(self.d.at(self.n0))


# ---------------------------------------------------------------------------
# Chain and residual
# ---------------------------------------------------------------------------

Evaluator = Callable[[int], float]


def _xpow(v: float, e: OddRatio) -> float:
    # Totalized signed power: overflowed or undefined inputs pass through so
    # materialization past a truncation point stays honest instead of raising.
    if math.isfinite(v):
        return spow(v, e)
    return v


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for an integer n >= 1, by Newton's method from above.

    The float seed is only a starting point: `_root_pow` scales n so that its root has 144 or 145 bits, and
    exp(log(n) / k) is then within a relative 1e-13 of the root, so the 2**-40 margin puts the seed above
    it.  From above, the integer Newton steps decrease to the floor of the root and stop there.
    """
    x = int(math.exp(math.log(n) / k) * (1 + 2.0 ** -40)) + 1
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _coefficients(seq: SequenceSpec, lo: int, count: int, num: Callable):
    """num(seq.at(n)) for n in [lo, lo + count): a Constant converted once, else `seq.read`."""
    if isinstance(seq, Constant):
        return repeat(num(seq.at(lo)), count)
    return map(num, seq.read(lo, count))


def staircase(eq: EquationSpec, xs, x0: int, lo: int, hi: int, num: Callable = float,
              power: Callable = _xpow) -> tuple[list, list, list, list]:
    """The chain columns z on [lo, hi], y on [lo, hi-1], w on [lo, hi-2], t on [lo, hi-3].

    The one definition of the staircase z -> y -> w -> t.  xs[i] is x_{x0+i},
    already of the number type `num`, which also converts the coefficient
    values; `power` is the signed power of that type (the totalized `_xpow`
    for float); a unit exponent's power is v, or num(0) for a zero, with no
    call.  p, c, b and a are each read (`_coefficients`) as its column starts.
    """
    count, lag, zero = hi - lo + 1, lo - eq.delta - x0, num(0)
    columns = [list(map(operator.add, xs[lo - x0:lo - x0 + count],  # z_j = x_j + p_j * x_{j-delta}
                        map(operator.mul, _coefficients(eq.p, lo, count, num), xs[lag:lag + count])))]
    for seq, e in ((eq.c, eq.gamma), (eq.b, eq.beta), (eq.a, eq.alpha)):
        prev = columns[-1]  # the next column is seq_m * power(prev_{m+1} - prev_m, e)
        diffs = map(operator.sub, prev[1:], prev)  # the map stops with prev[1:]
        powers = (v if v else zero for v in diffs) if e.unit else map(power, diffs, repeat(e))
        columns.append(list(map(operator.mul, _coefficients(seq, lo, len(prev) - 1, num), powers)))
    return tuple(columns)


def _x_values(x: Evaluator, lo: int, hi: int):
    """x on [lo, hi]: a slice of a Window that covers it, else x(m) at each m as it is consumed."""
    if isinstance(x, Window) and x.covers(lo, hi):
        return x.values[lo - x.start:hi - x.start + 1]
    return map(x, range(lo, hi + 1))


RESIDUAL_BLOCK = 256
RESIDUAL_WIDTH = 8192  # bits: a block is halved where differences this wide meet a power other than 1


def _binary(vals) -> tuple[list[int], int]:
    """(m, s) with float(vals[i]) == m[i] / 2**s exactly; as_integer_ratio raises for inf and NaN."""
    nums, dens = zip(*map(float.as_integer_ratio, map(float, vals)))
    s = max(dens).bit_length()  # each den is a power of two
    return list(map(operator.lshift, nums, map(s.__sub__, map(int.bit_length, dens)))), s - 1


def _root_pow(v: int, s: int, m: int, k: int) -> tuple[int, int]:
    """(r, q) with r * 2**q the signed power (v / 2**s) ** (m/k) of v != 0, rounded to odd at 144 or 145 bits,
    from the value alone: |v| cut to 152 bits (what is cut off sets a sticky last bit) is raised to m, and
    `_iroot` takes the k-th root of that power shifted to k*144 bits or up to k - 1 more (sticky again)."""
    mag = abs(v)
    cut = mag.bit_length() - 152
    head = mag >> cut | (mag & ((1 << cut) - 1) != 0) if cut > 0 else mag << -cut
    power, e = head ** m, (cut - s) * m  # |v / 2**s| ** m = power * 2**e, up to the sticky bit
    q = (e + power.bit_length()) // k - 144
    n, rest = (power << e - k * q, 0) if e >= k * q else divmod(power, 1 << k * q - e)
    r = _iroot(n, k)
    return (r | (rest != 0 or r ** k != n)) * (1 if v > 0 else -1), q  # inexact: the odd one of r and r + 1


def _int_powers(diffs: list[int], s: int, e: OddRatio) -> tuple[list[int], int]:
    """(the signed powers of diffs[i] / 2**s as integers over 2**s', s'): exact for an integer exponent, else
    each by `_root_pow`, then shifted to the smallest scale of them; one power per distinct value."""
    m, k = e.numerator, e.denominator
    roots = {v: (v ** m, -s * m) if k == 1 else _root_pow(v, s, m, k) for v in set(diffs) if v}
    s = -min((q for _, q in roots.values()), default=0)
    powers = {0: 0, **{v: r << q + s for v, (r, q) in roots.items()}}
    return list(map(powers.__getitem__, diffs)), s


def _parts(t: list, forcing: list, rounded: Callable) -> list[tuple[float, float]]:
    """(D t_n + forcing_n, max(|t_{n+1}|, |t_n|, |forcing_n|)) at each index, each through `rounded`."""
    abs_t = list(map(abs, t))
    return list(zip(map(rounded, map(operator.add, map(operator.sub, t[1:], t), forcing)),
                    map(rounded, map(max, abs_t[1:], abs_t, map(abs, forcing)))))


def _zero_not_finite(readers, size: int) -> bytearray:
    """1 at each index i of range(size) that reads a value that is not finite, else 0; each such value is set to
    0.0 in place.  readers holds (values, windows): i reads values[i + shift:i + shift + width + 1] for each
    (shift, width) of windows, and every i reads a one-value column (a Constant's)."""
    marked = bytearray(size)
    for values, windows in readers:
        for bad in re.finditer(b"\0+", bytes(map(math.isfinite, values))):
            start, end = bad.span()
            values[start:end] = [0.0] * (end - start)
            for shift, width in windows:
                i, j = (0, size) if len(values) == 1 else (start - shift - width, end - shift)
                i, j = min(max(i, 0), size), min(max(j, 0), size)  # a negative end would count from the back
                marked[i:j] = b"\1" * (j - i)
    return marked


def _residual_parts(eq: EquationSpec, x: Evaluator, lo: int, hi: int) -> list[tuple[float, float]]:
    """(residual, scale of the cancelled terms) at each index of [lo, hi].

    The residual subtracts nearly equal t values, whose recomputation noise in doubles the exponents and
    the differences would amplify.  Its inputs (x, the coefficients and the float forcing) are doubles, so
    the staircase runs in integers on one power-of-two scale per column, a fractional power rounded once
    from its value alone, and each result rounds once: no result depends on the range.  An index that
    reads a value that is not finite (x at n..n+4 and n-delta..n+4-delta, p to n+4, c to n+3, b to n+2,
    a to n+1, or the forcing at n) gets (NaN, NaN): an inf or NaN that enters z reaches t, and inf * 0
    and inf - inf are NaN.  The pass reads such a value as 0.0, which changes no other index's result; a
    block whose every index reads one runs no pass.
    """
    forcing_f = list(map(operator.mul, eq.d.read(lo, hi - lo + 1),
                         map(eq.f.apply, _x_values(x, lo - eq.tau, hi - eq.tau))))
    below, above = _chain_reach(eq)
    xs = list(map(float, _x_values(x, lo - below, hi + 4 + above)))  # x over the indices z on [lo, hi + 4] reads
    count = hi - lo + 5
    reads = [[seq.at(lo)] if isinstance(seq, Constant) else list(seq.read(lo, count - k))
             for k, seq in enumerate((eq.p, eq.c, eq.b, eq.a))]  # every column is read before any converts
    inputs, marked = (forcing_f, xs, *reads), None
    try:  # as_integer_ratio raises for inf and NaN
        (fm, fs), (xm, s), *columns = map(_binary, inputs)
    except (ValueError, OverflowError):
        marked = _zero_not_finite(((forcing_f, ((0, 0),)), (xs, ((below, 4), (below - eq.delta, 4))),
                                   *((r, ((0, 4 - k),)) for k, r in enumerate(reads))), hi - lo + 1)
        if 0 not in marked:  # every index reads a value that is not finite: no pass
            return [(math.nan, math.nan)] * (hi - lo + 1)
        (fm, fs), (xm, s), *columns = map(_binary, inputs)
    (pm, ps), *steps = ((repeat(m[0]) if len(m) == 1 else m, ms) for m, ms in columns)  # a Constant once
    z = list(map(operator.add, map(operator.lshift, xm[below:below + count], repeat(ps)),
                 map(operator.mul, pm, xm[below - eq.delta:])))  # x_j + p_j x_{j-delta}, count of them
    s += ps
    for (m, ms), e in zip(steps, (eq.gamma, eq.beta, eq.alpha)):  # y = c (D z)^gamma, w = b (D y)^beta, t
        z = list(map(operator.sub, z[1:], z))
        if not e.unit:  # a power multiplies widths: the zero bits at the bottom of every
            low = reduce(operator.or_, z)  # difference (p's scale can leave many) come off, and a wide block halves
            low = (low & -low).bit_length() - 1 if low else 0
            z, s = list(map(operator.rshift, z, repeat(low))) if low else z, s - low
            if lo < hi and max(max(z), -min(z)).bit_length() > RESIDUAL_WIDTH:
                return _residual_parts(eq, x, lo, (lo + hi) // 2) + _residual_parts(eq, x, (lo + hi) // 2 + 1, hi)
            z, s = _int_powers(z, s, e)
        z, s = list(map(operator.mul, m, z)), s + ms  # each product adds its column's scale
    top = max(s, fs)
    t, forcing, den = [v << top - s for v in z], [v << top - fs for v in fm], 1 << top
    try:  # int / int is correctly rounded, and raises where that is 2**1024 or more
        parts = _parts(t, forcing, den.__rtruediv__)
    except OverflowError:
        limit = ((1 << 54) - 1) << 970 + top  # (2**1024 - 2**970) * den: from this tie on, an infinity
        parts = _parts(t, forcing, lambda v: v / den if abs(v) < limit else math.inf if v > 0 else -math.inf)
    if marked is None:
        return parts
    return [(math.nan, math.nan) if bad else part for part, bad in zip(parts, marked)]


def relative_residual(eq: EquationSpec, x: Evaluator, n: int) -> float:
    """Residual scaled by the largest cancelled term; exact zero stays zero."""
    return relative_residuals(eq, x, range(n, n + 1))[0]


def chain_windows(eq: EquationSpec, x: Window) -> tuple[Window, Window, Window, Window]:
    """Materialize (z, y, w, t) over the sub-range of x where they are defined."""
    below, above = _chain_reach(eq)
    lo, hi = x.start + below, x.end - above
    if hi - lo < 3:
        raise ValueError(f"window too short to materialize the chain: z range [{lo}, {hi}]")
    z, y, w, t = staircase(eq, x.values, x.start, lo, hi)
    return Window(lo, z), Window(lo, y), Window(lo, w), Window(lo, t)


def _chain_reach(eq: EquationSpec) -> tuple[int, int]:
    """How far below and above j the chain at j reads x: z_j = x_j + p_j * x_{j-delta}."""
    return max(eq.delta, 0), max(-eq.delta, 0)


def _residual_reach(eq: EquationSpec) -> tuple[int, int]:
    """How far below and above n the residual at n reads x: z on [n, n+4] and x_{n-tau}."""
    below, above = _chain_reach(eq)
    return max(below, eq.tau), max(4 + above, -eq.tau)


def residual_range(eq: EquationSpec, x: Window) -> range:
    """Indices n at which the residual is computable from the window alone."""
    below, above = _residual_reach(eq)
    return range(x.start + below, x.end - above + 1)


def residual_reads(eq: EquationSpec, indices: range) -> range:
    """The indices of x that the residuals at a step-1 range of indices read."""
    below, above = _residual_reach(eq)
    return range(indices.start - below, indices.stop + above)


def relative_residuals(eq: EquationSpec, x: Evaluator, indices: range) -> list[float]:
    """The relative residual |r| / scale at each index of a step-1 range (0 for an exact zero, inf for a
    non-zero residual over a zero scale, NaN where a value the index reads is not finite).  One staircase
    serves RESIDUAL_BLOCK indices, and each value equals that of a one-index range."""
    return [abs(r) / scale if scale else (0.0 if r == 0.0 else math.inf) for lo in indices[::RESIDUAL_BLOCK]
            for r, scale in _residual_parts(eq, x, lo, min(lo + RESIDUAL_BLOCK, indices.stop) - 1)]


def max_relative_residual(eq: EquationSpec, x: Window) -> tuple[float, int | None]:
    """Worst relative residual over the computable interior, with its index.

    Indices where the chain leaves the finite double range (possible only on
    the trailing edge of an overflow-truncated window) are skipped.
    """
    indices = residual_range(eq, x)
    finite = ((r, n) for n, r in zip(indices, relative_residuals(eq, x, indices)) if 0.0 < r < math.inf)
    return max(finite, key=lambda rn: rn[0], default=(0.0, None))  # the first index of the maximum
