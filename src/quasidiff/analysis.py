"""Finite-horizon classification, hypothesis checks, and certificates.

Everything here is evidence at a finite horizon standing in for asymptotic
statements: "eventually" is the trailing suffix of a window, limits are
tail-stabilization heuristics, and series divergence is a three-valued
partial-sum probe.  The two certificate constructions are exceptions - they
are exact, index-by-index checkable objects:

* the sign-conflict certificate runs the staircase on an alternating
  candidate x_n = +-(-1)^n q_n with positive q and shows opposite signs on
  the two sides of D t_n = -d_n f(x_{n-tau}) at every index, so no such
  solution exists.  The equation is odd in x, so the conflict holds for both
  parities or for neither;
* the companion bound certificate reconstructs x from a bounded companion
  sequence z and certifies max |x_n| <= K + L/(1-P) with P = (1+|p|)/2.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import accumulate, repeat, takewhile

from .errors import HypothesisViolation, SequenceDomainError
from .model import (VALIDATION_SAMPLE, EquationSpec, SequenceSpec, SignumMap, _Blocks, _coefficients, _residual_reach,
                    _xpow, first_failure, staircase)
from .numerics import EPS_LIMIT, EPS_SIGN, SUFFIX_FRACTION, OddRatio
from .solver import Trajectory
from .windows import Window

# ---------------------------------------------------------------------------
# Trajectory classification
# ---------------------------------------------------------------------------


# The alternation test's zero band is EPS_SIGN times the largest |x| among
# each value and the ones just before it, so a fast-growing or fast-decaying
# alternation is not lost in a band taken from a far-away peak.
ALTERNATION_ENVELOPE = 4


class VerdictKind(str, Enum):
    NONOSC_POSITIVE = "nonoscillatory-positive"
    NONOSC_NEGATIVE = "nonoscillatory-negative"
    OSCILLATORY = "oscillatory"
    QUICKLY_OSCILLATORY = "quickly-oscillatory"
    UNDETERMINED = "undetermined"


class QuickParity(str, Enum):
    """Which index parity carries the positive terms of an alternating solution."""

    EVEN_POSITIVE = "even-positive"
    ODD_POSITIVE = "odd-positive"


@dataclass(frozen=True)
class Verdict:
    """A classification; a quickly oscillatory one also carries q with x_n = (-1)^n q_n on its suffix.

    to_dict is the --out section: every field that is set, in declaration order."""

    kind: VerdictKind
    tends_to_zero: bool
    degenerate_zero: bool = False
    suffix_start: int = 0
    quick_positive_parity: QuickParity | None = None
    quick_q_start: int | None = None
    quick_q: tuple[float, ...] | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in vars(self).items() if v is not None}


def _suffix_length(count: int) -> int:
    return max(2, math.ceil(SUFFIX_FRACTION * count))


def _sign_census_values(values: tuple[float, ...], zero_tol: float) -> str:
    """Sign pattern of a value run: positive, negative, degenerate-zero,
    mixed, or straddling.

    Raw signs decide when they agree (a uniformly negative decaying tail is
    still negative however small it gets); the zero band EPS_SIGN * scale is
    consulted only to separate genuine sign changes (mixed) from wobble at
    the noise floor or changes that never clear the band (straddling).
    """
    raw = [(v > 0.0) - (v < 0.0) for v in values]
    if all(s == 0 for s in raw):
        return "degenerate-zero"
    if all(s == 1 for s in raw):
        return "positive"
    if all(s == -1 for s in raw):
        return "negative"
    if 0 in raw:
        return "straddling"
    above = {s for v, s in zip(values, raw) if abs(v) > zero_tol}
    return "mixed" if len(above) == 2 else "straddling"


def _tends_to_zero(values: tuple[float, ...]) -> bool:
    i1, i2 = len(values) // 3, (2 * len(values)) // 3
    m1, m2, m3 = (max(map(abs, part)) for part in (values[:i1], values[i1:i2], values[i2:]))
    if m1 == 0.0:
        return False
    return m1 >= m2 >= m3 and abs(values[-1]) < EPS_LIMIT * m1


def classify(t: Trajectory) -> Verdict:
    """Classify the sign pattern of a trajectory on its decided suffix.

    The suffix is the trailing SUFFIX_FRACTION of the window.  A uniformly
    one-signed suffix is nonoscillatory; strict sign alternation at every
    consecutive pair is quickly oscillatory and yields the decomposition
    q_n = (-1)^n x_n; any other mix of signs is oscillatory; values pinned
    inside the zero band leave the verdict undetermined.  The zero band of
    the alternation test is local: EPS_SIGN times the peak |x| over each
    value and the ALTERNATION_ENVELOPE - 1 values before it.  tends_to_zero is
    decay evidence (never proof): window thirds with non-increasing peaks
    and a final value below EPS_LIMIT relative to the initial peak.
    """
    x = t.x
    if len(x) < 8:
        raise ValueError(f"classification needs at least 8 values, got {len(x)}")
    window_scale = x.max_abs()
    if window_scale == 0.0:
        return Verdict(VerdictKind.UNDETERMINED, tends_to_zero=False, degenerate_zero=True,
                       suffix_start=x.start)
    zero_tol = EPS_SIGN * window_scale
    suffix = x.suffix(_suffix_length(len(x)))
    census = _sign_census_values(suffix.values, zero_tol)
    tends = _tends_to_zero(x.values)

    if census == "positive":
        return Verdict(VerdictKind.NONOSC_POSITIVE, tends, suffix_start=suffix.start)
    if census == "negative":
        return Verdict(VerdictKind.NONOSC_NEGATIVE, tends, suffix_start=suffix.start)
    if census == "mixed":
        values = suffix.values
        mags = [abs(v) for v in values]
        # lagged[k][i] = |x| k values before values[i], or 0 before the suffix
        lagged = ([0.0] * k + mags[:len(mags) - k] for k in range(ALTERNATION_ENVELOPE))
        if all((values[i] > 0.0) == (values[i + 1] < 0.0) for i in range(len(values) - 1)) and all(
            m > EPS_SIGN * peak for m, peak in zip(mags, map(max, *lagged))
        ):
            q = tuple((v if n % 2 == 0 else -v) for n, v in suffix.items())
            parity = QuickParity.EVEN_POSITIVE if q[0] > 0 else QuickParity.ODD_POSITIVE
            return Verdict(VerdictKind.QUICKLY_OSCILLATORY, tends, suffix_start=suffix.start,
                           quick_positive_parity=parity, quick_q_start=suffix.start, quick_q=q)
        return Verdict(VerdictKind.OSCILLATORY, tends, suffix_start=suffix.start)
    return Verdict(VerdictKind.UNDETERMINED, tends,
                   degenerate_zero=census == "degenerate-zero", suffix_start=suffix.start)


# ---------------------------------------------------------------------------
# Condition reports
# ---------------------------------------------------------------------------


class CheckStatus(str, Enum):
    HOLDS_ON_SAMPLE = "holds-on-sample"
    FAILS_AT_INDEX = "fails-at-index"
    HEURISTIC_EVIDENCE = "heuristic-evidence"
    NOT_CHECKABLE = "not-checkable"


# The CLI writes the result types below to --out with dataclasses.asdict: field order is the report's key order.
@dataclass(frozen=True)
class ConditionEntry:
    condition: str
    status: CheckStatus
    satisfied: bool | None
    detail: str
    fail_index: int | None = None


@dataclass(frozen=True)
class ConditionReport:
    title: str
    entries: tuple[ConditionEntry, ...]
    all_hold: bool = field(init=False)
    conclusion: str
    alternation_excluded: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "all_hold", all(e.satisfied is True for e in self.entries))

    def entry(self, condition: str) -> ConditionEntry:
        for e in self.entries:
            if e.condition == condition:
                return e
        raise KeyError(condition)


def _sign_condition_entry(eq: EquationSpec) -> ConditionEntry:
    if eq.f.sign_condition:
        return ConditionEntry("sign-condition", CheckStatus.HOLDS_ON_SAMPLE, True,
                              "x*f(x) > 0 for x != 0: structural for built-in nonlinearity")
    return ConditionEntry("sign-condition", CheckStatus.FAILS_AT_INDEX, False,
                          "x*f(x) > 0 for x != 0 does not hold")


def check_quick_exclusion(eq: EquationSpec) -> ConditionReport:
    """Hypotheses under which alternating solutions cannot exist.

    Requires p_n >= 0 and one-signed d on the VALIDATION_SAMPLE indices from
    n0, even delta, and the sign condition on f.  For x_n = +-(-1)^n q_n
    with q > 0, D t_n has the sign +-(-1)^n and -d_n f(x_{n-tau}) the sign
    -+sgn(d)(-1)^(n+tau), so when the hypotheses hold, alternating solutions
    are excluded exactly when sgn(d)(-1)^tau = +1, for both parities at once
    (the equation is odd in x, so -x solves it whenever x does), and
    otherwise for neither.
    """
    span = f"[{eq.n0}, {eq.n0 + VALIDATION_SAMPLE - 1}]"
    d_sign = eq.d_sign()
    entries = []
    try:
        bad = first_failure(eq.p, eq.n0, VALIDATION_SAMPLE, (0.0).__le__)
    except SequenceDomainError as exc:
        entries.append(ConditionEntry("p-nonnegative", CheckStatus.NOT_CHECKABLE, None,
                                      f"p not evaluable on sample {span}: {exc}"))
    else:
        if bad is None:
            entries.append(ConditionEntry("p-nonnegative", CheckStatus.HOLDS_ON_SAMPLE, True,
                                          f"p >= 0 on sample {span}"))
        else:
            entries.append(ConditionEntry("p-nonnegative", CheckStatus.FAILS_AT_INDEX, False,
                                          f"p({bad}) = {eq.p.at(bad)!r} < 0 on sample {span}",
                                          fail_index=bad))
    # EquationSpec rejects a d that is zero or changes sign on this same sample.
    entries.append(ConditionEntry("d-one-signed", CheckStatus.HOLDS_ON_SAMPLE, True,
                                  f"d of constant sign {'+' if d_sign > 0 else '-'} on sample {span}"))
    delta_even = eq.delta % 2 == 0
    entries.append(ConditionEntry(
        "delta-even",
        CheckStatus.HOLDS_ON_SAMPLE if delta_even else CheckStatus.FAILS_AT_INDEX,
        delta_even,
        f"delta = {eq.delta} is {'even' if delta_even else 'odd'} (structural)",
    ))
    entries.append(_sign_condition_entry(eq))

    report_entries = tuple(entries)
    excluded = False
    conclusion = "hypotheses not satisfied; no exclusion follows"
    if all(e.satisfied is True for e in report_entries):
        tau_even = eq.tau % 2 == 0
        excluded = d_sign * (1 if tau_even else -1) > 0
        why = (f"d {'>' if d_sign > 0 else '<'} 0 and tau = {eq.tau} is {'even' if tau_even else 'odd'}, "
               f"so sgn(d)(-1)^tau = {'+1' if excluded else '-1'}")
        conclusion = (f"no quickly oscillatory solutions with positive even or positive odd terms ({why})"
                      if excluded else
                      f"hypotheses hold, but no alternating solutions are excluded ({why})")
    return ConditionReport("quick-oscillation exclusion", report_entries, conclusion, excluded)


# ---------------------------------------------------------------------------
# Series divergence heuristics
# ---------------------------------------------------------------------------


class SeriesStatus(str, Enum):
    DIVERGENT = "heuristic-divergent"
    CONVERGENT = "heuristic-convergent"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class SeriesProbe:
    status: SeriesStatus
    partial_sum: float
    tail_ratio: float
    terms_summed: int
    threshold_exceeded: bool


# A series probe's final third contributing more than TAIL_GROW of the total
# reads as divergent, less than TAIL_SETTLE as convergent.
TAIL_GROW = 1e-2
TAIL_SETTLE = 1e-5
# Chunks of a probe double from CHUNK_FIRST terms to CHUNK_CAP: an early exit pays for one small chunk.
CHUNK_FIRST = 64
CHUNK_CAP = 2048


def check_series_divergence(terms, start: int, horizon: int, threshold: float = 1e6, *,
                            ends: dict[int, float] | None = None) -> SeriesProbe:
    """Three-valued partial-sum probe for divergence of an infinite series.

    Divergent when |partial sums| pass the threshold (early exit) or when the
    final third of the horizon still contributes more than TAIL_GROW of the
    total; convergent when that tail contribution has settled below
    TAIL_SETTLE; undetermined in between.  This is evidence about partial
    sums, never a proof about the series.

    terms is a sequence (a `SequenceSpec`, or a reciprocal power): each chunk
    is `terms.read(start, count)`, the block [terms.at(n) ...] as a list or,
    where the block raises, the terms as they are consumed.  A block is summed
    at once, in the same left-to-right order, so the partial sums are those of
    the per-term loop bit for bit.  That loop is the exact path for a chunk
    that trips (its block holds a NaN or passes the threshold) and for a chunk
    that is read term by term.  `terms.settled` is (N, v) when every term from
    N on is v, else None: the first chunk that starts at or past N hands the
    rest of the horizon to `_settled_tail`, which sums it a binade at a time.

    Terms known to be all >= 0 or all <= 0 and never NaN (a reciprocal
    power's block, as its at() raises on a base that is not positive, or a
    sequence whose sign `sign_from(start)` proves) have monotone partial
    sums, because each rounding is monotone: a chunk's threshold test reads
    only the total before it and its last partial sum.

    ends, when given, is a memo shared by probes of these terms from this
    start under this threshold: {terms summed: partial sum} at each chunk end
    a probe passed with no NaN term, no trip and no raise.  Every entry is a
    state of the per-term loop, so the probe resumes from the last one below
    two_thirds, and past it from the last one at or below the horizon, and
    re-sums at most two chunks of what an earlier probe summed; its answer
    is unchanged.  Without ends the probe keeps no state.
    """
    if horizon < 3:
        raise ValueError(f"series probe needs a horizon of at least 3, got {horizon}")
    two_thirds = (2 * horizon) // 3
    total = 0.0
    checkpoint = 0.0
    summed = 0
    one_signed = isinstance(terms, _ReciprocalPower) or terms.sign_from(start) is not None
    settled = terms.settled
    size = CHUNK_FIRST
    past = None  # the side of two_thirds the memo was last searched on
    while summed < horizon:
        if ends and past != (summed >= two_thirds):
            past = summed >= two_thirds
            stop = horizon if past else two_thirds - 1
            resume = max((n for n in ends if summed < n <= stop), default=0)
            if resume:
                summed, total, size = resume, ends[resume], CHUNK_CAP
                continue
        if settled is not None and start + summed >= settled[0]:
            return _settled_tail(settled[1], total, checkpoint, summed, horizon, two_thirds, threshold)
        count = min(size, horizon - summed)
        size = min(2 * size, CHUNK_CAP)
        vals = sums = None  # free the last chunk before the next is evaluated
        vals = terms.read(start + summed, count)
        if isinstance(vals, list):  # else the per-term loop may stop before the term that raises
            sums = list(accumulate(vals, initial=total))
            edges = (total, sums[-1]) if one_signed else sums  # where monotone sums take their max and min
            if not math.isnan(sums[-1]) and max(edges) <= threshold >= -min(edges):
                if summed < two_thirds <= summed + count:
                    checkpoint = sums[two_thirds - summed]
                total, summed, vals = sums[-1], summed + count, ()
        for v in vals:  # a chunk that trips replays its block's values; one read term by term is summed here
            if math.isnan(v):
                return SeriesProbe(SeriesStatus.UNDETERMINED, total, math.nan, summed, False)
            total += v
            summed += 1
            if summed == two_thirds:
                checkpoint = total
            if abs(total) > threshold:
                return SeriesProbe(SeriesStatus.DIVERGENT, total, 1.0, summed, True)
        if ends is not None:
            ends[summed] = total
    return _probe_at_horizon(total, checkpoint, summed)


def _probe_at_horizon(total: float, checkpoint: float, summed: int) -> SeriesProbe:
    """The verdict of a probe that summed every term without a NaN term or a trip."""
    if math.isnan(total):
        return SeriesProbe(SeriesStatus.UNDETERMINED, total, math.nan, summed, False)
    # The floor is the least positive double: any non-zero total divides by itself.
    ratio = abs(total - checkpoint) / max(abs(total), 5e-324)
    if ratio > TAIL_GROW:
        status = SeriesStatus.DIVERGENT
    elif ratio < TAIL_SETTLE:
        status = SeriesStatus.CONVERGENT
    else:
        status = SeriesStatus.UNDETERMINED
    return SeriesProbe(status, total, ratio, summed, False)


def _settled_tail(v: float, total: float, checkpoint: float, summed: int, horizon: int, two_thirds: int,
                  threshold: float) -> SeriesProbe:
    """check_series_divergence's per-term loop over terms that all are v, from `summed` < horizon on, bit
    for bit, a run of terms at a time.  A total that fl(total + v) leaves as it is stays.  While a total T
    of v's sign stays below its binade's top, where doubles are the multiples of one u, fl(T + v) - T is v
    rounded to a multiple of u (Goldberg, ACM Computing Surveys 1991); a tie (v an odd multiple of u/2)
    rounds to the even one, so it keeps the increment from an even T/u.  A v on that grid, or after a zero
    T, adds exactly, so its run goes on while the sums, multiples of the largest power of two g dividing T
    and v, stay below 2**53 g (past the largest double, loop and run both give inf).  A run's trip and
    checkpoint are solved on its grid.  One term is added at a time at an opposite-signed total, at a
    grid's top, at a tie from an odd T/u, and for a non-finite v."""
    if math.isnan(v):
        return SeriesProbe(SeriesStatus.UNDETERMINED, total, math.nan, summed, False)
    while summed < horizon:
        step, run, inc = total + v, 1, 0.0  # T_j = step + (j - 1) * inc for j in [1, run]
        if math.isnan(total) or step == total and (step or math.copysign(1.0, step) == math.copysign(1.0, total)):
            run = horizon - summed
        elif math.isfinite(step) and (total >= 0.0 < v or total <= 0.0 > v):
            e = math.frexp(total)[1]  # T lies in [2**(e-1), 2**e), or its negative
            bits = min(53, e + 1074)  # the binade holds 2**bits multiples of u, fewer among subnormals
            u = math.ldexp(1.0, e - bits)
            if not total or math.fmod(v, u) == 0.0:  # no rounding: the grid is g's
                u, bits = min((n & -n) / d for n, d in (total.as_integer_ratio(), v.as_integer_ratio()) if n), 53
            a, b = int(abs(total) / u), abs(step) / u
            if b < 1 << bits and (a % 2 == 0 or abs(math.fmod(v, u)) * 2 != u):
                i = int(b) - a
                run, inc = min(((1 << bits) - 1 - a) // i, horizon - summed), step - total
        if summed < two_thirds <= summed + run:
            checkpoint = step + (two_thirds - summed - 1) * inc if inc else step
        last = step + (run - 1) * inc if inc else step
        if abs(last) > threshold:  # |T_j| grows along a run: it trips at the least j past the threshold
            j = 1
            if inc and not abs(step) > threshold:  # |T_1| <= threshold < |last|: threshold / u is exact
                j = int(threshold / u - a) // i + 1  # the least j with a + j*i > threshold / u
            return SeriesProbe(SeriesStatus.DIVERGENT, step + (j - 1) * inc if inc else step, 1.0,
                               summed + j, True)
        total, summed = last, summed + run
    return _probe_at_horizon(total, checkpoint, summed)


# ---------------------------------------------------------------------------
# Almost-oscillation hypothesis report
# ---------------------------------------------------------------------------

_LIMIT_CHECKPOINTS = 16


def p_tail(eq: EquationSpec, horizon: int) -> tuple[float, float, bool]:
    """(tail value of p, spread of its last checkpoints, whether the tail has stabilized).

    p is sampled at _LIMIT_CHECKPOINTS + 1 evenly spaced indices across the
    horizon; a SequenceDomainError from p propagates.
    """
    points = [eq.p.at(eq.n0 + (horizon * k) // _LIMIT_CHECKPOINTS)
              for k in range(_LIMIT_CHECKPOINTS + 1)]
    p_hat = points[-1]
    spread = max(abs(v - p_hat) for v in points[-5:])
    return p_hat, spread, math.isfinite(p_hat) and not spread > 1e-5 * max(1.0, abs(p_hat))


def _p_limit_entry(eq: EquationSpec, horizon: int) -> ConditionEntry:
    try:
        p_hat, spread, stable = p_tail(eq, horizon)
    except SequenceDomainError as exc:
        return ConditionEntry("p-limit", CheckStatus.NOT_CHECKABLE, None,
                              f"p not evaluable across the horizon: {exc}")
    if not math.isfinite(p_hat):
        return ConditionEntry("p-limit", CheckStatus.FAILS_AT_INDEX, False,
                              f"p grows without bound (tail value {p_hat!r})")
    if not stable:
        return ConditionEntry("p-limit", CheckStatus.NOT_CHECKABLE, None,
                              f"p tail not stabilized over horizon {horizon} (spread {spread:.3e})")
    ok = abs(p_hat) < 1.0
    return ConditionEntry(
        "p-limit",
        CheckStatus.HEURISTIC_EVIDENCE if ok else CheckStatus.FAILS_AT_INDEX,
        ok,
        f"tail-stabilized limit ~ {p_hat!r} over horizon {horizon}; requires |limit| < 1",
    )


def _continuity_entry(eq: EquationSpec) -> ConditionEntry:
    if eq.f.continuous:
        return ConditionEntry("f-continuous", CheckStatus.HOLDS_ON_SAMPLE, True,
                              "structural for built-in nonlinearity")
    return ConditionEntry("f-continuous", CheckStatus.FAILS_AT_INDEX, False,
                          "nonlinearity is discontinuous")


class _ReciprocalPower(_Blocks):
    """n -> seq_n ** (-1/e): the coefficients A = a**(-1/alpha), B and C whose
    series the almost-oscillation hypotheses require to diverge."""

    def __init__(self, seq: SequenceSpec, e: OddRatio, name: str, n0: int):
        self.seq, self.exponent, self.name = seq, -e.denominator / e.numerator, name
        self.positive_from = n0 if seq.sign_from(n0) == 1 else math.inf  # blocks from here skip the positivity pass
        lo, v = seq.settled or (0, math.nan)  # a positive tail, where at() raises nothing, is settled too
        self.settled = (lo, self._power(v)) if v > 0.0 else None

    def at(self, n: int) -> float:
        v = self.seq.at(n)
        if not v > 0.0:
            raise SequenceDomainError(f"nonpositive coefficient {self.name}({n}) = {v!r}", index=n)
        return self._power(v)

    def _power(self, v: float) -> float:
        try:
            return math.pow(v, self.exponent)
        except OverflowError:
            return math.inf

    def _fast(self, start: int, count: int) -> list[float] | None:
        """One pow per value where every seq value is positive, else None; an overflow raises into at()'s loop."""
        vals = self.seq.block(start, count)
        if start < self.positive_from and not all(map((0.0).__lt__, vals)):
            return None
        return list(map(math.pow, vals, repeat(self.exponent, count)))


def _series_entry(series: str, terms, eq: EquationSpec, horizon: int) -> ConditionEntry:
    name, start = f"series-{series}-divergent", eq.n0
    try:
        probe = check_series_divergence(terms, start, horizon, ends=eq._series_ends.setdefault(series, {}))
    except SequenceDomainError as exc:
        return ConditionEntry(name, CheckStatus.NOT_CHECKABLE, None,
                              f"series {series} not evaluable across the horizon: {exc}")
    satisfied = {SeriesStatus.DIVERGENT: True,
                 SeriesStatus.CONVERGENT: False,
                 SeriesStatus.UNDETERMINED: None}[probe.status]
    detail = (f"{probe.status.value}: partial sum {probe.partial_sum:.6g} over "
              f"{probe.terms_summed} terms from n = {start}, tail ratio {probe.tail_ratio:.3e}")
    return ConditionEntry(name, CheckStatus.HEURISTIC_EVIDENCE, satisfied, detail)


def check_almost_oscillation(eq: EquationSpec, horizon: int = 100_000) -> ConditionReport:
    """Hypotheses under which every bounded solution oscillates or decays to zero.

    Aggregates the p-limit condition, the sign condition on f, continuity of
    f, divergence of the reciprocal-coefficient series A, B, C, and
    divergence of the d series.  Series entries are heuristic partial-sum
    evidence at the given horizon; a series whose terms raise is not
    checkable.  The equation keeps each series' chunk-end partial sums
    (`check_series_divergence`'s ends), so a later report on it re-sums at
    most two chunks of what an earlier one summed, with the same answer.
    """
    entries = (
        _p_limit_entry(eq, horizon),
        _sign_condition_entry(eq),
        _continuity_entry(eq),
        _series_entry("A", _ReciprocalPower(eq.a, eq.alpha, "a", eq.n0), eq, horizon),
        _series_entry("B", _ReciprocalPower(eq.b, eq.beta, "b", eq.n0), eq, horizon),
        _series_entry("C", _ReciprocalPower(eq.c, eq.gamma, "c", eq.n0), eq, horizon),
        _series_entry("d", eq.d, eq, horizon),
    )
    failing = [e for e in entries if e.satisfied is not True]
    if not failing:
        conclusion = "hypotheses hold (heuristically for series)"
    else:
        conclusion = f"hypotheses not confirmed: first failing condition '{failing[0].condition}'"
    return ConditionReport("almost-oscillation hypotheses", entries, conclusion)


# ---------------------------------------------------------------------------
# Sign-conflict certificate for alternating candidates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContradictionCertificate:
    """Index-by-index sign conflict for an alternating candidate.

    z, y, w, t hold the staircase columns of the signed candidate x (covering
    [n_start, n_end + 4] down to [n_start, n_end + 1]), and the two sides of
    D t_n = -d_n f(x_{n-tau}) are evaluated per index:
    chain_side_n = -(t_{n+1} - t_n) and forcing_side_n = d_n f(x_{n-tau}).
    The certificate is valid exactly when every staircase value is finite and
    non-zero (chain_finite_nonzero) and the two sides have opposite signs at
    every certified index.  The six windows are built from `columns` on first read.
    """

    parity: QuickParity
    n_start: int
    n_end: int
    conflicts: tuple[bool, ...]
    chain_finite_nonzero: bool
    columns: tuple[list, ...] = field(hash=False)  # z, y, w, t, chain_side, forcing_side

    z, y, w, t, chain_side, forcing_side = (cached_property(lambda cert, i=i: Window(cert.n_start, cert.columns[i]))
                                            for i in range(6))

    @property
    def valid(self) -> bool:
        return self.chain_finite_nonzero and bool(self.conflicts) and all(self.conflicts)


# The q box that CertificatePlan.decide covers: every q_n in [10 ** -3, 10 ** 3].
Q_EXPONENTS = (-3.0, 3.0)

# A band that leaves these limits decides nothing.  A run's value is about a dozen roundings deep, so it stays
# within a factor 1 +- 2**-49 of its band; inside these limits that keeps it a normal double, with at least 2**22
# to spare either way.
BAND_LIMITS = (2.0 ** -1000, 2.0 ** 1000)


class _Band:
    """A real of strict sign `sign` (+1 or -1) whose magnitude lies in [lo, hi] inside BAND_LIMITS; sign 0 with
    hi 0.0 is _ZERO, an exact zero, and sign 0 with hi inf is _UNKNOWN, any real (inf too), which stays so.

    A same-sign sum, a product and a signed power of bands are bands; a sum of opposite signs, and a result
    whose magnitude may leave BAND_LIMITS, is _UNKNOWN.  x + 0 is x, 0 times a band or 0 is 0, and 0 times
    _UNKNOWN is _UNKNOWN.  The float operations of a certificate keep each of these: a same-sign sum, a product
    and a signed power of non-zero normal doubles keep their sign and stay non-zero, unless they overflow or
    underflow, which the limits rule out; adding a zero leaves a double as it is, and a zero times a finite
    double, or a signed power of a zero, is a zero.  Compared with 0.0, a band answers as the floats of its
    strict sign do, _ZERO as a zero does, and _UNKNOWN as a NaN does.
    """

    __slots__ = ("sign", "lo", "hi")

    def __init__(self, sign: int, lo: float, hi: float) -> None:
        self.sign, self.lo, self.hi = sign, lo, hi

    @staticmethod
    def point(v: float) -> _Band:
        """The exact value v; a NaN has no sign."""
        return _band((v > 0.0) - (v < 0.0), abs(v), abs(v)) if v else _ZERO

    def __gt__(self, zero: float) -> bool:
        return self.sign > 0

    def __lt__(self, zero: float) -> bool:
        return self.sign < 0

    def __neg__(self) -> _Band:
        return _Band(-self.sign, self.lo, self.hi)

    def __add__(self, other: _Band) -> _Band:
        if not other.hi:  # x + 0 is x
            return self
        if not self.hi:
            return other
        return _band(self.sign, self.lo + other.lo, self.hi + other.hi) if self.sign == other.sign else _UNKNOWN

    def __sub__(self, other: _Band) -> _Band:
        return self + -other

    def __mul__(self, other: _Band) -> _Band:
        if self.hi and other.hi:
            return _band(self.sign * other.sign, self.lo * other.lo, self.hi * other.hi)
        return _UNKNOWN if math.inf in (self.hi, other.hi) else _ZERO  # a zero factor

    def power(self, e: OddRatio) -> _Band:
        """The signed power, as numerics.spow takes it; a magnitude that overflows a float is _UNKNOWN."""
        if not self.hi:  # a zero's power is 0
            return self
        exponent = e.numerator if e.denominator == 1 else e.numerator / e.denominator
        try:
            return _band(self.sign, self.lo ** exponent, self.hi ** exponent)
        except OverflowError:
            return _UNKNOWN


def _band(sign: int, lo: float, hi: float) -> _Band:
    """The band, or _UNKNOWN for sign 0 or a magnitude that may leave BAND_LIMITS."""
    return _Band(sign, lo, hi) if sign and BAND_LIMITS[0] <= lo and hi <= BAND_LIMITS[1] else _UNKNOWN


_ZERO = _Band(0, 0.0, 0.0)
_UNKNOWN = _Band(0, 0.0, math.inf)


@dataclass(frozen=True, eq=False)
class CertificatePlan:
    """What the sign-conflict certificates of one equation on q windows [start, start + size) share.

    `exclusion` is check_quick_exclusion(eq), `refusal` says why it refuses
    (None when the hypotheses hold), `certified` is the range each window
    certifies, and `negated` gives, per parity, the slice of a window where
    x = -q.  A plan reads no coefficient until `sides` runs.
    """

    eq: EquationSpec
    start: int
    size: int
    exclusion: ConditionReport
    refusal: str | None
    certified: range
    negated: dict[QuickParity, slice]

    def sides(self, xs: list, parity: QuickParity, num: Callable = float,
              power: Callable = _xpow) -> tuple[tuple[list, ...], tuple[bool, ...]]:
        """((z, y, w, t, chain_side, forcing_side), conflicts) of x_m = xs[m - start], the other parity's entries
        negated in place, on the non-empty certified range: over floats (sign_conflict_certificate) or sign bands
        (`decide`), `num` converting the coefficients and `power` its signed power.  It reads p, c, b and a as
        their staircase columns start, then d over the certified range.  The chain side is t_n - t_{n+1}, the
        forcing side d_n f(x_{n-tau}), and a conflict two strict signs, opposite."""
        eq, f = self.eq, self.eq.f
        xs[self.negated[parity]] = map(operator.neg, xs[self.negated[parity]])
        n_lo, n_hi = self.certified.start, self.certified.stop - 1
        z, y, w, t = staircase(eq, xs, self.start, n_lo, n_hi + 4, num=num, power=power)
        chain_side = list(map(operator.sub, t, t[1:]))  # the map stops with t[1:]
        fx = xs[n_lo - eq.tau - self.start:]  # x is finite and non-zero: a unit power leaves each x as it is
        if isinstance(f, SignumMap):  # +-scale, a float for a band too
            fx = map(f.apply, fx) if num is float else map(num, map(f.apply, fx))
        else:
            fx = map(operator.mul, repeat(num(f.scale)), fx if f.unit else map(power, fx, repeat(f.exponent)))
        forcing_side = list(map(operator.mul, _coefficients(eq.d, n_lo, len(self.certified), num), fx))
        return ((z, y, w, t, chain_side, forcing_side),
                tuple((a > 0.0 > b) or (a < 0.0 < b) for a, b in zip(chain_side, forcing_side)))

    def decide(self, parity: QuickParity) -> bool | None:
        """Whether every q window inside the box 10 ** Q_EXPONENTS gives a valid certificate of this parity
        (True), none does (False), or the bands show neither (None).

        `sides` runs once over sign bands (_Band): x_m = +-(-1)^m [q_lo, q_hi], and each coefficient an exact
        point.  True when every z, y, w and t value is a band of strict sign and the two sides conflict at
        every certified index.  False when, at some certified index, the chain side and the forcing side are
        bands of one strict sign: no window's floats can cross that.  None for a refusal or an empty certified
        range, before any coefficient is read.
        """
        if self.refusal is not None or not self.certified:
            return None
        xs = [_Band(1, *(10.0 ** u for u in Q_EXPONENTS))] * self.size
        (*chain, chain_side, forcing_side), conflicts = self.sides(xs, parity, _Band.point, _Band.power)
        if all(conflicts) and all(v.sign for column in chain for v in column):
            return True
        if any(a.sign and a.sign == b.sign for a, b in zip(chain_side, forcing_side)):
            return False
        return None


def prepare_certificate(eq: EquationSpec, start: int, size: int) -> CertificatePlan:
    """The plan of the q windows of this start and size, which sign_conflict_certificate runs a window against
    and `decide` runs the whole q box against: it runs check_quick_exclusion(eq), and reads no coefficient."""
    exclusion = check_quick_exclusion(eq)
    bad = next((e for e in exclusion.entries if e.satisfied is not True), None)  # None: all hold
    below, above = _residual_reach(eq)
    return CertificatePlan(
        eq, start, size, exclusion,
        refusal=None if bad is None else f"certificate refused: condition '{bad.condition}' fails ({bad.detail})",
        certified=range(start + below, start + size - above),  # residual_range of such a window
        negated={parity: slice((start + (parity is QuickParity.EVEN_POSITIVE)) % 2, None, 2)
                 for parity in QuickParity},  # x_m = -q_m at the indices m of the other parity
    )


def sign_conflict_certificate(eq: EquationSpec, q: Window, parity: QuickParity) -> ContradictionCertificate:
    """Build the sign-conflict certificate for candidate x_n = +-(-1)^n q_n.

    The candidate has positive terms at the indices of the given parity, and
    its chain comes from CertificatePlan.sides.  Refused (HypothesisViolation)
    unless the quick-exclusion hypotheses hold for the equation and q is
    finite and strictly positive on its window.  The window must reach
    delta (and tau) indices behind and four (and -tau, and -delta) ahead of
    the certified range.
    """
    plan = prepare_certificate(eq, q.start, len(q))
    if plan.refusal is not None:
        raise HypothesisViolation(plan.refusal)
    if not (all(map(math.isfinite, q.values)) and min(q.values) > 0.0):
        raise HypothesisViolation("certificate requires a strictly positive q window")
    n_lo, n_hi = plan.certified.start, plan.certified.stop - 1
    if n_hi < n_lo:
        raise HypothesisViolation(
            f"q window [{q.start}, {q.end}] too short: certified range would be [{n_lo}, {n_hi}]"
        )
    columns, conflicts = plan.sides(list(q.values), parity)
    z, y, w, t = columns[:4]
    return ContradictionCertificate(
        parity=parity, n_start=n_lo, n_end=n_hi, conflicts=conflicts,
        chain_finite_nonzero=all(map(math.isfinite, values := z + y + w + t)) and all(values),  # finite, non-zero
        columns=columns,
    )


# ---------------------------------------------------------------------------
# Companion-sequence bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundCertificate:
    """Certified bound max |x_n| <= K + L/(1-P) on a verified range.

    L bounds |z|, P = (1 + |p_limit|)/2 dominates |p_n| past n1, and K is the
    peak of |x| over the startup block [n1, n1 + delta + 1].  x is
    reconstructed from z by x_n = z_n - p_n x_{n-delta}, so validity is
    checkable by direct recursion.
    """

    L: float
    P: float
    K: float
    bound: float
    n_start: int
    n_end: int
    delta: int
    n1: int
    max_abs_x: float
    valid: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "valid", self.max_abs_x <= self.bound)


def companion_bound_certificate(z: Window, p: SequenceSpec, p_limit: float, delta: int,
                                n1: int, startup: Window) -> BoundCertificate:
    """Certify boundedness of x reconstructed from a bounded companion window.

    Requires |p_limit| < 1 and |p_n| <= P = (1 + |p_limit|)/2 for n >= n1 on
    the window; startup must supply x on [n1, n1 + delta + 1].  L is the
    observed sup of |z| on [n1, z.end].
    """
    if delta < 1:
        raise ValueError(f"bound reconstruction needs delta >= 1, got {delta}")
    if not abs(p_limit) < 1.0:
        raise HypothesisViolation(f"|p_limit| must be < 1, got {p_limit!r}")
    P = (1.0 + abs(p_limit)) / 2.0
    block_end = n1 + delta + 1
    if not startup.covers(n1, block_end):
        raise ValueError(f"startup must cover [{n1}, {block_end}], got [{startup.start}, {startup.end}]")
    if not z.covers(n1, block_end):
        raise ValueError(f"z window must cover the startup block [{n1}, {block_end}]")

    # p up to the first |p_n| > P; where the read raises, p.at(n) index by index raises first
    ps = list(takewhile(lambda v: not abs(v) > P, p.read(n1, z.end - n1 + 1)))
    if n1 + len(ps) <= z.end:
        raise HypothesisViolation(f"|p({n1 + len(ps)})| = {abs(p.at(n1 + len(ps)))!r} exceeds P = {P}",
                                  index=n1 + len(ps))

    zs = z.values[n1 - z.start:]
    L = max(map(abs, zs))
    xs = list(startup.values[n1 - startup.start:block_end - startup.start + 1])
    K = max(map(abs, xs))
    for i in range(len(xs), len(zs)):  # x_n = z_n - p_n x_{n-delta}, at i = n - n1
        xs.append(zs[i] - ps[i] * xs[i - delta])
    max_abs = max(map(abs, xs))  # K, then the reconstructed values

    bound = K + L / (1.0 - P)
    return BoundCertificate(L=L, P=P, K=K, bound=bound, n_start=n1, n_end=z.end,
                            delta=delta, n1=n1, max_abs_x=max_abs)


# ---------------------------------------------------------------------------
# Component sign profile
# ---------------------------------------------------------------------------


class SignCase(str, Enum):
    ALL_ONE_SIGNED = "all-components-one-signed"
    Y_ONE_SIGNED_X_TO_ZERO = "y-one-signed-x-to-zero"
    NEITHER = "neither"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class ComponentSummary:
    name: str
    sign_status: str  # positive | negative | degenerate-zero | mixed | straddling
    monotone: str  # increasing | decreasing | constant | none
    tends_to_zero: bool


@dataclass(frozen=True)
class SignProfileReport:
    case: SignCase
    components: tuple[ComponentSummary, ...]
    degenerate_zero: tuple[str, ...]
    max_abs_x: float
    x_tends_to_zero: bool

    def component(self, name: str) -> ComponentSummary:
        for c in self.components:
            if c.name == name:
                return c
        raise KeyError(name)


def _summary(name: str, w: Window, peak: float) -> ComponentSummary:
    """One component's sign census, monotonicity and decay: its decided suffix read once, and its peak |value|
    setting both the census band EPS_SIGN * peak and the monotone slack EPS_SIGN * max(peak, 1e-300)."""
    suffix = w.values[-_suffix_length(len(w)):]
    slack = EPS_SIGN * max(peak, 1e-300)
    diffs = list(map(operator.sub, suffix[1:], suffix))
    non_dec = all(map((-slack).__le__, diffs))  # d >= -slack
    non_inc = all(map(slack.__ge__, diffs))  # d <= slack
    return ComponentSummary(
        name=name,
        sign_status="degenerate-zero" if peak == 0.0 else _sign_census_values(suffix, EPS_SIGN * peak),
        monotone=("constant" if non_inc else "increasing") if non_dec else ("decreasing" if non_inc else "none"),
        tends_to_zero=_tends_to_zero(w.values),
    )


def component_sign_profile(sys: Trajectory) -> SignProfileReport:
    """Empirical sign/monotonicity/decay profile of (x, y, w, t).

    Distinguishes the two structural outcomes for one-signed-component
    solutions: either every component is eventually one-signed, or y is
    one-signed while x decays to zero.  The decay case takes precedence when
    both patterns are visible.  Identically zero components are reported as
    degenerate rather than forced into either case.
    """
    _, y, w, t = sys.chain
    if len(t) < 16:
        raise ValueError(f"sign profile needs at least 16 chain values, got {len(t)}")

    windows = (sys.x, y, w, t)
    peaks = [win.max_abs() for win in windows]
    summaries = tuple(map(_summary, "xywt", windows, peaks))
    statuses = {s.name: s.sign_status for s in summaries}
    degenerate = tuple(s.name for s in summaries if s.sign_status == "degenerate-zero")
    x_to_zero = summaries[0].tends_to_zero

    if any(s == "straddling" for s in statuses.values()):
        case = SignCase.UNDETERMINED
    elif statuses["y"] in ("positive", "negative") and x_to_zero:
        case = SignCase.Y_ONE_SIGNED_X_TO_ZERO
    elif all(s in ("positive", "negative", "degenerate-zero") for s in statuses.values()):
        case = SignCase.ALL_ONE_SIGNED
    else:
        case = SignCase.NEITHER
    return SignProfileReport(
        case=case,
        components=summaries,
        degenerate_zero=degenerate,
        max_abs_x=peaks[0],
        x_tends_to_zero=x_to_zero,
    )
