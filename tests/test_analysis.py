import functools
import math
import random
import struct
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quasidiff as qd
from quasidiff import analysis, cli
from quasidiff.analysis import TAIL_GROW, TAIL_SETTLE
from quasidiff import (
    Affine,
    CheckStatus,
    Constant,
    Geometric,
    HypothesisViolation,
    OddRatio,
    PowerLaw,
    QuickParity,
    SeriesProbe,
    SeriesStatus,
    SignCase,
    Table,
    VerdictKind,
    Window,
    check_almost_oscillation,
    check_quick_exclusion,
    check_series_divergence,
    classify,
    companion_bound_certificate,
    component_sign_profile,
    prepare_certificate,
    sample_trajectory,
    sign_conflict_certificate,
)
from support import outcome, plain_equation, sequences, signed_sequences, spy_coefficient_reads

# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def _sampled(eq, form, start, end):
    return sample_trajectory(eq, form, start, end)


class TestClassify:
    def test_alternating_bounded(self):
        eq = qd.example_equation("example-4")
        traj = _sampled(eq, qd.example_closed_form("example-4"), 0, 200)
        v = classify(traj)
        assert v.kind is VerdictKind.QUICKLY_OSCILLATORY
        assert not v.tends_to_zero
        assert v.quick_q is not None
        assert v.quick_positive_parity is QuickParity.EVEN_POSITIVE
        assert all(qv == pytest.approx(0.1, rel=1e-12) for qv in v.quick_q)

    def test_decaying_one_signed(self):
        eq = qd.example_equation("example-3")
        traj = _sampled(eq, qd.example_closed_form("example-3"), 2, 61)
        v = classify(traj)
        assert v.kind is VerdictKind.NONOSC_NEGATIVE
        assert v.tends_to_zero

    def test_constant_positive(self):
        traj = _sampled(plain_equation(), lambda n: 1.0, 0, 40)
        v = classify(traj)
        assert v.kind is VerdictKind.NONOSC_POSITIVE
        assert not v.tends_to_zero

    def test_slow_sign_changes_are_oscillatory_not_quick(self):
        traj = _sampled(plain_equation(), lambda n: math.sin(n), 0, 200)
        # direct census: the suffix has sign changes but also same-sign pairs
        suffix = [math.sin(n) for n in range(100, 201)]
        flips = sum(a * b < 0 for a, b in zip(suffix, suffix[1:]))
        assert 0 < flips < len(suffix) - 1
        assert classify(traj).kind is VerdictKind.OSCILLATORY

    def test_zero_window_is_degenerate(self):
        traj = _sampled(plain_equation(), lambda n: 0.0, 0, 40)
        v = classify(traj)
        assert v.kind is VerdictKind.UNDETERMINED
        assert v.degenerate_zero

    def test_noise_floor_wobble_is_undetermined(self):
        # one large entry sets the scale; the decided suffix wobbles at 1e-17
        values = [1.0] + [(-1e-17) ** ((n % 2) + 1) for n in range(39)]
        traj = qd.Trajectory(plain_equation(), Window(0, tuple(values)), qd.Provenance.SAMPLED)
        assert classify(traj).kind is VerdictKind.UNDETERMINED

    def test_needs_eight_values(self):
        traj = qd.Trajectory(plain_equation(), Window(0, (1.0,) * 7), qd.Provenance.SAMPLED)
        with pytest.raises(ValueError, match="at least 8"):
            classify(traj)

    def test_quick_decomposition_present_iff_quick(self):
        eq = qd.example_equation("example-4")
        quick = classify(_sampled(eq, qd.example_closed_form("example-4"), 0, 50))
        flat = classify(_sampled(plain_equation(), lambda n: 1.0, 0, 50))
        assert quick.quick_q is not None and flat.quick_q is None
        # the --out section is every field that is set, in declaration order
        assert list(flat.to_dict()) == ["kind", "tends_to_zero", "degenerate_zero", "suffix_start"]
        assert list(quick.to_dict()) == ["kind", "tends_to_zero", "degenerate_zero", "suffix_start",
                                         "quick_positive_parity", "quick_q_start", "quick_q"]


@given(st.lists(st.floats(min_value=0.05, max_value=1e6), min_size=16, max_size=40),
       st.sampled_from([0, 1]))
@settings(max_examples=100)
def test_quick_decomposition_reconstructs_the_suffix(q_values, sigma):
    # alternating trajectory with one-signed magnitudes: reconstruction
    # x_n = (-1)^n q_n must reproduce the window exactly
    x = Window(0, tuple((1.0 if (n + sigma) % 2 == 0 else -1.0) * v
                        for n, v in enumerate(q_values)))
    traj = qd.Trajectory(plain_equation(), x, qd.Provenance.SAMPLED)
    v = classify(traj)
    assert v.kind is VerdictKind.QUICKLY_OSCILLATORY
    for n, qv in enumerate(v.quick_q, v.quick_q_start):
        assert (qv if n % 2 == 0 else -qv) == x[n]


# ---------------------------------------------------------------------------
# Quick-oscillation exclusion report
# ---------------------------------------------------------------------------


class TestQuickExclusion:
    def test_signum_example_all_hold(self):
        # d > 0 and tau = 3 odd: sgn(d)(-1)^tau = -1, and both (-1)^n 2^n and
        # its negation solve the equation, so nothing is excluded
        report = check_quick_exclusion(qd.example_equation("example-1"))
        assert report.all_hold
        assert report.alternation_excluded is False
        assert "no alternating solutions are excluded" in report.conclusion

    def test_odd_delta_flagged(self):
        eq = plain_equation(delta=3, tau=1, p=Constant(0.5), n0=3)
        report = check_quick_exclusion(eq)
        entry = report.entry("delta-even")
        assert entry.satisfied is False
        assert not report.all_hold
        assert report.alternation_excluded is False

    def test_negated_forcing_flips_excluded_parity(self):
        doc = qd.example_document("example-1")
        doc["d"] = {"kind": "combine", "op": "*", "left": doc["d"],
                    "right": {"kind": "constant", "value": -1.0}}
        report = check_quick_exclusion(qd.build_equation(doc))
        # d < 0 and tau = 3 odd: sgn(d)(-1)^tau = +1 excludes both parities
        assert report.all_hold
        assert report.alternation_excluded is True
        assert report.conclusion.startswith(
            "no quickly oscillatory solutions with positive even or positive odd terms")

    def test_negative_p_fails_with_index(self):
        eq = plain_equation(p=Table((0.5,) * 10 + (-0.25,), 1, "hold-last"),
                            tau=1, delta=2, n0=2)
        entry = check_quick_exclusion(eq).entry("p-nonnegative")
        assert entry.satisfied is False
        assert entry.fail_index == 11

    def test_entries_cite_their_sample(self):
        report = check_quick_exclusion(qd.example_equation("example-2"))
        for e in report.entries:
            assert e.detail

    def test_parity_coherence_across_branches(self):
        rng = random.Random(4)
        q = Window(2, tuple(rng.uniform(0.5, 2.0) for _ in range(20)))
        for tau, d_value, excluded in [(2, 1.0, True), (1, 1.0, False),
                                       (2, -1.0, False), (1, -1.0, True)]:
            eq = plain_equation(tau=tau, delta=2, p=Constant(0.5), d=Constant(d_value), n0=2)
            report = check_quick_exclusion(eq)
            assert report.alternation_excluded is excluded
            for parity in QuickParity:
                assert sign_conflict_certificate(eq, q, parity).valid is excluded


# ---------------------------------------------------------------------------
# Sign-conflict certificates
# ---------------------------------------------------------------------------


class TestSignConflictCertificate:
    def test_unit_q_on_signum_example(self):
        eq = qd.example_equation("example-1")
        q = Window(eq.n0, (1.0,) * 20)
        for parity in QuickParity:
            cert = sign_conflict_certificate(eq, q, parity)
            assert cert.chain_finite_nonzero
            assert not any(cert.conflicts)
            assert not cert.valid

    def test_non_excluded_parity_reports_no_conflicts(self):
        eq = qd.example_equation("example-1")
        q = Window(eq.n0, (1.0,) * 20)
        cert = sign_conflict_certificate(eq, q, QuickParity.EVEN_POSITIVE)
        assert cert.chain_finite_nonzero
        assert not any(cert.conflicts)
        assert not cert.valid

    def test_chain_side_matches_chain_of_even_positive_candidate(self):
        # for the even-positive parameterization the chain side is literally
        # -D t_n of the actual candidate, checked through chain_windows
        eq = plain_equation(tau=2, delta=2, p=Constant(0.5), n0=2)
        rng = random.Random(8)
        q = Window(2, tuple(rng.uniform(0.5, 3.0) for _ in range(24)))
        cert = sign_conflict_certificate(eq, q, QuickParity.EVEN_POSITIVE)
        x = Window(q.start, tuple((v if n % 2 == 0 else -v) for n, v in q.items()))
        t = qd.chain_windows(eq, x)[3]
        for n in range(cert.n_start, cert.n_end + 1):
            t_n, t_next = t[n], t[n + 1]
            assert cert.chain_side[n] == pytest.approx(-(t_next - t_n), rel=1e-9)

    def test_random_positive_windows(self):
        # example-1 has exact alternating solutions of both parities;
        # example-3 excludes both
        rng = random.Random(100)
        for name, valid in (("example-1", False), ("example-3", True)):
            eq = qd.example_equation(name)
            for _ in range(100):
                q = Window(eq.n0, tuple(10.0 ** rng.uniform(-3, 3) for _ in range(16)))
                for parity in QuickParity:
                    assert sign_conflict_certificate(eq, q, parity).valid is valid

    def test_plain_difference_reduction_still_conflicts(self):
        eq = plain_equation(tau=3, delta=2, p=Constant(0.0), d=Constant(-1.0), n0=3)
        q = Window(3, tuple(1.0 + 0.1 * i for i in range(20)))
        for parity in QuickParity:
            assert sign_conflict_certificate(eq, q, parity).valid

    def test_advanced_neutral_term_stays_inside_the_window(self):
        # delta = -2 reads x two indices ahead of z, so the certified range
        # ends 4 + 2 indices before the window does
        eq = plain_equation(tau=-1, delta=-2, p=Constant(0.5), d=Constant(-1.0), n0=1)
        q = Window(1, tuple(1.0 + 0.1 * i for i in range(20)))
        for parity in QuickParity:
            cert = sign_conflict_certificate(eq, q, parity)
            assert (cert.n_start, cert.n_end) == (q.start, q.end - 6)
            assert cert.valid
        x = Window(q.start, tuple((-v if n % 2 == 0 else v) for n, v in q.items()))
        t = qd.chain_windows(eq, x)[3]
        for n in range(cert.n_start, cert.n_end + 1):
            dt = t[n + 1] - t[n]
            assert cert.chain_side[n] == pytest.approx(-dt, rel=1e-12)

    def test_refused_when_hypotheses_fail(self):
        eq = plain_equation(tau=1, delta=3, p=Constant(0.5), n0=3)  # odd delta
        with pytest.raises(HypothesisViolation, match="delta-even"):
            sign_conflict_certificate(eq, Window(3, (1.0,) * 20), QuickParity.ODD_POSITIVE)

    def test_a_held_exclusion_report_gives_the_same_certificate(self):
        # the plan holds the quick-exclusion report that check --certificate reads its parity from
        rng = random.Random(5)
        for name in ("example-1", "example-3"):
            eq = qd.example_equation(name)
            plan = prepare_certificate(eq, eq.n0, 16)
            assert plan.exclusion == check_quick_exclusion(eq)
            q = Window(eq.n0, tuple(10.0 ** rng.uniform(-3, 3) for _ in range(16)))
            for parity in QuickParity:
                assert sign_conflict_certificate(eq, q, parity) == per_window_certificate(eq, q, parity)

    def test_refused_for_nonpositive_q(self):
        eq = qd.example_equation("example-1")
        q = Window(eq.n0, (1.0,) * 10 + (0.0,) + (1.0,) * 9)
        with pytest.raises(HypothesisViolation, match="positive"):
            sign_conflict_certificate(eq, q, QuickParity.ODD_POSITIVE)
        eq = qd.example_equation("example-3")  # an odd-power f: a non-finite q reached spow
        for values in [(math.nan,) * 21, (1.0,) * 10 + (math.inf,) + (1.0,) * 10, (math.nan,) + (1.0,) * 20,
                       (1.0,) * 10 + (math.nan,) + (1.0,) * 10, (1.0,) * 10 + (-math.inf,) + (1.0,) * 10]:
            with pytest.raises(HypothesisViolation, match="strictly positive q window"):
                sign_conflict_certificate(eq, Window(eq.n0, values), QuickParity.EVEN_POSITIVE)

    def test_refused_when_window_too_short(self):
        eq = qd.example_equation("example-1")
        with pytest.raises(HypothesisViolation, match="too short"):
            sign_conflict_certificate(eq, Window(eq.n0, (1.0,) * 7), QuickParity.ODD_POSITIVE)

    def test_magnitude_windows_cover_certified_range(self):
        eq = qd.example_equation("example-1")
        q = Window(eq.n0, (2.0,) * 20)
        cert = sign_conflict_certificate(eq, q, QuickParity.ODD_POSITIVE)
        assert cert.z.covers(cert.n_start, cert.n_end + 3)
        assert cert.t.covers(cert.n_start, cert.n_end + 1)
        assert len(cert.conflicts) == cert.n_end - cert.n_start + 1

    @pytest.mark.parametrize("name", ["example-1", "example-2", "example-3", "example-4"])
    @pytest.mark.parametrize("lam", [1, 2])
    def test_lazy_windows_equal_the_eager_ones(self, name, lam):
        eq = qd.example_equation(name, lam=lam)
        rng = random.Random(lam)
        span = 16 + max(eq.delta, eq.tau, 0) + max(0, -eq.tau)
        for _ in range(10):
            q = Window(eq.n0, tuple(10.0 ** rng.uniform(-3, 3) for _ in range(span)))
            for parity in QuickParity:
                cert = sign_conflict_certificate(eq, q, parity)
                eager = eager_certificate(eq, q, parity)
                assert cert.__dict__.keys().isdisjoint(WINDOWS)  # no window is built before it is read
                assert {name: getattr(cert, name) for name in eager} == eager
                assert cert == sign_conflict_certificate(eq, q, parity)
                assert cert != sign_conflict_certificate(eq, Window(q.start, tuple(2 * v for v in q.values)), parity)


WINDOWS = ("z", "y", "w", "t", "chain_side", "forcing_side")


def eager_certificate(eq, q, parity) -> dict:
    """Every attribute of a sign-conflict certificate, each window built at once, as before it was lazy."""
    n_lo, n_hi = qd.residual_range(eq, q).start, qd.residual_range(eq, q).stop - 1
    sigma = 0 if parity is QuickParity.EVEN_POSITIVE else 1
    xs = [v if (m + sigma) % 2 == 0 else -v for m, v in q.items()]
    z, y, w, t = qd.chain_windows(eq, Window(q.start, tuple(xs)))
    z, y, w, t = (Window(n_lo, col.values[n_lo - col.start:]) for col in (z, y, w, t))
    chain_side = Window(n_lo, tuple(t[n] - t[n + 1] for n in range(n_lo, n_hi + 1)))
    forcing_side = Window(n_lo, tuple(eq.d.at(n) * eq.f.apply(xs[n - eq.tau - q.start])
                                      for n in range(n_lo, n_hi + 1)))
    conflicts = tuple((a > 0.0 > b) or (a < 0.0 < b) for a, b in zip(chain_side.values, forcing_side.values))
    return {"z": z, "y": y, "w": w, "t": t, "chain_side": chain_side, "forcing_side": forcing_side,
            "conflicts": conflicts, "n_start": n_lo, "n_end": n_hi,
            "chain_finite_nonzero": all(math.isfinite(v) and v != 0.0 for col in (z, y, w, t) for v in col.values),
            "valid": all(conflicts) and all(math.isfinite(v) and v != 0.0 for col in (z, y, w, t) for v in col.values)}


def per_window_certificate(eq, q, parity):
    """The certificate as one window built it before plans: each check in turn, then each coefficient read as
    its staircase column starts and d as the forcing side needs it."""
    report = check_quick_exclusion(eq)
    if not report.all_hold:
        bad = next(e for e in report.entries if e.satisfied is not True)
        raise HypothesisViolation(f"certificate refused: condition '{bad.condition}' fails ({bad.detail})")
    if not (all(map(math.isfinite, q.values)) and min(q.values) > 0.0):
        raise HypothesisViolation("certificate requires a strictly positive q window")
    n_lo, n_hi = qd.residual_range(eq, q).start, qd.residual_range(eq, q).stop - 1
    if n_hi < n_lo:
        raise HypothesisViolation(f"q window [{q.start}, {q.end}] too short: certified range would be [{n_lo}, {n_hi}]")
    even = parity is QuickParity.EVEN_POSITIVE
    xs = [-v if (m + even) % 2 == 0 else v for m, v in q.items()]
    z, y, w, t = qd.model.staircase(eq, xs, q.start, n_lo, n_hi + 4)
    chain_side = [a - b for a, b in zip(t, t[1:])]
    forcing_side = [d * eq.f.apply(xs[n - eq.tau - q.start])
                    for n, d in zip(range(n_lo, n_hi + 1), eq.d.read(n_lo, n_hi - n_lo + 1))]
    conflicts = tuple((a > 0.0 > b) or (a < 0.0 < b) for a, b in zip(chain_side, forcing_side))
    return analysis.ContradictionCertificate(
        parity, n_lo, n_hi, conflicts, all(math.isfinite(v) and v != 0.0 for v in z + y + w + t),
        (z, y, w, t, chain_side, forcing_side))


def certificate_outcome(fn) -> tuple:
    """fn()'s certificate with its columns as packed doubles, or the type and message of what it raises."""
    try:
        cert = fn()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return "raises", type(exc), str(exc)
    return (cert.parity, cert.n_start, cert.n_end, cert.conflicts, cert.chain_finite_nonzero, cert.valid,
            [[struct.pack("d", v) for v in column] for column in cert.columns])


def sample_table(n0: int, value: float, extra: int) -> Table:
    """value on the validation sample from n0 and `extra` indices past it, and nowhere else: it validates, and
    raises in a range past its end or below n0."""
    return Table((value,) * (qd.model.VALIDATION_SAMPLE + extra), n0, "error")


def like_example_3(**fields) -> qd.EquationSpec:
    """Example-3's equation with the given fields replaced."""
    return plain_equation(**{"tau": -3, "delta": 2, "p": Constant(0.25), "d": Affine(-1.0, 1.0),
                             "a": Affine(1.0, 0.0), **fields})


_exponents = st.sampled_from((OddRatio(1), OddRatio(3), OddRatio(1, 3), OddRatio(5, 3)))


# Coefficient scales at which a certificate's band leaves BAND_LIMITS (2**-1000, 2**1000): a subnormal, whose
# products with q = 1e-3 round to 0, the limits' neighbourhood, and a c whose cube overflows a float
LIMIT_SCALES = (5e-324, 1e-320, 2.0 ** -990, 1e200, 2.0 ** 990, 1e304)


def one_signed_sequences(sign: float, stress: bool = True):
    """Sequences of the given sign at every index from 1 on, so a, b and c (sign 1) and d pass EquationSpec's
    validation by construction: the kinds sign_from reasons about, with a scale of at least 1e-3 where a term
    could underflow; with `stress`, in one draw of nine a term that is subnormal, overflows or is infinite, and in
    one a constant or a multiple of n at one of LIMIT_SCALES."""
    scales = st.floats(1e-3, 1e3).map(sign.__mul__)
    tame = st.one_of(
        st.builds(Constant, scales),
        st.builds(Affine, st.floats(0.0, 1e3).map(sign.__mul__), scales),
        st.builds(PowerLaw, scales, st.sampled_from((0.0, 0.5, 1.0, 2.0, -0.5))),
        st.builds(Geometric, scales, st.sampled_from((1.0, 1.0 + 2.0 ** -52, 2.0, 0.5))),
    )
    extreme = st.one_of(st.builds(Constant, st.sampled_from((5e-324, 1e308, math.inf)).map(sign.__mul__)),
                        st.builds(PowerLaw, scales, st.sampled_from((300.0, math.inf))),
                        st.builds(Geometric, scales, st.sampled_from((1e10, math.inf))))
    near_limits = st.sampled_from(LIMIT_SCALES).map(sign.__mul__)
    limits = st.one_of(st.builds(Constant, near_limits), st.builds(Affine, near_limits, st.just(0.0)))
    return st.one_of(*[tame] * 7, extreme, limits) if stress else tame


@st.composite
def certificate_problems(draw):
    """(equation, q windows of one start and size, parity), every equation one that EquationSpec accepts.  The
    hypotheses hold or fail (p from `sequences`, odd delta, f without the sign condition); a window is positive,
    or has a zero, negative, NaN or infinite value, or is too short; windows near n0 + 255 read p, a, b, c or d
    past a table's end, and windows below n0 read before its start.  In one draw of two the problem is shaped as
    a decidable one: even delta, no table but p's, and windows of 16 values or more; there a coefficient near the
    band limits, or (in half of them) a p that is >= 0 on the validation sample and negative past it, where the
    windows read it, is what the band run must not decide.  In one draw of four d has the sign that excludes no
    alternation, so its certificates are invalid, and in one of three a positive p is an exact zero: p = 0, or a
    table that holds zeros at the indices the windows read."""
    shaped = draw(st.booleans())
    # in half of those, p turns negative inside the windows' reach, past n0 + 255, as the problem's one stress
    late = shaped and draw(st.booleans())
    one_signed = functools.partial(one_signed_sequences, stress=not late)

    def pick(proof_shaped, anything):
        return proof_shaped if shaped else anything

    even = st.sampled_from((-2, 0, 2, 4))
    delta, tau = draw(pick(even, st.one_of(even, st.integers(-3, 4)))), draw(st.integers(-5, 4))
    if tau == min(-4, delta - 4):
        tau += 1
    any_p = draw(pick(st.none(), st.one_of(st.none(), st.none(), st.none(), sequences)))  # None: a positive p
    n0 = max(1, delta, tau, getattr(any_p, "min_index", None) or 1) + draw(st.integers(0, 2))
    tables = st.builds(functools.partial(sample_table, n0), st.floats(1e-3, 1e3), st.integers(0, 8))
    positive = pick(one_signed(1.0), st.one_of(one_signed(1.0), tables))
    fields = {name: draw(positive) for name in "abc"}
    # sgn(d)(-1)^tau = +1, the sign under which the hypotheses exclude alternation, in three draws of four
    d_sign = draw(st.sampled_from((1.0, 1.0, 1.0, -1.0))) * (-1.0) ** tau
    fields["d"] = draw(pick(one_signed(d_sign),
                            st.one_of(one_signed(d_sign),
                                      st.builds(functools.partial(sample_table, n0, d_sign), st.integers(0, 8)))))
    # s (n0 + 255.5 + k - n): p >= 0 on the validation sample, and below 0 from n0 + 256 + k
    late_negative = st.builds(lambda s, k: Affine(-s, s * (n0 + qd.model.VALIDATION_SAMPLE - 0.5 + k)),
                              st.floats(0.1, 10.0), st.integers(0, 8))
    zeros = st.one_of(st.just(Constant(0.0)), st.lists(st.sampled_from((0.0, 0.0, 0.25, 1.0)), min_size=2, max_size=6)
                      .map(lambda pattern: Table(tuple(pattern) * (320 // len(pattern)), -10, "hold-last")))
    positive_or_zeros = st.one_of(positive, positive, zeros)
    fields["p"] = draw(late_negative) if late else draw(positive_or_zeros) if any_p is None else any_p
    f = draw(st.sampled_from((qd.OddPowerMap(1.0, OddRatio(1)), qd.OddPowerMap(0.5, OddRatio(3)), qd.SignumMap(1.0),
                              qd.OddPowerMap(2.0, OddRatio(1, 3)), qd.OddPowerMap(-1.0, OddRatio(1)))))
    eq = qd.EquationSpec(alpha=draw(_exponents), beta=draw(_exponents), gamma=draw(_exponents), tau=tau,
                         delta=delta, f=f, n0=n0, **fields)
    start = n0 + draw(st.integers(244, 252) if late else st.one_of(st.integers(-3, 3), st.integers(236, 252)))
    size = draw(pick(st.integers(16, 30), st.integers(1, 30)))
    magnitudes = st.lists(st.floats(1e-3, 1e3), min_size=size, max_size=size)
    scales = st.sampled_from((1.0, 1.0, 1.0, 1e300, 1e-300))  # the staircase overflows or underflows
    spoilt = st.one_of(st.none(), st.none(), st.none(),
                       st.tuples(st.integers(0, size - 1), st.sampled_from((0.0, -0.0, -1.0, math.nan, math.inf,
                                                                             -math.inf))))
    windows = []
    for values, scale, spoil in draw(st.lists(st.tuples(magnitudes, scales, spoilt), min_size=1, max_size=4)):
        values = [v * scale for v in values]
        if spoil is not None:
            values[spoil[0]] = spoil[1]
        windows.append(Window(start, tuple(values)))
    return eq, windows, draw(st.sampled_from(QuickParity))


class TestCertificatePlan:
    @settings(max_examples=200, deadline=None)
    @given(certificate_problems())
    # a (to 260) and d (to 258) both end inside [251, 263]: a raises, as its staircase column comes first
    @example((plain_equation(tau=3, delta=2, a=sample_table(3, 1.0, 2), d=sample_table(3, -1.0, 0)),
              [Window(248, (0.0,) + (1.0,) * 19), Window(248, (1.0,) * 20)], QuickParity.ODD_POSITIVE))
    # each refusal: odd delta, f without the sign condition, a negative p, and a p the sample cannot read
    @example((plain_equation(tau=1, delta=3, n0=3), [Window(3, (1.0,) * 20)], QuickParity.ODD_POSITIVE))
    @example((like_example_3(f=qd.OddPowerMap(-1.0, OddRatio(1))), [Window(2, (1.0,) * 22)],
              QuickParity.EVEN_POSITIVE))
    @example((like_example_3(p=Affine(-0.1, 1.0)), [Window(2, (1.0,) * 22)], QuickParity.EVEN_POSITIVE))
    @example((like_example_3(p=sample_table(2, 0.25, -200)), [Window(2, (1.0,) * 22)], QuickParity.ODD_POSITIVE))
    def test_a_shared_plan_gives_each_window_its_one_shot_certificate(self, problem):
        # bit for bit, or the same refusal or error, in the order hypotheses, q, range, coefficients, d
        eq, windows, parity = problem
        for q in windows:
            assert certificate_outcome(lambda: sign_conflict_certificate(eq, q, parity)) == \
                certificate_outcome(lambda: per_window_certificate(eq, q, parity))

    @settings(max_examples=200, deadline=None)
    @given(certificate_problems(), st.integers(0, 2 ** 32))
    # an a that overflows the staircase at q = 1e3, one that underflows it at q = 1e-3, a cube of y whose band
    # overflows a float, and a p that is negative past the validation sample, where x_n + p_n x_{n-2} is a sum of
    # opposite signs: none is decided
    @example((like_example_3(a=Affine(1e304, 0.0)), [Window(2, (1.0,) * 22)], QuickParity.EVEN_POSITIVE), 0)
    @example((like_example_3(a=Affine(5e-324, 0.0)), [Window(2, (1.0,) * 22)], QuickParity.ODD_POSITIVE), 0)
    @example((like_example_3(beta=OddRatio(3), c=Constant(1e200)), [Window(2, (1.0,) * 22)],
              QuickParity.EVEN_POSITIVE), 0)
    @example((like_example_3(p=Affine(-0.1, 26.05)), [Window(250, (1.0,) * 22)], QuickParity.EVEN_POSITIVE), 0)
    # an a that is 0 at n = 260, past the validation sample: t_260 = 0, though the two sides conflict at every index
    @example((like_example_3(a=Table((1.0,) * 258 + (0.0,) + (1.0,) * 60, 2, "hold-last")), [Window(248, (1.0,) * 22)],
              QuickParity.EVEN_POSITIVE), 0)
    # an a and a d of 1e300 n: both sides leave the band limits at some index, and every window is valid
    @example((like_example_3(a=Affine(1e300, 0.0), d=Affine(-1e300, 1e300)), [Window(2, (1.0,) * 22)],
              QuickParity.ODD_POSITIVE), 0)
    # proved: example-3, with p = 0 and with an a of 1e250 n, near the upper band limit
    @example((like_example_3(p=Constant(0.0)), [Window(2, (1.0,) * 22)], QuickParity.EVEN_POSITIVE), 0)
    @example((like_example_3(a=Affine(1e250, 0.0)), [Window(2, (1.0,) * 22)], QuickParity.ODD_POSITIVE), 0)
    # refuted: examples 4 and 1, whose d excludes no alternation
    @example((qd.example_equation("example-4"), [Window(2, (1.0,) * 22)], QuickParity.EVEN_POSITIVE), 0)
    @example((qd.example_equation("example-1"), [Window(3, (1.0,) * 22)], QuickParity.ODD_POSITIVE), 0)
    def test_a_decision_holds_for_every_window_of_the_box(self, problem, seed):
        # True: the constant windows at both ends of the box and 20 windows drawn from it are all valid; False: none is
        eq, windows, parity = problem
        start, size = windows[0].start, len(windows[0])
        plan = prepare_certificate(eq, start, size)
        box = [Window(start, (10.0 ** u,) * size) for u in analysis.Q_EXPONENTS]
        try:
            decided = plan.decide(parity)
        except Exception as exc:  # noqa: BLE001 - a coefficient read raises as a window's certificate does
            assert certificate_outcome(lambda: sign_conflict_certificate(eq, box[0], parity)) == \
                ("raises", type(exc), str(exc))
            return
        if decided is not None:
            rand = random.Random(seed).random
            low, width = analysis.Q_EXPONENTS[0], analysis.Q_EXPONENTS[1] - analysis.Q_EXPONENTS[0]
            drawn = [Window(start, tuple(10.0 ** (low + width * rand()) for _ in range(size))) for _ in range(20)]
            assert {sign_conflict_certificate(eq, q, parity).valid for q in box + drawn} == {decided}

    @pytest.mark.parametrize("name, betas, decided", [
        ("example-3", [None], True),
        ("example-1", ["1/1", "3/1", "1/3", "3/5", "5/3"], False),
        ("example-2", ["1/1", "3/1", "1/3", "3/5", "5/3"], False),
        ("example-4", [None], False),
    ])
    def test_the_bundled_examples_proved(self, name, betas, decided):
        for beta in betas:
            eq = qd.example_equation(name) if beta is None else qd.example_equation(name, beta=beta)
            below, above = qd.model._residual_reach(eq)
            plan = prepare_certificate(eq, eq.n0, below + 16 + above)  # as check --certificate plans
            assert plan.refusal is None
            assert [plan.decide(parity) for parity in QuickParity] == [decided, decided]

    def test_check_certificate_reads_each_coefficient_once_per_request(self, monkeypatch, capsys):
        # one read of p, c, b, a and d whatever the number of windows; d_sign's at(n0) is the second d
        eq = cli._cached_equation("example-3", None, None, None, None, None)
        reads = Counter()
        spy_coefficient_reads(monkeypatch, eq, lambda name, start, stop: reads.update([name]))
        assert cli.main(["check", "example-3", "--certificate", "--windows", "50"]) == 0
        assert "50/50 valid" in capsys.readouterr().out
        assert reads == {"p": 1, "c": 1, "b": 1, "a": 1, "d": 2}


# ---------------------------------------------------------------------------
# Companion bound
# ---------------------------------------------------------------------------


class TestCompanionBound:
    def test_zero_p_reconstruction_equals_z(self):
        rng = random.Random(21)
        z = Window(1, tuple(rng.uniform(-1, 1) for _ in range(80)))
        cert = companion_bound_certificate(z, Constant(0.0), 0.0, 1, 1, z)  # with p = 0, x coincides with z
        assert cert.P == 0.5
        assert cert.bound == pytest.approx(cert.K + 2 * cert.L)
        assert cert.valid
        assert cert.max_abs_x <= cert.L + 1e-15

    def test_half_p_unit_z(self):
        z = Window(1, (1.0,) * 60)
        startup = Window(1, (1.0, 1.0, 1.0))
        cert = companion_bound_certificate(z, Constant(0.5), 0.5, 1, 1, startup)
        assert cert.P == 0.75
        assert cert.L == 1.0 and cert.K == 1.0
        assert cert.bound == pytest.approx(5.0)
        assert cert.valid

    def test_direct_recursion_oracle(self):
        # independent reconstruction confirming the certified maximum
        rng = random.Random(33)
        delta, n1 = 3, 2
        z = Window(n1, tuple(rng.uniform(-2, 2) for _ in range(500)))
        startup = Window(n1, tuple(rng.uniform(-1, 1) for _ in range(delta + 2)))
        p = Table(tuple(0.6 + 0.15 * math.cos(k) / (k + 1) for k in range(600)), n1, "hold-last")
        cert = companion_bound_certificate(z, p, 0.6, delta, n1, startup)
        xs = {n: startup[n] for n in range(n1, n1 + delta + 2)}
        observed = max(abs(v) for v in xs.values())
        for n in range(n1 + delta + 2, z.end + 1):
            xs[n] = z[n] - p.at(n) * xs[n - delta]
            observed = max(observed, abs(xs[n]))
        assert cert.max_abs_x == pytest.approx(observed, rel=1e-12)
        assert observed <= cert.bound
        assert cert.valid

    def test_rejects_unit_p_limit(self):
        z = Window(1, (1.0,) * 20)
        with pytest.raises(HypothesisViolation):
            companion_bound_certificate(z, Constant(1.0), 1.0, 1, 1, Window(1, (1.0,) * 3))

    def test_rejects_p_exceeding_envelope(self):
        z = Window(1, (1.0,) * 20)
        p = Table((0.1,) * 10 + (0.9,) * 10, 1, "hold-last")  # P = 0.55 for limit 0.1
        with pytest.raises(HypothesisViolation) as err:
            companion_bound_certificate(z, p, 0.1, 1, 1, Window(1, (1.0,) * 3))
        assert err.value.index == 11

    @pytest.mark.parametrize("p, raised, index", [
        (Table((0.1,) * 10 + (0.9,), 1, "error"), HypothesisViolation, 11),  # |p(11)| > P, then p ends at 12
        (Table((0.1,) * 5, 1, "error"), qd.SequenceDomainError, 6),  # p ends before any |p| > P
    ])
    def test_what_p_raises_first_comes_first(self, p, raised, index):
        z = Window(1, (1.0,) * 20)
        with pytest.raises(raised) as err:
            companion_bound_certificate(z, p, 0.1, 1, 1, Window(1, (1.0,) * 3))
        assert err.value.index == index

    def test_a_window_that_ends_with_the_startup_block(self):
        cert = companion_bound_certificate(Window(1, (1.0, -2.0, 3.0)), Constant(0.5), 0.5, 1, 1,
                                           Window(1, (1.0, 4.0, 2.0)))
        assert (cert.L, cert.K, cert.max_abs_x, cert.n_end) == (3.0, 4.0, 4.0, 3)

    def test_rejects_short_startup(self):
        z = Window(1, (1.0,) * 20)
        with pytest.raises(ValueError, match="startup"):
            companion_bound_certificate(z, Constant(0.0), 0.0, 3, 1, Window(1, (1.0, 1.0)))

    def test_rejects_delta_zero(self):
        z = Window(1, (1.0,) * 20)
        with pytest.raises(ValueError, match="delta"):
            companion_bound_certificate(z, Constant(0.0), 0.0, 0, 1, Window(1, (1.0,) * 3))


# ---------------------------------------------------------------------------
# Series probes
# ---------------------------------------------------------------------------


class TestSeriesDivergence:
    def test_harmonic_is_divergent_at_large_horizon(self):
        probe = check_series_divergence(PowerLaw(1.0, -1.0), 1, 10 ** 6)
        assert probe.status is SeriesStatus.DIVERGENT
        assert probe.partial_sum > 14.0  # harmonic sum passes 14 by 1e6 terms

    def test_inverse_squares_converge(self):
        probe = check_series_divergence(PowerLaw(1.0, -2.0), 1, 10 ** 5)
        assert probe.status is SeriesStatus.CONVERGENT
        assert probe.partial_sum == pytest.approx(math.pi ** 2 / 6, rel=1e-4)

    def test_constant_terms_diverge(self):
        assert check_series_divergence(Constant(1.0), 1, 10 ** 4).status is SeriesStatus.DIVERGENT

    def test_geometric_decay_converges(self):
        probe = check_series_divergence(Geometric(1.0, 0.5), 0, 1000)
        assert probe.status is SeriesStatus.CONVERGENT
        assert probe.partial_sum == pytest.approx(2.0, rel=1e-12)

    def test_fast_growth_exits_early(self):
        probe = check_series_divergence(Geometric(1.0, 2.0), 0, 10 ** 6)
        assert probe.status is SeriesStatus.DIVERGENT
        assert probe.threshold_exceeded
        assert probe.terms_summed < 100

    def test_negative_one_signed_terms_diverge(self):
        probe = check_series_divergence(Affine(-2.0, 0.0), 1, 10 ** 4)
        assert probe.status is SeriesStatus.DIVERGENT

    def test_threshold_excludes_convergent_status(self):
        # once partial sums pass the threshold, the verdict can never be
        # heuristic-convergent, however flat the tail
        probe = check_series_divergence(Geometric(1.0, 0.5), 0, 1000, threshold=1.0)
        assert probe.threshold_exceeded
        assert probe.status is SeriesStatus.DIVERGENT

    def test_nan_terms_are_undetermined(self):
        probe = check_series_divergence(Table((1.0, math.nan, 1.0), 0, "hold-last"), 0, 100)
        assert probe.status is SeriesStatus.UNDETERMINED

    def test_short_horizon_rejected(self):
        with pytest.raises(ValueError):
            check_series_divergence(Constant(1.0), 0, 2)

    @pytest.mark.parametrize("terms", [Constant(1e-310), Table((1e-310,), 0, "hold-last")])
    def test_tiny_constant_terms_diverge(self, terms):
        # the tail ratio divides by the sum itself, however tiny: the final third of equal terms is a third of it
        probe = check_series_divergence(terms, 2, 10 ** 5)
        assert probe.status is SeriesStatus.DIVERGENT
        assert probe.tail_ratio == pytest.approx(1 / 3, rel=1e-4)

    def test_zero_terms_converge(self):
        probe = check_series_divergence(Constant(0.0), 0, 1000)
        assert (probe.status, probe.partial_sum, probe.tail_ratio) == (SeriesStatus.CONVERGENT, 0.0, 0.0)


def per_term_probe(terms, start, horizon, threshold=1e6):
    """check_series_divergence as a per-term loop: the reference the chunked probe must match."""
    two_thirds = (2 * horizon) // 3
    total = 0.0
    checkpoint = 0.0
    summed = 0
    for k in range(horizon):
        v = terms.at(start + k)
        if math.isnan(v):
            return SeriesProbe(SeriesStatus.UNDETERMINED, total, math.nan, summed, False)
        total += v
        summed = k + 1
        if summed == two_thirds:
            checkpoint = total
        if abs(total) > threshold:
            return SeriesProbe(SeriesStatus.DIVERGENT, total, 1.0, summed, True)
    if math.isnan(total):
        return SeriesProbe(SeriesStatus.UNDETERMINED, total, math.nan, summed, False)
    ratio = abs(total - checkpoint) / max(abs(total), 5e-324)
    if ratio > TAIL_GROW:
        status = SeriesStatus.DIVERGENT
    elif ratio < TAIL_SETTLE:
        status = SeriesStatus.CONVERGENT
    else:
        status = SeriesStatus.UNDETERMINED
    return SeriesProbe(status, total, ratio, summed, False)


def probe_outcome(probe, terms, start, horizon, threshold):
    def packed():
        p = probe(terms, start, horizon, threshold)
        return (p.status, struct.pack("d", p.partial_sum), struct.pack("d", p.tail_ratio),
                p.terms_summed, p.threshold_exceeded)
    return outcome(packed)


def assert_probe_matches_per_term_loop(terms, start, horizon, threshold=1e6, ends=None):
    probe = check_series_divergence if ends is None else functools.partial(check_series_divergence, ends=ends)
    assert (probe_outcome(probe, terms, start, horizon, threshold)
            == probe_outcome(per_term_probe, terms, start, horizon, threshold))


_NAN_AT_100 = Table((1.0,) * 100 + (math.nan,), 0, "hold-last")


class TestChunkedSeriesProbe:
    """The chunked probe returns what the per-term loop returns, bit for bit."""

    @pytest.mark.parametrize("terms, start, horizon, threshold", [
        (_NAN_AT_100, 0, 1000, 1e6),  # NaN inside the chunk [64, 192)
        (Constant(1.0), 0, 1000, 100.5),  # threshold crossed at term 101, inside a chunk
        (Table((1.0, math.inf, -math.inf, 1.0), 0, "hold-last"), 0, 500, 1e6),
        (Table((1.0, math.inf, -math.inf, 1.0), 0, "hold-last"), 0, 500, math.inf),
        (Table((-1.0, -math.inf), 0, "hold-last"), 0, 500, math.inf),
        (PowerLaw(1.0, -1.0), 1, 96, 1e6),  # two_thirds = 64, the end of the first chunk
        (PowerLaw(1.0, -1.0), 1, 288, 1e6),  # two_thirds = 192, the end of the second
        (PowerLaw(1.0, -1.0), 1, 97, 1e6),
        (PowerLaw(1.0, -2.0), 1, 10_000, 1e6),
        (Geometric(1.0, 0.5), 0, 5000, 1e6),
        (analysis._ReciprocalPower(Affine(1.0, 0.0), OddRatio(1), "a", 1), 1, 5000, 1e6),  # the harmonic series A
        (Table((1e4,) * 150, 0, "error"), 0, 1000, 1e6),  # trips at 101, the table ends at 149
        (Table((1.0,) * 150, 0, "error"), 0, 1000, 1e6),  # no trip: raises past the end
        (Affine(1.0, -50.0), 0, 5000, 1e6),
        # examples 3 and 4: a = n is proved positive from n0 = 2, so the harmonic chunks skip the sign pass
        # and the max and min; two_thirds is 3333, inside the chunk [1984, 4032), then 4032 and 1984, its ends
        (analysis._ReciprocalPower(Affine(1.0, 0.0), OddRatio(1), "a", 2), 2, 5000, 1e6),
        (analysis._ReciprocalPower(Affine(1.0, 0.0), OddRatio(1), "a", 2), 2, 6048, 1e6),
        (analysis._ReciprocalPower(Affine(1.0, 0.0), OddRatio(1), "a", 2), 2, 2976, 1e6),
        (Affine(-1.0, 1.0), 2, 100_000, 1e6),  # examples 3 and 4's d are proved and trip mid-chunk
        (Affine(20.0, 10.0), 2, 100_000, 1e6),
        (Affine(20.0, 10.0), 2, 100_000, -1.0),  # a negative threshold trips at the first term
        (analysis._ReciprocalPower(Affine(1.0, 0.0), OddRatio(1), "a", 2), 2, 1000, -0.5),
        (Affine(1e300, 1e300), 2, 100_000, math.inf),  # proved terms whose sums reach inf and never trip
        (Geometric(1.0, 2.0), 0, 3000, math.inf),  # proved terms that overflow: the block raises from n = 1024
        (Table((2e6, -2e6, 0.0), 0, "hold-last"), 0, 1000, 1e6),  # not one-signed: the sums trip and come back
    ])
    def test_matches_per_term_loop(self, terms, start, horizon, threshold):
        assert_probe_matches_per_term_loop(terms, start, horizon, threshold)

    def test_table_error_past_the_trip_is_divergent(self):
        probe = check_series_divergence(Table((1e4,) * 150, 0, "error"), 0, 1000)
        assert probe.status is SeriesStatus.DIVERGENT
        assert probe.terms_summed == 101

    def test_a_chunk_that_raises_evaluates_each_index_once(self, monkeypatch):
        # the base is positive to n = 99 and -1 from 100: the chunk [64, 192) reads 64..100 once, and the
        # reader meets a(100)'s error where the per-term loop would
        calls = []
        at = Table.at
        monkeypatch.setattr(Table, "at", lambda seq, n: calls.append(n) or at(seq, n))
        terms = analysis._ReciprocalPower(Table((1.0,) * 100 + (-1.0,), 0, "hold-last"), OddRatio(1), "a", 0)
        with pytest.raises(qd.SequenceDomainError, match=r"^nonpositive coefficient a\(100\) = -1.0$"):
            check_series_divergence(terms, 0, 1000)
        assert calls == list(range(64, 101))

    def test_nan_inside_a_chunk_stops_at_the_nan(self):
        probe = check_series_divergence(_NAN_AT_100, 0, 1000)
        assert probe.status is SeriesStatus.UNDETERMINED
        assert (probe.partial_sum, probe.terms_summed) == (100.0, 100)

    @pytest.mark.parametrize("beta, horizon", [
        ("1/1", 62_499), ("1/1", 62_500), ("1/1", 62_501),  # d settles at 16: the 1e6 threshold is at the end
        ("3/1", 100_000),  # trips at term 3907, in a settled chunk
        ("1/3", 100_000),
    ])
    def test_settled_example_2_d(self, beta, horizon):
        eq = qd.example_equation("example-2", beta=beta)
        assert eq.d.settled is not None
        assert_probe_matches_per_term_loop(eq.d, eq.n0, horizon)

    @pytest.mark.parametrize("terms, horizon, terms_summed", [
        (qd.example_equation("example-2", beta="3/1").d, 100_000, 3907),  # the chunk [1986, 4034) is settled
        (Affine(1.0, 0.0), 5000, 1413),  # no settled tail
    ], ids=["example-2-d-3/1", "affine"])
    def test_tripping_chunk_replays_its_block(self, monkeypatch, terms, horizon, terms_summed):
        expected = per_term_probe(terms, 2, horizon)
        assert expected.terms_summed == terms_summed
        calls = []
        at = type(terms).at
        monkeypatch.setattr(type(terms), "at", lambda seq, n: calls.append(n) or at(seq, n))
        assert check_series_divergence(terms, 2, horizon) == expected
        assert calls == []

    @settings(max_examples=150, deadline=None)
    @given(sequences, st.integers(-5, 30), st.integers(3, 3000),
           st.sampled_from((1e6, 10.0, 0.5, 1e300, math.inf)))
    def test_random_sequences(self, seq, start, horizon, threshold):
        assert_probe_matches_per_term_loop(seq, start, horizon, threshold)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(sequences, signed_sequences), st.integers(-5, 30), st.integers(3, 3000),
           st.sampled_from((OddRatio(1), OddRatio(3), OddRatio(1, 3))))
    def test_random_reciprocal_powers(self, seq, start, horizon, e):
        terms = analysis._ReciprocalPower(seq, e, "a", start)
        assert_probe_matches_per_term_loop(terms, start, horizon)

    @settings(max_examples=150, deadline=None)
    @given(signed_sequences, st.integers(-5, 30), st.integers(3, 3000),
           st.sampled_from((1e6, 10.0, 0.5, 1e300, math.inf, -1.0)))
    def test_random_one_signed_sequences(self, seq, start, horizon, threshold):
        assert_probe_matches_per_term_loop(seq, start, horizon, threshold)


_HARMONIC = analysis._ReciprocalPower(Affine(1.0, 0.0), OddRatio(1), "a", 1)


class TestSeriesMemo:
    """Probes that share one memo of chunk-end partial sums each return what the per-term loop returns."""

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(sequences, signed_sequences), st.integers(-5, 30),
           st.lists(st.integers(3, 4500), min_size=2, max_size=6),
           st.sampled_from((1e6, 10.0, 0.5, 1e300, math.inf, -1.0)))
    @example(_HARMONIC, 1, [1000, 288, 96, 1000], 1e6)  # two_thirds 192 and 64 are recorded ends, so is 1000
    @example(_HARMONIC, 1, [448, 448, 672, 960], 1e6)  # horizons at recorded ends; 672's two_thirds is 448
    @example(_HARMONIC, 1, [3000, 50, 3, 63], 1e6)  # horizons below the first chunk end
    @example(_HARMONIC, 1, [4500, 700, 3000, 4400], 1e6)  # horizons that shrink, then grow
    @example(_NAN_AT_100, 0, [1000, 90, 101, 1000], 1e6)  # a NaN term at 100
    @example(Constant(1.0), 0, [1000, 100, 101, 200], 100.5)  # a trip at term 101
    @example(Affine(-1.0, 1.0), 2, [3000, 1000, 1500], 1e6)  # a trip of the negative sign, at term 1414
    @example(Table((2e6, -2e6, 0.0), 0, "hold-last"), 0, [1000, 3, 500], 1e6)  # sums that trip and come back
    @example(Table((1.0,) * 150, 0, "error"), 0, [1000, 100, 149, 150, 151], 1e6)  # the table ends at 149
    @example(qd.example_equation("example-2", beta="3/1").d, 2, [4500, 2000, 100], 1e6)  # settled from 35
    def test_matches_per_term_loop(self, terms, start, horizons, threshold):
        ends = {}
        for horizon in horizons:
            assert_probe_matches_per_term_loop(terms, start, horizon, threshold, ends)

    def test_a_warm_probe_resums_at_most_two_chunks(self, monkeypatch):
        ends = {}
        cold = check_series_divergence(_HARMONIC, 1, 100_000, ends=ends)
        assert cold.status is SeriesStatus.DIVERGENT and not cold.threshold_exceeded
        read = []
        block = Affine.block  # the harmonic terms' base, n
        monkeypatch.setattr(Affine, "block", lambda seq, start, count, done=None: read.append((start, count))
                            or block(seq, start, count, done))
        assert check_series_divergence(_HARMONIC, 1, 100_000, ends=ends) == cold
        # the chunk across two_thirds = 66,666 from the last end below it; then the horizon is a recorded end
        assert read == [(65_473, analysis.CHUNK_CAP)]

    def test_a_filled_memo_leaves_the_equation_equal(self):
        eq = qd.example_equation("example-3")
        check_almost_oscillation(eq, horizon=5000)
        assert eq._series_ends["A"][5000] > 0.0
        fresh = qd.example_equation("example-3")
        assert (eq, hash(eq), repr(eq)) == (fresh, hash(fresh), repr(fresh))

    def test_a_probe_without_a_memo_keeps_no_state(self):
        eq = qd.example_equation("example-3")
        first = check_series_divergence(eq.d, eq.n0, 5000)
        assert check_series_divergence(eq.d, eq.n0, 5000) == first
        assert eq._series_ends == {}


_DYADIC = st.builds(lambda i, k: math.ldexp(i, k), st.integers(-2 ** 20, 2 ** 20), st.integers(-1074, 40))


class TestConstantSeriesProbe:
    """A constant series summed in closed form returns what the per-term loop returns, bit for bit."""

    @pytest.mark.parametrize("terms, horizon, threshold", [
        (Constant(0.0), 1000, 1e6),
        (Constant(-0.0), 1000, 1e6),  # the loop's 0.0 + -0.0 is 0.0, where horizon * -0.0 is -0.0
        (Constant(-0.75), 5000, 1e6),
        (Constant(-0.75), 1000, 100.5),  # |134 * c| is the threshold exactly: the trip is at 135
        (Constant(1.0), 1000, 100.0),
        (Constant(2.0 ** -1074), 5000, 1e6),
        (Constant(1.0), 1000, 0.0),
        (Constant(-0.75), 1000, math.inf),
        (Constant(0.1), 5000, 1e6),  # 0.1's numerator times 5000 passes 2**53: the loop sums
        (Constant(1.0 + 2.0 ** -52), 1000, 1e6),  # its numerator times 3 passes 2**53: the loop rounds
        (Constant(1.0), 1000, -1.0),
        (Constant(1.0), 1000, math.nan),
        (Constant(math.inf), 1000, 1e6),
        (Constant(math.nan), 1000, 1e6),
        (analysis._ReciprocalPower(Constant(4.0), OddRatio(1), "a", 3), 5000, 1e6),
        (analysis._ReciprocalPower(Constant(2.0 ** -20), OddRatio(1), "a", 3), 5000, 1e6),  # trips at the first term
        (analysis._ReciprocalPower(Constant(1e-300), OddRatio(1, 3), "a", 3), 1000, 1e6),  # at() saturates to inf
        (analysis._ReciprocalPower(Constant(-1.0), OddRatio(1), "a", 3), 1000, 1e6),  # SequenceDomainError
        (analysis._ReciprocalPower(Constant(1e300), OddRatio(1, 3), "a", 3), 1000, 1e6),  # c underflows to 0.0
        (analysis._ReciprocalPower(Constant(5e-324), OddRatio(1), "a", 3), 1000, math.inf),  # at() saturates to inf
    ])
    def test_matches_per_term_loop(self, terms, horizon, threshold):
        assert_probe_matches_per_term_loop(terms, 3, horizon, threshold)

    def test_sums_no_terms(self):
        # a trillion terms: only the closed form answers at once
        probe = check_series_divergence(Constant(1.0), 0, 10 ** 12, math.inf)
        assert (probe.status, probe.partial_sum, probe.terms_summed) == (SeriesStatus.DIVERGENT, 1e12, 10 ** 12)
        probe = check_series_divergence(analysis._ReciprocalPower(Constant(0.25), OddRatio(1), "a", 3), 0, 10 ** 12)
        assert (probe.partial_sum, probe.terms_summed, probe.threshold_exceeded) == (1e6 + 4, 250_001, True)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_DYADIC, st.floats(), st.sampled_from((0.0, -0.0, 1.0, -1.0, 5e-324, 0.1, 1e308))),
           st.sampled_from((None, OddRatio(1), OddRatio(3), OddRatio(1, 3))),
           st.integers(3, 5000),
           st.one_of(st.sampled_from((0.0, 0.5, 100.5, 1e6, 1e300, math.inf, -1.0, math.nan)), _DYADIC.map(abs)))
    def test_random_constants(self, value, e, horizon, threshold):
        terms = Constant(value) if e is None else analysis._ReciprocalPower(Constant(value), e, "a", 0)
        assert_probe_matches_per_term_loop(terms, 0, horizon, threshold)


def per_term_tail(v, total, checkpoint, summed, horizon, two_thirds, threshold):
    """The per-term loop of the probe over terms that all are v, from its state after `summed` terms."""
    while summed < horizon:
        if math.isnan(v):
            return SeriesProbe(SeriesStatus.UNDETERMINED, total, math.nan, summed, False)
        total += v
        summed += 1
        if summed == two_thirds:
            checkpoint = total
        if abs(total) > threshold:
            return SeriesProbe(SeriesStatus.DIVERGENT, total, 1.0, summed, True)
    return analysis._probe_at_horizon(total, checkpoint, summed)


def packed(p: SeriesProbe) -> tuple:
    return (p.status, struct.pack("d", p.partial_sum), struct.pack("d", p.tail_ratio), p.terms_summed,
            p.threshold_exceeded)


def assert_tail_matches_per_term_loop(v, total, summed, horizon, threshold, checkpoint=0.0):
    state = (v, total, checkpoint, summed, horizon, (2 * horizon) // 3, threshold)
    assert packed(analysis._settled_tail(*state)) == packed(per_term_tail(*state))


@st.composite
def settled_tails(draw):
    """(v, total, summed, horizon): totals of any sign near and across binade tops, and terms that are
    ties on the total's grid, exact multiples of it, subnormal, huge or anything."""
    total = draw(st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, 2.0 ** 53, 1e308, math.inf, -math.inf,
                                            math.nan, 5e-324, -2.0 ** -1022)),
                           st.floats(-1e6, 1e6), _DYADIC, st.floats()))
    u = math.ulp(total) if math.isfinite(total) and total else 2.0 ** -1074
    sign = draw(st.sampled_from((1.0, -1.0)))
    v = draw(st.one_of(
        st.integers(0, 40).map(lambda k: sign * (k + 0.5) * u),  # a tie on the grid of the total's binade
        st.integers(1, 2 ** 20).map(lambda k: sign * k * u),  # a multiple of it: runs end at binade tops
        st.integers(-52, 52).map(lambda k: sign * (abs(total) or 1.0) * 2.0 ** k),  # a power of 2 of it
        st.integers(1, 2 ** 30).map(lambda k: sign * math.ldexp(k, -1074)),  # subnormal and near
        st.sampled_from((0.0, -0.0, 1e308, -1e308, math.inf, -math.inf, math.nan, 1.0, 0.1)),
        st.floats()))
    horizon = draw(st.integers(3, 4000))
    return v, total, draw(st.integers(0, horizon - 1)), horizon


class TestSettledTail:
    """_settled_tail returns what the per-term loop returns over terms that all are v, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(settled_tails(), st.sampled_from((1e6, 0.0, -1.0, -0.0, math.nan, math.inf, -math.inf, 1e308, 0.5)),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_matches_per_term_loop(self, tail, threshold, checkpoint):
        v, total, summed, horizon = tail
        assert_tail_matches_per_term_loop(v, total, summed, horizon, threshold, checkpoint)

    @settings(max_examples=300, deadline=None)
    @given(settled_tails(), st.integers(1, 4000))
    def test_a_threshold_hit_exactly(self, tail, k):
        # the threshold is |T_k|, a total of the loop's, or the double just below or above it
        v, total, summed, horizon = tail
        t = total
        for _ in range(min(k, horizon - summed)):
            t += v
        if not math.isnan(t):
            for threshold in (abs(t), math.nextafter(abs(t), 0.0), math.nextafter(abs(t), math.inf)):
                assert_tail_matches_per_term_loop(v, total, summed, horizon, threshold)

    @pytest.mark.parametrize("v, total, summed, horizon, threshold", [
        (1.0, -2500.0, 0, 3000, 1e6),  # the total moves through zero one term at a time, past the checkpoint
        (-3.0, 10.0, 0, 3000, 1e6),  # moves through zero from the other side: runs start at -2
        (1.0, -0.0, 0, 1000, 1e6),  # -0.0 + 1.0 is 1.0
        (-0.0, -0.0, 0, 1000, 1e6),  # stays -0.0 for good
        (0.0, -0.0, 0, 1000, 1e6),  # -0.0 + 0.0 is 0.0, which then stays
        (2.0 ** -53, 1.0, 0, 1000, 1e6),  # a tie from an even total: 1.0 for good
        (2.0 ** -53, 1.0 + 2.0 ** -52, 0, 1000, 1e6),  # from an odd total: one step to 1 + 2**-51, then stays
        (3 * 2.0 ** -53, 1.0 + 2.0 ** -52, 0, 3000, 1e6),  # a tie that moves: +2**-51 from the even total on
        (5e-324, 0.0, 0, 3000, 1e6),  # subnormal totals: the grid is 2**-1074 throughout
        (1e307, 0.0, 0, 100, math.inf),  # overflows to inf at term 18, which then stays
        (1e307, 0.0, 0, 100, 1e308),  # trips before the overflow
        (math.inf, 1.0, 0, 100, math.inf),
        (math.nan, 1.0, 50, 100, 1e6),
        (16.0, 0.0, 0, 62_500, 1e6),  # |T| = 1e6 exactly at the horizon: no trip
        (16.0, 0.0, 0, 62_501, 1e6),  # the trip at the last term
        (0.1, 0.0, 0, 3000, 1e6),  # rounded increments a binade at a time; the checkpoint falls inside a run
        (0.1, 0.0, 0, 3000, 100.0),  # the 0.1 sums pass 100 inside a run
        (1.0, 2.0 ** 53 - 5, 0, 100, math.inf),  # exact sums up to 2**53, then 2**53 for good
        (2.0 ** 1020, 0.0, 0, 100, math.inf),  # exact sums of 2**1020 up to 15 * 2**1020, then inf
        (2.0 ** 1020, 0.0, 0, 100, 2.0 ** 1023),  # 9 * 2**1020 trips
        (0.75, 0.0, 0, 3000, 100.5),  # exact sums: 134 * 0.75 is the threshold itself, 135 trips
    ])
    def test_matches_per_term_loop_at(self, v, total, summed, horizon, threshold):
        assert_tail_matches_per_term_loop(v, total, summed, horizon, threshold)

    def test_a_trillion_terms_trip_without_summing(self):
        probe = analysis._settled_tail(16.0, 0.0, 0.0, 0, 10 ** 12, 2 * 10 ** 12 // 3, 1e6)
        assert (probe.partial_sum, probe.terms_summed, probe.threshold_exceeded) == (1e6 + 16, 62_501, True)

    def test_a_checkpoint_inside_a_stepped_run(self):
        # opposite-signed totals step one term at a time: the checkpoint at 2000 falls among them
        probe = analysis._settled_tail(1.0, -2500.0, 0.0, 0, 3000, 2000, 1e6)
        assert (probe.partial_sum, probe.tail_ratio) == (500.0, 2.0)  # the checkpoint is -500
        assert_tail_matches_per_term_loop(1.0, -2500.0, 0, 3000, 1e6)


# ---------------------------------------------------------------------------
# Almost-oscillation hypothesis report
# ---------------------------------------------------------------------------


class TestAlmostOscillation:
    def test_quartic_example_all_hold(self):
        report = check_almost_oscillation(qd.example_equation("example-4"), horizon=100_000)
        assert report.all_hold
        assert report.conclusion == "hypotheses hold (heuristically for series)"
        for name in ("series-A-divergent", "series-B-divergent", "series-C-divergent",
                     "series-d-divergent"):
            entry = report.entry(name)
            assert entry.status is CheckStatus.HEURISTIC_EVIDENCE
            assert entry.satisfied is True
            assert "heuristic-divergent" in entry.detail

    def test_large_p_fails_the_limit_condition(self):
        doc = qd.example_document("example-4")
        doc["p"] = {"kind": "constant", "value": 2.0}
        report = check_almost_oscillation(qd.build_equation(doc), horizon=10_000)
        entry = report.entry("p-limit")
        assert entry.satisfied is False
        assert not report.all_hold
        assert "p-limit" in report.conclusion

    def test_summable_forcing_fails_the_d_series_condition(self):
        doc = qd.example_document("example-4")
        doc["d"] = {"kind": "power", "scale": 1.0, "exponent": -2.0}
        report = check_almost_oscillation(qd.build_equation(doc), horizon=100_000)
        entry = report.entry("series-d-divergent")
        assert entry.satisfied is False
        assert "heuristic-convergent" in entry.detail
        assert not report.all_hold

    def test_discontinuous_forcing_fails_continuity(self):
        report = check_almost_oscillation(qd.example_equation("example-1"), horizon=10_000)
        assert report.entry("f-continuous").satisfied is False
        assert not report.all_hold


# ---------------------------------------------------------------------------
# Component sign profile
# ---------------------------------------------------------------------------


def census_reference(name: str, w: Window) -> analysis.ComponentSummary:
    """A component's summary as two census passes formed it, each reading the window's peak and suffix itself."""
    scale = w.max_abs()
    suffix = w.suffix(analysis._suffix_length(len(w)))
    status = ("degenerate-zero" if scale == 0.0
              else analysis._sign_census_values(suffix.values, qd.numerics.EPS_SIGN * scale))
    slack = qd.numerics.EPS_SIGN * max(w.max_abs(), 1e-300)
    diffs = [b - a for a, b in zip(suffix.values, suffix.values[1:])]
    non_dec, non_inc = all(d >= -slack for d in diffs), all(d <= slack for d in diffs)
    if non_dec and non_inc:
        monotone = "constant"
    elif non_dec:
        monotone = "increasing"
    elif non_inc:
        monotone = "decreasing"
    else:
        monotone = "none"
    return analysis.ComponentSummary(name, status, monotone, analysis._tends_to_zero(w.values))


PROFILE_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, math.inf, -math.inf, math.nan)


@st.composite
def profile_windows(draw) -> Window:
    """A window of 16 to 40 values: any signs, a geometric run (one-signed or alternating, growing or decaying)
    or a constant, with some values replaced by zeros, subnormals, infinities or NaN, among them the first value
    of the window or of one of the thirds that _tends_to_zero reads."""
    size = draw(st.integers(16, 40))
    scales = st.floats(-1e3, 1e3, allow_nan=False)
    values = draw(st.one_of(
        st.lists(scales, min_size=size, max_size=size),
        st.builds(lambda c, r: [c * r ** i for i in range(size)], scales, st.floats(-1.5, 1.5)),
        st.builds(lambda c: [c] * size, scales)))
    at = st.one_of(st.integers(0, size - 1), st.sampled_from((0, size // 3, 2 * size // 3)))
    for i, v in draw(st.lists(st.tuples(at, st.sampled_from(PROFILE_SPECIALS)), max_size=4)):
        values[i] = v
    return Window(draw(st.integers(-5, 5)), tuple(values))


class TestComponentSignProfile:
    def test_decaying_solution_takes_the_decay_case(self):
        eq = qd.example_equation("example-3")
        traj = sample_trajectory(eq, qd.example_closed_form("example-3"), 0, 63)
        profile = component_sign_profile(traj)
        assert profile.case is SignCase.Y_ONE_SIGNED_X_TO_ZERO
        assert profile.x_tends_to_zero
        assert profile.component("y").sign_status == "positive"
        assert profile.component("x").sign_status == "negative"
        # decaying chain: y and t shrink toward zero monotonically
        assert profile.component("y").monotone == "decreasing"
        assert profile.component("y").tends_to_zero

    def test_constant_solution_is_all_one_signed_with_degenerate_chain(self):
        traj = sample_trajectory(plain_equation(), lambda n: 1.0, 0, 40)
        profile = component_sign_profile(traj)
        assert profile.case is SignCase.ALL_ONE_SIGNED
        assert set(profile.degenerate_zero) == {"y", "w", "t"}
        assert profile.component("x").sign_status == "positive"

    def test_alternating_solution_is_neither(self):
        eq = qd.example_equation("example-4")
        traj = sample_trajectory(eq, qd.example_closed_form("example-4"), 0, 60)
        profile = component_sign_profile(traj)
        assert profile.case is SignCase.NEITHER
        assert profile.component("x").sign_status == "mixed"

    def test_reports_observed_x_bound(self):
        eq = qd.example_equation("example-4")
        traj = sample_trajectory(eq, qd.example_closed_form("example-4"), 0, 60)
        assert component_sign_profile(traj).max_abs_x == pytest.approx(0.1)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(profile_windows(), min_size=4, max_size=4))
    @example([Window(0, (math.nan,) + (1.0,) * 15)] * 4)
    @example([Window(0, (1.0,) * 5 + (math.nan,) + (2.0,) * 10), Window(0, (0.0,) * 16),
              Window(0, (-0.0, 5e-324) * 8), Window(0, (math.inf,) + (-1.0,) * 15)])
    def test_each_window_is_summarised_as_two_census_passes_summarised_it(self, windows):
        # the profile reads only .x and .chain; z, the chain's first window, is not profiled
        x, y, w, t = windows
        profile = component_sign_profile(SimpleNamespace(x=x, chain=(None, y, w, t)))
        assert profile.components == tuple(map(census_reference, "xywt", windows))
        assert struct.pack("d", profile.max_abs_x) == struct.pack("d", x.max_abs())  # a NaN peak too

    def test_each_window_is_read_once(self, monkeypatch):
        traj = sample_trajectory(qd.example_equation("example-3"), qd.example_closed_form("example-3"), 0, 63)
        traj.chain  # materialised before counting
        calls = Counter()
        for method in ("max_abs", "suffix"):
            monkeypatch.setattr(Window, method, lambda w, *a, m=method, f=getattr(Window, method):
                                calls.update([m]) or f(w, *a))
        component_sign_profile(traj)
        assert calls == {"max_abs": 4}

    def test_requires_materialized_window(self):
        # delta = 2: five x values give z on three indices, one short of the chain's four
        traj = sample_trajectory(plain_equation(), lambda n: 1.0, 0, 4)
        with pytest.raises(ValueError, match="too short to materialize the chain"):
            component_sign_profile(traj)

    def test_requires_sixteen_chain_values(self):
        traj = sample_trajectory(plain_equation(), lambda n: 1.0, 0, 12)
        with pytest.raises(ValueError, match="16"):
            component_sign_profile(traj)
