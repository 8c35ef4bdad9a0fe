import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasidiff import OddRatio, spow
from quasidiff.numerics import EPS_LIMIT, EPS_RESIDUAL, EPS_SIGN, SUFFIX_FRACTION

EXPONENTS = [OddRatio(1, 1), OddRatio(3, 1), OddRatio(5, 3), OddRatio(1, 3),
             OddRatio(7, 5), OddRatio(9, 7), OddRatio(3, 5)]


@pytest.mark.parametrize("x, e, expected", [
    (8.0, OddRatio(1, 3), 2.0),
    (-8.0, OddRatio(1, 3), -2.0),
    (-27.0, OddRatio(5, 3), -243.0),
    (0.0, OddRatio(7, 5), 0.0),
])
def test_spow_known_values(x, e, expected):
    assert spow(x, e) == pytest.approx(expected, rel=1e-12)


def test_spow_zero_is_exact():
    assert spow(0.0, OddRatio(7, 5)) == 0.0
    assert spow(-0.0, OddRatio(3, 1)) == 0.0


def test_spow_identity_exponent_is_exact():
    for x in (0.3, -1.75, 1e300, -1e-300):
        assert spow(x, OddRatio(1, 1)) == x


@pytest.mark.parametrize("y, e, expected", [
    (2.0, OddRatio(1, 3), 8.0),
    (-243.0, OddRatio(5, 3), -27.0),
])
def test_spow_inverse_known_values(y, e, expected):
    assert spow(y, e.reciprocal()) == pytest.approx(expected, rel=1e-12)


def test_spow_inverse_identity_is_exact():
    for y in (0.1, -7.25, 1e12):
        assert spow(y, OddRatio(1, 1).reciprocal()) == y


def test_spow_rejects_non_finite():
    with pytest.raises(ValueError):
        spow(math.inf, OddRatio(3, 1))
    with pytest.raises(ValueError):
        spow(math.nan, OddRatio(3, 1))


def test_spow_overflow_saturates_to_signed_infinity():
    assert spow(1e300, OddRatio(3, 1)) == math.inf
    assert spow(-1e300, OddRatio(3, 1)) == -math.inf


class TestOddRatio:
    def test_reduction(self):
        r = OddRatio(9, 3)
        assert (r.numerator, r.denominator) == (3, 1)

    def test_reduction_preserves_spow(self):
        rng = random.Random(5)
        a, b = OddRatio(9, 3), OddRatio(3, 1)
        for _ in range(200):
            x = rng.uniform(-100.0, 100.0)
            assert spow(x, a) == spow(x, b)

    @pytest.mark.parametrize("num, den", [(2, 1), (1, 2), (4, 6), (0, 1), (3, 0),
                                          (-3, 1), (3, -5), (6, 3)])
    def test_rejects_non_odd_components(self, num, den):
        with pytest.raises(ValueError):
            OddRatio(num, den)

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            OddRatio(1.0, 3)  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            OddRatio(True, 1)  # type: ignore[arg-type]

    @pytest.mark.parametrize("text, num, den", [("5/3", 5, 3), ("3", 3, 1), (" 9/3 ", 3, 1)])
    def test_parse(self, text, num, den):
        r = OddRatio.parse(text)
        assert (r.numerator, r.denominator) == (num, den)

    @pytest.mark.parametrize("text", ["5/3/1", "a/b", "2/1", "", "1.5"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            OddRatio.parse(text)

    def test_value_and_reciprocal_and_str(self):
        r = OddRatio(5, 3)
        assert r.numerator / r.denominator == pytest.approx(5 / 3)
        assert r.reciprocal() == OddRatio(3, 5)
        assert str(r) == "5/3"


@given(st.floats(min_value=-1e300, max_value=1e300), st.sampled_from(EXPONENTS))
def test_spow_is_exactly_odd(x, e):
    assert spow(-x, e) == -spow(x, e)


@given(
    st.floats(min_value=-1e100, max_value=1e100),
    st.floats(min_value=-1e100, max_value=1e100),
    st.sampled_from(EXPONENTS),
)
@settings(max_examples=200)
def test_spow_is_monotone(x, y, e):
    lo, hi = (x, y) if x <= y else (y, x)
    a, b = spow(lo, e), spow(hi, e)
    assert a <= b + 1e-9 * max(abs(a), abs(b), 1e-300)
    if hi - lo > 1e-6 * max(abs(lo), abs(hi), 1.0):
        assert a < b


@pytest.mark.parametrize("e", EXPONENTS)
def test_spow_round_trip_log_spaced(e):
    # log-spaced sample of [-1e6, 1e6]
    for k in range(-60, 61):
        for sign in (1.0, -1.0):
            x = sign * 10.0 ** (k / 10.0)
            back = spow(spow(x, e), e.reciprocal())
            assert back == pytest.approx(x, rel=1e-12)


def test_tolerance_constants():
    assert (EPS_SIGN, EPS_RESIDUAL, EPS_LIMIT, SUFFIX_FRACTION) == (1e-12, 1e-9, 1e-8, 0.5)
