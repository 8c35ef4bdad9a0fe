"""Sign-preserving rational powers and the shared numeric tolerances.

Exponents throughout the package are ratios of odd positive integers; for
those the signed real power x -> sign(x) * |x|**e is total on the real line
and preserves sign, because the odd denominator makes the real root of a
negative base well defined.  Everything here is pure scalar float work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class OddRatio:
    """A ratio of odd positive integers, stored in lowest terms.

    Houses every exponent of the quasidifference chain and of odd-power
    nonlinearities.  Even components change the class of equation the power
    lives in, so they are rejected rather than adjusted.
    """

    numerator: int
    denominator: int = 1
    unit: bool = field(init=False, repr=False, compare=False)  # numerator == denominator; hot loops read it, no call

    def __post_init__(self) -> None:
        for name in ("numerator", "denominator"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"OddRatio {name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"OddRatio {name} must be >= 1, got {value}")
            if value % 2 == 0:
                raise ValueError(f"OddRatio {name} must be odd, got {value}")
        g = math.gcd(self.numerator, self.denominator)
        object.__setattr__(self, "numerator", self.numerator // g)
        object.__setattr__(self, "denominator", self.denominator // g)
        object.__setattr__(self, "unit", self.numerator == self.denominator)

    @classmethod
    def parse(cls, text: str) -> "OddRatio":
        """Parse ``"num/den"`` (or a bare ``"num"``) into an OddRatio."""
        parts = str(text).strip().split("/")
        if len(parts) not in (1, 2):
            raise ValueError(f"expected 'num/den' of odd positive integers, got {text!r}")
        try:
            numbers = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"expected 'num/den' of odd positive integers, got {text!r}") from None
        return cls(*numbers)

    def reciprocal(self) -> "OddRatio":
        return OddRatio(self.denominator, self.numerator)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


def spow(x: float, e: OddRatio) -> float:
    """Signed power sign(x) * |x|**(num/den), total on finite reals.

    Exactly zero at zero, exactly odd in x (the magnitude is computed from
    |x| and the sign is reattached, so spow(-x, e) == -spow(x, e) bit for
    bit).  Overflow saturates to signed infinity; callers that track an
    index report the range error themselves.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"spow requires a finite base, got {x!r}")
    if x == 0.0:
        return 0.0
    if e.unit:
        return x
    sign = 1.0 if x > 0.0 else -1.0
    ax = x if x > 0.0 else -x
    try:
        if e.denominator == 1:
            mag = ax ** e.numerator
        else:
            mag = ax ** (e.numerator / e.denominator)
    except OverflowError:
        mag = math.inf
    return sign * mag


# The one numeric policy that stands in for the paper's asymptotic notions at
# a finite horizon.  EPS_SIGN is an absolute threshold in the solver (on |d_n|,
# and on the neutral pivot 1 + p scaled by max(1, |p|)) and a zero band
# relative to the window's magnitude in analysis; EPS_RESIDUAL is verify's pass
# threshold on the relative residual; EPS_LIMIT bounds the decay test's final
# value relative to the initial peak; SUFFIX_FRACTION is the trailing portion
# of a window that stands in for "eventually".
EPS_SIGN = 1e-12
EPS_RESIDUAL = 1e-9
EPS_LIMIT = 1e-8
SUFFIX_FRACTION = 0.5
