"""Bundled example equations with known closed-form solutions.

Four named fixtures ship with the package.  Each is an equation document
(see `document`) plus the closed form it is built around, so verification
runs need no hand transcription:

  example-1  second-difference pair with signum forcing and p_n = 2^-n;
             alternating solution x_n = (-1)^n 2^n (positive even terms).
             beta and the half-delay lambda (delta = 2*lambda) are free.
  example-2  same shape with identity forcing and p_n = 3^-n; alternating
             solution x_n = (-1)^n.  beta, lambda free.
  example-3  Delta(n * Delta^3(x_n + x_{n-2}/4)) + (1-n) x_{n+3} = 0 with
             decaying solution x_n = -1/2^n.
  example-4  same left side with forcing 10(2n+1) x_{n+3}; alternating
             solution x_n = (-1)^n / 10.

The d coefficients of examples 1 and 2 are exactly the closed forms that
make the stated solutions exact; they are encoded as combination sequences
parameterized by beta and lambda.
"""

from __future__ import annotations

from typing import Callable

from .document import build_equation
from .model import EquationSpec

EXAMPLE_NAMES = ("example-1", "example-2", "example-3", "example-4")

_SUMMARIES = {
    "example-1": "signum forcing, p=2^-n, solution (-1)^n 2^n (beta, lambda free)",
    "example-2": "identity forcing, p=3^-n, solution (-1)^n (beta, lambda free)",
    "example-3": "Delta(n Delta^3(x + x_{-2}/4)) + (1-n) x_{+3} = 0, solution -1/2^n",
    "example-4": "Delta(n Delta^3(x + x_{-2}/4)) + 10(2n+1) x_{+3} = 0, solution (-1)^n/10",
}

_DEFAULT_BETA = "1/1"
_DEFAULT_LAMBDA = 1


def _const(value: float) -> dict:
    return {"kind": "constant", "value": value}


def _geom(scale: float, ratio: float) -> dict:
    return {"kind": "geometric", "scale": scale, "ratio": ratio}


def _combine(op: str, left: dict, right: dict) -> dict:
    return {"kind": "combine", "op": op, "left": left, "right": right}


def _spow(base: dict, exponent: str) -> dict:
    return {"kind": "spow", "base": base, "exponent": exponent}


def _shifted_power_sum(bases: list[dict], beta: str) -> dict:
    """u_2 + 2*u_1 + u_0 for u_k = bases[k]**beta.

    This is the shape the second difference of an alternating sequence
    (-1)^n u_n takes, which is why it appears in the exact d coefficients.
    """
    u0, u1, u2 = (_spow(b, beta) for b in bases)
    return _combine("+", _combine("+", u2, _combine("*", _const(2.0), u1)), u0)


def _second_difference_document(beta: str, lam: int, tau: int, p: dict, bases: list[dict], f: dict) -> dict:
    delta = 2 * lam
    return {
        "exponents": {"alpha": "1/1", "beta": beta, "gamma": "1/1"},
        "tau": tau,
        "delta": delta,
        "n0": max(1, delta, tau),
        "p": p,
        "d": _shifted_power_sum(bases, beta),
        "a": _const(1.0),
        "b": _const(1.0),
        "c": _const(1.0),
        "f": f,
    }


def _example1_document(beta: str, lam: int) -> dict:
    # d_n = (9*2^(n+2) + 2^(2-2L))^B + 2(9*2^(n+1) + 2^(2-2L))^B + (9*2^n + 2^(2-2L))^B
    if lam < -510:  # 2.0 ** 1024 overflows
        raise ValueError(f"example-1 needs lambda >= -510, so that 2^(2-2*lambda) is a finite double; got {lam}")
    offset = _const(2.0 ** (2 - 2 * lam))
    bases = [_combine("+", _geom(9.0 * 2.0 ** k, 2.0), offset) for k in (0, 1, 2)]
    return _second_difference_document(beta, lam, 3, _geom(1.0, 0.5), bases, {"kind": "signum", "scale": 1.0})


def _example2_document(beta: str, lam: int) -> dict:
    # d_n = (4 + 16/3^(n+4))^B + 2(4 + 16/3^(n+3))^B + (4 + 16/3^(n+2))^B
    bases = [_combine("+", _const(4.0), _geom(16.0 / 3.0 ** k, 1.0 / 3.0)) for k in (2, 3, 4)]
    return _second_difference_document(beta, lam, 1, _geom(1.0, 1.0 / 3.0), bases,
                                       {"kind": "odd-power", "scale": 1.0, "exponent": "1/1"})


def _quartic_neutral_document(d: dict) -> dict:
    return {
        "exponents": {"alpha": "1/1", "beta": "1/1", "gamma": "1/1"},
        "tau": -3,
        "delta": 2,
        "n0": 2,
        "p": _const(0.25),
        "d": d,
        "a": {"kind": "affine", "slope": 1.0, "intercept": 0.0},
        "b": _const(1.0),
        "c": _const(1.0),
        "f": {"kind": "odd-power", "scale": 1.0, "exponent": "1/1"},
    }


def example_document(name: str, beta: str = _DEFAULT_BETA, lam: int = _DEFAULT_LAMBDA) -> dict:
    """The equation document for a bundled example (beta, lam apply to 1 and 2)."""
    if name == "example-1":
        return _example1_document(beta, lam)
    if name == "example-2":
        return _example2_document(beta, lam)
    if name == "example-3":
        return _quartic_neutral_document({"kind": "affine", "slope": -1.0, "intercept": 1.0})
    if name == "example-4":
        return _quartic_neutral_document({"kind": "affine", "slope": 20.0, "intercept": 10.0})
    raise KeyError(f"unknown example {name!r}; known: {', '.join(EXAMPLE_NAMES)}")


def example_equation(name: str, beta: str = _DEFAULT_BETA, lam: int = _DEFAULT_LAMBDA) -> EquationSpec:
    return build_equation(example_document(name, beta=beta, lam=lam))


def example_closed_form(name: str) -> Callable[[int], float]:
    """The closed-form solution the example is built around."""
    if name == "example-1":
        return lambda n: (2.0 ** n if n % 2 == 0 else -(2.0 ** n))
    if name == "example-2":
        return lambda n: (1.0 if n % 2 == 0 else -1.0)
    if name == "example-3":
        return lambda n: -(0.5 ** n)
    if name == "example-4":
        return lambda n: (0.1 if n % 2 == 0 else -0.1)
    raise KeyError(f"unknown example {name!r}; known: {', '.join(EXAMPLE_NAMES)}")


def example_summary(name: str) -> str:
    return _SUMMARIES[name]
