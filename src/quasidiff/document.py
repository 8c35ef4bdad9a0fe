"""JSON equation documents: the external description of an equation.

Grammar (all JSON):

    {
      "exponents": {"alpha": "num/den", "beta": "num/den", "gamma": "num/den"},
      "tau": int, "delta": int, "n0": int,
      "p": <sequence>, "d": <sequence>, "a": <sequence>, "b": <sequence>, "c": <sequence>,
      "f": <nonlinearity>
    }

    <sequence> is one of
      {"kind": "constant",  "value": number}
      {"kind": "geometric", "scale": number, "ratio": number}        # scale * ratio**n
      {"kind": "affine",    "slope": number, "intercept": number}    # slope * n + intercept
      {"kind": "power",     "scale": number, "exponent": number}     # scale * n**exponent
      {"kind": "table",     "values": [number...], "start": int,
                            "out_of_range": "error" | "hold-last"}
      {"kind": "combine",   "op": "+" | "-" | "*" | "/", "left": <sequence>, "right": <sequence>}
      {"kind": "spow",      "base": <sequence>, "exponent": "num/den"}

    <nonlinearity> is one of
      {"kind": "odd-power", "scale": number, "exponent": "num/den"}  # scale * sign(x)|x|**e
      {"kind": "signum",    "scale": number}                         # scale * sgn(x)

Field errors carry the JSON path of the offending value.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .errors import DocumentError
from .model import (
    Affine,
    Combine,
    Constant,
    EquationSpec,
    Geometric,
    Nonlinearity,
    OddPowerMap,
    PowerLaw,
    SequenceSpec,
    SignedPower,
    SignumMap,
    Table,
)
from .numerics import OddRatio


def _need(obj: dict, key: str, path: str) -> Any:
    if not isinstance(obj, dict):
        raise DocumentError("expected an object", path)
    if key not in obj:
        raise DocumentError(f"missing field '{key}'", path)
    return obj[key]


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DocumentError(f"expected a number, got {value!r}", path)
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the double range
        number = math.inf
    if not math.isfinite(number):  # json accepts NaN, Infinity and -Infinity
        raise DocumentError(f"expected a finite number, got {value!r}", path)
    return number


def _table_values(values: list, path: str) -> tuple[float, ...]:
    """A table's values as doubles; the JSON path is built only for the value that is rejected."""
    numbers = []
    try:
        for value in values:
            numbers.append(_number(value, ""))  # an empty path leaves the bare message
    except DocumentError as exc:
        raise DocumentError(str(exc), f"{path}.values[{len(numbers)}]") from None
    return tuple(numbers)


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"expected an integer, got {value!r}", path)
    return value


def _odd_ratio(value: Any, path: str) -> OddRatio:
    if not isinstance(value, str):
        raise DocumentError(f"expected a 'num/den' string, got {value!r}", path)
    try:
        return OddRatio.parse(value)
    except ValueError as exc:
        raise DocumentError(str(exc), path) from None


# The sequence kinds whose fields are all numbers: the class and its fields, in the order they are read.
_NUMBER_KINDS = {"constant": (Constant, ("value",)), "geometric": (Geometric, ("scale", "ratio")),
                 "affine": (Affine, ("slope", "intercept")), "power": (PowerLaw, ("scale", "exponent"))}


def build_sequence(obj: Any, path: str) -> SequenceSpec:
    kind = _need(obj, "kind", path)
    try:
        if isinstance(kind, str) and kind in _NUMBER_KINDS:
            cls, names = _NUMBER_KINDS[kind]
            return cls(*(_number(_need(obj, name, path), f"{path}.{name}") for name in names))
        if kind == "table":
            values = _need(obj, "values", path)
            if not isinstance(values, list) or not values:
                raise DocumentError("expected a non-empty array", f"{path}.values")
            return Table(_table_values(values, path),
                         _integer(_need(obj, "start", path), f"{path}.start"),
                         str(obj.get("out_of_range", "error")))
        if kind == "combine":
            op = _need(obj, "op", path)
            return Combine(str(op),
                           build_sequence(_need(obj, "left", path), f"{path}.left"),
                           build_sequence(_need(obj, "right", path), f"{path}.right"))
        if kind == "spow":
            return SignedPower(build_sequence(_need(obj, "base", path), f"{path}.base"),
                               _odd_ratio(_need(obj, "exponent", path), f"{path}.exponent"))
    except ValueError as exc:
        raise DocumentError(str(exc), path) from None
    raise DocumentError(f"unknown sequence kind {kind!r}", path)


def build_nonlinearity(obj: Any, path: str) -> Nonlinearity:
    kind = _need(obj, "kind", path)
    if kind == "odd-power":
        return OddPowerMap(_number(_need(obj, "scale", path), f"{path}.scale"),
                           _odd_ratio(_need(obj, "exponent", path), f"{path}.exponent"))
    if kind == "signum":
        return SignumMap(_number(_need(obj, "scale", path), f"{path}.scale"))
    raise DocumentError(f"unknown nonlinearity kind {kind!r}", path)


def build_equation(document: dict) -> EquationSpec:
    """Construct and validate an EquationSpec from a parsed document."""
    exponents = _need(document, "exponents", "$")
    spec_kwargs = {
        "alpha": _odd_ratio(_need(exponents, "alpha", "$.exponents"), "$.exponents.alpha"),
        "beta": _odd_ratio(_need(exponents, "beta", "$.exponents"), "$.exponents.beta"),
        "gamma": _odd_ratio(_need(exponents, "gamma", "$.exponents"), "$.exponents.gamma"),
        "tau": _integer(_need(document, "tau", "$"), "$.tau"),
        "delta": _integer(_need(document, "delta", "$"), "$.delta"),
        "n0": _integer(_need(document, "n0", "$"), "$.n0"),
        "f": build_nonlinearity(_need(document, "f", "$"), "$.f"),
    }
    for name in ("p", "d", "a", "b", "c"):
        spec_kwargs[name] = build_sequence(_need(document, name, "$"), f"$.{name}")
    try:
        return EquationSpec(**spec_kwargs)
    except ValueError as exc:
        raise DocumentError(f"invalid equation: {exc}", "$") from None


def load_document(text: str) -> dict:
    """Decode JSON text into a document object, not yet validated as an equation."""
    try:
        document = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer past int's digit limit, or nesting past the stack
        raise DocumentError(f"not valid JSON: {exc}", "$") from None
    if not isinstance(document, dict):
        raise DocumentError("top level must be an object", "$")
    return document


def parse_equation_document(text: str) -> EquationSpec:
    """Parse JSON text into a validated EquationSpec."""
    return build_equation(load_document(text))
