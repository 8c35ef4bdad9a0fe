import json

import pytest

import quasidiff as qd
from quasidiff import DocumentError, build_equation, parse_equation_document


def minimal_document() -> dict:
    return {
        "exponents": {"alpha": "1/1", "beta": "1/1", "gamma": "1/1"},
        "tau": 1,
        "delta": 2,
        "n0": 2,
        "p": {"kind": "constant", "value": 0.25},
        "d": {"kind": "constant", "value": 1.0},
        "a": {"kind": "constant", "value": 1.0},
        "b": {"kind": "constant", "value": 1.0},
        "c": {"kind": "constant", "value": 1.0},
        "f": {"kind": "odd-power", "scale": 1.0, "exponent": "1/1"},
    }


def test_minimal_document_builds():
    eq = build_equation(minimal_document())
    assert eq.tau == 1 and eq.delta == 2 and eq.n0 == 2
    assert eq.p.at(7) == 0.25


def test_parse_round_trip_from_text():
    eq = parse_equation_document(json.dumps(minimal_document()))
    assert eq.alpha == qd.OddRatio(1, 1)


def test_all_sequence_kinds_build():
    doc = minimal_document()
    doc["a"] = {"kind": "combine", "op": "*",
                "left": {"kind": "affine", "slope": 1.0, "intercept": 0.0},
                "right": {"kind": "constant", "value": 2.0}}
    doc["b"] = {"kind": "spow", "base": {"kind": "geometric", "scale": 1.0, "ratio": 1.01},
                "exponent": "3/1"}
    doc["c"] = {"kind": "power", "scale": 1.0, "exponent": 0.5}
    doc["p"] = {"kind": "table", "values": [0.1, 0.2], "start": 0, "out_of_range": "hold-last"}
    eq = build_equation(doc)
    assert eq.a.at(3) == 6.0
    assert eq.p.at(50) == 0.2


def test_signum_nonlinearity_builds():
    doc = minimal_document()
    doc["f"] = {"kind": "signum", "scale": 2.0}
    assert build_equation(doc).f.apply(-5.0) == -2.0


@pytest.mark.parametrize("mutate, path_fragment", [
    (lambda d: d.pop("tau"), "tau"),
    (lambda d: d.pop("exponents"), "exponents"),
    (lambda d: d["exponents"].pop("beta"), "exponents"),
    (lambda d: d.__setitem__("tau", 1.5), "$.tau"),
    (lambda d: d["p"].pop("value"), "$.p"),
    (lambda d: d["p"].__setitem__("kind", "mystery"), "$.p"),
    (lambda d: d["f"].__setitem__("kind", "cosine"), "$.f"),
    (lambda d: d["exponents"].__setitem__("alpha", "2/1"), "alpha"),
    (lambda d: d["exponents"].__setitem__("alpha", 2), "alpha"),
    (lambda d: d.__setitem__("d", {"kind": "table", "values": [], "start": 0}), "$.d"),
])
def test_field_errors_carry_paths(mutate, path_fragment):
    doc = minimal_document()
    mutate(doc)
    with pytest.raises(DocumentError) as err:
        build_equation(doc)
    assert path_fragment in str(err.value)


def test_nested_sequence_error_path():
    doc = minimal_document()
    doc["d"] = {"kind": "combine", "op": "+",
                "left": {"kind": "constant", "value": 1.0},
                "right": {"kind": "geometric", "scale": "x", "ratio": 2.0}}
    with pytest.raises(DocumentError) as err:
        build_equation(doc)
    assert "$.d.right.scale" in str(err.value)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
def test_non_finite_literals_are_rejected_with_their_path(literal):
    # json accepts NaN and +-Infinity, and 1e400 decodes to inf
    text = json.dumps(minimal_document()).replace('"value": 0.25', f'"value": {literal}')
    with pytest.raises(DocumentError, match=r"^\$\.p\.value: expected a finite number"):
        parse_equation_document(text)


def test_integer_literal_past_the_digit_limit_is_not_valid_json():
    # json.loads raises a plain ValueError for an integer of more than 4,300 digits
    text = json.dumps(minimal_document()).replace('"value": 0.25', '"value": ' + "1" * 5000)
    with pytest.raises(DocumentError, match=r"^\$: not valid JSON: Exceeds the limit \(4300 digits\)"):
        parse_equation_document(text)


def test_nesting_past_the_recursion_limit_is_not_valid_json():
    # json.loads raises RecursionError for arrays nested deeper than the interpreter's stack allows
    with pytest.raises(DocumentError, match=r"^\$: not valid JSON: maximum recursion depth exceeded"):
        parse_equation_document("[" * 100_000 + "]" * 100_000)


def test_non_finite_table_value_names_its_index():
    doc = minimal_document()
    doc["d"] = {"kind": "table", "values": [1.0, float("inf")], "start": 0, "out_of_range": "hold-last"}
    with pytest.raises(DocumentError, match=r"^\$\.d\.values\[1\]: expected a finite number, got inf$"):
        build_equation(doc)


@pytest.mark.parametrize("value, message", [
    ("x", "expected a number, got 'x'"),
    (float("inf"), "expected a finite number, got inf"),
])
def test_rejected_table_value_names_its_index(value, message):
    doc = minimal_document()
    doc["d"] = {"kind": "table", "values": [1.0, 2, 3.0, value, "y"], "start": 0, "out_of_range": "hold-last"}
    with pytest.raises(DocumentError) as err:
        build_equation(doc)
    assert str(err.value) == f"$.d.values[3]: {message}"


def test_invalid_equation_is_a_document_error():
    doc = minimal_document()
    doc["tau"] = -4
    doc["delta"] = 0
    with pytest.raises(DocumentError, match="excluded"):
        build_equation(doc)


def test_malformed_json_rejected():
    with pytest.raises(DocumentError, match="JSON"):
        parse_equation_document("{not json")
    with pytest.raises(DocumentError, match="object"):
        parse_equation_document("[1, 2]")


def test_bundled_documents_build_and_round_trip():
    for name in qd.EXAMPLE_NAMES:
        doc = qd.example_document(name)
        text = json.dumps(doc)
        eq = parse_equation_document(text)
        assert eq.n0 == doc["n0"]
        # the document is plain JSON data, identical across serializations
        assert json.loads(text) == doc


def test_bundled_beta_lambda_overrides():
    eq = qd.example_equation("example-1", beta="3/1", lam=2)
    assert eq.beta == qd.OddRatio(3, 1)
    assert eq.delta == 4
    assert eq.n0 == 4  # max(1, delta, tau)


def test_unknown_example_name():
    with pytest.raises(KeyError):
        qd.example_document("example-9")
