"""Tests for trigonometric symbols and their quadrature."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precondlab.cli import main
from precondlab.errors import ParseError
from precondlab.symbols import (
    Symbol,
    ascii_number,
    constant,
    cosine,
    load_symbol,
    parse_trig_expression,
    product,
    sine,
    standard_test_set,
    symbol_from_lines,
    symbol_to_lines,
)


def test_eval_two_plus_two_cos_at_zero():
    s = Symbol({0: 2.0, 1: 1.0, -1: 1.0})
    assert s.eval(0.0) == pytest.approx(4.0)


def test_eval_constant():
    s = constant(1.0)
    for x in (0.0, 1.3, np.pi):
        assert s.eval(x) == pytest.approx(1.0)


def test_eval_cos_at_half_pi():
    assert abs(cosine().eval(np.pi / 2)) < 1e-15


def test_degree_and_realness():
    assert cosine().degree == 1
    assert sine(3).degree == 3
    assert constant(2.0).degree == 0
    assert Symbol({}).degree == 0
    assert cosine().is_real and sine().is_real
    assert not Symbol({1: 1.0}).is_real


# ---------------------------------------------------------------------------
# products


def test_product_cos_squared():
    s = product(cosine(), cosine())
    assert s.coefficient(0) == pytest.approx(0.5)
    assert s.coefficient(2) == pytest.approx(0.25)
    assert s.coefficient(-2) == pytest.approx(0.25)
    assert s.degree == 2


def test_product_identity_element():
    s = Symbol({0: 2.0, 1: 0.5, -1: 0.5})
    assert product(s, constant(1.0)).coefficients == s.coefficients


def test_product_square_of_two_plus_two_cos():
    s = Symbol({0: 2.0, 1: 1.0, -1: 1.0})
    sq = product(s, s)
    # direct convolution oracle
    expected = {}
    for k, a in s.coefficients.items():
        for l, b in s.coefficients.items():
            expected[k + l] = expected.get(k + l, 0.0) + a * b
    assert sq.coefficients == pytest.approx(expected)
    assert sq.coefficient(0) == pytest.approx(6.0)
    assert sq.coefficient(1) == pytest.approx(4.0)
    assert sq.coefficient(2) == pytest.approx(1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_product_of_real_symbols_is_real(seed_a, seed_b):
    def random_real(seed):
        rng = np.random.default_rng(seed)
        coeffs = {0: complex(rng.standard_normal())}
        for k in range(1, 4):
            a = rng.standard_normal() + 1j * rng.standard_normal()
            coeffs[k] = a
            coeffs[-k] = a.conjugate()
        return Symbol(coeffs)

    assert product(random_real(seed_a), random_real(seed_b)).is_real


# ---------------------------------------------------------------------------
# test sets


def test_classical_test_set():
    symbols_ = standard_test_set("classical")
    assert len(symbols_) == 5
    assert [s.degree for s in symbols_] == [0, 1, 1, 2, 2]


def test_fourier_basic_test_set():
    assert len(standard_test_set("fourier_basic")) == 3


def test_classical_generators_sum_of_squares():
    # 1^2 + cos^2 + sin^2 collapses to the constant 2; all other
    # coefficients cancel exactly in the convolution.
    one, cos_, sin_ = standard_test_set("fourier_basic")
    total = Symbol({})
    for g in (one, cos_, sin_):
        total = total.plus(product(g, g))
    assert total.coefficient(0) == pytest.approx(2.0)
    assert all(abs(v) < 1e-15 for k, v in total.coefficients.items() if k != 0)


def test_unknown_test_set():
    with pytest.raises(ValueError):
        standard_test_set("legendre")


# ---------------------------------------------------------------------------
# round trips and parsing


@pytest.mark.parametrize("text, kind, value", [
    ("64", int, 64), ("+7", int, 7), (" 3 ", int, 3), ("-2.5e3", float, -2500.0),
    (".5", float, 0.5), ("1E-10", float, 1e-10), ("inf", float, float("inf")),
])
def test_ascii_number_reads_ascii(text, kind, value):
    assert ascii_number(text, kind) == value


@pytest.mark.parametrize("text, kind", [
    ("\u0661\u0660\u0660", int), ("6_4", int), ("1_0e-10", float), ("\u0661.\u0665", float),
    ("\uff11", int), ("1\u00a0", float),
])
def test_ascii_number_rejects_what_int_and_float_take(text, kind):
    kind(text)  # the builtin reads it as a number
    with pytest.raises(ValueError, match="not an ASCII number"):
        ascii_number(text, kind)


def test_serialization_round_trip():
    s = parse_trig_expression("2-2cos+delta(0.01)")
    assert symbol_from_lines(symbol_to_lines(s)).coefficients == s.coefficients


def test_save_then_load_round_trip(tmp_path):
    s = parse_trig_expression("2+cos+0.5sin3x")
    path = tmp_path / "f.txt"
    path.write_text("\n".join(symbol_to_lines(s)) + "\n", encoding="utf-8")
    loaded = load_symbol(path)
    assert loaded.coefficients == s.coefficients
    assert loaded.label == str(path)


# Each table key maps to a finite complex coefficient; symbol files keep
# their values exactly, signed zeros included.
TABLES = st.dictionaries(
    st.integers(-64, 64), st.complex_numbers(allow_nan=False, allow_infinity=False), max_size=12
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(TABLES)
def test_serialization_round_trips_any_finite_table(table):
    s = Symbol(table)
    back = symbol_from_lines(symbol_to_lines(s))
    assert back.coefficients == s.coefficients
    assert symbol_to_lines(back) == symbol_to_lines(s)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.txt"
        path.write_text("\n".join(symbol_to_lines(s)) + "\n", encoding="utf-8")
        assert symbol_to_lines(load_symbol(path)) == symbol_to_lines(s)


def test_serialization_rejects_garbage():
    with pytest.raises(ParseError):
        symbol_from_lines(["0 1.0"])
    with pytest.raises(ParseError):
        symbol_from_lines(["0 1.0 0.0", "0 2.0 0.0"])
    for line in ("0 inf 0", "0 nan 0", "1 0.0 1e999"):
        with pytest.raises(ParseError, match="line 2: non-finite"):
            symbol_from_lines(["0 1.0 0.0", line])


@pytest.mark.parametrize(
    "expr,expected",
    [
        ("2+cos", {0: 2.0, 1: 0.5, -1: 0.5}),
        ("2-2cos+delta(0.01)", {0: 2.01, 1: -1.0, -1: -1.0}),
        ("1", {0: 1.0}),
        ("sin", {1: -0.5j, -1: 0.5j}),
        ("2+cos+0.5cos2x", {0: 2.0, 1: 0.5, -1: 0.5, 2: 0.25, -2: 0.25}),
        ("2+delta(-0.01)", {0: 1.99}),
        ("1e-3+cos", {0: 0.001, 1: 0.5, -1: 0.5}),
        ("1.5e2", {0: 150.0}),
    ],
)
def test_parse_trig_expression(expr, expected):
    s = parse_trig_expression(expr)
    assert set(s.coefficients) == set(expected)
    for k, v in expected.items():
        assert s.coefficient(k) == pytest.approx(v)


# preset grammar: a signed decimal or exponent coefficient, an optional "*",
# then cos or sin with an optional frequency, delta(v), or nothing
NUMBER = st.from_regex(r"([0-9]{1,3}\.?[0-9]{0,3}|\.[0-9]{1,3})([eE][+-]?[0-9]{1,2})?",
                       fullmatch=True)


@st.composite
def presets(draw):
    """(text, {k: a_k}): up to five rendered terms and the coefficients they define.

    With c the signed number (+-1 when there is none): cos kx adds c/2 at k
    and -k, sin kx adds c/2i at k and -c/2i at -k, delta(v) adds c v at 0
    and a bare number c.  A term without a number needs cos, sin or delta.
    """
    text, coeffs = "", {}
    for i in range(draw(st.integers(1, 5))):
        sign = draw(st.sampled_from(["+", "-"] if i else ["", "+", "-"]))
        number = draw(st.one_of(st.just(""), NUMBER))
        c = float(sign + (number or "1"))
        fn = draw(st.sampled_from(["cos", "sin", "delta"] + ([""] if number else [])))
        text += sign + number + (draw(st.sampled_from(["", "*"])) if number and fn else "") + fn
        if fn == "delta":
            shift = draw(st.sampled_from(["", "+", "-"])) + draw(NUMBER)
            text += f"({shift})"
            term = {0: c * float(shift)}
        elif fn:
            k = draw(st.integers(1, 12))
            text += "" if k == 1 and draw(st.booleans()) else str(k)
            text += draw(st.sampled_from(["", "x"]))
            half = 0.5 if fn == "cos" else 1.0 / 2.0j
            term = {k: c * half, -k: c * (half if fn == "cos" else -half)}
        else:
            term = {0: c}
        for k, v in term.items():
            coeffs[k] = coeffs.get(k, 0.0) + v
    return text, coeffs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(presets())
def test_parse_trig_expression_round_trips_rendered_terms(preset):
    text, coeffs = preset
    assert parse_trig_expression(text).coefficients == Symbol(coeffs).coefficients, text


def test_parse_rejects_garbage():
    for bad in ("", "2**cos", "cosx+", "tan", "2+-cos", "1e", "delta(0.01", "2+*", "-*",
                "2*", "2*+cos", "1e400", "2+delta(nan)", "1e308+1e308", "cos0x",
                "delta(abc)"):
        with pytest.raises(ParseError):
            parse_trig_expression(bad)


# "\u0660" is the Arabic-Indic digit zero, a unicode \d that float() reads as 0
@pytest.mark.parametrize("text", ["1\u0660cos", "1\u0660e-1", "2+delta(\u0660.5)"])
def test_parse_rejects_non_ascii_digits(text, capsys):
    with pytest.raises(ParseError, match="bad term"):
        parse_trig_expression(text)
    assert main(["project", f"--symbol=preset:{text}", "--dry-run"]) == 1
    assert "bad term" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# guards: (call, error, message fragment)


GUARDS = [
    pytest.param(lambda: symbol_from_lines(["0 abc 0"]), ParseError, "line 1: could not convert",
                 id="coefficient-text"),
    *(pytest.param(lambda line=line: symbol_from_lines([line]), ParseError,
                   "line 1: not an ASCII number", id=f"ascii-{column}")
      for column, line in (("k", "1_0 0.5 0"), ("re", "1 \u0660.5 0"), ("im", "1 0.5 0_0"))),
]


@pytest.mark.parametrize("call, error, fragment", GUARDS)
def test_guard_raises(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
