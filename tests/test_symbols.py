"""Tests for trigonometric symbols and their quadrature."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precondlab.cli import main
from precondlab.errors import InsufficientSamplesError, ParseError
from precondlab.symbols import (
    SampledFunction,
    Symbol,
    constant,
    cosine,
    fourier_coefficients,
    load_symbol,
    parse_trig_expression,
    product,
    save_symbol,
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
# quadrature; the oracle is adaptive Simpson on the defining integral


def _adaptive_simpson(fn, a, b, tol):
    fa, fb, fm = fn(a), fn(b), fn(0.5 * (a + b))

    def recurse(a, b, fa, fb, fm, whole, tol):
        lm, rm = 0.75 * a + 0.25 * b, 0.25 * a + 0.75 * b
        flm, frm = fn(lm), fn(rm)
        left = (b - a) / 12.0 * (fa + 4.0 * flm + fm)
        right = (b - a) / 12.0 * (fm + 4.0 * frm + fb)
        if abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        mid = 0.5 * (a + b)
        return recurse(a, mid, fa, fm, flm, left, tol / 2.0) + recurse(
            mid, b, fm, fb, frm, right, tol / 2.0
        )

    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return recurse(a, b, fa, fb, fm, whole, tol)


def simpson_fourier_coefficient(fn, k, tol=1e-11):
    return _adaptive_simpson(
        lambda x: fn(x) * np.exp(-1j * k * x), 0.0, 2.0 * np.pi, tol
    ) / (2.0 * np.pi)


def test_fourier_coefficients_trig_polynomial_exact():
    g = SampledFunction(lambda x: 2.0 + 2.0 * np.cos(x), 32)
    s = fourier_coefficients(g, 2)
    assert s.coefficient(0) == pytest.approx(2.0, abs=1e-12)
    assert s.coefficient(1) == pytest.approx(1.0, abs=1e-12)
    assert s.coefficient(-1) == pytest.approx(1.0, abs=1e-12)
    assert abs(s.coefficient(2)) < 1e-12
    assert abs(s.coefficient(-2)) < 1e-12


def test_fourier_coefficients_constant():
    s = fourier_coefficients(SampledFunction(lambda x: np.ones_like(x), 16), 3)
    assert s.coefficient(0) == pytest.approx(1.0, abs=1e-13)
    assert all(abs(s.coefficient(k)) < 1e-13 for k in (1, 2, 3, -1, -2, -3))


def test_fourier_coefficients_abs_sin_vs_simpson():
    g = SampledFunction(lambda x: np.abs(np.sin(x)), 16384)
    s = fourier_coefficients(g, 8)
    for k in range(-8, 9):
        expected = simpson_fourier_coefficient(lambda x: abs(np.sin(x)), k)
        assert s.coefficient(k) == pytest.approx(expected, abs=1e-8), k


def test_fourier_coefficients_sample_count_checks():
    with pytest.raises(InsufficientSamplesError):
        fourier_coefficients(SampledFunction(np.cos, 24), 2)  # not a power of two
    with pytest.raises(InsufficientSamplesError):
        fourier_coefficients(SampledFunction(np.cos, 16), 8)  # fewer than 4*degree


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


def test_fourier_coefficients_of_eval_is_identity():
    rng = np.random.default_rng(5)
    coeffs = {0: complex(rng.standard_normal())}
    for k in range(1, 9):
        a = rng.standard_normal() + 1j * rng.standard_normal()
        coeffs[k], coeffs[-k] = a, a.conjugate()
    s = Symbol(coeffs)
    back = fourier_coefficients(SampledFunction(s.eval_real, 64), 8)
    for k in range(-8, 9):
        assert back.coefficient(k) == pytest.approx(s.coefficient(k), abs=1e-12)


def test_from_function_truncates_continuous_input():
    from precondlab.symbols import from_function

    s = from_function(lambda x: np.abs(np.sin(x)), degree=8, label="|sin|")
    # classical coefficients of |sin|: a_0 = 2/pi, even a_k = -2/(pi(k^2-1))
    assert s.coefficient(0) == pytest.approx(2.0 / np.pi, abs=1e-4)
    assert s.coefficient(2) == pytest.approx(-2.0 / (3.0 * np.pi), abs=1e-4)
    assert abs(s.coefficient(1)) < 1e-6
    assert s.degree <= 8


def test_serialization_round_trip():
    s = parse_trig_expression("2-2cos+delta(0.01)")
    assert symbol_from_lines(symbol_to_lines(s)).coefficients == s.coefficients


def test_save_then_load_round_trip(tmp_path):
    s = parse_trig_expression("2+cos+0.5sin3x")
    path = tmp_path / "f.txt"
    save_symbol(s, path)
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
        save_symbol(s, path)
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


def _samples(n, values):
    return SampledFunction(lambda xs: values, n)


GUARDS = [
    pytest.param(lambda: fourier_coefficients(_samples(8, np.ones(8)), -1), ValueError,
                 "degree must be nonnegative", id="degree"),
    pytest.param(lambda: fourier_coefficients(_samples(8, np.ones(3)), 1), ValueError,
                 "one value per sample point", id="samples-shape"),
    pytest.param(lambda: symbol_from_lines(["0 abc 0"]), ParseError, "line 1: could not convert",
                 id="coefficient-text"),
]


@pytest.mark.parametrize("call, error, fragment", GUARDS)
def test_guard_raises(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
