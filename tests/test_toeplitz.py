"""Tests for Toeplitz sections and the product correction."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from precondlab.errors import DimensionMismatchError
from precondlab.linalg import hermitian_eigvalues, is_hermitian, singular_values
from precondlab.symbols import Symbol, constant, cosine, parse_trig_expression, product
from precondlab.toeplitz import (
    DIRECT_MAX_TAPS,
    WINDOW_MAX_TAPS,
    ToeplitzOperator,
    product_correction,
    section_entries,
    section_frobenius_sq,
    toeplitz_section,
)


def test_section_two_plus_two_cos():
    t = toeplitz_section(Symbol({0: 2.0, 1: 1.0, -1: 1.0}), 3)
    np.testing.assert_allclose(t.real, [[2, 1, 0], [1, 2, 1], [0, 1, 2]], atol=1e-15)
    assert np.max(np.abs(t.imag)) == 0.0


def test_section_identity_symbol():
    np.testing.assert_allclose(toeplitz_section(constant(1.0), 4), np.eye(4), atol=1e-15)


def test_section_eigenvalues_bracketed_by_symbol_range():
    f = parse_trig_expression("2+cos")
    w = hermitian_eigvalues(toeplitz_section(f, 64))
    assert w[0] >= 1.0 - 1e-9  # min f = 1
    assert w[-1] <= 3.0 + 1e-9  # max f = 3


def test_section_hermitian_iff_real_symbol():
    assert is_hermitian(toeplitz_section(parse_trig_expression("1+sin"), 8))
    assert not is_hermitian(toeplitz_section(Symbol({1: 1.0}), 8))


@pytest.mark.parametrize("f", [
    parse_trig_expression("2+cos+0.5sin2x+0.3cos3x"),
    Symbol({0: 2.0, 1: 1.0, -2: 0.5j, 3: 0.25 - 0.5j}),  # complex
], ids=["real", "complex"])
@pytest.mark.parametrize("n", [2, 3, 8, 64, 200])  # n <= deg f: lags |k| >= n drop out
def test_section_frobenius_sq_matches_the_dense_section(f, n):
    # summed exactly, so the bound measures the closed form alone
    exact = math.fsum(np.abs(toeplitz_section(f, n)).ravel() ** 2)
    assert abs(section_frobenius_sq(f, n) - exact) <= 1e-12 * exact


def test_section_linearity_exact():
    f, g = parse_trig_expression("2+cos"), parse_trig_expression("sin+0.5cos2x")
    n = 12
    lhs = toeplitz_section(Symbol(f.scaled(2.0).plus(g.scaled(-3.0)).coefficients), n)
    rhs = 2.0 * toeplitz_section(f, n) - 3.0 * toeplitz_section(g, n)
    assert np.array_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# product correction (Widom)


def test_correction_identity_symbol_is_zero():
    assert np.max(np.abs(product_correction(constant(1.0), 6))) == 0.0


def test_correction_cos_rank_two():
    assert np.count_nonzero(singular_values(product_correction(cosine(), 4)) > 1e-10) <= 2


def test_correction_cos_norm_constant_across_sizes():
    norms = [
        np.max(singular_values(product_correction(cosine(), n))) for n in (8, 16, 32)
    ]
    assert max(norms) - min(norms) < 1e-10
    # for cos the corners are e_1 e_1^T / 4 and e_n e_n^T / 4
    assert norms[0] == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("expr", ["cos", "2+cos", "1+0.5cos2x+0.25sin"])
def test_correction_tail_singular_values_vanish(expr):
    g = parse_trig_expression(expr)
    d = g.degree
    for n in (2 * d + 2, 4 * d + 2, 32):
        sigma = singular_values(product_correction(g, n))[::-1]  # descending
        assert np.all(sigma[2 * d :] <= 1e-10)


def test_correction_requires_real_symbol():
    with pytest.raises(ValueError):
        product_correction(Symbol({1: 1.0}), 8)


def test_widom_report():
    # rank(R_n) <= 2 deg g and a spectral norm constant in n, as selftest checks
    sigmas = [singular_values(product_correction(parse_trig_expression("2+cos"), n))
              for n in (16, 32, 64)]
    assert all(np.count_nonzero(sigma > 1e-10) <= 2 for sigma in sigmas)
    norms = [sigma[-1] for sigma in sigmas]
    assert max(norms) - min(norms) <= 1e-9


# ---------------------------------------------------------------------------
# matrix-free operator


@pytest.mark.parametrize("n", [5, 64, 256])
def test_operator_matvec_matches_dense(n):
    f = parse_trig_expression("2-2cos+delta(0.01)")
    op = ToeplitzOperator(f, n)
    dense = op.dense()
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.max(np.abs(op.matvec(x) - dense @ x)) < 1e-10


def test_operator_complex_symbol():
    f = Symbol({0: 1.0, 1: 0.5 - 0.25j, -1: 0.5 + 0.25j, 2: 0.1j, -2: -0.1j})
    op = ToeplitzOperator(f, 33)
    x = np.arange(33, dtype=np.complex128)
    assert np.max(np.abs(op.matvec(x) - op.dense() @ x)) < 1e-10


# ---------------------------------------------------------------------------
# coefficient arrays


def per_index_section(f, n):
    """The section from one coefficient look-up per entry of its first row and column."""
    col = np.array([f.coefficient(m) for m in range(n)], dtype=np.complex128)
    row = np.array([f.coefficient(-m) for m in range(n)], dtype=np.complex128)
    return scipy.linalg.toeplitz(col, row)


COMPLEX_DEGREE_SIX = Symbol(
    {0: 1.5, 1: 0.3 - 0.2j, -1: 0.1j, 2: -0.4, -3: 0.25 + 0.5j, 6: 0.2j, -6: -0.7}
)


def test_coefficient_array_window():
    f = COMPLEX_DEGREE_SIX
    window = f.coefficient_array(-7, 8)
    assert window.dtype == np.complex128
    assert list(window) == [f.coefficient(k) for k in range(-7, 8)]
    assert list(f.coefficient_array(1, 3)) == [f.coefficient(1), f.coefficient(2)]
    assert f.coefficient_array(4, 4).shape == (0,)
    assert f.coefficient_array(5, 2).shape == (0,)


def test_section_entries_vanish_beyond_the_degree():
    f = COMPLEX_DEGREE_SIX
    lags = np.arange(-9, 10).reshape(1, 19)
    got = section_entries(f, lags)
    assert got.shape == (1, 19) and got.dtype == np.complex128
    assert list(got[0]) == [f.coefficient(k) for k in range(-9, 10)]
    assert not np.any(section_entries(f, np.array([-7, 7, 100, -100])))
    assert section_entries(f, np.array([], dtype=int)).shape == (0,)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 16])
def test_sections_match_per_index_construction(n):
    f = COMPLEX_DEGREE_SIX
    assert np.array_equal(toeplitz_section(f, n), per_index_section(f, n))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 64, 129])
def test_sections_match_entrywise_definition(n):
    # complex, non-Hermitian, degree >= 2n: every lag of the section is distinct
    rng = np.random.default_rng(n)
    a = {k: complex(*rng.standard_normal(2)) for k in range(-2 * n - 1, 2 * n + 2)}
    f = Symbol(a)
    t = toeplitz_section(f, n)
    assert t.shape == (n, n) and t.dtype == np.complex128
    assert t.flags.c_contiguous and t.flags.writeable and t.flags.owndata
    assert np.array_equal(t, [[a[j - k] for k in range(n)] for j in range(n)])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7, 64])
def test_operator_matvec_matches_section_at_any_degree(n):
    # degree 6 >= n for the small orders: lags |k| >= n must drop out
    f = COMPLEX_DEGREE_SIX
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    op = ToeplitzOperator(f, n)
    np.testing.assert_allclose(op.matvec(x), toeplitz_section(f, n) @ x, atol=1e-13)


def _band_symbol(degree, seed):
    """A complex symbol with every lag |k| <= degree nonzero: 2 degree + 1 taps."""
    rng = np.random.default_rng(seed)
    return Symbol({k: complex(*rng.standard_normal(2)) for k in range(-degree, degree + 1)})


def _real_band_symbol(degree, seed):
    """A real symbol (a_{-k} = conj(a_k)) with every lag |k| <= degree nonzero."""
    rng = np.random.default_rng(seed)
    coeffs = {0: rng.standard_normal()}
    for k in range(1, degree + 1):
        coeffs[k] = complex(*rng.standard_normal(2))
        coeffs[-k] = coeffs[k].conjugate()
    return Symbol(coeffs)


def _record_products(monkeypatch):
    """The np.fft calls and np.convolve operand dtypes from now on, in order."""
    calls = []
    for name in ("fft", "ifft"):
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)

    def convolve(a, v, *args, _fn=np.convolve, **kwargs):
        calls.append(("convolve", np.asarray(a).dtype, np.asarray(v).dtype))
        return _fn(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "convolve", convolve)
    return calls


def _regime(calls):
    """Which product ran: the window (no convolution, no FFT), one complex convolution,
    or the FFT embedding."""
    if "fft" in calls:
        return "fft"
    if not calls:
        return "window"
    complex_ = ("convolve", np.dtype(np.complex128), np.dtype(np.complex128))
    return "complex" if calls == [complex_] else "other"


CAP_DEGREE = (DIRECT_MAX_TAPS - 1) // 2
WINDOW_DEGREE = (WINDOW_MAX_TAPS - 1) // 2
# (symbol, order, regime) for the 2 min(deg f, n - 1) + 1 taps of T_n(f): the
# window product up to WINDOW_MAX_TAPS, one complex convolution up to
# DIRECT_MAX_TAPS, the 2n FFT embedding past that.  The ids keep "split", the
# name of the narrow-band regime when it was four float64 convolutions, so the
# test names stay the same across the change of its product.
PRODUCT_CASES = [
    pytest.param(_band_symbol(WINDOW_DEGREE - 1, 11), 100, "window", id="below-split-cap"),
    pytest.param(_band_symbol(WINDOW_DEGREE, 12), 100, "window", id="at-split-cap"),
    pytest.param(_band_symbol(WINDOW_DEGREE + 1, 13), 100, "complex", id="above-split-cap"),
    pytest.param(_band_symbol(WINDOW_DEGREE + 1, 14), WINDOW_DEGREE + 1, "window",
                 id="degree-n-clipped-to-split-cap"),
    pytest.param(_real_band_symbol(WINDOW_DEGREE, 15), 100, "window", id="real-at-split-cap"),
    pytest.param(_real_band_symbol(WINDOW_DEGREE + 1, 16), 100, "complex",
                 id="real-above-split-cap"),
    pytest.param(_band_symbol(CAP_DEGREE - 1, 1), 100, "complex", id="below-cap"),
    pytest.param(_band_symbol(CAP_DEGREE, 2), 100, "complex", id="at-cap"),
    pytest.param(_band_symbol(CAP_DEGREE + 1, 3), 100, "fft", id="above-cap"),
    pytest.param(_band_symbol(CAP_DEGREE + 1, 4), CAP_DEGREE + 1, "complex",
                 id="degree-n-clipped-to-cap"),
    pytest.param(_band_symbol(2 * CAP_DEGREE, 5), CAP_DEGREE + 2, "fft",
                 id="degree-above-n-fft"),
    pytest.param(COMPLEX_DEGREE_SIX, 3, "window", id="degree-above-n"),
    pytest.param(COMPLEX_DEGREE_SIX, 1, "window", id="n1"),
    pytest.param(COMPLEX_DEGREE_SIX, 2, "window", id="n2"),
    pytest.param(COMPLEX_DEGREE_SIX, 64, "window", id="complex"),
    pytest.param(constant(2.5), 7, "window", id="constant"),
    pytest.param(constant(2.5), 1, "window", id="constant-n1"),
    pytest.param(parse_trig_expression("1+cos3x"), 16, "window", id="zero-lags-in-band"),
]


@pytest.mark.parametrize("f, n, regime", PRODUCT_CASES)
def test_operator_product_matches_section(f, n, regime, monkeypatch):
    calls = _record_products(monkeypatch)
    op = ToeplitzOperator(f, n)
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = op.matvec(x)
    assert _regime(calls) == regime, calls
    want = toeplitz_section(f, n) @ x
    assert y.shape == (n,) and y.dtype == np.complex128
    assert np.linalg.norm(y - want) <= 1e-13 * np.linalg.norm(want)


def _complex_input(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _strided_input(rng, n):
    return _complex_input(rng, 2 * n)[::2]


INPUT_FORMS = {"complex": _complex_input, "real": lambda rng, n: rng.standard_normal(n),
               "strided": _strided_input}


@pytest.mark.parametrize("form", INPUT_FORMS)
@pytest.mark.parametrize("degree", [WINDOW_DEGREE, WINDOW_DEGREE + 1, CAP_DEGREE + 1],
                         ids=["split", "complex", "fft"])  # "split": the window, see PRODUCT_CASES
def test_operator_product_input_forms(form, degree):
    n = 80
    f = _band_symbol(degree, degree)
    x = INPUT_FORMS[form](np.random.default_rng(degree), n)
    base = x if x.base is None else x.base
    before = base.copy()
    y = ToeplitzOperator(f, n).matvec(x)
    assert np.array_equal(base, before)  # the product leaves its input alone
    want = toeplitz_section(f, n) @ x
    assert y.shape == (n,) and y.dtype == np.complex128
    assert np.linalg.norm(y - want) <= 1e-13 * np.linalg.norm(want)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    degree=st.integers(0, 40),
    n=st.integers(1, 80),
    real_symbol=st.booleans(),
    real_vector=st.booleans(),
)
@example(seed=0, degree=WINDOW_DEGREE, n=80, real_symbol=False, real_vector=False)
@example(seed=1, degree=WINDOW_DEGREE + 1, n=80, real_symbol=True, real_vector=True)
@example(seed=2, degree=40, n=80, real_symbol=False, real_vector=True)
@example(seed=3, degree=40, n=7, real_symbol=True, real_vector=False)
def test_operator_product_property(seed, degree, n, real_symbol, real_vector):
    # every regime: the window up to 21 taps, complex up to 63, FFT past that (n > 32
    # and degree > 31), with n below the degree too
    f = (_real_band_symbol if real_symbol else _band_symbol)(degree, seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) if real_vector else _complex_input(rng, n)
    want = toeplitz_section(f, n) @ x
    y = ToeplitzOperator(f, n).matvec(x)
    assert np.linalg.norm(y - want) <= 1e-13 * np.linalg.norm(want)


def test_operator_of_low_degree_runs_no_fft(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.fft was called")

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, refuse)
    calls = _record_products(monkeypatch)
    n = 65536
    f = parse_trig_expression("2+cos-0.3sin2x+0.1cos3x")
    op = ToeplitzOperator(f, n)
    y = op.matvec(np.ones(n))
    assert _regime(calls) == "window"  # the window product at the benchmark's size
    # interior rows of T_n(f) 1 read f(0) = 2 + 1 + 0.1; the first and last miss lags
    np.testing.assert_allclose(y[3:-3], 3.1, rtol=1e-14)


# (symbol, order) for repeated products: degree >= n, n = 1 and 2, and the
# window's cap, and cap + 1, where the complex convolution takes over
REPEAT_CASES = [
    pytest.param(COMPLEX_DEGREE_SIX, 3, id="degree-above-n"),
    pytest.param(COMPLEX_DEGREE_SIX, 1, id="n1"),
    pytest.param(COMPLEX_DEGREE_SIX, 2, id="n2"),
    pytest.param(_band_symbol(WINDOW_DEGREE, 21), 100, id="at-window-cap"),
    pytest.param(_band_symbol(WINDOW_DEGREE + 1, 22), 100, id="above-window-cap"),
]


@pytest.mark.parametrize("f, n", REPEAT_CASES)
def test_operator_products_do_not_leak_into_each_other(f, n):
    # the window's buffer is reused: a second product must not see the first vector
    op, section = ToeplitzOperator(f, n), toeplitz_section(f, n)
    rng = np.random.default_rng(n)
    first, second = _complex_input(rng, n), rng.standard_normal(n)
    y1 = op.matvec(first)
    y1_kept = y1.copy()
    y2 = op.matvec(second)
    for x, y in ((first, y1), (second, y2)):
        want = section @ x
        assert np.linalg.norm(y - want) <= 1e-13 * np.linalg.norm(want)
    assert np.array_equal(y1, y1_kept)  # the first result is not the second's buffer
    assert np.array_equal(op.matvec(first), y1)


def test_operator_construction_allocates_no_vector():
    # the window's buffer is made by the first product, not by the operator
    n = 65536
    f = parse_trig_expression("2+cos-0.3sin2x+0.1cos3x")
    tracemalloc.start()
    try:
        op = ToeplitzOperator(f, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    np.testing.assert_allclose(op.matvec(np.ones(n))[3:-3], 3.1, rtol=1e-14)


# ---------------------------------------------------------------------------
# guards: (call, error, message fragment)

F = parse_trig_expression("2+cos")
GUARDS = [
    pytest.param(lambda: toeplitz_section(F, 0), ValueError, "order must be >= 1", id="section"),
    pytest.param(lambda: ToeplitzOperator(F, 0), ValueError, "order must be >= 1", id="operator"),
    pytest.param(lambda: ToeplitzOperator(F, 4).matvec(np.ones(5)), DimensionMismatchError,
                 "does not match order 4", id="matvec-length"),
]


@pytest.mark.parametrize("call, error, fragment", GUARDS)
def test_guard_raises(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
