"""Tests for Toeplitz/Hankel sections and the product correction."""

import numpy as np
import pytest
import scipy.linalg

from precondlab.errors import DimensionMismatchError
from precondlab.linalg import hermitian_eigvalues, is_hermitian, singular_values
from precondlab.symbols import Symbol, constant, cosine, parse_trig_expression, product
from precondlab.toeplitz import (
    DIRECT_MAX_TAPS,
    ToeplitzOperator,
    hankel_section,
    numerical_rank,
    product_correction,
    toeplitz_section,
    widom_correction_report,
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


def test_section_linearity_exact():
    f, g = parse_trig_expression("2+cos"), parse_trig_expression("sin+0.5cos2x")
    n = 12
    lhs = toeplitz_section(Symbol(f.scaled(2.0).plus(g.scaled(-3.0)).coefficients), n)
    rhs = 2.0 * toeplitz_section(f, n) - 3.0 * toeplitz_section(g, n)
    assert np.array_equal(lhs, rhs)


def test_hankel_cos():
    h = hankel_section(cosine(), 4)
    expected = np.zeros((4, 4))
    expected[0, 0] = 0.5
    np.testing.assert_allclose(h, expected, atol=1e-15)


def test_hankel_constant_is_zero():
    assert np.max(np.abs(hankel_section(constant(1.0), 6))) == 0.0


def test_hankel_rank_bounded_by_degree():
    f = product(
        Symbol({0: 2.0, 1: 1.0, -1: 1.0}), Symbol({0: 2.0, 1: 1.0, -1: 1.0})
    )  # (2+2cos)^2, degree 2
    assert numerical_rank(hankel_section(f, 8)) == 2


# ---------------------------------------------------------------------------
# product correction (Widom)


def test_correction_identity_symbol_is_zero():
    assert np.max(np.abs(product_correction(constant(1.0), 6))) == 0.0


def test_correction_cos_rank_two():
    assert numerical_rank(product_correction(cosine(), 4)) <= 2


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
    rep = widom_correction_report(parse_trig_expression("2+cos"), (16, 32, 64))
    assert rep.rank_bound_ok and rep.norm_constant_ok
    assert all(rank <= 2 for rank in rep.ranks.values())


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


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 16])
def test_sections_match_per_index_construction(n):
    f = COMPLEX_DEGREE_SIX
    assert np.array_equal(toeplitz_section(f, n), per_index_section(f, n))
    vals = np.array([f.coefficient(m + 1) for m in range(2 * n - 1)], dtype=np.complex128)
    assert np.array_equal(hankel_section(f, n), scipy.linalg.hankel(vals[:n], vals[n - 1 :]))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 64, 129])
def test_sections_match_entrywise_definition(n):
    # complex, non-Hermitian, degree >= 2n: every lag of both sections is distinct
    rng = np.random.default_rng(n)
    a = {k: complex(*rng.standard_normal(2)) for k in range(-2 * n - 1, 2 * n + 2)}
    f = Symbol(a)
    t, h = toeplitz_section(f, n), hankel_section(f, n)
    for m in (t, h):
        assert m.shape == (n, n) and m.dtype == np.complex128
        assert m.flags.c_contiguous and m.flags.writeable and m.flags.owndata
    assert np.array_equal(t, [[a[j - k] for k in range(n)] for j in range(n)])
    assert np.array_equal(h, [[a[j + k + 1] for k in range(n)] for j in range(n)])


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


def _record_fft_calls(monkeypatch):
    """The names of the np.fft functions called from now on, in order."""
    calls = []
    for name in ("fft", "ifft"):
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


CAP_DEGREE = (DIRECT_MAX_TAPS - 1) // 2
# (symbol, order, direct): 2 min(deg f, n - 1) + 1 taps, direct up to DIRECT_MAX_TAPS
PRODUCT_CASES = [
    pytest.param(_band_symbol(CAP_DEGREE - 1, 1), 100, True, id="below-cap"),
    pytest.param(_band_symbol(CAP_DEGREE, 2), 100, True, id="at-cap"),
    pytest.param(_band_symbol(CAP_DEGREE + 1, 3), 100, False, id="above-cap"),
    pytest.param(_band_symbol(CAP_DEGREE + 1, 4), CAP_DEGREE + 1, True,
                 id="degree-n-clipped-to-cap"),
    pytest.param(_band_symbol(2 * CAP_DEGREE, 5), CAP_DEGREE + 2, False,
                 id="degree-above-n-fft"),
    pytest.param(COMPLEX_DEGREE_SIX, 3, True, id="degree-above-n"),
    pytest.param(COMPLEX_DEGREE_SIX, 1, True, id="n1"),
    pytest.param(COMPLEX_DEGREE_SIX, 2, True, id="n2"),
    pytest.param(COMPLEX_DEGREE_SIX, 64, True, id="complex"),
    pytest.param(constant(2.5), 7, True, id="constant"),
    pytest.param(constant(2.5), 1, True, id="constant-n1"),
    pytest.param(parse_trig_expression("1+cos3x"), 16, True, id="zero-lags-in-band"),
]


@pytest.mark.parametrize("f, n, direct", PRODUCT_CASES)
def test_operator_product_matches_section(f, n, direct, monkeypatch):
    calls = _record_fft_calls(monkeypatch)
    op = ToeplitzOperator(f, n)
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = op.matvec(x)
    assert (calls == []) == direct, calls
    want = toeplitz_section(f, n) @ x
    assert y.shape == (n,) and y.dtype == np.complex128
    assert np.linalg.norm(y - want) <= 1e-13 * np.linalg.norm(want)


def test_operator_of_low_degree_runs_no_fft(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.fft was called")

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, refuse)
    n = 65536
    f = parse_trig_expression("2+cos-0.3sin2x+0.1cos3x")
    op = ToeplitzOperator(f, n)
    y = op.matvec(np.ones(n))
    # interior rows of T_n(f) 1 read f(0) = 2 + 1 + 0.1; the first and last miss lags
    np.testing.assert_allclose(y[3:-3], 3.1, rtol=1e-14)


# ---------------------------------------------------------------------------
# guards: (call, error, message fragment)

F = parse_trig_expression("2+cos")
GUARDS = [
    pytest.param(lambda: toeplitz_section(F, 0), ValueError, "order must be >= 1", id="section"),
    pytest.param(lambda: hankel_section(F, 0), ValueError, "order must be >= 1", id="hankel"),
    pytest.param(lambda: ToeplitzOperator(F, 0), ValueError, "order must be >= 1", id="operator"),
    pytest.param(lambda: ToeplitzOperator(F, 4).matvec(np.ones(5)), DimensionMismatchError,
                 "does not match order 4", id="matvec-length"),
]


@pytest.mark.parametrize("call, error, fragment", GUARDS)
def test_guard_raises(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
