"""Tests for the positive-operator rates and the Korovkin harness.

The Fejer closed form (1/n) sum_m (n - |m|) a_m e^{imx} is the oracle for
the Fourier-algebra operator; it is computed directly from coefficients,
independent of the matrix quadratic form used by the library.
"""

import numpy as np
import pytest

from precondlab import korovkin
from precondlab.algebras import (
    ALGEBRA_KINDS,
    TransformAlgebra,
    algebra_diagonal,
    make_algebra,
    random_unitary_algebra,
)
from precondlab.korovkin import (
    evaluation_grid,
    fit_rate,
    korovkin_test,
    lpo_eval,
    lpo_rates,
    remainder_propagation,
    sup_error,
)
from precondlab.symbols import (
    Symbol,
    constant,
    cosine,
    parse_trig_expression,
    product,
    sine,
)
from precondlab.toeplitz import toeplitz_section


def fejer_mean(f, n, xs):
    out = np.zeros_like(np.asarray(xs, dtype=float), dtype=complex)
    for m, a in f.coefficients.items():
        if abs(m) < n:
            out += (n - abs(m)) / n * a * np.exp(1j * m * np.asarray(xs))
    return out.real


# ---------------------------------------------------------------------------
# lpo_eval


def test_lpo_constant_is_one_for_fourier_everywhere():
    xs = np.linspace(0.0, 2.0 * np.pi, 257)
    for n in (4, 9, 16):
        alg = make_algebra("fourier", n)
        np.testing.assert_allclose(lpo_eval(alg, constant(1.0), xs), 1.0, atol=1e-12)


def test_lpo_constant_is_one_at_grid_points_all_kinds():
    # unit row norms of the unitary: holds at grid points for every kind
    for kind in ("fourier", "sine", "hartley"):
        alg = make_algebra(kind, 12)
        np.testing.assert_allclose(
            lpo_eval(alg, constant(1.0), alg.grid), 1.0, atol=1e-12
        )


def test_lpo_fourier_cos_is_fejer():
    xs = evaluation_grid(512)
    for n in (4, 16, 64):
        alg = make_algebra("fourier", n)
        values = lpo_eval(alg, cosine(), xs)
        np.testing.assert_allclose(values, (1.0 - 1.0 / n) * np.cos(xs), atol=1e-12)
        np.testing.assert_allclose(values, fejer_mean(cosine(), n, xs), atol=1e-12)


def test_lpo_fourier_matches_fejer_for_degree_two():
    f = parse_trig_expression("2+cos+0.5cos2x")
    xs = evaluation_grid(256)
    alg = make_algebra("fourier", 32)
    np.testing.assert_allclose(lpo_eval(alg, f, xs), fejer_mean(f, 32, xs), atol=1e-12)


def test_lpo_sine_matches_diagonal():
    f = parse_trig_expression("2+cos")
    alg = make_algebra("sine", 8)
    a = toeplitz_section(f, 8)
    diag = np.diagonal(alg.unitary @ a @ alg.unitary.conj().T).real
    x3 = alg.grid[3]
    assert lpo_eval(alg, f, x3) == pytest.approx(diag[3], abs=1e-10)
    np.testing.assert_allclose(lpo_eval(alg, f, alg.grid), diag, atol=1e-10)


def test_lpo_grid_values_are_projection_eigenvalues():
    f = parse_trig_expression("1+0.5cos2x")
    for kind in ("fourier", "sine", "hartley"):
        alg = make_algebra(kind, 10)
        a = toeplitz_section(f, 10)
        np.testing.assert_allclose(
            lpo_eval(alg, f, alg.grid), algebra_diagonal(alg, a).real, atol=1e-10
        )


def test_lpo_positive_on_nonnegative_symbol():
    f = parse_trig_expression("2+cos")  # strictly positive
    xs = evaluation_grid()
    for kind in ("fourier", "sine", "hartley"):
        alg = make_algebra(kind, 16)
        assert np.min(lpo_eval(alg, f, xs)) >= -1e-9


def test_lpo_rejects_complex_symbol():
    alg = make_algebra("fourier", 4)
    with pytest.raises(ValueError):
        lpo_eval(alg, parse_trig_expression("sin").scaled(1j), 0.0)


def test_lpo_needs_basis():
    alg = random_unitary_algebra(6)
    with pytest.raises(ValueError):
        lpo_eval(alg, cosine(), 0.0)


# ---------------------------------------------------------------------------
# closed-form lag weights against the dense definition v(x) T_n(f) v(x)*


# 0 and pi lie on the 4096-point grid too; fl(pi) != pi, and the points
# next to it and beyond [0, 2pi) need the argument reduction
SPECIAL_POINTS = np.array(
    [
        0.0,
        np.pi,
        2.0 * np.pi,
        np.nextafter(np.pi, np.inf),
        np.nextafter(np.pi, -np.inf),
        -1.0,
        7.5,
    ]
)


def dense_lpo(alg, f, xs):
    v = alg.basis(xs)
    return np.einsum("ij,ij->i", v @ toeplitz_section(f, alg.order), v.conj()).real


def random_real_symbol(seed, degree):
    rng = np.random.default_rng(seed)
    coeffs = {0: complex(rng.standard_normal())}
    for k in range(1, degree + 1):
        a = complex(rng.standard_normal(), rng.standard_normal())
        coeffs[k], coeffs[-k] = a, a.conjugate()
    return Symbol(coeffs)


DIFFERENTIAL_SYMBOLS = [
    cosine(),
    parse_trig_expression("2+cos+0.5sin3x"),
    random_real_symbol(11, 4),
    # degree 6: at n <= 6 every lag |k| >= n must drop out
    product(parse_trig_expression("1+cos+sin2x"), parse_trig_expression("2-cos3x+sin")),
]


@pytest.mark.parametrize("kind", ALGEBRA_KINDS)
@pytest.mark.parametrize("n", [2, 3, 5, 7, 64])
def test_lpo_closed_form_matches_dense_definition(kind, n):
    alg = make_algebra(kind, n)
    xs = np.concatenate([SPECIAL_POINTS, evaluation_grid()])
    for f in DIFFERENTIAL_SYMBOLS:
        scale = sum(abs(a) for a in f.coefficients.values())
        np.testing.assert_allclose(
            lpo_eval(alg, f, xs), dense_lpo(alg, f, xs), rtol=0, atol=1e-12 * scale
        )


def test_custom_algebra_with_builtin_label_has_no_lpo():
    alg = random_unitary_algebra(8, seed=5)
    relabelled = TransformAlgebra(**(vars(alg) | {"kind": "sine"}))
    f = parse_trig_expression("2+cos+0.5sin3x")
    for a in (alg, relabelled):  # the label does not lend the sine lag weights
        with pytest.raises(ValueError, match="no closed-form lag weights"):
            lpo_eval(a, f, SPECIAL_POINTS)


def test_lpo_rates_never_builds_the_unitary(monkeypatch):
    def refuse(alg):
        raise AssertionError(f"{alg.kind} unitary of order {alg.order} was built")

    monkeypatch.setattr(TransformAlgebra, "unitary", property(refuse))
    errors = {
        kind: lpo_rates(kind, [cosine()], ladder=(4096,))[0].sup_error[4096]
        for kind in ALGEBRA_KINDS
    }
    assert all(np.isfinite(e) for e in errors.values()), errors
    assert errors["fourier"] == pytest.approx(1.0 / 4096, abs=1e-15)


# ---------------------------------------------------------------------------
# rates


def test_fejer_sup_error_is_one_over_n():
    ladder = (8, 16, 32, 64, 128)
    reports = lpo_rates("fourier", [cosine()], ladder=ladder)
    rep = reports[0]
    for n in ladder:
        assert rep.sup_error[n] == pytest.approx(1.0 / n, abs=1e-12)
    assert rep.rate_fit == pytest.approx(-1.0, abs=0.01)


def test_sup_error_constant_symbol_vanishes():
    rep = lpo_rates("fourier", [constant(1.0)], ladder=(8, 16, 32, 64))[0]
    assert max(rep.sup_error.values()) < 1e-13


def test_cos_squared_rate_minus_one():
    rep = lpo_rates("fourier", [product(cosine(), cosine())], ladder=(16, 32, 64, 128))[0]
    assert rep.rate_fit == pytest.approx(-1.0, abs=0.05)


def test_fit_rate_excludes_zeros():
    assert fit_rate((8, 16, 32, 64), [0.0, 0.0, 0.0, 0.0]) is None
    assert fit_rate((8, 16, 32, 64), [1 / 8, 1 / 16, 1 / 32, 1 / 64]) == pytest.approx(-1.0)


def test_fit_rate_takes_the_last_positive_entries():
    # the window is the last RATE_FIT_POINTS entries left after the zeros go
    ladder = (8, 16, 32, 64, 128, 256, 512)
    assert fit_rate(ladder[:5], [5.0, 1 / 16, 1 / 32, 1 / 64, 1 / 128]) == pytest.approx(-1.0)
    assert fit_rate(ladder, [1 / 8, 1 / 16, 1 / 32, 1 / 64, 0, 0, 0]) == pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# korovkin harness


def test_korovkin_fourier_implication_observed():
    report = korovkin_test(
        "fourier",
        [cosine(), sine()],
        [parse_trig_expression("2+cos+0.5cos2x")],
        ladder=(32, 64, 128, 256),
    )
    assert report.test_set_strong
    assert report.holdout_strong
    assert report.implication_observed is True


def test_korovkin_trivial_generators():
    report = korovkin_test(
        "fourier", [constant(1.0)], [constant(1.0, label="one")], ladder=(8, 16, 32, 64)
    )
    assert report.test_set_strong and report.holdout_strong
    for verdict in report.all_verdicts():
        assert max(verdict.frobenius_sq.values()) < 1e-20


def test_korovkin_random_unitary_negative_control():
    report = korovkin_test(
        lambda n: random_unitary_algebra(n, seed=900 + n),
        [cosine()],
        [parse_trig_expression("2+cos")],
        ladder=(32, 64, 128, 256),
    )
    assert not report.test_set_strong
    assert report.implication_observed is None


@pytest.mark.parametrize("holdout", ["cos", "(sin)^2", "(cos)*(sin)"])
def test_korovkin_rejects_a_holdout_labelled_like_the_family(holdout):
    # verdicts are keyed by label: a clash would drop one from the summary
    with pytest.raises(ValueError, match="repeat a generator, square or product label"):
        korovkin_test("fourier", [cosine(), sine()], [Symbol({0: 2.0}, label=holdout)],
                      ladder=(8, 16, 32, 64))


def test_korovkin_rejects_complex_generators():
    with pytest.raises(ValueError):
        korovkin_test("fourier", [parse_trig_expression("cos").scaled(1j)], [])
    with pytest.raises(ValueError, match="at least one generator"):
        korovkin_test("fourier", [], [])


def test_korovkin_builds_the_family_once(monkeypatch):
    calls = []
    build = korovkin._korovkin_family
    monkeypatch.setattr(korovkin, "_korovkin_family", lambda *a: calls.append(a) or build(*a))
    korovkin_test("fourier", [cosine(), sine()], [constant(2.0, label="2")],
                  ladder=(8, 16, 32, 64))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# remainder propagation


def test_propagation_fourier_cos_sin():
    rep = remainder_propagation("fourier", [cosine(), sine()], ladder=(16, 32, 64, 128))
    assert rep.propagation_ok
    assert rep.rates["(cos)*(sin)"] == pytest.approx(-1.0, abs=0.05)


def test_propagation_trivial_generator():
    rep = remainder_propagation("fourier", [constant(1.0)], ladder=(8, 16, 32, 64))
    assert rep.propagation_ok
    assert max(rep.derived_errors["sum_sq"].values()) < 1e-13


def test_propagation_rejects_shared_labels():
    # the errors are keyed by label, so a repeated label would lose an entry
    with pytest.raises(ValueError, match="duplicate labels"):
        remainder_propagation("fourier", [cosine(), cosine()], ladder=(8, 16))
    with pytest.raises(ValueError, match="duplicate labels"):
        remainder_propagation(
            "fourier", [Symbol(cosine().coefficients, "g1"), Symbol(sine().coefficients)],
            ladder=(8, 16),
        )


def test_propagation_single_cos():
    rep = remainder_propagation("fourier", [cosine()], ladder=(16, 32, 64, 128))
    assert rep.propagation_ok
    assert rep.rates["sum_sq"] == pytest.approx(-1.0, abs=0.05)

