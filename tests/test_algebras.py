"""Tests for transform algebras, projections and pinchings."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precondlab.algebras import (
    ALGEBRA_KINDS,
    LowRank,
    TransformAlgebra,
    algebra_diagonal,
    check_transform,
    contiguous_partition,
    custom_algebra,
    eigenbasis,
    from_eigenbasis,
    lag_sum,
    make_algebra,
    optimal_circulant_column,
    pinch,
    project,
    project_pinched,
    project_toeplitz_fast,
    random_unitary_algebra,
    single_block_partition,
    singleton_partition,
    toeplitz_corner_parts,
    toeplitz_diagonal,
)
from precondlab.errors import (
    DimensionMismatchError,
    InvariantViolationError,
    NotUnitaryError,
)
from precondlab.linalg import frobenius_norm_sq, hermitian_eigvalues, singular_values
from precondlab.solver import build_preconditioner
from precondlab.symbols import Symbol, constant, parse_trig_expression
from precondlab.toeplitz import ToeplitzOperator, toeplitz_section


def seeded_matrix(n, seed, hermitian=False):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (m + m.conj().T) if hermitian else m


def all_algebras(n, seed=42):
    return [make_algebra(kind, n) for kind in ALGEBRA_KINDS] + [
        random_unitary_algebra(n, seed=seed)
    ]


# ---------------------------------------------------------------------------
# constructions


def test_fourier_order_two():
    alg = make_algebra("fourier", 2)
    np.testing.assert_allclose(
        alg.unitary, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-14
    )


def test_sine_order_two():
    alg = make_algebra("sine", 2)
    expected = np.sqrt(2.0 / 3.0) * np.array(
        [
            [np.sin((i + 1) * (j + 1) * np.pi / 3.0) for j in range(2)]
            for i in range(2)
        ]
    )
    np.testing.assert_allclose(alg.unitary, expected, atol=1e-14)


def test_hartley_order_four_orthogonal():
    u = make_algebra("hartley", 4).unitary
    np.testing.assert_allclose(u @ u.T, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("kind", ALGEBRA_KINDS)
@pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 33, 64])
def test_unitarity_all_kinds_and_sizes(kind, n):
    alg = make_algebra(kind, n)
    assert alg.unitarity_defect() <= 1e-10 * np.sqrt(n)


def test_rows_are_basis_at_grid_points():
    for kind in ALGEBRA_KINDS:
        alg = make_algebra(kind, 9)
        np.testing.assert_allclose(alg.basis(alg.grid), alg.unitary, atol=1e-13)


def test_custom_rejects_non_unitary():
    with pytest.raises(NotUnitaryError):
        custom_algebra(np.ones((3, 3)))


def test_random_unitary_algebra_deterministic():
    a = random_unitary_algebra(8, seed=3)
    b = random_unitary_algebra(8, seed=3)
    assert np.array_equal(a.unitary, b.unitary)
    assert a.unitarity_defect() <= 1e-10 * np.sqrt(8)


# ---------------------------------------------------------------------------
# fast transforms and the eigenbasis


@pytest.mark.parametrize("kind", ALGEBRA_KINDS)
@pytest.mark.parametrize("n", [2, 3, 5, 8, 64, 129])
def test_eigenbasis_matches_dense_definition(kind, n):
    alg = make_algebra(kind, n)
    u = alg.basis(alg.grid)
    a = seeded_matrix(n, seed=n)
    before = a.copy()
    w = eigenbasis(alg, a)
    np.testing.assert_allclose(w, u.conj().T @ a @ u, rtol=0, atol=1e-12 * n)
    assert np.array_equal(a, before), "eigenbasis must not write to its input"
    np.testing.assert_allclose(
        algebra_diagonal(alg, a), np.diagonal(w), rtol=0, atol=1e-12 * n
    )


@pytest.mark.parametrize("kind", ALGEBRA_KINDS)
@pytest.mark.parametrize("n", [2, 3, 5, 8, 64, 129])
def test_transform_is_the_adjoint_unitary(kind, n):
    alg = make_algebra(kind, n)
    u = alg.basis(alg.grid)
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    np.testing.assert_allclose(alg.transform(x), u.conj().T @ x, rtol=0, atol=1e-12 * n)
    # the built-in unitaries are symmetric: U x = conj(U* conj x)
    np.testing.assert_allclose(
        np.conj(alg.transform(np.conj(x[:, 0]))), u @ x[:, 0], rtol=0, atol=1e-12 * n
    )
    out = x.copy()
    assert alg.transform(out, out=out) is out
    np.testing.assert_allclose(out, alg.transform(x), rtol=0, atol=1e-15 * n)
    # inverse is U along axis 0 (a transform along the last axis fails on n x 3)
    np.testing.assert_allclose(alg.inverse(x), u @ x, rtol=0, atol=1e-12 * n)
    out = x.copy()
    assert alg.inverse(out, out=out) is out
    np.testing.assert_allclose(out, alg.inverse(x), rtol=0, atol=1e-15 * n)


@pytest.mark.parametrize("kind", ["sine", "hartley"])
def test_real_symmetric_unitary_is_its_own_inverse(kind):
    # U = U* = U^-1: one map serves both directions
    alg = make_algebra(kind, 9)
    u = alg.basis(alg.grid)
    assert alg.inverse is alg.transform
    assert not np.any(u.imag)
    np.testing.assert_allclose(u, u.T, rtol=0, atol=1e-14)


def test_eigenbasis_custom_is_dense_product():
    alg = random_unitary_algebra(6, seed=3)
    a = seeded_matrix(6, seed=4)
    u = alg.unitary
    np.testing.assert_allclose(eigenbasis(alg, a), u.conj().T @ a @ u, atol=1e-13)


@pytest.mark.parametrize("kind", ALGEBRA_KINDS)
def test_scaled_transform_is_not_unitary(kind):
    alg = make_algebra(kind, 16)

    def scaled(x, out=None):
        return np.multiply(alg.transform(x), 1 + 1e-6, out=out)

    def scaled_inverse(z, out=None):
        return np.multiply(alg.inverse(z), 1 + 1e-6, out=out)

    bad = TransformAlgebra(**(vars(alg) | dict(transform=scaled)))
    a = seeded_matrix(16, seed=5)
    with pytest.raises(NotUnitaryError, match=kind):
        eigenbasis(bad, a)
    with pytest.raises(NotUnitaryError):
        algebra_diagonal(bad, a)
    # only U is wrong here, so the check after U W U* must be the one that fires
    bad = TransformAlgebra(**(vars(alg) | dict(inverse=scaled_inverse)))
    with pytest.raises(NotUnitaryError, match=kind):
        from_eigenbasis(bad, a)
    with pytest.raises(NotUnitaryError, match=kind):
        project(bad, a)
    # a preconditioner build checks inverse too: scaled, or norm-keeping but wrong
    op = ToeplitzOperator(parse_trig_expression("3+cos"), 16)
    for inverse in (scaled_inverse, make_algebra("fourier", 16).transform):
        bad = TransformAlgebra(**(vars(alg) | dict(inverse=inverse)))
        with pytest.raises(NotUnitaryError, match=kind):
            build_preconditioner(op, "algebra_projection", alg_kind=lambda n: bad)
    eigenbasis(alg, a)  # the unscaled maps pass the same checks
    from_eigenbasis(alg, a)
    build_preconditioner(op, "algebra_projection", alg_kind=lambda n: alg)


@pytest.mark.parametrize("kind", [*ALGEBRA_KINDS, "custom"])
@pytest.mark.parametrize("n", [2, 3, 5, 8, 64, 129])
def test_from_eigenbasis_matches_dense_definition(kind, n):
    alg = random_unitary_algebra(n, seed=n) if kind == "custom" else make_algebra(kind, n)
    u = alg.unitary
    w = seeded_matrix(n, seed=n + 1)
    before = w.copy()
    np.testing.assert_allclose(
        from_eigenbasis(alg, w), u @ w @ u.conj().T, rtol=0, atol=1e-12 * n
    )
    assert np.array_equal(w, before), "from_eigenbasis must not write to its input"
    np.testing.assert_allclose(
        from_eigenbasis(alg, eigenbasis(alg, w)), w, rtol=0, atol=1e-12 * n
    )


@pytest.mark.parametrize("kind", ALGEBRA_KINDS)
def test_projections_never_build_the_unitary(kind, monkeypatch):
    def refuse(alg):
        raise AssertionError(f"{alg.kind} unitary of order {alg.order} was built")

    monkeypatch.setattr(TransformAlgebra, "unitary", property(refuse))
    alg = make_algebra(kind, 33)
    a = seeded_matrix(33, seed=6)
    p = project(alg, a)
    np.testing.assert_allclose(project(alg, p), p, atol=1e-12)
    blocks = contiguous_partition(33, 4)
    pinched = project_pinched(alg, blocks, a)
    np.testing.assert_allclose(project_pinched(alg, blocks, pinched), pinched, atol=1e-12)
    np.testing.assert_allclose(from_eigenbasis(alg, eigenbasis(alg, a)), a, atol=1e-12)


def test_eigenbasis_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        eigenbasis(make_algebra("sine", 4), np.eye(5))


# ---------------------------------------------------------------------------
# projection


def test_project_identity_is_identity():
    for alg in all_algebras(6):
        np.testing.assert_allclose(project(alg, np.eye(6)), np.eye(6), atol=1e-12)


def test_project_nilpotent_fourier_2x2():
    alg = make_algebra("fourier", 2)
    p = project(alg, [[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(p, [[0.0, 0.5], [0.5, 0.0]], atol=1e-14)


def test_project_idempotent():
    a = seeded_matrix(10, 1)
    for alg in all_algebras(10):
        p = project(alg, a)
        np.testing.assert_allclose(project(alg, p), p, atol=1e-12)


def test_project_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        project(make_algebra("fourier", 4), np.eye(5))


def test_projection_minimizes_frobenius_distance():
    # any other diagonal in the transformed basis is farther away
    alg = make_algebra("sine", 8)
    a = seeded_matrix(8, 2)
    best = frobenius_norm_sq(a - project(alg, a))
    rng = np.random.default_rng(0)
    u = alg.unitary
    for _ in range(10):
        d = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        other = (u * d) @ u.conj().T
        assert frobenius_norm_sq(a - other) >= best - 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_projection_lemma_identities(seed):
    """Linearity, adjoint, trace, Pythagoras: the projection identity suite."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 17))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    alpha, beta = complex(rng.standard_normal(), rng.standard_normal()), complex(
        rng.standard_normal(), rng.standard_normal()
    )
    for alg in all_algebras(n, seed=seed + 1):
        pa, pb = project(alg, a), project(alg, b)
        lin = project(alg, alpha * a + beta * b) - (alpha * pa + beta * pb)
        assert np.max(np.abs(lin)) < 1e-10 * (1 + np.max(np.abs(pa)))
        np.testing.assert_allclose(project(alg, a.conj().T), pa.conj().T, atol=1e-11)
        assert abs(np.trace(pa) - np.trace(a)) <= 1e-10 * (1 + abs(np.trace(a)))
        lhs = frobenius_norm_sq(a - pa)
        rhs = frobenius_norm_sq(a) - frobenius_norm_sq(pa)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_projection_eigenvalue_bracketing_and_psd():
    for seed in range(8):
        h = seeded_matrix(12, 300 + seed, hermitian=True)
        w = hermitian_eigvalues(h)
        for alg in all_algebras(12, seed=seed):
            wp = hermitian_eigvalues(project(alg, h))
            assert wp[0] >= w[0] - 1e-9
            assert wp[-1] <= w[-1] + 1e-9
        hpd = h + (abs(w[0]) + 1.0) * np.eye(12)
        for alg in all_algebras(12, seed=seed):
            assert hermitian_eigvalues(project(alg, hpd))[0] > 0.0


def test_projection_contractive_in_operator_norm():
    for seed in range(50):
        n = 4 + (seed % 13)
        a = seeded_matrix(n, 500 + seed)
        alg = all_algebras(n, seed=seed)[seed % 4]
        assert singular_values(project(alg, a))[-1] <= singular_values(a)[-1] + 1e-10


def test_projection_keeps_complex_diagonal_of_non_hermitian():
    # no silent Hermitization: projecting a non-Hermitian input keeps
    # genuinely complex algebra coordinates
    alg = make_algebra("fourier", 5)
    a = seeded_matrix(5, 9)
    d = algebra_diagonal(alg, a)
    assert np.max(np.abs(d.imag)) > 1e-3


def test_eigenvalues_invariant_under_algebra_conjugation():
    h = seeded_matrix(16, 77, hermitian=True)
    w = hermitian_eigvalues(h)
    for alg in all_algebras(16):
        u = alg.unitary
        wc = hermitian_eigvalues(u.conj().T @ h @ u)
        np.testing.assert_allclose(wc, w, atol=1e-9)


# ---------------------------------------------------------------------------
# fast circulant path


def test_fast_path_first_column():
    c = project_toeplitz_fast(Symbol({0: 2.0, 1: 1.0, -1: 1.0}), 3)[:, 0]
    np.testing.assert_allclose(c, [2.0, 2.0 / 3.0, 2.0 / 3.0], atol=1e-14)


def test_fast_path_identity_symbol():
    np.testing.assert_allclose(
        project_toeplitz_fast(constant(1.0), 5), np.eye(5), atol=1e-15
    )


def test_fast_path_matches_generic_projection():
    f = parse_trig_expression("2+cos")
    n = 256
    generic = project(make_algebra("fourier", n), toeplitz_section(f, n))
    fast = project_toeplitz_fast(f, n)
    assert np.max(np.abs(generic - fast)) <= 1e-10


def test_fast_path_matches_generic_for_complex_symbol():
    f = Symbol({0: 1.0, 1: 0.3 - 0.2j, -2: 0.7j, 3: -0.1})
    n = 32
    generic = project(make_algebra("fourier", n), toeplitz_section(f, n))
    assert np.max(np.abs(generic - project_toeplitz_fast(f, n))) <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 64, 129])
def test_fast_path_matches_entrywise_circulant(n):
    rng = np.random.default_rng(n)
    degree = n + 2  # lags |k| >= n fall outside the section
    f = Symbol({k: complex(*rng.standard_normal(2)) for k in range(-degree, degree + 1)})
    c = optimal_circulant_column(f, n)
    fast = project_toeplitz_fast(f, n)
    assert fast.shape == (n, n) and fast.dtype == np.complex128
    assert fast.flags.c_contiguous and fast.flags.writeable and fast.flags.owndata
    assert np.array_equal(fast, [[c[(j - k) % n] for k in range(n)] for j in range(n)])


# ---------------------------------------------------------------------------
# closed-form Toeplitz diagonal


def degree_six_symbol(seed, real):
    rng = np.random.default_rng(seed)
    coeffs = {0: complex(rng.standard_normal())}
    for k in range(1, 7):
        a = complex(rng.standard_normal(), rng.standard_normal())
        coeffs[k] = a
        coeffs[-k] = a.conjugate() if real else complex(
            rng.standard_normal(), rng.standard_normal()
        )
    return Symbol(coeffs)


@pytest.mark.parametrize("kind", ALGEBRA_KINDS)
@pytest.mark.parametrize("n", [2, 3, 5, 8, 64, 129, 1024])
@pytest.mark.parametrize("real", [True, False])
def test_toeplitz_diagonal_matches_dense_definition(kind, n, real):
    # degree 6 >= n for the small orders: lags |k| >= n must drop out
    f = degree_six_symbol(seed=n, real=real)
    alg = make_algebra(kind, n)
    dense = algebra_diagonal(alg, toeplitz_section(f, n))
    fast = toeplitz_diagonal(alg, f)
    scale = sum(abs(a) for a in f.coefficients.values())
    assert fast.shape == (n,)
    assert np.max(np.abs(fast - dense)) <= 1e-12 * n * scale, (kind, n, real)


@pytest.mark.parametrize("kind", ALGEBRA_KINDS)
def test_lag_sum_of_real_symbol_is_the_two_sided_sum(kind):
    # the real-symbol path evaluates k >= 0 only, doubling k > 0
    f = degree_six_symbol(seed=3, real=True)
    alg = make_algebra(kind, 16)
    xs = np.random.default_rng(4).uniform(0.0, 2.0 * np.pi, 50)
    ks = np.array(sorted(f.coefficients))
    two_sided = alg.lag_weights(ks, xs) @ np.array([f.coefficient(k) for k in ks])
    half = lag_sum(alg, f, xs)
    assert half.dtype == np.float64
    np.testing.assert_allclose(half, two_sided.real, atol=1e-13)
    assert np.max(np.abs(two_sided.imag)) <= 1e-13


@pytest.mark.parametrize("kind", ALGEBRA_KINDS)
def test_toeplitz_diagonal_of_the_identity_is_one(kind):
    np.testing.assert_allclose(
        toeplitz_diagonal(make_algebra(kind, 7), constant(1.0)), np.ones(7), atol=1e-15
    )


@pytest.mark.parametrize("kind", ("sine", "hartley"))
def test_toeplitz_diagonal_checks_the_trace(kind):
    alg = make_algebra(kind, 16)
    bad = TransformAlgebra(
        **(vars(alg) | dict(lag_weights=lambda ks, xs: 1.01 * alg.lag_weights(ks, xs)))
    )
    f = parse_trig_expression("2+cos")
    with pytest.raises(InvariantViolationError, match="trace"):
        toeplitz_diagonal(bad, f)
    toeplitz_diagonal(alg, f)  # the true lag weights pass


@pytest.mark.parametrize("kind", ALGEBRA_KINDS)
def test_toeplitz_diagonal_checks_its_maps(kind):
    alg = make_algebra(kind, 16)

    def flipped(x, out=None):  # U* reflected, k -> -k mod n
        return np.roll(alg.transform(x)[::-1], 1)

    def scaled(x, out=None):
        return np.multiply(alg.transform(x), 1 + 1e-6, out=out)

    f = parse_trig_expression("3+cos")  # even: the Fourier column alone cannot show a flip
    for transform in (flipped, scaled):
        with pytest.raises(NotUnitaryError, match=kind):
            toeplitz_diagonal(TransformAlgebra(**(vars(alg) | dict(transform=transform))), f)
    toeplitz_diagonal(alg, f)  # the true maps pass


def test_toeplitz_diagonal_needs_closed_forms():
    with pytest.raises(ValueError):
        toeplitz_diagonal(random_unitary_algebra(8), constant(1.0))


# (kind, symbol) with corner parts: any real f in Fourier, an even f in sine and Hartley
CORNER_CASES = [
    ("fourier", parse_trig_expression("2.2+cos+0.4sin2x+0.3cos3x")),
    ("hartley", parse_trig_expression("2.2+cos+0.4cos2x+0.3cos3x")),
    ("sine", parse_trig_expression("2.2+cos+0.4cos2x+0.3cos3x")),
]
# an even band of 63 taps (DIRECT_MAX_TAPS), the widest the eigen-coordinate solve takes
WIDE = Symbol({0: 8.0} | {k: 0.5 / abs(k) for k in range(-31, 32) if k})
WIDE_CASES = [(kind, WIDE) for kind in ALGEBRA_KINDS]


def _corner(kind, f, n):
    """(alg, the corner parts of T_n(f), the corner rows I)."""
    alg = make_algebra(kind, n)
    return alg, toeplitz_corner_parts(alg, f), np.r_[: f.degree, n - f.degree : n]


# n = 2d + 1; (q, m) layouts with and without a partial last row (64 = 8 x 8,
# 65 = 7 x 9 + 2, 97 = 9 x 10 + 7, 40001 = 199 x 201 + 2); odd and even n
@pytest.mark.parametrize("kind, f, n", [(*case, n) for case in CORNER_CASES
                                        for n in (7, 64, 65, 96, 97, 40001)]
                         + [(*case, n) for case in WIDE_CASES for n in (63, 200, 4099)])
def test_corner_diagonal_is_the_toeplitz_diagonal(kind, f, n):
    # the projection's eigenvalues c = g + diag(L S L*), with no transform
    alg, form, _ = _corner(kind, f, n)
    c = form.eigenvalues()
    d = toeplitz_diagonal(alg, f)
    assert c.dtype == np.float64 and c.shape == (n,)
    assert np.max(np.abs(c - d)) <= 1e-12 * np.max(np.abs(d)), (kind, n)
    # g_j = f(-x_j) in Fourier, f(x_j) in Hartley and sine
    xs = -alg.grid if kind == "fourier" else alg.grid
    np.testing.assert_allclose(form.g, f.eval_real(xs), rtol=0, atol=1e-12 * np.max(np.abs(d)))


@pytest.mark.parametrize("f", [CORNER_CASES[2][1], WIDE])
def test_sine_corner_parts_evaluate_no_symbol(f, monkeypatch):
    # the sine g is read through L's factors, not from O(n d) exponentials on the grid
    def refuse(self, x):
        raise AssertionError(f"Symbol.eval of {self.label!r} on {np.size(x)} points")

    monkeypatch.setattr(Symbol, "eval", refuse)
    g = toeplitz_corner_parts(make_algebra("sine", 200), f).g
    monkeypatch.undo()
    assert g.dtype == np.float64 and g.shape == (200,)


# n = 2d + 1, odd n with a partial last row of the (q, m) layout, even n; f None
# is the dense columns U* V of a LowRank V V*
@pytest.mark.parametrize("kind, f, n", [(*case, n) for case in CORNER_CASES for n in (7, 65, 96)]
                         + [(*case, 63) for case in WIDE_CASES]
                         + [(*case, n) for case in WIDE_CASES for n in (97, 200)]
                         + [(kind, None, n) for kind in ALGEBRA_KINDS for n in (7, 96)])
def test_corner_columns_match_their_dense_form(kind, f, n):
    rng = np.random.default_rng(n)
    if f is None:  # L = U* V, S = I; V with orthonormal columns, so L* L = I
        alg = make_algebra(kind, n)
        v = np.linalg.qr(rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3)))[0]
        form, low = LowRank(v).form(alg), alg.unitary.conj().T @ v
    else:  # L = U* E_I: for Fourier, the factorization on I and d with column d dropped
        alg, form, rows = _corner(kind, f, n)
        low = alg.unitary.conj().T[:, rows]
        frequencies = {"fourier": 2 * f.degree, "hartley": 2 * f.degree + 1, "sine": 4 * f.degree}
        assert form.coef.shape[0] == frequencies[kind]
    np.testing.assert_allclose(form.delta, np.diag(low @ form.s @ low.conj().T).real, atol=1e-13)
    # gram(h) = L* diag(h) L, the identity for h = 1
    h = np.vstack((np.ones(n), rng.standard_normal((3, n))))
    gram = form.gram(h)
    np.testing.assert_allclose(gram, np.einsum("ki,bk,kj->bij", low.conj(), h, low),
                               rtol=0, atol=1e-12 * np.sqrt(n))
    np.testing.assert_allclose(gram[0], np.eye(low.shape[1]), rtol=0, atol=1e-12 * np.sqrt(n))
    if f is None:
        return
    corner = form.columns
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    z = rng.standard_normal(low.shape[1]) + 0j
    np.testing.assert_allclose(corner.apply(form.coef @ z), low @ z, atol=1e-13)
    for size in (1, 10, n):  # one row per block, a few rows, one block
        blocks = corner.blocks(size)
        assert np.concatenate([np.arange(n)[el] for el, _ in blocks]).tolist() == list(range(n))
        gathered = sum(corner.adjoint(v[el], qs) for el, qs in blocks)
        np.testing.assert_allclose(form.coef.conj().T @ gathered, low.conj().T @ v, atol=1e-12)
        out = v.copy()
        for el, qs in blocks:
            corner.add_to(out[el], form.coef @ z, qs)
        np.testing.assert_allclose(out, v + low @ z, atol=1e-12)


@pytest.mark.parametrize("n", [7, 64, 65, 97])
def test_paired_gram_is_the_reflected_dense_gram(n):
    # Fourier corner columns have Pi L = conj(Y) C for the reflection Pi,
    # k -> -k mod n: L* diag(b) Pi L is read on the frequency sums
    alg, form, rows = _corner(*CORNER_CASES[0], n)
    low, flip = alg.unitary.conj().T[:, rows], -np.arange(n) % n
    rng = np.random.default_rng(n)
    h = rng.standard_normal((3, n))
    b = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    want = (np.einsum("ki,bk,kj->bij", low.conj(), h, low)
            + np.einsum("ki,bk,kj->bij", low.conj(), b, low[flip]))
    np.testing.assert_allclose(form.gram(h, b), want, rtol=0, atol=1e-12 * np.sqrt(n))


@pytest.mark.parametrize("kind", ALGEBRA_KINDS)
def test_check_transform(kind):
    alg = make_algebra(kind, 33)
    check_transform(alg)

    def scaled(x, out=None):
        return np.multiply(alg.transform(x), 1 + 1e-6, out=out)

    with pytest.raises(NotUnitaryError, match=kind):
        check_transform(TransformAlgebra(**(vars(alg) | dict(transform=scaled))))


# ---------------------------------------------------------------------------
# pinching


def test_pinch_single_block_is_identity():
    a = seeded_matrix(6, 4)
    assert np.array_equal(pinch(single_block_partition(6), a), a)


def test_pinch_singletons_is_diagonal():
    a = seeded_matrix(6, 5)
    np.testing.assert_allclose(
        pinch(singleton_partition(6), a), np.diag(np.diag(a)), atol=0
    )


def test_pinch_two_blocks_on_ones():
    ones = np.ones((3, 3), dtype=complex)
    out = pinch([0, 0, 1], ones)
    np.testing.assert_allclose(
        out.real, [[1, 1, 0], [1, 1, 0], [0, 0, 1]], atol=0
    )


def test_pinch_non_contiguous_labels_is_the_sum_of_block_compressions():
    a = seeded_matrix(5, 12)
    labels = [0, 1, 0, 1, 2]
    dense = sum(p @ a @ p for p in (np.diag(np.equal(labels, k)).astype(complex)
                                    for k in range(3)))
    np.testing.assert_array_equal(pinch(labels, a), dense)


def test_partitions_are_label_vectors():
    assert np.array_equal(contiguous_partition(7, 3), [0, 0, 0, 1, 1, 1, 2])
    assert np.array_equal(singleton_partition(4), [0, 1, 2, 3])
    assert np.array_equal(single_block_partition(4), [0, 0, 0, 0])


def test_project_pinched_reductions():
    a = seeded_matrix(8, 6)
    for alg in all_algebras(8):
        plain = project(alg, a)
        fine = project_pinched(alg, singleton_partition(8), a)
        np.testing.assert_allclose(fine, plain, atol=1e-11)
        whole = project_pinched(alg, single_block_partition(8), a)
        np.testing.assert_allclose(whole, a, atol=1e-11)


def test_project_pinched_pythagoras():
    a = seeded_matrix(8, 7, hermitian=True)
    alg = make_algebra("hartley", 8)
    p = project_pinched(alg, contiguous_partition(8, 2), a)
    lhs = frobenius_norm_sq(a - p)
    rhs = frobenius_norm_sq(a) - frobenius_norm_sq(p)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_pinched_is_at_least_as_close_as_plain():
    a = seeded_matrix(12, 8)
    for alg in all_algebras(12):
        plain = frobenius_norm_sq(a - project(alg, a))
        for size in (2, 3, 4):
            pinched = frobenius_norm_sq(
                a - project_pinched(alg, contiguous_partition(12, size), a)
            )
            assert pinched <= plain + 1e-10


def test_pinched_identities():
    a = seeded_matrix(9, 10)
    b = seeded_matrix(9, 11)
    alg = make_algebra("sine", 9)
    part = contiguous_partition(9, 3)
    pa = project_pinched(alg, part, a)
    pb = project_pinched(alg, part, b)
    lin = project_pinched(alg, part, 1.5 * a - 2j * b) - (1.5 * pa - 2j * pb)
    assert np.max(np.abs(lin)) < 1e-11
    np.testing.assert_allclose(
        project_pinched(alg, part, a.conj().T), pa.conj().T, atol=1e-11
    )
    assert abs(np.trace(pa) - np.trace(a)) < 1e-10 * (1 + abs(np.trace(a)))


# ---------------------------------------------------------------------------
# complete positivity: the Choi matrix sum_jk E_jk (x) Phi(E_jk) is PSD


def _choi(phi, n):
    choi = np.zeros((n * n, n * n), dtype=np.complex128)
    for j in range(n):
        for k in range(n):
            unit = np.zeros((n, n), dtype=np.complex128)
            unit[j, k] = 1.0
            choi[j * n:(j + 1) * n, k * n:(k + 1) * n] = phi(unit)
    return choi


def _smallest_choi_eigenvalue(phi, n):
    choi = _choi(phi, n)
    assert np.max(np.abs(choi - choi.conj().T)) <= 1e-12
    return np.linalg.eigvalsh(choi)[0]


@pytest.mark.parametrize("kind", ALGEBRA_KINDS + ("custom",))
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_projections_are_completely_positive(kind, n):
    # A -> U diag(U* A U) U* has Kraus operators u_i u_i*, the pinched map one
    # projection U P_k U* per block
    alg = random_unitary_algebra(n, seed=n) if kind == "custom" else make_algebra(kind, n)
    maps = [lambda m: project(alg, m)] + [
        lambda m, part=part: project_pinched(alg, part, m)
        for part in (singleton_partition(n), contiguous_partition(n, 2),
                     single_block_partition(n), np.array([0, 1, 0, 1, 2, 2, 1, 0])[:n])
    ]
    for phi in maps:
        assert _smallest_choi_eigenvalue(phi, n) >= -1e-12
    # the transpose is positive but not completely positive: the check sees it
    assert _smallest_choi_eigenvalue(lambda m: m.T, n) <= -1.0 + 1e-12


# ---------------------------------------------------------------------------
# guards: (call, error, message fragment)

GUARDS = [
    pytest.param(lambda: make_algebra("fourier", 1), ValueError, "order must be >= 2",
                 id="order"),
    pytest.param(lambda: make_algebra("cosine", 4), ValueError, "unknown algebra kind",
                 id="kind"),
    pytest.param(lambda: project_toeplitz_fast(constant(1.0), 0), ValueError,
                 "order must be >= 1", id="fast-order"),
    pytest.param(lambda: contiguous_partition(4, 0), ValueError, "block_size must be >= 1",
                 id="block-size"),
    pytest.param(lambda: pinch(contiguous_partition(4, 2), np.eye(5)), DimensionMismatchError,
                 "do not match matrix order 5", id="partition-length"),
    # a NaN makes every `bad > bound` false: each check is written `not value <= bound`
    pytest.param(lambda: custom_algebra(np.full((2, 2), np.nan)), NotUnitaryError,
                 "not unitary: defect nan", id="nan-unitary"),
    pytest.param(lambda: eigenbasis(make_algebra("sine", 4), np.full((4, 4), np.nan)),
                 NotUnitaryError, "norm defect nan", id="nan-norm-kept"),
    pytest.param(
        lambda: check_transform(TransformAlgebra(**(vars(make_algebra("fourier", 4)) | {
            "inverse": lambda z, out=None: np.full_like(z, np.nan)}))),
        NotUnitaryError, "round-trip error nan", id="nan-round-trip",
    ),
    pytest.param(lambda: toeplitz_diagonal(make_algebra("sine", 8), Symbol({0: float("nan")})),
                 InvariantViolationError, "trace identity: defect nan", id="nan-trace"),
]


@pytest.mark.parametrize("call, error, fragment", GUARDS)
def test_guard_raises(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
