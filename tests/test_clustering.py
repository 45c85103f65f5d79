"""Tests for cluster quantification and classification."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precondlab import algebras, clustering
from precondlab.algebras import (
    ALGEBRA_KINDS,
    TransformAlgebra,
    make_algebra,
    project,
    project_toeplitz_fast,
    random_unitary_algebra,
    toeplitz_band_form,
    toeplitz_corner_form,
    toeplitz_diagonal,
)
from precondlab.clustering import (
    BAND_MIN_ORDER,
    DEFAULT_EPS_GRID,
    DEFAULT_LADDER,
    LowRank,
    _algebra_deviations,
    _band_blocks,
    _band_counts,
    _band_inertia_counts,
    _ldl_pivots,
    _structured_counts,
    build_cluster_report,
    classify,
    classify_frobenius,
    preconditioned_eigenvalues,
)
from precondlab.errors import (
    DimensionMismatchError,
    InsufficientLadderError,
    InvariantViolationError,
    NotPositiveDefiniteError,
)
from precondlab.symbols import Symbol, parse_trig_expression
from precondlab.toeplitz import ToeplitzOperator, toeplitz_section
from test_solver import _corrupted_corner

LADDER = (64, 128, 256, 512)
EPS = (0.1, 0.01)


def table(counts_per_n, ladder=LADDER, eps=EPS):
    return {(n, e): c for n, c in zip(ladder, counts_per_n) for e in eps}


# ---------------------------------------------------------------------------
# outlier counts of dense pairs: singular values of A_n - B_n at or above eps


def dense_report(pairs_of, ladder, eps):
    return build_cluster_report({n: pairs_of(n) for n in ladder}, eps)


def test_outliers_zero_difference():
    report = dense_report(lambda n: (np.eye(n), np.eye(n)), (4, 8, 16, 32), (1.0, 0.1, 1e-6))
    assert set(report.counts.values()) == {0}


def test_outliers_by_inspection():
    def pair(n):
        return np.diag([5.0, 0.01] + [0.0] * (n - 2)), np.zeros((n, n))

    assert set(dense_report(pair, (4, 8, 16, 32), (0.1,)).counts.values()) == {1}


def test_outliers_toeplitz_vs_circulant_matches_svd_oracle():
    f = parse_trig_expression("2+cos")
    ladder = (8, 16, 32, 64)
    report = dense_report(lambda n: (toeplitz_section(f, n), project_toeplitz_fast(f, n)),
                          ladder, (0.05,))
    for n in ladder:
        a, b = toeplitz_section(f, n), project_toeplitz_fast(f, n)
        # independent oracle: count from the Gram-matrix eigenvalues
        gram = (a - b).conj().T @ (a - b)
        sigma = np.sqrt(np.clip(np.linalg.eigvalsh(gram), 0.0, None))
        assert report.counts[(n, 0.05)] == int(np.count_nonzero(sigma >= 0.05))


def test_outliers_validation():
    for eps in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            build_cluster_report({n: (np.eye(n), np.eye(n)) for n in (4, 8, 16, 32)}, (0.1, eps))


def test_outliers_match_eigenvalue_interval_count_for_hermitian():
    # for Hermitian differences the singular values are |eigenvalues|, so
    # the count of eigenvalues outside (-eps, eps) is the outlier count
    rng = np.random.default_rng(12)
    ladder, eps = (2, 4, 8, 16), (0.1, 0.5, 1.0, 2.0)
    hermitian = {}
    for n in ladder:
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        hermitian[n] = 0.5 * (m + m.conj().T)
    report = dense_report(lambda n: (hermitian[n], np.zeros((n, n))), ladder, eps)
    for n in ladder:
        for e in eps:
            eig_count = int(np.count_nonzero(np.abs(np.linalg.eigvalsh(hermitian[n])) >= e))
            assert report.counts[(n, e)] == eig_count


def test_outliers_nonincreasing_in_eps():
    rng = np.random.default_rng(3)
    ladder, eps = (5, 10, 20, 40), (0.01, 0.1, 0.5, 1.0, 5.0)
    report = dense_report(
        lambda n: (rng.standard_normal((n, n)), rng.standard_normal((n, n))), ladder, eps)
    for n in ladder:
        counts = [report.counts[(n, e)] for e in eps]
        assert counts == sorted(counts, reverse=True)
        assert all(0 <= c <= n for c in counts)


# ---------------------------------------------------------------------------
# classify


def test_classify_constant_table_is_uniform():
    cls, _ = classify(table([3, 3, 3, 3]), LADDER, EPS)
    assert cls == "uniform"


def test_classify_eps_dependent_plateau_is_strong():
    counts = {(n, 0.1): 7 for n in LADDER}
    counts.update({(n, 0.01): 19 for n in LADDER})
    cls, _ = classify(counts, LADDER, EPS)
    assert cls == "strong"


def test_classify_sqrt_growth_is_weak():
    counts = table([int(np.ceil(np.sqrt(n))) for n in LADDER])
    cls, slopes = classify(counts, LADDER, EPS)
    assert cls == "weak"
    assert all(abs(s - 0.5) < 0.1 for s in slopes.values())


def test_classify_linear_growth_is_none():
    cls, slopes = classify(table([int(0.3 * n) for n in LADDER]), LADDER, EPS)
    assert cls == "none"
    assert all(s > 0.8 for s in slopes.values())


def test_classify_deterministic():
    counts = table([5, 4, 4, 5])
    assert classify(counts, LADDER, EPS) == classify(counts, LADDER, EPS)


def test_classify_ladder_validation():
    with pytest.raises(InsufficientLadderError):
        classify(table([1, 1, 1], ladder=(64, 128, 256)), (64, 128, 256), EPS)
    with pytest.raises(InsufficientLadderError):
        bad = (64, 128, 256, 500)
        classify(table([1, 1, 1, 1], ladder=bad), bad, EPS)


# ---------------------------------------------------------------------------
# frobenius criterion


def test_frobenius_identical_sequences_strong():
    assert dense_report(lambda n: (np.eye(n), np.eye(n)), LADDER, EPS).frobenius_verdict == "strong"


def test_frobenius_log_growth_not_strong_but_weak():
    dsq = [np.log(n) for n in LADDER]
    assert classify_frobenius(LADDER, dsq) == "weak"


def test_frobenius_linear_growth_inconclusive():
    assert classify_frobenius(LADDER, [0.5 * n for n in LADDER]) == "inconclusive"


def test_frobenius_round_off_is_zero_against_the_scale():
    # d(n) at round-off of ||A_n||_F^2 reads as exactly 0; without the scale it is noise
    noise = [1e-29, 3e-29, 2e-28, 6e-28]
    assert classify_frobenius(LADDER, noise) == "inconclusive"
    assert classify_frobenius(LADDER, noise, [float(n) for n in LADDER]) == "strong"
    assert classify_frobenius(LADDER, [0.5 * n for n in LADDER], LADDER) == "inconclusive"


def test_frobenius_toeplitz_vs_circulant_strong():
    f = parse_trig_expression("2+cos")
    report = dense_report(lambda n: (toeplitz_section(f, n), project_toeplitz_fast(f, n)),
                          LADDER, EPS)
    assert report.frobenius_verdict == "strong"


# ---------------------------------------------------------------------------
# preconditioned spectrum


def off_one(values, eps):
    """Preconditioned eigenvalues outside (1 - eps, 1 + eps)."""
    return int(np.count_nonzero(np.abs(values - 1.0) >= eps))


def test_preconditioned_equal_matrices():
    a = np.diag([2.0, 3.0, 4.0])
    values, delta = preconditioned_eigenvalues(a, a)
    np.testing.assert_allclose(values, np.ones(3), atol=1e-12)
    assert off_one(values, 0.1) == 0
    assert delta == pytest.approx(2.0)


def test_preconditioned_scaling():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((6, 6))
    b = m @ m.T + 6.0 * np.eye(6)
    values, _ = preconditioned_eigenvalues(2.0 * b, b)
    np.testing.assert_allclose(values, 2.0 * np.ones(6), atol=1e-10)
    assert off_one(values, 0.5) == 6


def test_preconditioned_outliers_match_nonsymmetric_eig_oracle():
    f = parse_trig_expression("2+cos")
    a = toeplitz_section(f, 256)
    b = project_toeplitz_fast(f, 256)
    values, _ = preconditioned_eigenvalues(a, b)
    # oracle: eigenvalues of B^{-1} A via the general (non-Hermitian) solver
    eig = np.linalg.eigvals(np.linalg.solve(b, a))
    assert np.max(np.abs(eig.imag)) < 1e-8
    oracle = int(np.count_nonzero(np.abs(eig.real - 1.0) >= 0.1))
    assert off_one(values, 0.1) == oracle


def test_preconditioned_rejects_non_hermitian():
    a = np.triu(np.ones((4, 4)))
    with pytest.raises(NotPositiveDefiniteError, match="A must be Hermitian"):
        preconditioned_eigenvalues(a, np.eye(4))


def test_preconditioned_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        preconditioned_eigenvalues(np.eye(3), np.diag([1.0, -1.0, 1.0]))


def test_preconditioned_congruence_invariance():
    rng = np.random.default_rng(21)
    m = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    a = 0.5 * (m + m.conj().T)
    w = rng.standard_normal((10, 10))
    b = w @ w.T + 10.0 * np.eye(10)
    q, _ = np.linalg.qr(rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10)))
    before, _ = preconditioned_eigenvalues(a, b)
    after, _ = preconditioned_eigenvalues(q.conj().T @ a @ q, q.conj().T @ b @ q)
    np.testing.assert_allclose(np.sort(after), np.sort(before), atol=1e-9)
    assert off_one(after, 0.25) == off_one(before, 0.25)


# ---------------------------------------------------------------------------
# report assembly


def test_build_report_toeplitz_vs_projection():
    f = parse_trig_expression("2+cos")
    pairs = {}
    for n in DEFAULT_LADDER:
        a = toeplitz_section(f, n)
        pairs[n] = (a, project_toeplitz_fast(f, n))
    report = build_cluster_report(pairs, DEFAULT_EPS_GRID, label="2+cos fourier")
    assert report.classification in ("strong", "uniform")
    assert report.frobenius_verdict == "strong"
    rows = report.csv_rows()
    assert len(rows) == len(DEFAULT_LADDER) * len(DEFAULT_EPS_GRID)
    for n, eps, count, fro in rows:
        assert 0 <= count <= n and fro >= 0.0


def test_build_report_random_unitary_is_none():
    f = parse_trig_expression("2+cos")
    pairs = {}
    for n in DEFAULT_LADDER:
        a = toeplitz_section(f, n)
        alg = random_unitary_algebra(n, seed=1000 + n)
        pairs[n] = (a, project(alg, a))
    report = build_cluster_report(pairs, DEFAULT_EPS_GRID)
    assert report.classification == "none"


def test_build_report_preconditioned_mode():
    f = parse_trig_expression("2+cos")
    pairs = {}
    for n in DEFAULT_LADDER:
        a = toeplitz_section(f, n)
        pairs[n] = (a, project_toeplitz_fast(f, n))
    report = build_cluster_report(pairs, (0.2, 0.1), mode="preconditioned")
    assert report.classification in ("strong", "uniform")
    tail = [report.counts[(n, 0.1)] for n in report.ladder[-3:]]
    assert max(tail) - min(tail) <= 1


# ---------------------------------------------------------------------------
# algebra pairs: spectra read off the eigenbasis against the dense definition

HERMITIAN_SYMBOL = Symbol(
    {0: 3.0, 1: 0.61 + 0.27j, -1: 0.61 - 0.27j, 2: 0.33 - 0.18j, -2: 0.33 + 0.18j}
)
NON_HERMITIAN_SYMBOL = Symbol({0: 2.0, 1: 0.7, -1: 0.2 + 0.3j, 3: 0.4j})
PAIR_KINDS = ALGEBRA_KINDS + ("custom",)


def _algebra(kind, n):
    if kind == "custom":
        return random_unitary_algebra(n, seed=100 + n)
    return make_algebra(kind, n)


@pytest.mark.parametrize("kind", PAIR_KINDS)
@pytest.mark.parametrize(
    "symbol, mode",
    [
        (HERMITIAN_SYMBOL, "difference"),
        (HERMITIAN_SYMBOL, "preconditioned"),
        (NON_HERMITIAN_SYMBOL, "difference"),  # the svd branch
    ],
)
@pytest.mark.parametrize("start", [2, 3, 5])
def test_algebra_pairs_match_dense_pairs(kind, symbol, mode, start):
    ladder = tuple(start * 2**k for k in range(4))
    sections = {n: toeplitz_section(symbol, n) for n in ladder}
    algs = {n: _algebra(kind, n) for n in ladder}
    fast = build_cluster_report(
        {n: (sections[n], algs[n]) for n in ladder}, DEFAULT_EPS_GRID, mode=mode
    )
    dense = build_cluster_report(
        {n: (sections[n], project(algs[n], sections[n])) for n in ladder},
        DEFAULT_EPS_GRID,
        mode=mode,
    )
    assert fast.counts == dense.counts
    assert fast.classification == dense.classification
    assert fast.frobenius_verdict == dense.frobenius_verdict
    for n in ladder:
        scale = np.sum(np.abs(sections[n]) ** 2)
        assert abs(fast.frobenius_sq[n] - dense.frobenius_sq[n]) <= 1e-10 * scale


def test_algebra_pairs_preconditioned_rejects_non_hermitian():
    pairs = {n: (toeplitz_section(NON_HERMITIAN_SYMBOL, n), make_algebra("sine", n))
             for n in (4, 8, 16, 32)}
    with pytest.raises(NotPositiveDefiniteError, match="A must be Hermitian"):
        build_cluster_report(pairs, mode="preconditioned")


def test_algebra_pairs_preconditioned_rejects_indefinite():
    f = parse_trig_expression("cos")
    pairs = {n: (toeplitz_section(f, n), make_algebra("sine", n)) for n in (16, 32, 64, 128)}
    with pytest.raises(NotPositiveDefiniteError, match="B is not positive definite"):
        build_cluster_report(pairs, mode="preconditioned")


def test_algebra_pairs_unknown_mode():
    pairs = {n: (np.eye(n), make_algebra("fourier", n)) for n in (4, 8, 16, 32)}
    with pytest.raises(ValueError, match="unknown mode"):
        build_cluster_report(pairs, mode="sideways")


# ---------------------------------------------------------------------------
# structured counts: W = diag(g) + L S L* against the dense W


def _dense_counts(a, alg, mode, epsilons=DEFAULT_EPS_GRID):
    fro, deviations = _algebra_deviations(a, alg, mode)
    return fro, {e: int(np.count_nonzero(deviations >= e)) for e in epsilons}


def _real_symbol(rng, degree, even, floor=0.2):
    """A real symbol of the given degree with min f = floor * (max f - min f)."""
    coeffs = {}
    for k in range(1, degree + 1):
        a = complex(rng.uniform(-1.0, 1.0), 0.0 if even else rng.uniform(-1.0, 1.0))
        coeffs[k], coeffs[-k] = a, a.conjugate()
    values = Symbol(coeffs).eval_real(np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False))
    coeffs[0] = floor * (values.max() - values.min()) - values.min()
    return Symbol(coeffs)


def _assert_structured_matches_dense(a_dense, structured, alg, mode):
    fro, counts = _dense_counts(a_dense, alg, mode)
    assert structured[1] == counts, (alg.kind, alg.order, mode)
    # relative, with a floor at round-off of ||A||_F^2 where A lies in the algebra
    assert abs(structured[0] - fro) <= 1e-12 * max(fro, np.sum(np.abs(a_dense) ** 2) * 1e-12)


@pytest.mark.parametrize("kind", ALGEBRA_KINDS)
@pytest.mark.parametrize("mode", ["difference", "preconditioned"])
@pytest.mark.parametrize("n", [3, 5, 8, 64, 129, 1024])
def test_structured_counts_match_dense_for_even_symbols(kind, mode, n):
    f = parse_trig_expression("3+cos+0.5cos2x+0.7cos3x")
    alg = make_algebra(kind, n)
    structured = _structured_counts(f, alg, mode, DEFAULT_EPS_GRID)
    if n < 2 * f.degree + 1:
        assert structured is None
        return
    assert structured is not None
    _assert_structured_matches_dense(toeplitz_section(f, n), structured, alg, mode)


@pytest.mark.parametrize("kind", ALGEBRA_KINDS)
@pytest.mark.parametrize("mode", ["difference", "preconditioned"])
@pytest.mark.parametrize("degree", [8, 15, 31])
def test_structured_counts_match_dense_for_wide_bands(kind, mode, degree):
    # bands of 17 to 63 taps from n = 2d + 1 up; an odd part only where Fourier takes it
    f = _real_symbol(np.random.default_rng(degree), degree, even=kind != "fourier")
    for n in (2 * degree + 1, 2 * degree + 2, 100, 257):
        alg = make_algebra(kind, n)
        structured = _structured_counts(f, alg, mode, DEFAULT_EPS_GRID)
        assert structured is not None, n
        _assert_structured_matches_dense(toeplitz_section(f, n), structured, alg, mode)


def test_wide_band_count_stays_small_in_memory():
    # L is never formed: one count of a 63-tap band at n = 8192 stays within
    # 100 vectors of n complex numbers, where a dense n x 2d L with its
    # per-shift products takes ~700
    n, f = 8192, Symbol({0: 8.0} | {k: 0.5 / abs(k) for k in range(-31, 32) if k})
    alg = make_algebra("fourier", n)
    tracemalloc.start()
    try:
        structured = _structured_counts(f, alg, "difference", DEFAULT_EPS_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert structured is not None
    assert peak <= 100 * 16 * n


@pytest.mark.parametrize("mode", ["difference", "preconditioned"])
@pytest.mark.parametrize("n", [8, 64, 129])
def test_structured_counts_take_any_real_fourier_symbol(mode, n):
    alg = make_algebra("fourier", n)
    structured = _structured_counts(HERMITIAN_SYMBOL, alg, mode, DEFAULT_EPS_GRID)
    assert structured is not None
    _assert_structured_matches_dense(toeplitz_section(HERMITIAN_SYMBOL, n), structured, alg, mode)


def test_structured_diagonal_is_the_toeplitz_diagonal():
    f = parse_trig_expression("3+cos+0.5cos2x+0.7cos3x")
    for kind in ALGEBRA_KINDS:
        alg = make_algebra(kind, 64)
        diagonal = toeplitz_corner_form(alg, f).eigenvalues()
        assert np.max(np.abs(diagonal - toeplitz_diagonal(alg, f))) <= 1e-12, kind


def test_structured_counts_fall_back_where_the_form_fails():
    odd = parse_trig_expression("3+cos+0.5sin2x")
    for kind in ("sine", "hartley"):
        assert toeplitz_corner_form(make_algebra(kind, 64), odd) is None
    assert toeplitz_corner_form(make_algebra("fourier", 64), odd) is not None
    assert toeplitz_corner_form(make_algebra("fourier", 64), NON_HERMITIAN_SYMBOL) is None
    assert toeplitz_corner_form(random_unitary_algebra(16, seed=1), odd) is None
    fourier = make_algebra("fourier", 16)
    assert _structured_counts(np.eye(16), fourier, "difference", (0.1,)) is None


EVEN_SYMBOL = parse_trig_expression("3+cos+0.5cos2x+0.7cos3x")


def _scaled_sine_grid(n):
    """A sine algebra whose grid, and so its g and diagonal, is off by 1e-6."""
    alg = make_algebra("sine", n)
    return TransformAlgebra(**(vars(alg) | dict(grid=alg.grid * (1 + 1e-6))))


def _report_counts(f, algebra_of, ladder, mode):
    report = build_cluster_report({n: (f, algebra_of(n)) for n in ladder}, mode=mode)
    return {n: {e: report.counts[(n, e)] for e in DEFAULT_EPS_GRID} for n in ladder}


@pytest.mark.parametrize("kind", ALGEBRA_KINDS)
@pytest.mark.parametrize("mode", ["difference", "preconditioned"])
def test_a_failed_corner_check_counts_like_the_dense_path(kind, mode):
    # L* U* x = x_I fails: the band path counts from BAND_MIN_ORDER, the dense path below
    f, ladder, corrupted = EVEN_SYMBOL, (32, 64, 128, 256), _corrupted_corner(kind)
    for n in ladder:
        assert toeplitz_corner_form(corrupted(n), f) is None
    assert _band_counts(f, corrupted(256), mode, DEFAULT_EPS_GRID) is not None
    got = _report_counts(f, corrupted, ladder, mode)
    want = {n: _dense_counts(toeplitz_section(f, n), make_algebra(kind, n), mode)[1]
            for n in ladder}
    assert got == want


@pytest.mark.parametrize("mode", ["difference", "preconditioned"])
def test_a_failed_corner_probe_counts_like_the_dense_path(mode):
    # g off the grid fails the probe of T x; from BAND_MIN_ORDER the trace check refuses it
    f, ladder = EVEN_SYMBOL, (16, 32, 64, 128)
    for n in ladder:
        assert toeplitz_corner_form(_scaled_sine_grid(n), f) is None
    got = _report_counts(f, _scaled_sine_grid, ladder, mode)
    want = {n: _dense_counts(toeplitz_section(f, n), make_algebra("sine", n), mode)[1]
            for n in ladder}
    assert got == want
    with pytest.raises(InvariantViolationError, match="trace identity"):
        _report_counts(f, _scaled_sine_grid, (192, 384, 768, 1536), mode)


def test_structured_counts_in_the_algebra_are_exactly_zero():
    # the tau algebra contains T_n(2 - 2cos + 0.01): S is all round-off
    f = parse_trig_expression("2-2cos+delta(0.01)")
    for mode in ("difference", "preconditioned"):
        fro, counts = _structured_counts(f, make_algebra("sine", 64), mode, DEFAULT_EPS_GRID)
        assert fro == 0.0 and set(counts.values()) == {0}


def test_structured_counts_fall_back_at_a_tie():
    # U* e_0 e_0* U = J / n in the Fourier basis: offdiag(W) = (J - I) / n has
    # the eigenvalue -1/n n - 1 times, a tie at eps = 1/n
    n = 8
    e0 = np.zeros((n, 1))
    e0[0] = 1.0
    alg = make_algebra("fourier", n)
    assert _structured_counts(LowRank(e0), alg, "difference", (1.0 / n,)) is None
    assert _structured_counts(LowRank(e0), alg, "difference", (0.5,))[1] == {0.5: 1}
    # the report falls back to the dense W there, which round-off decides
    ladder = (8, 16, 32, 64)
    tie = build_cluster_report(
        {m: (LowRank(np.eye(m, 1)), make_algebra("fourier", m)) for m in ladder}, (1.0 / n,)
    )
    dense = _dense_counts(e0 @ e0.T, alg, "difference", (1.0 / n,))[1]
    assert tie.counts[(n, 1.0 / n)] == dense[1.0 / n]
    assert [tie.counts[(m, 1.0 / n)] for m in ladder[1:]] == [1, 1, 1]


SUBNORMAL_INPUTS = {
    "symbol": lambda m: parse_trig_expression("2+cos"),
    "rank1": lambda m: LowRank(0.5 ** np.arange(m)[:, None]),
}


@pytest.mark.parametrize("source", SUBNORMAL_INPUTS)
@pytest.mark.parametrize("mode", ["difference", "preconditioned"])
def test_subnormal_eps_counts_are_the_dense_counts(source, mode):
    # at eps = 1e-320, 1/G overflows to inf while the tie bound on G underflows
    # to 0: the count must fall back, not read 17 outliers off a 16 x 16 matrix
    make, n, epsilons = SUBNORMAL_INPUTS[source], 16, (1e-320, 0.1)
    report = build_cluster_report(
        {m: (make(m), make_algebra("fourier", m)) for m in (n, 2 * n, 4 * n, 8 * n)},
        epsilons, mode=mode,
    )
    a = clustering._as_matrix(make(n), n)
    _, dense = _dense_counts(a, make_algebra("fourier", n), mode, epsilons)
    for eps in epsilons:
        assert report.counts[(n, eps)] == dense[eps] <= n


@pytest.mark.parametrize("kind", ALGEBRA_KINDS)
@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("mode", ["difference", "preconditioned"])
def test_rank_one_ties_fall_back(kind, n, mode):
    # eps at each of the six largest dense deviations: with r = 1 the Schur
    # complement is one number, so a tie is measured against the terms that
    # form it, never against itself
    ladder = (n // 8, n // 4, n // 2, n)
    factors = {m: (0.7 ** np.arange(m))[:, None] for m in ladder}
    algs = {m: make_algebra(kind, m) for m in ladder}
    _, deviations = _algebra_deviations(factors[n] @ factors[n].T, algs[n], mode)
    epsilons = tuple(float(e) for e in np.sort(deviations)[-6:])
    for eps in epsilons:
        assert _structured_counts(LowRank(factors[n]), algs[n], mode, (eps,)) is None, eps
    lazy = build_cluster_report(
        {m: (LowRank(factors[m]), algs[m]) for m in ladder}, epsilons, mode=mode
    )
    dense = build_cluster_report(
        {m: (factors[m] @ factors[m].T, algs[m]) for m in ladder}, epsilons, mode=mode
    )
    assert lazy.counts == dense.counts


@pytest.mark.parametrize("kind", PAIR_KINDS)
@pytest.mark.parametrize("p", [0.3, 0.8])
@pytest.mark.parametrize("n", [8, 64, 256])
def test_low_rank_counts_match_dense(kind, p, n):
    u = np.stack([p ** np.arange(n), 1.0 / (1.0 + np.arange(n)) ** 1.5], axis=1)
    alg = _algebra(kind, n)
    for mode in ("difference", "preconditioned"):
        try:
            dense = _dense_counts(u @ u.T, alg, mode)
        except NotPositiveDefiniteError:
            with pytest.raises(NotPositiveDefiniteError):
                _structured_counts(LowRank(u), alg, mode, DEFAULT_EPS_GRID)
            continue
        structured = _structured_counts(LowRank(u), alg, mode, DEFAULT_EPS_GRID)
        assert structured[1] == dense[1], mode
        assert abs(structured[0] - dense[0]) <= 1e-12 * dense[0]


def test_symbol_pairs_match_section_pairs():
    ladder = (16, 32, 64, 128)
    for f in (parse_trig_expression("2+cos+0.5cos2x"), parse_trig_expression("2+cos+0.5sin2x")):
        for kind in ALGEBRA_KINDS:
            algs = {n: make_algebra(kind, n) for n in ladder}
            lazy = build_cluster_report({n: (f, algs[n]) for n in ladder})
            dense = build_cluster_report({n: (toeplitz_section(f, n), algs[n]) for n in ladder})
            assert lazy.counts == dense.counts and lazy.classification == dense.classification
            for n in ladder:
                gap = abs(lazy.frobenius_sq[n] - dense.frobenius_sq[n])
                assert gap <= 1e-12 * dense.frobenius_sq[n]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    degree=st.integers(1, 4),
    even=st.booleans(),
    n=st.integers(5, 256),
    kind=st.sampled_from(ALGEBRA_KINDS),
    mode=st.sampled_from(["difference", "preconditioned"]),
)
def test_structured_counts_fuzz_against_dense(seed, degree, even, n, kind, mode):
    f = _real_symbol(np.random.default_rng(seed), degree, even)
    alg = make_algebra(kind, n)
    form = toeplitz_corner_form(alg, f)
    if 2 * degree >= n:
        assert form is None
    elif not even and kind != "fourier":
        assert form is None  # the odd part is read off the coefficients
    else:
        assert form is not None
    structured = _structured_counts(f, alg, mode, DEFAULT_EPS_GRID)
    if structured is not None:
        _assert_structured_matches_dense(toeplitz_section(f, n), structured, alg, mode)


# ---------------------------------------------------------------------------
# banded counts: odd parts in the sine and Hartley algebras


ODD_SYMBOL = parse_trig_expression("3+cos+0.5sin2x")


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    degree=st.integers(1, 4),
    n=st.one_of(st.sampled_from([2, 3, 4, 5, 7, 9]), st.integers(2, 200)),
    kind=st.sampled_from(ALGEBRA_KINDS),
    mode=st.sampled_from(["difference", "preconditioned"]),
)
def test_band_counts_fuzz_against_dense(seed, degree, n, kind, mode):
    # odd parts, every kind and any order from 2 up, n < 2d + 1 included:
    # the order gate is lifted, so the banded path runs wherever it can
    f = _real_symbol(np.random.default_rng(seed), degree, even=False)
    alg = make_algebra(kind, n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clustering, "BAND_MIN_ORDER", 2)
        banded = _band_counts(f, alg, mode, DEFAULT_EPS_GRID)
    assert banded is not None, (kind, n, mode)
    _assert_structured_matches_dense(toeplitz_section(f, n), banded, alg, mode)


def test_band_form_is_none_without_a_banded_projection():
    assert toeplitz_band_form(make_algebra("sine", 64), NON_HERMITIAN_SYMBOL) is None
    assert toeplitz_band_form(random_unitary_algebra(16, seed=1), ODD_SYMBOL) is None
    # Hartley diagonals with a random unitary's transforms: the trace identity
    # holds, but U diag(g) U* is dense, and the Weyl band check sees it
    hartley = make_algebra("hartley", 64)
    mixed = TransformAlgebra(**(vars(random_unitary_algebra(64, seed=1)) | dict(
        kind="hartley", grid=hartley.grid, lag_weights=hartley.lag_weights)))
    assert toeplitz_band_form(mixed, ODD_SYMBOL) is None
    assert toeplitz_band_form(hartley, ODD_SYMBOL) is not None


@pytest.mark.parametrize("kind", ["sine", "hartley"])
@pytest.mark.parametrize("mode", ["difference", "preconditioned"])
def test_structured_counts_take_odd_parts_in_sine_and_hartley(kind, mode):
    n = 256
    alg = make_algebra(kind, n)
    assert toeplitz_corner_form(alg, ODD_SYMBOL) is None
    structured = _structured_counts(ODD_SYMBOL, alg, mode, DEFAULT_EPS_GRID)
    assert structured is not None
    _assert_structured_matches_dense(toeplitz_section(ODD_SYMBOL, n), structured, alg, mode)


@pytest.mark.parametrize("kind", ["sine", "hartley"])
@pytest.mark.parametrize("mode", ["difference", "preconditioned"])
def test_odd_parts_take_no_corner_probe(kind, mode, monkeypatch):
    # the odd part routes the count before any Toeplitz product: below
    # BAND_MIN_ORDER nothing is probed, above it only the band form's check
    built = []

    class Counted(ToeplitzOperator):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(algebras, "ToeplitzOperator", Counted)
    for n, probes in ((64, 0), (256, 1)):
        built.clear()
        _structured_counts(ODD_SYMBOL, make_algebra(kind, n), mode, DEFAULT_EPS_GRID)
        assert len(built) == probes, n


@pytest.mark.parametrize("kind", ["sine", "hartley"])
def test_band_counts_fall_back_at_a_pivot_tie(kind):
    # eps at an eigenvalue of the first pivot, the second diagonal block of
    # M in the pairing order: M -+ eps I has a singular pivot
    n = 256
    alg = make_algebra(kind, n)
    _, m_band, _ = toeplitz_band_form(alg, ODD_SYMBOL)
    diag, _ = _band_blocks(m_band, m_band.shape[1] - 1)
    eps = float(np.max(np.abs(np.linalg.eigvalsh(diag[1]))))
    assert _band_counts(ODD_SYMBOL, alg, "difference", (eps, 0.1)) is None
    assert _structured_counts(ODD_SYMBOL, alg, "difference", (eps, 0.1)) is None
    assert _band_counts(ODD_SYMBOL, alg, "difference", (0.1,)) is not None
    # the report takes the dense W at that size
    ladder = (32, 64, 128, 256)
    report = build_cluster_report(
        {m: (ODD_SYMBOL, make_algebra(kind, m)) for m in ladder}, (eps, 0.1))
    dense = _dense_counts(toeplitz_section(ODD_SYMBOL, n), alg, "difference", (eps, 0.1))
    assert {e: report.counts[(n, e)] for e in (eps, 0.1)} == dense[1]


def _eigh_pivots(rows, scale):
    """Every pivot flagged: the banded counts then take eigh on each, the reference."""
    d, x, tie = _ldl_pivots(rows, scale)
    return d, x, np.ones_like(tie)


@pytest.mark.parametrize("kind", ["sine", "hartley"])
@pytest.mark.parametrize("mode", ["difference", "preconditioned"])
@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_ldl_pivot_counts_match_eigh_pivots_and_dense(kind, mode, degree, monkeypatch):
    # blocks of 2d + 1 rows: each degree meets a padded last block among these n
    f = _real_symbol(np.random.default_rng(degree), degree, even=False)
    for n in (BAND_MIN_ORDER, 2 * BAND_MIN_ORDER + 1, 1023, 1024):
        alg = make_algebra(kind, n)
        banded = _band_counts(f, alg, mode, DEFAULT_EPS_GRID)
        with monkeypatch.context() as patch:
            patch.setattr(clustering, "_ldl_pivots", _eigh_pivots)
            reference = _band_counts(f, alg, mode, DEFAULT_EPS_GRID)
        assert banded is not None and banded[1] == reference[1], n
        if n < 1000 or degree == 3:  # the dense eigen-solve at n ~ 1024 is slow
            _assert_structured_matches_dense(toeplitz_section(f, n), banded, alg, mode)


def _lower_band(a, b):
    """band[p, k] = a[p, p - k], k <= b, of a Hermitian a of bandwidth b."""
    return np.array([[a[p, p - k] if k <= p else 0.0 for k in range(b + 1)]
                     for p in range(len(a))])


def test_a_pivot_with_a_zero_leading_entry_takes_eigh(monkeypatch):
    # a Hermitian band of 2 x 2 blocks; block 1 of M - eps I is [[0, 1], [1, c]]:
    # nonsingular, but an unpivoted LDL* divides by its zero leading entry
    n, b, eps = 9, 2, 0.1
    rng = np.random.default_rng(3)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = np.triu(np.tril(a + a.conj().T), -b)
    a[2, 2], a[3, 2] = eps, 1.0
    a = a + np.tril(a, -1).conj().T
    band = _lower_band(a, b)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
    counts = _band_inertia_counts(band, None, (eps,))
    assert calls == [(1, b, b)]  # that pivot alone
    assert counts == {eps: int(np.sum(np.abs(np.linalg.eigvalsh(a)) >= eps))}


def test_growth_in_a_pivot_factor_takes_eigh():
    # pivots [[delta, 1, 1], [1, a, b], [1, b, c]], delta ~ 1e-9, 10x clear of an
    # eigh tie: their last d_k cancels terms ~1/delta down to ~1e-9, and
    # round-off can flip its sign; the terms that formed it flag the pivot
    rng = np.random.default_rng(0)
    blocks = []
    while len(blocks) < 100:
        delta, a, b = 10 ** rng.uniform(-9.4, -8), rng.uniform(-3, 3), rng.uniform(-3, 3)
        a = np.round(a * 2**20) / 2**20  # (a + 1) - 1 is a: M - w below is exact
        c = rng.uniform(-1e-9, 1e-9) + 1 / delta + (b - 1 / delta) ** 2 / (a - 1 / delta)
        p = np.array([[delta, 1, 1], [1, a, b], [1, b, c]])
        if np.min(np.abs(np.linalg.eigvalsh(p))) > 1e-9 * np.linalg.norm(p):
            blocks.append(p)
    n = 3 * len(blocks)
    m, w = np.zeros((n, n)), np.zeros(n)
    for j, p in enumerate(blocks):
        m[3 * j : 3 * j + 3, 3 * j : 3 * j + 3] = p
    w[1::3] = 1.0  # M - w has the blocks as pivots, M + w moves each a by 2
    m += np.diag(w)
    w_band = np.zeros((n, 4))
    w_band[:, 0] = w
    counts = _band_inertia_counts(_lower_band(m, 3), w_band, (1.0,))
    below, above = np.linalg.eigvalsh(m - np.diag(w)), np.linalg.eigvalsh(m + np.diag(w))
    assert counts == {1.0: int(np.sum(below >= 0) + np.sum(above <= 0))}


# ---------------------------------------------------------------------------
# guards: (call, error, message fragment); a dense pair must be n x n at
# ladder size n, not broadcast or repeated


TWO_PLUS_COS = parse_trig_expression("2+cos")
T8 = toeplitz_section(TWO_PLUS_COS, 8)
WRONG_ORDER = DimensionMismatchError, r"ladder size \d+ holds matrices of shapes"
GUARDS = [
    pytest.param(lambda: build_cluster_report(
        {n: (toeplitz_section(TWO_PLUS_COS, n), np.eye(1)) for n in (8, 16, 32, 64)}),
        *WRONG_ORDER, id="broadcast-b"),
    pytest.param(lambda: build_cluster_report(
        {n: (T8, project_toeplitz_fast(TWO_PLUS_COS, 8)) for n in (8, 16, 32, 64)}),
        *WRONG_ORDER, id="repeated-pair"),
    pytest.param(lambda: classify_frobenius(LADDER, [1.0, 1.0]), InsufficientLadderError,
                 "one d value per ladder size", id="frobenius-length"),
    pytest.param(lambda: preconditioned_eigenvalues(np.eye(3), np.eye(4)),
                 DimensionMismatchError, "differ", id="preconditioned-shapes"),
    pytest.param(
        lambda: build_cluster_report(
            {n: (LowRank(np.ones((n + 1, 1))), make_algebra("fourier", n)) for n in LADDER}),
        DimensionMismatchError, "factor order", id="low-rank-order",
    ),
    pytest.param(
        lambda: build_cluster_report(
            {n: (np.eye(n), make_algebra("fourier", 2 * n)) for n in LADDER}),
        DimensionMismatchError, "algebra of order", id="algebra-order",
    ),
    pytest.param(lambda: clustering._check_positive(np.array([np.nan, 1.0])),
                 NotPositiveDefiniteError, "lambda_min nan", id="nan-positive"),
]


@pytest.mark.parametrize("call, error, fragment", GUARDS)
def test_guard_raises(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
