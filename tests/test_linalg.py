"""Tests for the dense matrix kernel.

The eigenvalue oracle is deliberately independent of the library path:
Householder tridiagonalization followed by Sturm-sequence bisection.
"""

import numpy as np
import pytest

from precondlab.errors import DimensionMismatchError, NoConvergenceError, NotHermitianError
from precondlab.linalg import (
    HERMITIAN_BLOCK_ROWS,
    HERMITIAN_EIG_TOL,
    _defect_and_peak,
    as_matrix,
    as_square,
    frobenius_norm_sq,
    hermitian_eig,
    hermitian_eigvalues,
    hermitian_eigvalues_unchecked,
    is_hermitian,
    singular_values,
)


def seeded_matrix(n, seed, hermitian=False):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (m + m.conj().T) if hermitian else m


# ---------------------------------------------------------------------------
# oracle: Householder tridiagonalization + Sturm bisection


def _tridiagonalize(a):
    m = np.array(a, dtype=complex)
    n = m.shape[0]
    for k in range(n - 2):
        x = m[k + 1 :, k]
        norm_x = np.linalg.norm(x)
        if norm_x < 1e-300:
            continue
        v = x.copy()
        phase = v[0] / abs(v[0]) if abs(v[0]) > 0 else 1.0
        v[0] += phase * norm_x
        v = v / np.linalg.norm(v)
        p = np.eye(n, dtype=complex)
        p[k + 1 :, k + 1 :] -= 2.0 * np.outer(v, v.conj())
        m = p @ m @ p.conj().T
    diag = np.real(np.diag(m))
    off = np.abs(np.diag(m, -1))
    return diag, off


def _sturm_count_below(diag, off, x):
    """Number of eigenvalues of the tridiagonal matrix strictly below x."""
    count = 0
    q = diag[0] - x
    if q < 0:
        count += 1
    for i in range(1, len(diag)):
        denom = q if q != 0.0 else -1e-300
        q = (diag[i] - x) - off[i - 1] ** 2 / denom
        if q < 0:
            count += 1
    return count


def sturm_bisection_eigenvalues(a, tol=1e-12):
    diag, off = _tridiagonalize(a)
    radius = np.abs(diag).max() + 2.0 * (off.max() if off.size else 0.0) + 1.0
    values = []
    for j in range(len(diag)):
        lo, hi = -radius, radius
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if _sturm_count_below(diag, off, mid) > j:
                hi = mid
            else:
                lo = mid
        values.append(0.5 * (lo + hi))
    return np.array(values)


# ---------------------------------------------------------------------------
# frobenius_norm_sq


def test_frobenius_zero_matrix():
    assert frobenius_norm_sq(np.zeros((2, 2))) == 0.0


def test_frobenius_single_entry():
    assert frobenius_norm_sq([[0, 1], [0, 0]]) == 1.0


def test_frobenius_matches_trace_oracle():
    a = seeded_matrix(8, 101)
    trace = sum(
        (a.conj().T @ a)[i, i].real for i in range(8)
    )  # independent trace(A*A)
    assert frobenius_norm_sq(a) == pytest.approx(trace, rel=1e-12)


# ---------------------------------------------------------------------------
# hermitian_eig


def test_eig_2x2_analytic():
    w, _ = hermitian_eig([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(w, [1.0, 3.0], atol=1e-12)


def test_eig_identity():
    w, _ = hermitian_eig(np.eye(7))
    np.testing.assert_allclose(w, np.ones(7), atol=1e-12)


def test_eig_matches_sturm_oracle():
    a = seeded_matrix(16, 7, hermitian=True)
    w, _ = hermitian_eig(a)
    expected = sturm_bisection_eigenvalues(a)
    np.testing.assert_allclose(w, expected, atol=1e-8)


def test_eig_residual_and_orthonormality():
    a = seeded_matrix(24, 11, hermitian=True)
    w, v = hermitian_eig(a)
    scale = np.linalg.norm(a, 2)
    assert np.linalg.norm(a @ v - v @ np.diag(w)) <= 1e-9 * scale
    assert np.linalg.norm(v.conj().T @ v - np.eye(24)) <= 1e-9


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eig([[0.0, 1.0], [0.0, 0.0]])


# ---------------------------------------------------------------------------
# singular_values


def test_singular_values_nilpotent():
    np.testing.assert_allclose(singular_values([[0, 1], [0, 0]]), [0.0, 1.0], atol=1e-14)


def test_singular_values_hermitian_abs_eigenvalues():
    np.testing.assert_allclose(
        singular_values([[2.0, 1.0], [1.0, 2.0]]), [1.0, 3.0], atol=1e-12
    )


def test_singular_values_match_gram_eig_oracle():
    a = seeded_matrix(8, 13)
    gram = a.conj().T @ a
    expected = np.sqrt(np.clip(hermitian_eigvalues(gram), 0.0, None))
    np.testing.assert_allclose(singular_values(a), expected, atol=1e-9)


def test_frobenius_equals_sum_of_squared_singular_values():
    for seed in range(50):
        n = 4 + (seed % 29)
        a = seeded_matrix(n, 200 + seed)
        total = float(np.sum(singular_values(a) ** 2))
        assert frobenius_norm_sq(a) == pytest.approx(total, rel=1e-9)


def test_is_hermitian_tolerance():
    a = np.array([[1.0, 1.0 + 1e-14j], [1.0 - 1e-14j, 2.0]])
    assert is_hermitian(a)
    assert not is_hermitian([[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("n", [0, 1, 2, 7, HERMITIAN_BLOCK_ROWS, 2 * HERMITIAN_BLOCK_ROWS + 3])
def test_hermitian_defect_is_the_whole_matrix_maximum(n):
    # is_hermitian's defect: row blocks take the max of the same per-entry values, bit-identical
    def whole(m):
        return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0

    general = seeded_matrix(n, seed=n)
    hermitian = seeded_matrix(n, seed=n, hermitian=True)
    nearly = hermitian.copy()
    if n:
        nearly[n - 1, n - 2] += 1e-13j  # both rows of the deviation in the last block
    for m in (general, hermitian, nearly, np.asfortranarray(general), general.real.copy()):
        assert _defect_and_peak(as_square(m))[0] == whole(m)
    if n:
        general[0, n - 1] = np.nan
        assert np.isnan(_defect_and_peak(as_square(general))[0])


def test_shapes_other_than_a_matrix_are_refused():
    with pytest.raises(DimensionMismatchError, match="expected a 2-d matrix, got ndim=1"):
        as_matrix(np.ones(3))
    with pytest.raises(DimensionMismatchError, match=r"square matrix, got shape \(2, 3\)"):
        as_square(np.ones((2, 3)))


@pytest.mark.parametrize("routine, kernel", [
    (hermitian_eig, "eigh"), (hermitian_eigvalues, "eigvalsh"), (singular_values, "svd"),
    (hermitian_eigvalues_unchecked, "eigvalsh"),
])
def test_lapack_failure_is_no_convergence(routine, kernel, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("iteration limit")

    monkeypatch.setattr(np.linalg, kernel, fail)
    with pytest.raises(NoConvergenceError, match=f"{kernel} failed to converge: iteration limit"):
        routine(np.eye(3, dtype=np.complex128))


@pytest.mark.parametrize("n", [1, 2, 7, HERMITIAN_BLOCK_ROWS, 2 * HERMITIAN_BLOCK_ROWS + 3])
def test_is_hermitian_scales_by_the_whole_matrix_maximum(n):
    m = seeded_matrix(n, seed=n, hermitian=True)
    m[n - 1, n - 1] = 1e3  # the largest entry sits in the last row block
    allowed = HERMITIAN_EIG_TOL * (1.0 + float(np.max(np.abs(m))))
    for factor in (0.999, 1.001):
        nearly = m.copy()
        # a defect of factor * allowed: one entry off the diagonal, or 2 Im of the one entry
        nearly[n - 1, 0] += factor * allowed * (0.5j if n == 1 else 1.0)
        assert is_hermitian(nearly) == (factor < 1.0)
