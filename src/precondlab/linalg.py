"""Dense complex matrix kernel.

Frobenius geometry, Hermitian eigendecomposition and singular values on
plain ``numpy`` arrays in double-precision complex.
Every other module builds on these routines.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NoConvergenceError, NotHermitianError

# Tolerance of every Hermitian check: `is_hermitian` and the eigensolver
# preconditions ("Hermitian within tolerance").
HERMITIAN_EIG_TOL = 1e-10
HERMITIAN_BLOCK_ROWS = 64


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array without copying when possible."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d matrix, got ndim={m.ndim}")
    return m


def as_square(a) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return m


def _defect_and_peak(m: np.ndarray) -> tuple[float, float]:
    """(max |A[j,k] - conj(A[k,j])|, max |A[j,k]|) of a square matrix.

    Taken over blocks of HERMITIAN_BLOCK_ROWS rows, so the temporaries are
    a few rows wide instead of n x n.
    """
    if not m.size:
        return 0.0, 0.0
    defects, peaks = [], []
    for lo in range(0, m.shape[0], HERMITIAN_BLOCK_ROWS):
        rows = m[lo : lo + HERMITIAN_BLOCK_ROWS]
        peaks.append(np.max(np.abs(rows)))
        diff = m[:, lo : lo + HERMITIAN_BLOCK_ROWS].conj().T  # rows of A*
        np.subtract(rows, diff, out=diff)
        defects.append(np.max(np.abs(diff)))
    return float(np.max(defects)), float(np.max(peaks))


def is_hermitian(a) -> bool:
    """True when max|A[j,k] - conj(A[k,j])| <= HERMITIAN_EIG_TOL * (1 + max|entry|)."""
    defect, peak = _defect_and_peak(as_square(a))
    return defect <= HERMITIAN_EIG_TOL * (1.0 + peak)


def frobenius_norm_sq(a) -> float:
    """Sum of squared moduli of all entries, equal to trace(A* A)."""
    m = as_matrix(a)
    return float(np.vdot(m, m).real)


def _symmetrized(a) -> np.ndarray:
    """(A + A*) / 2, free of representable round-off, for A Hermitian within HERMITIAN_EIG_TOL."""
    m = as_square(a)
    defect, peak = _defect_and_peak(m)
    if not defect <= HERMITIAN_EIG_TOL * (1.0 + peak):
        raise NotHermitianError(f"matrix is not Hermitian: defect {defect:.3e}")
    return 0.5 * (m + m.conj().T)


def _converged(name: str, solver, m: np.ndarray, **options) -> np.ndarray:
    """solver(m, **options), a LAPACK failure raised as NoConvergenceError naming ``name``."""
    try:
        return solver(m, **options)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"{name} failed to converge: {exc}") from exc


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(values, vectors)`` with eigenvalues sorted ascending and
    orthonormal eigenvectors in the columns, so that A @ V = V @ diag(w).

    Raises NotHermitianError when the symmetry check fails and
    NoConvergenceError when the underlying iteration does not converge.
    """
    return tuple(_converged("eigh", np.linalg.eigh, _symmetrized(a)))


def hermitian_eigvalues(a) -> np.ndarray:
    """Eigenvalues only, sorted ascending."""
    return _converged("eigvalsh", np.linalg.eigvalsh, _symmetrized(a))


def singular_values(a) -> np.ndarray:
    """Singular values sorted ascending (nonnegative square roots of eig(A*A))."""
    s = _converged("svd", np.linalg.svd, _lapack_view(as_matrix(a)), compute_uv=False)
    return s[::-1].copy()


def _lapack_view(m: np.ndarray) -> np.ndarray:
    """m, or for a C-ordered m its Fortran-ordered transpose view.

    NumPy hands LAPACK a Fortran-ordered working copy, which is then a
    plain memory copy.  The transpose has the same singular values and,
    for Hermitian m, the same eigenvalues.
    """
    return m.T if m.flags.c_contiguous else m


def hermitian_eigvalues_unchecked(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian complex128 matrix, ascending; A is left as is.

    Unlike `hermitian_eigvalues` it makes neither a symmetry check nor a
    symmetrized copy: the caller vouches that A is Hermitian, and LAPACK
    reads one triangle of NumPy's working copy.
    """
    return _converged("eigvalsh", np.linalg.eigvalsh, _lapack_view(a))
