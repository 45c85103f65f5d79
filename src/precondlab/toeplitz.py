"""Finite Toeplitz and Hankel sections of a symbol.

Includes the bounded product-correction T_n(g^2) - T_n(g)^2 whose rank and
norm stay bounded as the order grows, and a matrix-free Toeplitz operator
for iterative solvers: a direct banded product in O(n deg f) for a
trigonometric polynomial of low degree, the 2n circulant embedding with
FFTs in O(n log n) otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionMismatchError
from .linalg import as_square, operator_norm, singular_values
from .symbols import Symbol, product

RANK_CUTOFF = 1e-10
NORM_SPREAD_TOL = 1e-9
# Widest band a_{-m..m} that ToeplitzOperator multiplies directly: with 1
# BLAS thread np.convolve beat the 2n FFT embedding up to 63 taps at every
# order from 64 to 65536, and lost at 127 taps for n = 512 and 2048.
DIRECT_MAX_TAPS = 63


def toeplitz_from_lags(a: np.ndarray) -> np.ndarray:
    """The n x n matrix with entries a[n-1 + j-k], from a of length 2n-1.

    Row j is the window a[j : j+n] read backwards.  The reversed array is
    copied first, so that the final copy reads every row forward.
    """
    n = (len(a) + 1) // 2
    return sliding_window_view(a[::-1].copy(), n)[::-1].copy()


def toeplitz_section(f: Symbol, n: int) -> np.ndarray:
    """Dense n x n section with entries a_{j-k}; Hermitian iff f is real."""
    if n < 1:
        raise ValueError("order must be >= 1")
    return toeplitz_from_lags(f.coefficient_array(1 - n, n))  # a_{1-n}, ..., a_{n-1}


def section_frobenius_sq(f: Symbol, n: int) -> float:
    """||T_n(f)||_F^2 in closed form: a_k fills the n - |k| entries of its diagonal."""
    return float(sum(abs(a) ** 2 * (n - abs(k)) for k, a in f.coefficients.items() if abs(k) < n))


def hankel_section(f: Symbol, n: int) -> np.ndarray:
    """Dense n x n section with entries a_{j+k+1}; rank <= degree(f)."""
    if n < 1:
        raise ValueError("order must be >= 1")
    vals = f.coefficient_array(1, 2 * n)  # a_1, ..., a_{2n-1}
    return sliding_window_view(vals, n).copy()


def product_correction(g: Symbol, n: int) -> np.ndarray:
    """R_n = T_n(g^2) - T_n(g)^2 for a real symbol g.

    The correction is supported on the degree(g)-sized corners, so its rank
    is at most 2*degree(g) and its spectral norm does not change with n once
    n >= 2*degree(g) + 2.
    """
    if not g.is_real:
        raise ValueError("product_correction requires a real symbol")
    t = toeplitz_section(g, n)
    return toeplitz_section(product(g, g), n) - t @ t


def numerical_rank(a) -> int:
    """Number of singular values above RANK_CUTOFF."""
    return int(np.count_nonzero(singular_values(a) > RANK_CUTOFF))


@dataclass(frozen=True)
class WidomReport:
    """Rank and spectral norm of the product correction along a size ladder."""

    symbol_label: str
    degree: int
    ladder: tuple[int, ...]
    ranks: dict[int, int]
    norms: dict[int, float]
    rank_bound_ok: bool
    norm_constant_ok: bool


def widom_correction_report(g: Symbol, ladder) -> WidomReport:
    """Check rank(R_n) <= 2 deg(g) and a norm spread <= NORM_SPREAD_TOL on the ladder."""
    ladder = tuple(int(n) for n in ladder)
    ranks: dict[int, int] = {}
    norms: dict[int, float] = {}
    for n in ladder:
        r = product_correction(g, n)
        ranks[n] = numerical_rank(r)
        norms[n] = operator_norm(r)
    bound = 2 * g.degree
    vals = list(norms.values())
    return WidomReport(
        symbol_label=g.label,
        degree=g.degree,
        ladder=ladder,
        ranks=ranks,
        norms=norms,
        rank_bound_ok=all(r <= bound for r in ranks.values()),
        norm_constant_ok=(max(vals) - min(vals)) <= NORM_SPREAD_TOL,
    )


class ToeplitzOperator:
    """Matrix-free Toeplitz section.

    With m = min(deg f, n - 1), T_n(f) is a band of the 2m + 1 taps
    a_{-m..m}.  Up to DIRECT_MAX_TAPS taps a product is the direct
    convolution with them, O(n m); a wider band takes the standard
    embedding of the section into a circulant of order 2n, O(n log n).
    `dense()` materializes the section for direct comparisons.
    """

    def __init__(self, symbol: Symbol, order: int):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.symbol = symbol
        self.order = int(order)
        n = self.order
        m = min(symbol.degree, n - 1)
        taps = symbol.coefficient_array(-m, m + 1)  # a_{-m}, ..., a_m
        if len(taps) <= DIRECT_MAX_TAPS:
            self._taps, self._circ_fft = taps, None
            return
        # first column of the circulant: a_0, ..., a_m, 0, ..., 0, a_{-m}, ..., a_{-1}
        ext = np.zeros(2 * n, dtype=np.complex128)
        ext[: m + 1] = taps[m:]
        ext[2 * n - m :] = taps[:m]
        self._taps, self._circ_fft = None, np.fft.fft(ext)

    def matvec(self, x) -> np.ndarray:
        v = np.asarray(x, dtype=np.complex128)
        if v.shape != (self.order,):
            raise DimensionMismatchError(
                f"vector length {v.shape} does not match order {self.order}"
            )
        if self._circ_fft is None:
            # (T v)_j = sum_k a_{j-k} v_k is entry j + m of the full convolution
            m = len(self._taps) // 2
            return np.convolve(v, self._taps)[m : m + self.order]
        padded = np.zeros(2 * self.order, dtype=np.complex128)
        padded[: self.order] = v
        out = np.fft.ifft(self._circ_fft * np.fft.fft(padded))[: self.order]
        return out

    def dense(self) -> np.ndarray:
        return toeplitz_section(self.symbol, self.order)


def as_linear_operator(a):
    """Normalize a dense matrix or ToeplitzOperator to (order, matvec, dense)."""
    if isinstance(a, ToeplitzOperator):
        return a.order, a.matvec, a.dense
    m = as_square(a)
    return m.shape[0], (lambda x: m @ x), (lambda: m)
