"""Finite Toeplitz sections of a symbol.

Includes the bounded product-correction T_n(g^2) - T_n(g)^2 whose rank and
norm stay bounded as the order grows, and a matrix-free Toeplitz operator
for iterative solvers.  Its product is banded in O(n deg f) for a
trigonometric polynomial of low degree: one matrix-vector product of a
strided window over v for narrow bands, one complex convolution for wider
ones.  Past DIRECT_MAX_TAPS it takes the 2n circulant embedding with FFTs,
O(n log n).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import DimensionMismatchError
from .linalg import as_square
from .symbols import Symbol, product

# Widest bands a_{-m..m} that ToeplitzOperator multiplies directly.  Up to
# WINDOW_MAX_TAPS taps the product is one matrix-vector product of the
# overlapping (n, 2m + 1) window of a zero-padded copy of v with the
# reversed taps, up to DIRECT_MAX_TAPS one complex np.convolve, and past
# that the 2n FFT embedding.  Median us per product, window / complex /
# FFT, 1 BLAS thread, 2-core x86-64 host, NumPy 2.4, the glibc heap
# policy set at import (see __init__.py), median of 8 runs:
#
#   taps | n = 64      | n = 512      | n = 2048       | n = 65536
#      3 | 3 / 3 / 16  | 5 / 15 / 35  | 14 / 54 / 165  | 720 / 1916 / 5424
#      7 | 2 / 4 / 16  | 7 / 15 / 33  | 22 / 57 / 108  | 696 / 1793 / 5407
#     11 | 3 / 4 / 16  | 9 / 17 / 34  | 31 / 58 / 100  | 937 / 1785 / 5148
#     13 | 3 / 4 / 18  | 10 / 17 / 40 | 37 / 75 / 128  | 1149 / 1912 / 5330
#     21 | 3 / 5 / 16  | 15 / 18 / 34 | 54 / 65 / 104  | 1670 / 1946 / 5382
#     23 | 4 / 5 / 16  | 17 / 19 / 35 | 59 / 68 / 103  | 1877 / 2029 / 5263
#     31 | 4 / 5 / 23  | 21 / 20 / 38 | 108 / 83 / 107 | 2526 / 2135 / 5294
#     63 | 6 / 6 / 16  | 62 / 25 / 35 | 155 / 84 / 106 | 5031 / 2520 / 5240
#
# The window's cost grows with its width like a dense product's; it ties
# the complex convolve at 21-23 taps and loses from 31.  The FFT embedding
# loses to the complex convolve at every n here up to 63 taps.
WINDOW_MAX_TAPS = 21
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


def section_entries(f: Symbol, lags: np.ndarray) -> np.ndarray:
    """The entries a_lag of T_n(f) at integer lags: a_lag for |lag| <= deg f, else 0."""
    d = f.degree
    coeffs = f.coefficient_array(-d, d + 1)
    return np.where(np.abs(lags) <= d, coeffs[np.clip(lags, -d, d) + d], 0.0)


def section_frobenius_sq(f: Symbol, n: int) -> float:
    """||T_n(f)||_F^2 in closed form: a_k fills the n - |k| entries of its diagonal."""
    return float(sum(abs(a) ** 2 * (n - abs(k)) for k, a in f.coefficients.items() if abs(k) < n))


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


class ToeplitzOperator:
    """Matrix-free Toeplitz section.

    With m = min(deg f, n - 1), T_n(f) is a band of the 2m + 1 taps
    a_{-m..m}.  Up to DIRECT_MAX_TAPS taps a product is direct, O(n m): up
    to WINDOW_MAX_TAPS taps row j of the (n, 2m + 1) window over
    [0]*m + v + [0]*m, v_{j-m..j+m}, times the reversed taps; else the
    complex convolution with the taps.  The window's buffer is made by the
    first product and reused by every later one, so one operator serves one
    thread at a time.  A wider band takes the standard embedding of the
    section into a circulant of order 2n, O(n log n).  `dense()`
    materializes the section for direct comparisons.
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
            # (zero-padded v, its window, reversed taps): made by the first product
            self._taps, self._circ_fft, self._window = taps, None, None
            return
        # first column of the circulant: a_0, ..., a_m, 0, ..., 0, a_{-m}, ..., a_{-1}
        ext = np.zeros(2 * n, dtype=np.complex128)
        ext[: m + 1] = taps[m:]
        ext[2 * n - m :] = taps[:m]
        self._taps, self._circ_fft, self._window = None, np.fft.fft(ext), None

    def matvec(self, x) -> np.ndarray:
        v = np.asarray(x, dtype=np.complex128)
        if v.shape != (self.order,):
            raise DimensionMismatchError(
                f"vector length {v.shape} does not match order {self.order}"
            )
        if self._circ_fft is None:
            # (T v)_j = sum_k a_{j-k} v_k = sum_t a_{m-t} v_{j-m+t}, t = 0..2m
            m, n = len(self._taps) // 2, self.order
            if len(self._taps) > WINDOW_MAX_TAPS:
                return np.convolve(v, self._taps)[m : m + n]
            if self._window is None:
                padded = np.zeros(n + 2 * m, dtype=np.complex128)
                window = as_strided(padded, (n, 2 * m + 1), 2 * padded.strides, writeable=False)
                self._window = padded, window, self._taps[::-1].copy()
            padded, window, reversed_taps = self._window
            padded[m : m + n] = v  # the zero edges stay zero
            return window @ reversed_taps
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
