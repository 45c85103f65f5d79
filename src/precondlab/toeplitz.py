"""Finite Toeplitz sections of a symbol.

Includes the bounded product-correction T_n(g^2) - T_n(g)^2 whose rank and
norm stay bounded as the order grows, and a matrix-free Toeplitz operator
for iterative solvers: a direct banded product in O(n deg f) for a
trigonometric polynomial of low degree, the 2n circulant embedding with
FFTs in O(n log n) otherwise.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionMismatchError
from .linalg import as_square
from .symbols import Symbol, product

# Widest bands a_{-m..m} that ToeplitzOperator multiplies directly.  Up to
# SPLIT_MAX_TAPS taps the product is four float64 np.convolve calls on the
# real and imaginary parts (numpy's fast small-kernel loop takes float64
# kernels of at most 11 taps), up to DIRECT_MAX_TAPS one complex convolve,
# and past that the 2n FFT embedding.  Median us per product, complex /
# split / FFT, 1 BLAS thread, 2-core x86-64 host, NumPy 2.4:
#
#   taps | n = 64       | n = 512       | n = 2048       | n = 65536
#      3 | 5 / 16 / 26  | 21 / 22 / 62  | 72 / 31 / 154  | 2364 / 1259 / 13555
#      7 | 6 / 17 / 26  | 16 / 15 / 36  | 78 / 41 / 154  | 2140 / 1276 / 12826
#     11 | 6 / 18 / 27  | 20 / 24 / 44  | 81 / 58 / 149  | 2770 / 2083 / 15867
#     13 | 6 / 23 / 27  | 24 / 62 / 53  | 82 / 186 / 158 | 3027 / 6822 / 17009
#     31 | 7 / 24 / 26  | 27 / 74 / 50  | 97 / 227 / 142 | 2841 / 7047 / 14307
#     63 | 8 / 27 / 25  | 37 / 111 / 52 | 88 / 204 / 123 | 3562 / 9029 / 14440
#
# The split's four calls cost ~10 us, so it loses below n ~ 512, by at
# most that much; past 11 taps it loses 2-3x everywhere.  At 127 taps the
# FFT embedding wins for n = 512 and 2048.
SPLIT_MAX_TAPS = 11
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
    a_{-m..m}.  Up to DIRECT_MAX_TAPS taps a product is the direct
    convolution with them, O(n m): in real arithmetic up to SPLIT_MAX_TAPS
    taps, Re(T v) = Re a * Re v - Im a * Im v and Im(T v) = Re a * Im v +
    Im a * Re v, else one complex convolution.  A wider band takes the
    standard embedding of the section into a circulant of order 2n,
    O(n log n).  `dense()` materializes the section for direct comparisons.
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
            self._taps_re, self._taps_im = taps.real.copy(), taps.imag.copy()
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
            band = slice(m, m + self.order)
            if len(self._taps) > SPLIT_MAX_TAPS:
                return np.convolve(v, self._taps)[band]
            # contiguous copies: on the strided views np.convolve took ~15 % longer
            # per product in the n = 65536 solves
            vr, vi, ar, ai = v.real.copy(), v.imag.copy(), self._taps_re, self._taps_im
            out = np.empty(self.order, dtype=np.complex128)
            np.subtract(np.convolve(vr, ar)[band], np.convolve(vi, ai)[band], out=out.real)
            np.add(np.convolve(vr, ai)[band], np.convolve(vi, ar)[band], out=out.imag)
            return out
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
