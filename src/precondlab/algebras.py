"""Trigonometric transform algebras and Frobenius-optimal projections.

A TransformAlgebra is the commutative matrix algebra diagonalized by a
fixed unitary built from a generalized trigonometric Vandermonde matrix:
row i of the unitary holds the basis functions evaluated at grid point
x_i.  The built-in kinds are

  fourier  U[i, j] = exp(i j x_i) / sqrt(n),              x_i = 2 pi i / n
  sine     U[i, j] = sqrt(2/(n+1)) sin((j+1) x_i),        x_i = (i+1) pi / (n+1)
  hartley  U[i, j] = (cos(j x_i) + sin(j x_i)) / sqrt(n), x_i = 2 pi i / n

plus custom Vandermonde algebras from any user-supplied unitary.

The Frobenius-optimal projection of A onto the algebra keeps only the
diagonal of U* A U:  project(A) = U diag(U* A U) U*.  The pinched variant
keeps whole diagonal blocks instead of single entries.  Every algebra
carries x -> U* x (``transform``) and z -> U z (``inverse``).  For the
built-in kinds these are fast transforms (FFT, DST-I, DHT), so U* A U
(``eigenbasis``) and U W U* (``from_eigenbasis``) cost O(n^2 log n)
without forming U, and the diagonal of U* T_n(f) U of a Toeplitz section
(``toeplitz_diagonal``) comes from closed forms in O(n log n) or
O(n deg f), without forming the section.  Where T_n(f) differs from an
algebra matrix only in its corners, ``toeplitz_corner_parts`` gives
U* T_n(f) U as a ``DiagonalPlusLowRank``, a diagonal plus a rank-2 deg f
term (the form a ``LowRank`` V V* takes too), with the corner columns in
closed form (``CornerColumns``) and ``toeplitz_corner_form`` checking it
on a probe.  For a real f with an odd part, ``toeplitz_pair_form`` gives
the Hartley projection in Fourier coordinates, 2 x 2 blocks on the pairs
(a, -a), beside the Fourier form; for any real f in the sine algebra,
``toeplitz_band_form`` gives T_n(f) and its tau projection as bands of
width deg f in the natural order.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatchError, InvariantViolationError, NotUnitaryError
from .linalg import as_square, frobenius_norm_sq
from .symbols import REALNESS_TOL, Symbol
from .toeplitz import ToeplitzOperator, section_entries, toeplitz_from_lags

UNITARITY_RTOL = 1e-10
TRACE_RTOL = 1e-10
# seed of the random custom algebra when none is given
DEFAULT_SEED = 42

ALGEBRA_KINDS = ("fourier", "sine", "hartley")


class TransformAlgebra:
    """Transform algebra, immutable by convention: unitary, grid and basis functions.

    ``basis(xs)`` returns the (len(xs), n) generalized Vandermonde block of
    basis functions evaluated at arbitrary points; it is None for custom algebras.

    ``unitary`` of a built-in algebra is ``basis(grid)``, built and checked
    for unitarity on first read, so ``make_algebra`` does O(n) work.  A
    custom algebra carries the matrix it was given, checked when wrapped.

    ``lag_weights(ks, xs)`` returns the (len(xs), len(ks)) block of lag
    weights w_k(x) = sum_j v_{j+k}(x) conj(v_j(x)) of the basis row v(x),
    for integer lags |k| < n, in closed form.  ``row_exponentials(rows)``
    returns (P, p, C) with U[rows[i], k] = sum_t C[i, t] exp(2 pi i p_t k / P)
    for k = 0..n-1 and integers p_t: the rows of U as sums of exponentials,
    whose phases reduce mod P exactly.  Only ``make_algebra`` sets these two.

    ``transform(x, out=None)`` returns U* x and ``inverse(z, out=None)``
    returns U z, along axis 0, written to ``out`` when given (``out`` may be
    the input).  A built-in algebra applies its fast transform in O(n log n)
    per column; a custom algebra multiplies by its dense unitary.
    """

    def __init__(
        self,
        kind: str,
        order: int,
        grid: Optional[np.ndarray] = None,
        basis: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        lag_weights: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
        row_exponentials: Optional[Callable[[np.ndarray], tuple]] = None,
        transform: Optional[Callable[..., np.ndarray]] = None,
        inverse: Optional[Callable[..., np.ndarray]] = None,
        _unitary: Optional[np.ndarray] = None,
    ):
        self.kind = kind
        self.order = order
        self.grid = grid
        self.basis = basis
        self.lag_weights = lag_weights
        self.row_exponentials = row_exponentials
        self.transform = transform
        self.inverse = inverse
        # The checked unitary: passed in by custom_algebra, or set on first read.
        self._unitary = _unitary

    @property
    def unitary(self) -> np.ndarray:
        if self._unitary is None:
            u = self.basis(self.grid)
            _check_unitary(u, self.kind)
            self._unitary = u
        return self._unitary

    def unitarity_defect(self) -> float:
        return _unitarity_defect(self.unitary)


def _unitarity_defect(u: np.ndarray) -> float:
    """||U* U - I||_F."""
    return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]), ord="fro"))


def _check_unitary(u: np.ndarray, kind: str) -> None:
    n = u.shape[0]
    defect = _unitarity_defect(u)
    if not defect <= UNITARITY_RTOL * np.sqrt(n):
        raise NotUnitaryError(
            f"{kind} transform of order {n} is not unitary: defect {defect:.3e}"
        )


def _dirichlet_ratio(m, xs) -> np.ndarray:
    """sin(m x) / sin(x) for integers m >= 1, with the limit at multiples of pi.

    x is reduced to r = x - q pi with |r| <= pi/2 first, and
    sin(m x) / sin(x) = (-1)^(q (m - 1)) sin(m r) / sin(r): near a multiple
    of pi, sin(m x) of the unreduced argument is all round-off.
    """
    q = np.round(xs / np.pi)
    r = xs - q * np.pi
    s = np.sin(r)
    zero = s == 0.0
    ratio = np.where(zero, m, np.sin(m * r) / np.where(zero, 1.0, s))
    # (-1)^(q (m - 1)) is -1 where q is odd and m is even
    return ratio * (1.0 - 2.0 * (q % 2) * (1 - m % 2))


def _fourier_transform(x, out=None) -> np.ndarray:
    """Orthonormal DFT along axis 0: the Fourier U* x."""
    return np.fft.fft(x, axis=0, norm="ortho", out=out)


def _fourier_inverse(z, out=None) -> np.ndarray:
    """Orthonormal inverse DFT along axis 0: the Fourier U z."""
    return np.fft.ifft(z, axis=0, norm="ortho", out=out)


def _sine_transform(x, out=None) -> np.ndarray:
    """Orthonormal DST-I along axis 0: the sine U* x.

    The DFT of the odd extension [0, x, 0, -x[::-1]] of length 2(n + 1) is
    -2i sum_j x_j sin((j + 1) k pi / (n + 1)) at k = 1..n.
    """
    n = x.shape[0]
    ext = np.empty((2 * (n + 1),) + x.shape[1:], dtype=np.complex128)
    ext[0] = ext[n + 1] = 0.0
    ext[1 : n + 1] = x
    np.negative(x[::-1], out=ext[n + 2 :])
    np.fft.fft(ext, axis=0, out=ext)
    return np.multiply(ext[1 : n + 1], 0.5j * np.sqrt(2.0 / (n + 1)), out=out)


def _hartley_transform(x, out=None) -> np.ndarray:
    """Orthonormal DHT along axis 0: the Hartley U* x.

    With F the orthonormal DFT, cas = cos + sin gives
    H_k = ((1 + i) F_k + (1 - i) F_{-k}) / 2, combined in place pairwise.
    """
    f = np.fft.fft(x, axis=0, norm="ortho", out=out)
    n = f.shape[0]
    top, bottom = f[1 : (n + 1) // 2], f[n - 1 : n // 2 : -1]  # rows k and -k
    odd = top - bottom
    odd *= 0.5j
    top += bottom
    top *= 0.5
    np.subtract(top, odd, out=bottom)
    top += odd
    return f


def make_algebra(kind: str, n: int) -> TransformAlgebra:
    """Construct a built-in algebra of order n (n >= 2) in O(n) work.

    With M = n - |k| and D_M(x) = sin(M x) / sin(x), the lag weights are

      fourier  w_k = (M / n) exp(i k x)
      sine     w_k = (M cos(k x) - cos((n + 1) x) D_M(x)) / (n + 1)
      hartley  w_k = (M cos(k x) + sin((n - 1) x) D_M(x)) / n

    ``row_exponentials`` writes rows of U as exponentials of period P = n
    (Fourier, Hartley) or P = 2(n + 1) (sine), and ``transform`` is the
    orthonormal DFT, DST-I or DHT.  The sine and Hartley unitaries are
    real, symmetric and orthogonal, U = U* = U^-1, so their ``inverse`` is
    ``transform`` itself.
    """
    if n < 2:
        raise ValueError("order must be >= 2")
    kind = kind.lower()
    if kind == "fourier":
        grid = 2.0 * np.pi * np.arange(n) / n

        def basis(xs, _n=n):
            xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
            return np.exp(1j * np.outer(xs, np.arange(_n))) / np.sqrt(_n)

        def lag_weights(ks, xs, _n=n):
            return (_n - np.abs(ks)) / _n * np.exp(1j * np.outer(xs, ks))

        def row_exponentials(rows, _n=n):
            return _n, rows, np.eye(len(rows)) / np.sqrt(_n)

        transform, inverse = _fourier_transform, _fourier_inverse

    elif kind == "sine":
        grid = np.pi * np.arange(1, n + 1) / (n + 1)

        def basis(xs, _n=n):
            xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
            block = np.sin(np.outer(xs, np.arange(1, _n + 1)))
            return np.sqrt(2.0 / (_n + 1)) * block.astype(np.complex128)

        def lag_weights(ks, xs, _n=n):
            m, x = _n - np.abs(ks), xs[:, None]
            edge = np.cos((_n + 1) * x) * _dirichlet_ratio(m, x)
            return (m * np.cos(ks * x) - edge) / (_n + 1)

        def row_exponentials(rows, _n=n):
            # sin(2 pi j (k + 1) / P) = (e^{i 2 pi j / P} e^{i 2 pi j k / P} - conj) / 2i
            period, j = 2 * (_n + 1), rows + 1
            half = np.diag(np.exp(2j * np.pi * j / period)) * (np.sqrt(2.0 / (_n + 1)) / 2j)
            return period, np.concatenate((j, -j)), np.hstack((half, half.conj()))

        transform = inverse = _sine_transform

    elif kind == "hartley":
        grid = 2.0 * np.pi * np.arange(n) / n

        def basis(xs, _n=n):
            xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
            angles = np.outer(xs, np.arange(_n))
            return ((np.cos(angles) + np.sin(angles)) / np.sqrt(_n)).astype(
                np.complex128
            )

        def lag_weights(ks, xs, _n=n):
            m, x = _n - np.abs(ks), xs[:, None]
            edge = np.sin((_n - 1) * x) * _dirichlet_ratio(m, x)
            return (m * np.cos(ks * x) + edge) / _n

        def row_exponentials(rows, _n=n):
            # cas t = ((1 - i) e^{it} + (1 + i) e^{-it}) / 2
            half = np.eye(len(rows)) / (2.0 * np.sqrt(_n))
            return _n, np.concatenate((rows, -rows)), np.hstack(((1 - 1j) * half, (1 + 1j) * half))

        transform = inverse = _hartley_transform

    else:
        raise ValueError(
            f"unknown algebra kind {kind!r}; built-ins are {ALGEBRA_KINDS}"
        )
    return TransformAlgebra(
        kind=kind, order=n, grid=grid, basis=basis, lag_weights=lag_weights,
        row_exponentials=row_exponentials, transform=transform, inverse=inverse,
    )


def has_fastest_transforms(alg: TransformAlgebra) -> bool:
    """Whether U* and U are one complex FFT each, the cheapest built-in transforms."""
    return alg.kind == "fourier"


def custom_algebra(unitary) -> TransformAlgebra:
    """Wrap an arbitrary unitary as a custom algebra: no grid, basis or lag weights."""
    u = as_square(np.asarray(unitary, dtype=np.complex128))
    _check_unitary(u, "custom")
    uh = u.conj().T
    return TransformAlgebra(
        kind="custom", order=u.shape[0],
        transform=lambda x, out=None: np.matmul(uh, x, out=out),
        inverse=lambda z, out=None: np.matmul(u, z, out=out),
        _unitary=u,
    )


def random_unitary_algebra(n: int, seed: int = DEFAULT_SEED) -> TransformAlgebra:
    """Haar-ish random unitary algebra, the negative control for clustering."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    # Fix the phase so the construction is a deterministic function of seed.
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return custom_algebra(q)


AlgebraFactory = Callable[[int], TransformAlgebra]


def resolve_algebra_factory(kind, seed: int = DEFAULT_SEED) -> AlgebraFactory:
    """Normalize an algebra kind name or factory callable to a factory n -> algebra.

    A callable passes through; only 'custom' (``random_unitary_algebra``) reads seed.
    """
    if callable(kind):
        return kind
    name = str(kind).lower()
    if name == "custom":
        return lambda n: random_unitary_algebra(n, seed=seed)
    return lambda n: make_algebra(name, n)


def _two_sided(alg: TransformAlgebra, apply: Callable[..., np.ndarray], a) -> np.ndarray:
    """M A M* for the map apply(x) = M x along axis 0, as a new array.

    Computed in place as (apply (apply A)*)*, then checked against the
    unitary invariant ||M A M*||_F^2 = ||A||_F^2 to UNITARITY_RTOL * sqrt(n),
    relative.
    """
    m = as_square(a)
    n = m.shape[0]
    if n != alg.order:
        raise DimensionMismatchError(
            f"matrix order {n} does not match algebra order {alg.order}"
        )
    w = apply(m)
    np.conjugate(w, out=w)  # now w.T = (M A)*
    apply(w.T, out=w.T)  # now w.T = M A* M* = (M A M*)*
    np.conjugate(w, out=w)
    _check_norm_kept(alg, frobenius_norm_sq(m), frobenius_norm_sq(w))
    return w


def eigenbasis(alg: TransformAlgebra, a) -> np.ndarray:
    """W = U* A U, the matrix A in the algebra's eigenbasis, as a new array."""
    return _two_sided(alg, alg.transform, a)


def from_eigenbasis(alg: TransformAlgebra, w) -> np.ndarray:
    """U W U*, the matrix with eigenbasis coordinates W, as a new array."""
    return _two_sided(alg, alg.inverse, w)


def _check_norm_kept(alg: TransformAlgebra, before: float, after: float) -> None:
    """Squared norms before and after a map agree to UNITARITY_RTOL * sqrt(n)."""
    defect = abs(after - before)
    if not defect <= UNITARITY_RTOL * np.sqrt(alg.order) * before:
        raise NotUnitaryError(
            f"{alg.kind} transform of order {alg.order} is not unitary: "
            f"norm defect {defect:.3e} of {before:.3e}"
        )


def check_transform(alg: TransformAlgebra, x=None) -> np.ndarray:
    """Check ``alg.transform`` and ``alg.inverse`` on x; return U* x.

    U* x must keep the norm of x, and U U* x must give back x within
    UNITARITY_RTOL * sqrt(n) * ||x||.  x defaults to the ramp 1..n.  The
    per-build unitarity check of a preconditioner, O(n log n) on a
    built-in algebra, whose unitary is never formed.
    """
    x = np.arange(1.0, alg.order + 1.0) if x is None else x
    y = alg.transform(x)
    _check_norm_kept(alg, float(np.vdot(x, x).real), float(np.vdot(y, y).real))
    error, norm = np.linalg.norm(alg.inverse(y) - x), np.linalg.norm(x)
    if not error <= UNITARITY_RTOL * np.sqrt(alg.order) * norm:
        raise NotUnitaryError(
            f"{alg.kind} inverse of order {alg.order} does not undo its transform: "
            f"round-trip error {error:.3e} of {norm:.3e}"
        )
    return y


def algebra_diagonal(alg: TransformAlgebra, a) -> np.ndarray:
    """diag(U* A U): the algebra coordinates of the projection of A."""
    return np.diagonal(eigenbasis(alg, a)).copy()


def project(alg: TransformAlgebra, a) -> np.ndarray:
    """Frobenius-optimal approximant U diag(U* A U) U* of A inside the algebra."""
    return from_eigenbasis(alg, np.diag(algebra_diagonal(alg, a)))


def optimal_circulant_column(f: Symbol, n: int) -> np.ndarray:
    """First column of the optimal circulant of T_n(f).

    c_k = ((n - k) a_k + k a_{k-n}) / n, the mean of the Toeplitz
    diagonals that wrap onto the k-th circulant diagonal.
    """
    c = np.zeros(n, dtype=np.complex128)
    # Only the symbol's nonzero frequencies contribute; |freq| >= n falls
    # outside the section entirely.
    for freq, amp in f.coefficients.items():
        if 0 <= freq < n:
            c[freq] += (n - freq) * amp / n
        elif -n < freq < 0:
            c[n + freq] += (n + freq) * amp / n
    return c


def lag_sum(alg: TransformAlgebra, f: Symbol, xs: np.ndarray) -> np.ndarray:
    """sum_{|k|<n} a_k w_k(xs) with the algebra's closed-form lag weights.

    O(len(xs) deg f).  For a real f, w_{-k} = conj(w_k) and
    a_{-k} = conj(a_k): the lags k < 0 add the conjugates of the lags
    k > 0, so only k >= 0 is evaluated and the result is real.
    """
    n = alg.order
    real = f.is_real
    lo = 0 if real else 1 - n
    lags = {k: a for k, a in f.coefficients.items() if lo <= k < n}
    ks = np.fromiter(lags, dtype=np.int64, count=len(lags))
    amps = np.fromiter(lags.values(), dtype=np.complex128, count=len(lags))
    if not real:
        return alg.lag_weights(ks, xs) @ amps
    amps[ks > 0] *= 2.0
    return (alg.lag_weights(ks, xs) @ amps).real


def toeplitz_diagonal(alg: TransformAlgebra, f: Symbol) -> np.ndarray:
    """diag(U* T_n(f) U) for a built-in algebra, without the section.

    These are the eigenvalues of the projection of T_n(f), real for a
    real f.  The maps U* and U that the diagonal comes with are checked
    first, on the ramp (``check_transform``).  Fourier: sqrt(n) U* c for
    the optimal circulant column c, O(n log n).  Sine and Hartley:
    ``lag_sum`` on the grid, O(n deg f).  Only the lags |k| < n enter, so
    any degree works.  The result is checked against the trace identity
    sum d = n a_0, else InvariantViolationError.
    """
    if alg.lag_weights is None:
        raise ValueError(f"{alg.kind} algebra has no closed-form Toeplitz diagonal")
    check_transform(alg)
    if alg.kind == "fourier":
        d = np.sqrt(alg.order) * alg.transform(optimal_circulant_column(f, alg.order))
        d = d.real if f.is_real else d
    else:
        d = lag_sum(alg, f, alg.grid)
    check_toeplitz_trace(alg, f, d)
    return d


def check_toeplitz_trace(alg: TransformAlgebra, f: Symbol, d: np.ndarray) -> None:
    """diag(U* T_n(f) U) = d must keep the trace: sum d = n a_0, else InvariantViolationError."""
    n = alg.order
    scale = n * sum(abs(a) for k, a in f.coefficients.items() if abs(k) < n)
    defect = abs(np.sum(d) - n * f.coefficient(0))
    if not defect <= TRACE_RTOL * scale:
        raise InvariantViolationError(
            f"{alg.kind} Toeplitz diagonal of order {n} breaks the trace "
            f"identity: defect {defect:.3e} of {scale:.3e}"
        )


def _weyl_probe(n: int) -> np.ndarray:
    """The fixed probe x_j = frac(j phi) - 1/2 of the structured forms.

    A random vector would import numpy.random, which costs a command ~25 ms.
    """
    return np.arange(n) * 0.6180339887498949 % 1.0 - 0.5


class CornerColumns:
    """L = Y C (= U* E_I for corner rows I), with Y kept in two small factors.

    Y[k, t] = exp(-2 pi i p_t k / P) over distinct frequencies p_t, and C
    is (K, |I|).  With k = q m + j and m = ceil(sqrt(n)),
    Y[k, t] = A[q, t] B[j, t], each phase reduced mod P in integers first:
    the factors hold O(sqrt(n) K) numbers.  Y z, diag(Y M Y*), Y* diag(h) Y,
    and Y* v and out += Y z on a row block of the (q, m) layout cost O(n K).
    """

    def __init__(self, order: int, period: int, freqs: np.ndarray, coef: np.ndarray, factors=None):
        """factors: (A, B) on freqs where already built, else built here."""
        width = math.isqrt(order - 1) + 1
        if factors is None:
            turn = -2j * np.pi / period
            factors = (np.exp(turn * (np.outer(np.arange(0, order, width), freqs) % period)),
                       np.exp(turn * (np.outer(np.arange(width), freqs) % period)))
        self._outer, self._inner = factors
        self.coef, self._freqs, self._period = coef, freqs, period
        self._order, self._width = order, width

    @classmethod
    def of_rows(cls, alg: TransformAlgebra, rows: np.ndarray) -> "CornerColumns":
        """U* E_rows, from the algebra's ``row_exponentials``."""
        period, freqs, coeffs = alg.row_exponentials(rows)
        freqs, where = np.unique(np.mod(freqs, period), return_inverse=True)
        coef = np.zeros((freqs.size, len(rows)), dtype=np.complex128)
        np.add.at(coef, where, coeffs.T.conj())
        return cls(alg.order, period, freqs, coef)

    def head(self, count: int) -> "CornerColumns":
        """The first ``count`` columns, on the frequencies they use: the factors' kept columns."""
        keep = self.coef[:, :count].any(axis=1)
        factors = tuple(np.ascontiguousarray(x[:, keep]) for x in (self._outer, self._inner))
        return CornerColumns(self._order, self._period, self._freqs[keep], self.coef[keep, :count],
                             factors)

    @functools.cached_property
    def _inner_real(self) -> np.ndarray:
        """v -> v conj(B) on (re, im) pairs as a real (2m, 2K) matrix; z -> z B^T is its transpose.

        Real products run faster than complex ones.
        """
        conj = self._inner.conj()  # rows Re v: (re, -im) pairs; rows Im v: (im, re)
        return np.stack((conj, 1j * conj), 1).view(np.float64).reshape(2 * self._width, -1)

    def apply(self, z: np.ndarray) -> np.ndarray:
        """Y z as a new vector."""
        return ((self._outer * z) @ self._inner.T).ravel()[: self._order]

    def _spread(self, summed: bool) -> tuple["CornerColumns", np.ndarray]:
        """(Y' on the O(K) distinct p_t - p_u mod P, or p_t + p_u if summed, the index of
        each (t, u)): Y_t conj(Y_u), or Y_t Y_u."""
        f = self._freqs
        spread = (np.add if summed else np.subtract).outer(f, f).ravel() % self._period
        spread, first, where = np.unique(spread, return_index=True, return_inverse=True)
        t, u = np.divmod(first, len(f))
        factors = [np.ascontiguousarray(x[:, t] * (x[:, u] if summed else x[:, u].conj()))
                   for x in (self._outer, self._inner)]
        return CornerColumns(self._order, self._period, spread, None, factors), where

    @functools.cached_property
    def _differences(self) -> tuple["CornerColumns", np.ndarray]:
        return self._spread(False)

    @functools.cached_property
    def _sums(self) -> tuple["CornerColumns", np.ndarray]:
        return self._spread(True)

    def diagonal(self, m: np.ndarray) -> np.ndarray:
        """diag(Y M Y*), real for a Hermitian M: Y' h, h summing M over each p_t - p_u."""
        spread, where = self._differences
        h = np.zeros(spread._freqs.size, dtype=np.complex128)
        np.add.at(h, where, m.ravel())
        return spread.apply(h).real

    def _spread_gram(self, spread: "CornerColumns", where: np.ndarray, h) -> np.ndarray:
        """Y'* h at each (t, u) for each row of the real (b, n) h, (b, K, K)."""
        q, m = len(spread._outer), self._width
        padded = np.concatenate((h, np.zeros((len(h), q * m - self._order))), axis=1)
        head = (padded.reshape(-1, m) @ spread._inner.conj().view(np.float64)).view(np.complex128)
        sums = np.einsum("bqt,qt->bt", head.reshape(len(h), q, -1), spread._outer.conj())
        return sums[:, where].reshape(len(h), len(self._freqs), -1)

    def gram(self, h: np.ndarray, paired: Optional[np.ndarray] = None) -> np.ndarray:
        """Y* diag(h) Y for each row of the real (b, n) h, plus Y* diag(paired) conj(Y) for the
        complex (b, n) paired, (b, K, K): Y'* h on the differences p_t - p_u, Y'* paired on
        the sums p_t + p_u.

        For columns of period n, conj(Y) = Pi Y with Pi the reflection k -> -k mod n.
        """
        grams = self._spread_gram(*self._differences, h)
        if paired is None:
            return grams
        parts = self._spread_gram(*self._sums, np.concatenate((paired.real, paired.imag)))
        return grams + parts[: len(h)] + 1j * parts[len(h) :]

    def blocks(self, size: int) -> list[tuple[slice, slice]]:
        """(elements, rows) of row blocks of ~size elements; the last has the partial row."""
        n, m = self._order, self._width
        step = max(size // m, 1)
        ends = [*range(step, n // m, step), -(-n // m)]
        return [(slice(a * m, min(b * m, n)), slice(a, b)) for a, b in zip([0, *ends], ends)]

    def adjoint(self, v: np.ndarray, rows: slice) -> np.ndarray:
        """Y* v over one row block, v holding the block's elements (contiguous)."""
        outer, vr, m2 = self._outer[rows].conj(), v.view(np.float64), 2 * self._width
        if vr.size < len(outer) * m2:  # the partial last row, padded with zeros
            vr = np.concatenate((vr, np.zeros(len(outer) * m2 - vr.size)))
        head = (vr.reshape(-1, m2) @ self._inner_real).view(np.complex128)
        return np.einsum("qt,qt->t", head, outer)

    def add_to(self, out: np.ndarray, z: np.ndarray, rows: slice) -> None:
        """out += Y z over one row block, out holding the block's elements (contiguous)."""
        o = out.view(np.float64)
        o += ((self._outer[rows] * z).view(np.float64) @ self._inner_real.T).ravel()[: o.size]


class DiagonalPlusLowRank:
    """W = U* A U = diag(g) + L S L* in an algebra's eigen coordinates, L = Y C of small rank.

    ``columns`` is Y, read only through ``diagonal(M)`` = diag(Y M Y*) and
    ``gram(h)`` = Y* diag(h) Y: the ``CornerColumns`` of a Toeplitz
    section (``toeplitz_corner_parts``) or, for a ``LowRank`` V V*, the
    dense ``LowRank`` Y = U* V (``LowRank.form``).  ``coef`` is C and ``s``
    the Hermitian core S; an eigenvalue of S at or below rtol * ``scale``
    is round-off to ``compressed``.
    """

    def __init__(self, g: np.ndarray, columns, coef: np.ndarray, s: np.ndarray, scale: float):
        self.g, self.columns, self.coef, self.s, self.scale = g, columns, coef, s, scale

    @functools.cached_property
    def core(self) -> np.ndarray:
        """C S C*, so that L S L* = Y (C S C*) Y*."""
        return self.coef @ self.s @ self.coef.conj().T

    @functools.cached_property
    def delta(self) -> np.ndarray:
        """diag(L S L*)."""
        return self.columns.diagonal(self.core)

    @functools.cached_property
    def norms(self) -> np.ndarray:
        """diag(L L*)."""
        return self.columns.diagonal(self.coef @ self.coef.conj().T)

    def eigenvalues(self) -> np.ndarray:
        """c = g + diag(L S L*), the eigenvalues of the projection U diag(W) U*."""
        return self.g + self.delta

    def gram(self, h: np.ndarray, paired: Optional[np.ndarray] = None) -> np.ndarray:
        """L* diag(h) L, plus L* diag(paired) Pi L, for each row of the real (b, n) h, (b, r, r).

        A complex (b, n) ``paired`` needs ``CornerColumns`` of period n: Pi L = conj(Y) C.
        """
        grams = self.columns.gram(h) if paired is None else self.columns.gram(h, paired)
        return self.coef.conj().T @ grams @ self.coef

    def compressed(self, rtol: float) -> "DiagonalPlusLowRank":
        """The form with S = diag(w) on the range of S: its eigenvalues w above
        rtol * scale, and C Q for their eigenvectors Q."""
        w, q = np.linalg.eigh(0.5 * (self.s + self.s.conj().T))
        keep = np.abs(w) > rtol * self.scale
        return DiagonalPlusLowRank(self.g, self.columns, self.coef @ q[:, keep],
                                   np.diag(w[keep]), self.scale)


class LowRank:
    """A = V V* given by its n x r factor V, never formed unless a count falls back.

    As the columns of a form V is read like ``CornerColumns``, through
    ``diagonal`` and ``gram``.
    """

    def __init__(self, factor: np.ndarray):
        self.factor = factor

    def form(self, alg: TransformAlgebra) -> DiagonalPlusLowRank:
        """U* V V* U = Y Y*: g = 0, the LowRank Y = U* V, C = S = I and scale ||V||_F^2."""
        v = np.asarray(self.factor, dtype=np.complex128)
        if v.shape[0] != alg.order:
            raise DimensionMismatchError(
                f"factor order {v.shape[0]} does not match algebra order {alg.order}")
        eye = np.eye(v.shape[1])
        return DiagonalPlusLowRank(np.zeros(alg.order), LowRank(alg.transform(v)), eye, eye,
                                   frobenius_norm_sq(v))

    def diagonal(self, m: np.ndarray) -> np.ndarray:
        """diag(V M V*), real for a Hermitian M."""
        return np.einsum("ij,jk,ik->i", self.factor, m, self.factor.conj()).real

    def gram(self, h: np.ndarray) -> np.ndarray:
        """V* diag(h) V for each row of the real (b, n) h, (b, r, r)."""
        return (self.factor.conj().T * h[:, None, :]) @ self.factor


def _corner_rows(n: int, d: int) -> np.ndarray:
    """The corner rows I = {0..d-1} u {n-d..n-1}."""
    return np.concatenate((np.arange(d), np.arange(n - d, n)))


def toeplitz_corner_parts(alg: TransformAlgebra, f: Symbol) -> Optional[DiagonalPlusLowRank]:
    """U* T_n(f) U = diag(g) + L S L* with L = U* E_I for the corner rows I, or None.

    For a real f of degree d and n >= 2d + 1, T_n(f) - A with
    A = U diag(g) U* lives on the corner block I = {0..d-1} u {n-d..n-1}
    for every f in the Fourier algebra, and for even f in the sine and
    Hartley algebras.  There A is Strang's circulant, A_jk = s_{(j-k) mod n}
    for s_k = a_k, s_{n-k} = a_{-k} (Fourier; Hartley, where an even s
    keeps only the cosine part of cas x cas), and g = sqrt(n) U* s is read
    through ``CornerColumns`` on I and d, the 2d + 1 entries of s, in
    O(n d) with no transform (with this U, g_j = f(-x_j) in Fourier,
    f(x_j) in Hartley); L is the same factorization without column d.
    In the sine algebra A is the tau matrix T_n(f) - H,
    H_jk = a_{j+k+2} + a_{2n-j-k}, and g_j = f(x_j) on the grid, read
    through L's own factors, which hold every frequency -k mod P.  So
    S = T_II - A_II is read exactly from the coefficients, and L in closed
    form from ``row_exponentials``; the scale is sum |a_k|.  Nothing is
    verified here.  None for a complex f, n < 2d + 1, a custom algebra, or
    an odd part of f in the sine or Hartley algebra (some |Im a_k| above
    the round-off of ``Symbol.is_real``, read before any transform).
    """
    n, d = alg.order, f.degree
    if alg.row_exponentials is None or not f.is_real or n < 2 * d + 1:
        return None
    amps = f.coefficients.values()
    floor = REALNESS_TOL * (1.0 + max((abs(a) for a in amps), default=0.0))
    if alg.kind != "fourier" and any(abs(a.imag) > floor for a in amps):
        return None
    scale = sum(abs(a) for a in amps)
    rows = _corner_rows(n, d)
    j, k = rows[:, None], rows[None, :]
    if alg.kind == "sine":
        # g_j = f(x_0 + 2 pi j / P) = a_0 + (Y c)_j, c holding a_k e^{i k x_0} at -k mod P
        cols, ks = CornerColumns.of_rows(alg, rows), np.delete(np.arange(-d, d + 1), d)
        c = np.zeros(len(cols.coef), dtype=np.complex128)
        c[np.searchsorted(cols._freqs, -ks % (2 * n + 2))] = (
            np.delete(f.coefficient_array(-d, d + 1), d) * np.exp(1j * ks * alg.grid[0]))
        g = (f.coefficient(0) + cols.apply(c)).real
        s = section_entries(f, j + k + 2) + section_entries(f, 2 * n - j - k)
    else:
        strang = lambda idx: section_entries(f, np.where(idx < n - d, idx, idx - n))  # s at idx
        support = np.append(rows, d)  # I and d: where Strang's column lives
        cols = CornerColumns.of_rows(alg, support)
        g = np.sqrt(n) * cols.apply(cols.coef @ strang(support)).real
        s = section_entries(f, j - k) - strang((j - k) % n)
        cols = cols.head(2 * d)
    return DiagonalPlusLowRank(g, cols, cols.coef, s, scale)


def toeplitz_corner_form(alg: TransformAlgebra, f: Symbol) -> Optional[DiagonalPlusLowRank]:
    """The form of ``toeplitz_corner_parts``, verified, or None.

    The form is verified per n on ``_weyl_probe`` x, with y = U* x:
    ||T x - U (g y) - E_I S x_I|| must stay within TRACE_RTOL ||T x||, and
    ||L* y - x_I|| (L* U* = E_I*, through ``adjoint``) within
    TRACE_RTOL ||x||.  None where there are no parts or a check fails.
    """
    form = toeplitz_corner_parts(alg, f)
    if form is None:
        return None
    rows = _corner_rows(alg.order, f.degree)
    x = _weyl_probe(alg.order)
    tx, y = ToeplitzOperator(f, alg.order).matvec(x), alg.transform(x)
    defect = tx - alg.inverse(form.g * y)
    defect[rows] -= form.s @ x[rows]
    if np.linalg.norm(defect) > TRACE_RTOL * np.linalg.norm(tx):
        return None
    gathered = form.coef.conj().T @ form.columns.adjoint(y, slice(None))
    if np.linalg.norm(gathered - x[rows]) > TRACE_RTOL * np.linalg.norm(x):
        return None
    return form


def toeplitz_pair_form(
    alg: TransformAlgebra, f: Symbol
) -> Optional[tuple[DiagonalPlusLowRank, np.ndarray, tuple[np.ndarray, np.ndarray]]]:
    """(form, c, (p, q)): T_n(f) and its Hartley projection in Fourier coordinates, or None.

    cas x = ((1 - i) e^{ix} + (1 + i) e^{-ix}) / 2 makes the Hartley algebra
    2 x 2-block diagonal in Fourier coordinates, on the pairs (a, -a mod n):
    with c = ``toeplitz_diagonal``, U_F* U_H diag(c) U_H* U_F = B has
    B[a, a] = p_a = (c_a + c_-a) / 2 and B[a, -a] = q_a = i (c_-a - c_a) / 2
    (p_a = c_a, q_a = 0 at the fixed points a = 0, n/2).  The form is the
    Fourier ``toeplitz_corner_form``, U_F* T_n(f) U_F = diag(g) + L S L*, so
    U_F* (T_n(f) - P) U_F = diag(g) - B + L S L* for any real f, odd part
    included.  B is verified per n on ``_weyl_probe`` x: U_F (B U_F* x) must
    match U_H (c U_H* x) within TRACE_RTOL.  None for another kind, where the
    Fourier form is None, or a failed check.
    """
    if alg.kind != "hartley" or alg.lag_weights is None:
        return None
    n = alg.order
    fourier = make_algebra("fourier", n)
    form = toeplitz_corner_form(fourier, f)
    if form is None:
        return None
    c = toeplitz_diagonal(alg, f)
    flip = -np.arange(n) % n
    p, q = 0.5 * (c + c[flip]), 0.5j * (c[flip] - c)
    x = _weyl_probe(n)
    y, want = fourier.transform(x), alg.inverse(c * alg.transform(x))
    defect = np.linalg.norm(fourier.inverse(p * y + q * y[flip]) - want)
    if defect > TRACE_RTOL * np.linalg.norm(want):
        return None
    return form, c, (p, q)


def _band_matvec(low: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A y for the Hermitian A with lower band low[p, k] = A[p, p - k]."""
    out = low[:, 0] * y
    for k in range(1, low.shape[1]):
        out[k:] += low[k:, k] * y[:-k]
        out[:-k] += low[k:, k].conj() * y[k:]
    return out


def toeplitz_band_form(
    alg: TransformAlgebra, f: Symbol
) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(g, M, P): T_n(f) - P and P = U diag(g) U* as bands, or None.

    For a real f of degree d, T_n(f) and its projection P onto the sine
    algebra are Hermitian with bandwidth b = min(d, n - 1): the odd part
    of f, i K with K real skew, has diag(U* i K U) = 0 in the real sine
    basis, and the tau projection of the even part is a Toeplitz-plus-Hankel
    band of width d.  M and P are returned as lower bands,
    M[p, k] = (T - P)[p, p - k] for k = 0..b.  g = ``toeplitz_diagonal``;
    the band of T is a_k in column k, that of P comes from 2b + 1 comb
    probes (ones at every (2b + 1)-th position) in one batched
    x -> U (g U* x).  The bands are verified per n on ``_weyl_probe``:
    ||T x - U (g U* x) - M x|| and ||U (g U* x) - P x|| must stay within
    TRACE_RTOL ||T x||.  None for a complex f, another kind or a failed check.
    """
    n, d = alg.order, f.degree
    if alg.kind != "sine" or alg.lag_weights is None or not f.is_real:
        return None
    g = toeplitz_diagonal(alg, f).real  # real for a real f, up to round-off
    b = min(d, n - 1)
    period = min(2 * b + 1, n)
    pos, ks = np.arange(n)[:, None], np.arange(b + 1)
    x = _weyl_probe(n)
    tx = ToeplitzOperator(f, n).matvec(x)
    probes = np.zeros((n, period + 1))
    probes[np.arange(n), np.arange(n) % period] = 1.0
    probes[:, period] = x
    applied = alg.inverse(g[:, None] * alg.transform(probes))
    inside = pos >= ks
    p_band = np.where(inside, applied[pos, (pos - ks) % period], 0.0)
    m_band = np.where(inside, section_entries(f, ks), 0.0) - p_band
    px = applied[:, period]
    defect = np.concatenate((tx - px - _band_matvec(m_band, x), px - _band_matvec(p_band, x)))
    if np.linalg.norm(defect) > TRACE_RTOL * np.linalg.norm(tx):
        return None
    return g, m_band, p_band


def project_toeplitz_fast(f: Symbol, n: int) -> np.ndarray:
    """Closed-form Fourier-algebra projection of a Toeplitz section.

    The result is the circulant with first column
    ``optimal_circulant_column(f, n)``; it agrees with the generic
    projection onto the Fourier algebra to round-off and costs O(n) for
    the column plus the O(n^2) write of the dense result.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    c = optimal_circulant_column(f, n)
    # entry c_{(j-k) mod n} is Toeplitz lag j-k of (c_1, ..., c_{n-1}, c_0, ..., c_{n-1})
    return toeplitz_from_lags(np.concatenate((c[1:], c)))


def singleton_partition(n: int) -> np.ndarray:
    return np.arange(n)


def single_block_partition(n: int) -> np.ndarray:
    return np.zeros(n, dtype=np.int64)


def contiguous_partition(n: int, block_size: int) -> np.ndarray:
    """Contiguous blocks of the given size; the last block may be shorter."""
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    return np.arange(n) // block_size


def pinch(partition, a) -> np.ndarray:
    """Block-diagonal part of A: sum_k P_k A P_k.

    A partition of 0..n-1 is a vector of n block labels: i and j share a
    block when partition[i] == partition[j].
    """
    m = as_square(a)
    labels = np.asarray(partition)
    if labels.shape != (m.shape[0],):
        raise DimensionMismatchError(
            f"partition labels {labels.shape} do not match matrix order {m.shape[0]}"
        )
    return np.where(labels[:, None] == labels[None, :], m, 0)


def project_pinched(alg: TransformAlgebra, partition, a) -> np.ndarray:
    """Modified (pinched) projection U pinch(U* A U) U*.

    With singleton blocks this reduces to the plain projection; with a
    single block it is the identity map.  It satisfies the same linearity,
    adjoint, trace and Frobenius-Pythagoras identities and is never farther
    from A than the plain projection.
    """
    return from_eigenbasis(alg, pinch(partition, eigenbasis(alg, a)))
