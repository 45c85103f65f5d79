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
U* T_n(f) U as a diagonal plus a rank-2 deg f term, with the corner
columns in closed form (``CornerColumns``) and ``toeplitz_corner_form``
checking it on a probe; for any real f,
``toeplitz_band_form`` gives T_n(f) and its projection as bands of width
2 deg f + 1 in the reflection-pairing order.
"""

from __future__ import annotations

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
    real f.  Fourier: sqrt(n) U* c for the optimal circulant column c,
    O(n log n).  Sine and Hartley: ``lag_sum`` on the grid, O(n deg f).
    Only the lags |k| < n enter, so any degree works.  The maps U* and U
    that the diagonal comes with are checked as well (``check_transform``;
    for Fourier on the vector the diagonal transforms, see
    ``_fourier_diagonal``).  The result is checked against the trace
    identity sum d = n a_0, else InvariantViolationError.
    """
    if alg.lag_weights is None:
        raise ValueError(f"{alg.kind} algebra has no closed-form Toeplitz diagonal")
    n = alg.order
    if alg.kind == "fourier":
        d = _fourier_diagonal(alg, f)
    else:
        check_transform(alg)
        d = lag_sum(alg, f, alg.grid)
    scale = n * sum(abs(a) for k, a in f.coefficients.items() if abs(k) < n)
    defect = abs(np.sum(d) - n * f.coefficient(0))
    if not defect <= TRACE_RTOL * scale:
        raise InvariantViolationError(
            f"{alg.kind} Toeplitz diagonal of order {n} breaks the trace "
            f"identity: defect {defect:.3e} of {scale:.3e}"
        )
    return d


def _fourier_diagonal(alg: TransformAlgebra, f: Symbol) -> np.ndarray:
    """sqrt(n) U* c for the optimal circulant column c, with U* and U checked on the way.

    An even f gives an even c (c_{-j} = c_j), on which U U* c = c cannot
    tell U from a flipped U*.  For a real f, c is Hermitian and U* c real,
    while the real odd o = ||c|| (e_1 - e_{-1}) has an imaginary U* o: the
    check runs on c + o, which is not even, and Re U* (c + o) = U* c.  At
    n = 2 the flip is the identity and o = 0.  A complex f is checked on c.
    """
    n = alg.order
    c = optimal_circulant_column(f, n)
    if not f.is_real:
        return np.sqrt(n) * check_transform(alg, c)
    if n > 2:
        t = np.linalg.norm(c)
        c[1] += t
        c[n - 1] -= t
    return np.sqrt(n) * check_transform(alg, c).real


def _weyl_probe(f: Symbol, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, T_n(f) x) for the fixed probe x_j = frac(j phi) - 1/2 of the structured forms.

    The product is matrix-free.  A random vector would import numpy.random,
    which costs a command ~25 ms.
    """
    x = np.arange(n) * 0.6180339887498949 % 1.0 - 0.5
    return x, ToeplitzOperator(f, n).matvec(x)


class CornerColumns:
    """L = U* E_I = Y C for corner rows I, with Y kept in two small factors.

    From ``row_exponentials``, Y[k, t] = exp(-2 pi i p_t k / P) over the
    distinct p_t, and C is (K, |I|).  With k = q m + j and m = ceil(sqrt(n)),
    Y[k, t] = A[q, t] B[j, t], each phase reduced mod P in integers first:
    the factors hold O(sqrt(n) K) numbers, and Y* v (``adjoint``) and
    out += Y z (``add_to``) cost two matrix products of O(n K) each.
    """

    def __init__(self, alg: TransformAlgebra, rows: np.ndarray):
        n = alg.order
        period, freqs, coeffs = alg.row_exponentials(rows)
        freqs, where = np.unique(np.mod(freqs, period), return_inverse=True)
        self.coef = np.zeros((freqs.size, len(rows)), dtype=np.complex128)
        np.add.at(self.coef, where, coeffs.T.conj())
        width = math.isqrt(n - 1) + 1
        turn = -2j * np.pi / period
        self._outer = np.exp(turn * (np.outer(np.arange(0, n, width), freqs) % period))
        self._inner = np.exp(turn * (np.outer(np.arange(width), freqs) % period))
        self._order, self._rows, self._width = n, n // width, width

    def dense(self) -> np.ndarray:
        """L as an (n, |I|) array."""
        y = self._outer[:, None, :] * self._inner[None, :, :]
        y = y.reshape(len(self._outer) * self._width, self.coef.shape[0])
        return y[: self._order] @ self.coef

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        """Y* v."""
        q, m = self._rows, self._width
        inner, outer = self._inner.conj(), self._outer.conj()
        out = np.einsum("qt,qt->t", v[: q * m].reshape(q, m) @ inner, outer[:q])
        tail = v[q * m :]
        if tail.size:
            out += (tail @ inner[: tail.size]) * outer[q]
        return out

    def add_to(self, out: np.ndarray, z: np.ndarray) -> None:
        """out += Y z, in place."""
        q, m = self._rows, self._width
        head = out[: q * m].reshape(q, m)
        head += (self._outer[:q] * z) @ self._inner.T
        tail = out[q * m :]
        if tail.size:
            tail += self._inner[: tail.size] @ (self._outer[q] * z)


def toeplitz_corner_parts(
    alg: TransformAlgebra, f: Symbol
) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(g, I, S) with U* T_n(f) U = diag(g) + L S L* and L = U* E_I, or None.

    For a real f of degree d and n >= 2d + 1, T_n(f) - A with
    A = U diag(g) U* lives on the corner block I = {0..d-1} u {n-d..n-1}
    for every f in the Fourier algebra, and for even f in the sine and
    Hartley algebras.  There A is Strang's circulant, A_jk = s_{(j-k) mod n}
    for s_k = a_k, s_{n-k} = a_{-k} (Fourier; Hartley, where an even s
    keeps only the cosine part of cas x cas), and g = sqrt(n) U* s is one
    transform (with this U, g_j = f(-x_j) in Fourier, f(x_j) in Hartley).
    In the sine algebra A is the tau matrix T_n(f) - H,
    H_jk = a_{j+k+2} + a_{2n-j-k}, and g_j = f(x_j) on the grid.  So
    S = T_II - A_II is read exactly from the coefficients, and L in closed
    form from ``row_exponentials`` (``CornerColumns``).  Nothing is verified
    here.  None for a complex f, n < 2d + 1, a custom algebra, or an odd
    part of f in the sine or Hartley algebra (some |Im a_k| above the
    round-off of ``Symbol.is_real``, read before any transform).
    """
    n, d = alg.order, f.degree
    if alg.row_exponentials is None or not f.is_real or n < 2 * d + 1:
        return None
    amps = f.coefficients.values()
    floor = REALNESS_TOL * (1.0 + max((abs(a) for a in amps), default=0.0))
    if alg.kind != "fourier" and any(abs(a.imag) > floor for a in amps):
        return None
    rows = np.concatenate((np.arange(d), np.arange(n - d, n)))
    j, k = rows[:, None], rows[None, :]
    if alg.kind == "sine":
        g = f.eval_real(alg.grid)
        s = section_entries(f, j + k + 2) + section_entries(f, 2 * n - j - k)
    else:
        strang = np.roll(f.coefficient_array(-d, n - d), -d)
        g = np.sqrt(n) * alg.transform(strang).real
        s = section_entries(f, j - k) - strang[(j - k) % n]
    return g, rows, s


def toeplitz_corner_form(
    alg: TransformAlgebra, f: Symbol
) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(g, L, S) of ``toeplitz_corner_parts``, with L formed and the form verified, or None.

    The form is verified per n on ``_weyl_probe`` x, with y = U* x:
    ||T x - U (g y) - E_I S x_I|| must stay within TRACE_RTOL ||T x||, and
    ||L* y - x_I|| (L* U* = E_I*) within TRACE_RTOL ||x||.  None where
    there are no parts or a check fails.
    """
    parts = toeplitz_corner_parts(alg, f)
    if parts is None:
        return None
    g, rows, s = parts
    low = CornerColumns(alg, rows).dense()
    x, tx = _weyl_probe(f, alg.order)
    y = alg.transform(x)
    defect = tx - alg.inverse(g * y)
    defect[rows] -= s @ x[rows]
    if np.linalg.norm(defect) > TRACE_RTOL * np.linalg.norm(tx):
        return None
    if np.linalg.norm(low.conj().T @ y - x[rows]) > TRACE_RTOL * np.linalg.norm(x):
        return None
    return g, low, s


def _pairing_order(n: int) -> np.ndarray:
    """The reflection-pairing order 0, 1, n-1, 2, n-2, ... of the indices 0..n-1."""
    j = np.arange(n)
    return np.where(j % 2 == 1, (j + 1) // 2, (n - j // 2) % n)


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

    For a real f of degree d, in the pairing order perm = 0, 1, n-1, 2, ...,
    T_n(f) and the projection P of T_n(f) onto a built-in algebra are
    Hermitian with bandwidth b <= 2d + 1: the pairing order puts j and
    n - j side by side, and the odd part of f, i K with K real skew, has
    diag(U* i K U) = 0 in the real sine and Hartley bases.  M and P are
    returned as lower bands, M[p, k] = (T - P)[perm[p], perm[p - k]] for
    k = 0..b.  g = ``toeplitz_diagonal``; the band of T comes from the
    coefficients, that of P from 2b + 1 comb probes (ones at every
    (2b + 1)-th position) in one batched x -> U (g U* x).  The bands are
    verified per n on ``_weyl_probe``: ||T x - U (g U* x) - M x|| and
    ||U (g U* x) - P x|| must stay within TRACE_RTOL ||T x||.  None for a
    complex f, a custom algebra or a failed check.
    """
    n, d = alg.order, f.degree
    if alg.lag_weights is None or not f.is_real:
        return None
    g = toeplitz_diagonal(alg, f).real  # real for a real f, up to round-off
    b = min(2 * d + 1, n - 1)
    period = min(2 * b + 1, n)
    perm = _pairing_order(n)
    pos, ks = np.arange(n)[:, None], np.arange(b + 1)
    x, tx = _weyl_probe(f, n)
    probes = np.zeros((n, period + 1))
    probes[perm, np.arange(n) % period] = 1.0
    probes[:, period] = x
    applied = alg.inverse(g[:, None] * alg.transform(probes))
    inside = pos >= ks
    p_band = np.where(inside, applied[perm[:, None], (pos - ks) % period], 0.0)
    lags = perm[:, None] - perm[np.maximum(pos - ks, 0)]
    m_band = np.where(inside, section_entries(f, lags), 0.0) - p_band
    px = applied[:, period]
    defect = np.concatenate((
        tx[perm] - px[perm] - _band_matvec(m_band, x[perm]),
        px[perm] - _band_matvec(p_band, x[perm]),
    ))
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
