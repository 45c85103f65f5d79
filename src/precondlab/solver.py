"""Preconditioned conjugate gradient harness.

Demonstrates the payoff of algebra projections as preconditioners: when
the preconditioned spectrum clusters at 1, the iteration count stays flat
as the order grows.  Systems can be dense Hermitian positive definite
matrices or matrix-free Toeplitz operators; the algebra preconditioner is
applied by transform, diagonal solve and inverse transform, or, for a
large Toeplitz system with a corner form, CG runs in the algebra's eigen
coordinates, where the preconditioner is a diagonal and a solve runs one
U* and two U whatever its iteration count.
"""

from __future__ import annotations

import math
import time
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

import numpy as np

from .algebras import (
    DiagonalPlusLowRank,
    TransformAlgebra,
    algebra_diagonal,
    check_toeplitz_trace,
    check_transform,
    has_fastest_transforms,
    resolve_algebra_factory,
    toeplitz_corner_parts,
    toeplitz_diagonal,
)
from .errors import (
    DimensionMismatchError,
    InvariantViolationError,
    MaxIterationsError,
    NotPositiveDefiniteError,
)
from .symbols import Symbol
from .toeplitz import DIRECT_MAX_TAPS, ToeplitzOperator, as_linear_operator

DIAGONAL_CLAMP_RTOL = 1e-13
# Eigen-coordinate pcg runs from this order up.  Below it the extra set-up
# (corner parts, U* b, U x and the gap check) and the per-call overhead of
# the corner product cost more than the transforms it saves.
EIGEN_MIN_ORDER = 2048
# Eigen-coordinate pcg sweeps row blocks of about this many elements: the
# block's slices of x, r, p, A p and 1/c (~1.2 MB) stay in a 2 MiB L2.
BLOCK_ELEMENTS = 1 << 14
# Residual gap bound of eigen-coordinate pcg, in units of (k + 1) sum|a_k| max||x_j||.
GAP_EPS = 64 * np.finfo(np.float64).eps

PRECONDITIONER_CHOICES = ("none", "algebra_projection")


class SolveTrace:
    """Outcome of one conjugate-gradient run.

    residual_history holds relative residuals ||r_k|| / ||b|| starting at
    k = 0; solution holds the last iterate x_k.
    """

    def __init__(
        self,
        order: int,
        iterations: int,
        residual_history: list[float],
        preconditioner: str,
        wall_time: float,
        converged: bool = True,
        solution: Optional[np.ndarray] = None,
    ):
        self.order = order
        self.iterations = iterations
        self.residual_history = residual_history
        self.preconditioner = preconditioner
        self.wall_time = wall_time
        self.converged = converged
        self.solution = solution

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1]


def _check_diagonal(d: np.ndarray, scale: float) -> None:
    if not np.min(d) > DIAGONAL_CLAMP_RTOL * scale:
        raise NotPositiveDefiniteError(
            "projected diagonal has entries at or below the clamp threshold "
            f"({np.min(d):.3e} vs {DIAGONAL_CLAMP_RTOL:.0e} * {scale:.3e})"
        )


def _reciprocal(d: np.ndarray) -> np.ndarray:
    """1 / d for the diagonal d of U* A U, checked real and above the clamp."""
    if np.iscomplexobj(d) and not np.max(np.abs(d.imag)) <= 1e-8 * (1.0 + np.max(np.abs(d.real))):
        raise NotPositiveDefiniteError("projected diagonal is not real")
    dr = d.real
    _check_diagonal(dr, float(np.max(np.abs(dr))))
    # z *= 1/d runs ~3x faster than z /= d on complex z (n = 65536: 0.08 vs 0.27 ms)
    return 1.0 / dr


def _diagonal_inverse(alg: TransformAlgebra, d: np.ndarray) -> Callable:
    """x -> U diag(d)^{-1} U* x for the diagonal d of U* A U.

    The maps must have been checked (``check_transform``).  Every call
    writes its result into one work buffer, which the next call reuses.
    """
    dr_inv = _reciprocal(d)
    # Bind the maps, not alg: the closure would keep the algebra's grid alive.
    transform, inverse = alg.transform, alg.inverse
    work = np.empty(len(dr_inv), dtype=np.complex128)

    def apply(r):
        z = transform(r, out=work)
        z *= dr_inv
        return inverse(z, out=z)

    return apply


def build_preconditioner(a, precond: str, alg_kind="fourier") -> tuple[str, Callable]:
    """Return (label, apply_inverse) for the requested preconditioner.

    The preconditioner is built once from A (dense or ToeplitzOperator) and
    can be reused across solves of the same system.  A ToeplitzOperator on
    a built-in algebra takes its diagonal, and the check of U* and U, from
    ``toeplitz_diagonal`` in O(n log n); dense input and custom algebras
    take diag(U* A U) and ``check_transform``.
    """
    order, _, dense = as_linear_operator(a)
    if precond == "none":
        return "none", lambda r: r
    if precond not in PRECONDITIONER_CHOICES:
        raise ValueError(f"unknown preconditioner {precond!r}")
    alg = resolve_algebra_factory(alg_kind)(order)
    label = f"{precond}[{alg.kind}]"
    if isinstance(a, ToeplitzOperator) and alg.lag_weights is not None:
        d = toeplitz_diagonal(alg, a.symbol)
    else:
        check_transform(alg)
        d = algebra_diagonal(alg, dense())
    return label, _diagonal_inverse(alg, d)


class _EigenCoordinates:
    """CG kernels of ``_eigen_operators``, on the row blocks of the corner columns' layout.

    w = core Y* p is gathered block by block, A p = g p + Y w goes to a
    work buffer, and z = r / c overwrites each block of it once read.
    """

    def __init__(self, alg: TransformAlgebra, f: Symbol, form: DiagonalPlusLowRank):
        self._corner, self._core = form.columns, form.core
        c = form.eigenvalues()
        check_toeplitz_trace(alg, f, c)
        self._g, self._c_inv, self._work = form.g, _reciprocal(c), None  # work: made by the first z
        self.blocks = self._corner.blocks(BLOCK_ELEMENTS)

    def gather(self, v, rows):
        return self._core @ self._corner.adjoint(v, rows)

    def product(self, v, elements, rows, w):
        out = np.multiply(self._g[elements], v, out=self._work[elements])
        self._corner.add_to(out, w, rows)
        return out

    def precondition(self, r, elements):
        if self._work is None:
            self._work = np.empty(len(self._g), dtype=np.complex128)
        return np.multiply(r, self._c_inv[elements], out=self._work[elements])


def _eigen_operators(alg: TransformAlgebra, f: Symbol) -> Optional[_EigenCoordinates]:
    """The CG kernels of T_n(f) in the algebra's eigen coordinates, or None.

    U* T_n(f) U = diag(g) + L S L* (``toeplitz_corner_parts``), with
    L = Y C in closed form (``CornerColumns``): a product is g v plus
    Y (C S C*) Y* v, O(n deg f) with no transform.  The preconditioner is
    diag(c), c = g + diag(L S L*) (the projection's eigenvalues) from the
    same factors, checked by the trace identity.  None below
    EIGEN_MIN_ORDER, where there are no corner parts, where S = 0 (T_n(f)
    lies in the algebra and one step solves it), or for a band wider than
    DIRECT_MAX_TAPS.  The Fourier transforms are the cheapest, so there
    the O(n d) corner product waits for n >= EIGEN_MIN_ORDER floor(d / 2):
    at n = 4096 it took up to 1.25x (d = 15) and 1.8x (d = 31) the physical
    time, at 65536 0.56-0.87x.  Hartley and sine took <= 1.04x at every
    d <= 31 and n from 4096 to 65536.
    """
    floor = EIGEN_MIN_ORDER * (max(1, f.degree // 2) if has_fastest_transforms(alg) else 1)
    if alg.order < floor or 2 * f.degree + 1 > DIRECT_MAX_TAPS:
        return None
    form = toeplitz_corner_parts(alg, f)
    if form is None or not form.s.any():
        return None
    return _EigenCoordinates(alg, f, form)


def _check_residual_gap(a: ToeplitzOperator, rhs, x, residual, iterations, x_peak) -> None:
    """||b - T x|| must match the recurred residual ||r|| to GAP_EPS (k + 1) sum|a_k| max||x_j||.

    In exact arithmetic the eigen-coordinate residual is U* (b - T x); in
    floating point the two drift apart by round-off in each step's product
    and update (Greenbaum), which this bound covers, ill-conditioned
    systems included.  A wrong operator that keeps the trace identity, or
    x mapped back through a flipped U, leaves the true residual far above it.
    """
    true = a.matvec(x)
    np.subtract(rhs, true, out=true)
    gap = abs(float(np.linalg.norm(true)) - residual)
    scale = sum(abs(v) for v in a.symbol.coefficients.values())  # >= ||T_n(f)||
    bound = GAP_EPS * (iterations + 1) * scale * x_peak
    if not gap <= bound:
        raise InvariantViolationError(
            f"eigen-coordinate pcg drifted from the system: ||b - T x|| and the "
            f"recurred residual differ by {gap:.3e}, above {bound:.3e}"
        )


def _r_dot_z(rb, rv, z, r_sq: float) -> float:
    """Re r* z for a block rb of r, rv its float64 view and |rb|^2 = r_sq: r_sq if z is rb."""
    return r_sq if z is rb else rv.dot(z.view(np.float64))


def _iterate(sweeps, r, x, norm_b: float, tol: float, cap: int, peak: bool) -> tuple[list, float]:
    """PCG from x = 0, r = b, in place: ([||r_k|| / ||b||], max ||x_k||^2 if peak else 0).

    An iteration is three sweeps over ``sweeps.blocks`` (one, the whole
    vector, on x itself): p = z + beta p and w; A p and p* A p; x, r,
    |r|^2, |x|^2, z = M^-1 r and r* z, the last block's z after the
    convergence test.  Each inner product Re u* v is one float64 dot of
    the real views of u and v; where M^-1 r is r itself, r* z is |r|^2.
    """
    p = np.empty_like(r)
    blocks = []  # per block: slices of p, r, x, float64 views of the last two; elements, rows
    for el, rows in sweeps.blocks:
        rb, xb = r[el], x[el]
        blocks.append((p[el], rb, xb, rb.view(np.float64), xb.view(np.float64), el, rows))

    zs, gamma = [], 0.0  # z per block
    for pb, rb, _, rv, _, el, _ in blocks:
        zs.append(sweeps.precondition(rb, el))
        pb[...] = zs[-1]
        gamma += _r_dot_z(rb, rv, zs[-1], rv.dot(rv))
    history = [1.0]
    x_peak_sq = 0.0
    while history[-1] > tol and len(history) <= cap:
        w = 0.0
        for (pb, *_, rows), zb in zip(blocks, zs):  # p = z + beta p; w from p
            if len(history) > 1:
                pb *= beta
                pb += zb
            w = w + sweeps.gather(pb, rows)
        aps, curvature = [], 0.0  # A p per block
        for pb, *_, el, rows in blocks:  # A p, p* A p
            aps.append(sweeps.product(pb, el, rows, w))
            curvature += pb.view(np.float64).dot(aps[-1].view(np.float64))
        if not curvature > 0.0:
            raise NotPositiveDefiniteError(
                f"negative curvature p*Ap = {curvature:.3e}; matrix is not HPD"
            )
        alpha = gamma / curvature
        r_sq = x_sq = gamma_new = 0.0
        for i, (pb, rb, xb, rv, xv, el, _) in enumerate(blocks):  # x, r, |r|^2, |x|^2; z, r* z
            xb += alpha * pb
            rb -= alpha * aps[i]
            block_sq = rv.dot(rv)
            r_sq += block_sq
            if peak:
                x_sq += xv.dot(xv)
            if i < len(blocks) - 1:
                zs[i] = sweeps.precondition(rb, el)
                gamma_new += _r_dot_z(rb, rv, zs[i], block_sq)
        del aps  # a physical A p goes before the preconditioner apply
        history.append(math.sqrt(r_sq) / norm_b)
        x_peak_sq = max(x_peak_sq, x_sq)
        if history[-1] <= tol:
            break
        if not math.isfinite(history[-1]):
            raise InvariantViolationError(
                f"pcg residual is {history[-1]} after {len(history) - 1} iterations"
            )
        _, rb, _, rv, _, el, _ = blocks[-1]
        zs[-1] = sweeps.precondition(rb, el)
        gamma_new += _r_dot_z(rb, rv, zs[-1], block_sq)
        beta = gamma_new / gamma  # p stays its own buffer: z may be a work buffer or r
        gamma = gamma_new
    return history, x_peak_sq


def pcg(
    a,
    b,
    precond: str = "none",
    alg_kind="fourier",
    tol: float = 1e-10,
    max_iter: Optional[int] = None,
) -> SolveTrace:
    """Preconditioned conjugate gradient for Hermitian positive definite A.

    A ToeplitzOperator T_n(f) with an algebra preconditioner runs in the
    algebra's eigen coordinates where ``_eigen_operators`` allows: CG on
    U* x, whose only transforms are U* b and U U* b, checking the maps on
    b, and x = U (U* x) at the end.  That check is enough: a flip of U*
    that an even b cannot see leaves U* b as it is, and a flip of U moves
    x, which ``_check_residual_gap`` refuses.  Everything else runs on x
    itself.  Iterate x_k is the solution of the run capped at max_iter = k.
    Terminates when ||r|| / ||b|| <= tol; raises ValueError on a NaN or
    infinite entry of b or on max_iter < 0, NotPositiveDefiniteError on
    curvature that is not positive (NaN included), InvariantViolationError
    on a residual or solution that is not finite, and MaxIterationsError
    (with the partial trace attached) when the cap is hit.
    """
    order, matvec, _ = as_linear_operator(a)
    rhs = np.asarray(b, dtype=np.complex128)
    if rhs.shape != (order,):
        raise DimensionMismatchError(f"rhs shape {rhs.shape} does not match order {order}")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    norm_b = float(np.linalg.norm(rhs))  # |b|^2 may overflow on finite entries
    if not math.isfinite(norm_b) and not np.isfinite(rhs).all():
        raise ValueError("rhs has a NaN or infinite entry")
    if max_iter is not None and max_iter < 0:
        raise ValueError(f"max_iter must be at least 0, got {max_iter}")
    cap = max_iter if max_iter is not None else max(1000, 4 * order)

    alg, sweeps = None, None
    if precond == "algebra_projection" and isinstance(a, ToeplitzOperator):
        built = resolve_algebra_factory(alg_kind)(order)
        sweeps = _eigen_operators(built, a.symbol)
        alg_kind = lambda _: built  # a custom algebra is not drawn twice
    if sweeps is None:
        label, apply_inv = build_preconditioner(a, precond, alg_kind=alg_kind)
        sweeps = SimpleNamespace(  # on x itself: one block, the whole vector
            blocks=[(slice(0, order), None)], gather=lambda v, rows: 0.0,
            product=lambda v, el, rows, w: matvec(v), precondition=lambda r, el: apply_inv(r))
    else:
        alg, label = built, f"{precond}[{built.kind}]"

    start = time.perf_counter()
    if norm_b == 0.0:
        return SolveTrace(order, 0, [0.0], label, time.perf_counter() - start,
                          solution=np.zeros(order, dtype=np.complex128))

    # on the eigen path, U* b is the one forward transform and checks the maps; a real b
    # takes the real transform
    r = rhs.copy() if alg is None else check_transform(alg, rhs if rhs.imag.any() else rhs.real)
    x = np.zeros(order, dtype=np.complex128)
    history, x_peak_sq = _iterate(sweeps, r, x, norm_b, tol, cap, alg is not None)
    del r, sweeps  # with p and the work buffer, gone before the gap check
    iterations = len(history) - 1
    wall_time = time.perf_counter() - start
    if not np.isfinite(x).all():
        raise InvariantViolationError(f"pcg solution is not finite after {iterations} iterations")
    if alg is not None:
        x = alg.inverse(x, out=x)
        _check_residual_gap(a, rhs, x, history[-1] * norm_b, iterations, math.sqrt(x_peak_sq))
    converged = history[-1] <= tol
    trace = SolveTrace(order, iterations, history, label, wall_time, converged, solution=x)
    if not converged:
        raise MaxIterationsError(
            f"pcg did not reach tol {tol:g} in {cap} iterations "
            f"(relative residual {history[-1]:.3e})",
            trace=trace,
        )
    return trace


def scaling_study(
    f: Symbol,
    ladder,
    tol: float = 1e-10,
    alg_kind="fourier",
    preconds: Sequence[str] = ("none", "algebra_projection"),
    max_iter: Optional[int] = None,
) -> list[SolveTrace]:
    """The pcg trace per order for each preconditioner choice.

    The right-hand side is the all-ones vector.  The symbol must be real so
    the sections are Hermitian.
    """
    if not f.is_real:
        raise ValueError("scaling_study requires a real symbol")
    traces = []
    for n in (int(n) for n in ladder):
        op = ToeplitzOperator(f, n)
        b = np.ones(n, dtype=np.complex128)
        for pc in preconds:
            traces.append(pcg(op, b, precond=pc, alg_kind=alg_kind, tol=tol, max_iter=max_iter))
    return traces
