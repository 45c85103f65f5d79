"""Preconditioned conjugate gradient harness.

Demonstrates the payoff of algebra projections as preconditioners: when
the preconditioned spectrum clusters at 1, the iteration count stays flat
as the order grows.  Systems can be dense Hermitian positive definite
matrices or matrix-free Toeplitz operators; the algebra preconditioner is
applied by transform, diagonal solve and inverse transform, or, for a
large Toeplitz system with a corner form, CG runs in the algebra's eigen
coordinates, where the preconditioner is a diagonal and no transform runs
per iteration.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Optional, Sequence

import numpy as np

from .algebras import (
    CornerColumns,
    TransformAlgebra,
    algebra_diagonal,
    check_transform,
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
    if not np.max(np.abs(d.imag)) <= 1e-8 * (1.0 + np.max(np.abs(d.real))):
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


def _eigen_operators(alg: TransformAlgebra, f: Symbol) -> Optional[tuple[Callable, Callable]]:
    """(v -> U* T_n(f) U v, r -> r / c) in the algebra's eigen coordinates, or None.

    U* T_n(f) U = diag(g) + L S L* (``toeplitz_corner_parts``), with
    L = Y C in closed form (``CornerColumns``): a product is g v plus
    Y (C S C*) Y* v, O(n deg f) with no transform.  The preconditioner is
    diag(c), c = ``toeplitz_diagonal`` with its checks.  None below
    EIGEN_MIN_ORDER, where there are no corner parts, where S = 0 (T_n(f)
    lies in the algebra and one step solves it), or for a band wider than
    DIRECT_MAX_TAPS.  Up to that width the eigen path won at every order
    measured; at n = 4096 it breaks even near 97 taps, as the rank-2d term
    grows while the physical product moves to its FFT embedding.
    """
    if alg.order < EIGEN_MIN_ORDER or 2 * f.degree + 1 > DIRECT_MAX_TAPS:
        return None
    parts = toeplitz_corner_parts(alg, f)
    if parts is None or not parts[2].any():
        return None
    g, rows, s = parts
    c_inv = _reciprocal(toeplitz_diagonal(alg, f))
    corner = CornerColumns(alg, rows)
    core = corner.coef @ s @ corner.coef.conj().T

    def product(v):
        out = g * v
        corner.add_to(out, core @ corner.adjoint(v))
        return out

    return product, (lambda r: r * c_inv)


def _check_residual_gap(a: ToeplitzOperator, rhs, x, residual, iterations, x_peak) -> None:
    """||b - T x|| must match the recurred residual ||r|| to GAP_EPS (k + 1) sum|a_k| max||x_j||.

    In exact arithmetic the eigen-coordinate residual is U* (b - T x); in
    floating point the two drift apart by round-off in each step's product
    and update (Greenbaum), which this bound covers, ill-conditioned
    systems included.  A wrong operator (a bad corner factor) leaves the
    true residual far above it.
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
    U* x, with g, c (and its check), U* b and x = U (U* x) the only
    transforms, five whatever the iteration count; its x is mapped back
    and checked by ``_check_residual_gap``.  Everything else runs on x
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

    alg, eigen = None, None
    if precond == "algebra_projection" and isinstance(a, ToeplitzOperator):
        built = resolve_algebra_factory(alg_kind)(order)
        eigen = _eigen_operators(built, a.symbol)
        alg_kind = lambda _: built  # a custom algebra is not drawn twice
    if eigen is None:
        label, apply_inv = build_preconditioner(a, precond, alg_kind=alg_kind)
        op = matvec
    else:
        alg, (op, apply_inv) = built, eigen
        label = f"{precond}[{alg.kind}]"

    start = time.perf_counter()
    x = np.zeros(order, dtype=np.complex128)
    if norm_b == 0.0:
        return SolveTrace(order, 0, [0.0], label, time.perf_counter() - start, solution=x)

    r = rhs.copy() if alg is None else alg.transform(rhs)
    z = apply_inv(r)
    p = z.copy()
    gamma = np.vdot(r, z).real
    history = [1.0]
    iterations = 0
    x_peak_sq = 0.0
    while history[-1] > tol and iterations < cap:
        ap = op(p)
        curvature = np.vdot(p, ap).real
        if not curvature > 0.0:
            raise NotPositiveDefiniteError(
                f"negative curvature p*Ap = {curvature:.3e}; matrix is not HPD"
            )
        alpha = gamma / curvature
        x += alpha * p
        r -= alpha * ap
        del ap  # free before the preconditioner apply and the next product
        iterations += 1
        history.append(float(np.linalg.norm(r)) / norm_b)
        if alg is not None:
            x_peak_sq = max(x_peak_sq, np.vdot(x, x).real)
        if history[-1] <= tol:
            break
        if not math.isfinite(history[-1]):
            raise InvariantViolationError(
                f"pcg residual is {history[-1]} after {iterations} iterations"
            )
        z = apply_inv(r)
        gamma_new = np.vdot(r, z).real
        p *= gamma_new / gamma  # p stays its own buffer: z may be apply_inv's work buffer or r
        p += z
        del z
        gamma = gamma_new

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
