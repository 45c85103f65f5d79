"""Preconditioned conjugate gradient harness.

Demonstrates the payoff of algebra projections as preconditioners: when
the preconditioned spectrum clusters at 1, the iteration count stays flat
as the order grows.  Systems can be dense Hermitian positive definite
matrices or matrix-free Toeplitz operators; the algebra preconditioner is
applied by transform, diagonal solve and inverse transform.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Optional, Sequence

import numpy as np

from .algebras import (
    TransformAlgebra,
    algebra_diagonal,
    check_transform,
    resolve_algebra_factory,
    toeplitz_diagonal,
)
from .errors import (
    DimensionMismatchError,
    InvariantViolationError,
    MaxIterationsError,
    NotPositiveDefiniteError,
)
from .symbols import Symbol
from .toeplitz import ToeplitzOperator, as_linear_operator

DIAGONAL_CLAMP_RTOL = 1e-13

PRECONDITIONER_CHOICES = ("none", "algebra_projection")


class SolveTrace:
    """Outcome of one conjugate-gradient run.

    residual_history holds relative residuals ||r_k|| / ||b|| starting at
    k = 0; error_history (optional) holds A-norm errors against a supplied
    reference solution, the quantity CG decreases monotonically; solution
    holds the last iterate x_k.
    """

    def __init__(
        self,
        order: int,
        iterations: int,
        residual_history: list[float],
        preconditioner: str,
        wall_time: float,
        converged: bool = True,
        error_history: Optional[list[float]] = None,
        solution: Optional[np.ndarray] = None,
    ):
        self.order = order
        self.iterations = iterations
        self.residual_history = residual_history
        self.preconditioner = preconditioner
        self.wall_time = wall_time
        self.converged = converged
        self.error_history = error_history
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


def _diagonal_inverse(alg: TransformAlgebra, d: np.ndarray) -> Callable:
    """x -> U diag(d)^{-1} U* x for the diagonal d of U* A U.

    The maps must have been checked (``check_transform``).  Every call
    writes its result into one work buffer, which the next call reuses.
    """
    if not np.max(np.abs(d.imag)) <= 1e-8 * (1.0 + np.max(np.abs(d.real))):
        raise NotPositiveDefiniteError("projected diagonal is not real")
    dr = d.real
    _check_diagonal(dr, float(np.max(np.abs(dr))))
    # z *= 1/d runs ~3x faster than z /= d on complex z (n = 65536: 0.08 vs 0.27 ms)
    dr_inv = 1.0 / dr
    # Bind the maps, not alg: the closure would keep the algebra's grid alive.
    transform, inverse = alg.transform, alg.inverse
    work = np.empty(len(dr), dtype=np.complex128)

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


def pcg(
    a,
    b,
    precond: str = "none",
    alg_kind="fourier",
    tol: float = 1e-10,
    max_iter: Optional[int] = None,
    x_true=None,
) -> SolveTrace:
    """Preconditioned conjugate gradient for Hermitian positive definite A.

    Terminates when ||r|| / ||b|| <= tol; raises NotPositiveDefiniteError on
    curvature that is not positive (NaN included), InvariantViolationError
    on a residual that is not finite, and MaxIterationsError (with the
    partial trace attached) when the cap is hit.
    """
    order, matvec, _ = as_linear_operator(a)
    rhs = np.asarray(b, dtype=np.complex128)
    if rhs.shape != (order,):
        raise DimensionMismatchError(f"rhs shape {rhs.shape} does not match order {order}")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    cap = max_iter if max_iter is not None else max(1000, 4 * order)

    label, apply_inv = build_preconditioner(a, precond, alg_kind=alg_kind)

    start = time.perf_counter()
    norm_b = float(np.linalg.norm(rhs))
    x = np.zeros(order, dtype=np.complex128)
    if norm_b == 0.0:
        return SolveTrace(order, 0, [0.0], label, time.perf_counter() - start, solution=x)

    xt = None if x_true is None else np.asarray(x_true, dtype=np.complex128)

    def a_norm_error(vec):
        e = vec - xt
        return float(np.sqrt(max(np.vdot(e, matvec(e)).real, 0.0)))

    r = rhs.copy()
    z = apply_inv(r)
    p = z.copy()
    gamma = np.vdot(r, z).real
    history = [1.0]
    errors = None if xt is None else [a_norm_error(x)]
    iterations = 0
    while history[-1] > tol:
        if iterations >= cap:
            trace = SolveTrace(
                order, iterations, history, label,
                time.perf_counter() - start, converged=False,
                error_history=errors, solution=x,
            )
            raise MaxIterationsError(
                f"pcg did not reach tol {tol:g} in {cap} iterations "
                f"(relative residual {history[-1]:.3e})",
                trace=trace,
            )
        ap = matvec(p)
        curvature = np.vdot(p, ap).real
        if not curvature > 0.0:
            raise NotPositiveDefiniteError(
                f"negative curvature p*Ap = {curvature:.3e}; matrix is not HPD"
            )
        alpha = gamma / curvature
        x += alpha * p
        r -= alpha * ap
        iterations += 1
        history.append(float(np.linalg.norm(r)) / norm_b)
        if errors is not None:
            errors.append(a_norm_error(x))
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
        gamma = gamma_new
    return SolveTrace(
        order,
        iterations,
        history,
        label,
        time.perf_counter() - start,
        converged=True,
        error_history=errors,
        solution=x,
    )


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
