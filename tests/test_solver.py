"""Tests for the preconditioned conjugate gradient harness."""


import ast
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import precondlab.algebras
import precondlab.solver
import precondlab.toeplitz

from precondlab.algebras import (
    ALGEBRA_KINDS,
    TransformAlgebra,
    custom_algebra,
    make_algebra,
    project,
    project_toeplitz_fast,
)
from precondlab.errors import (
    DimensionMismatchError,
    InvariantViolationError,
    MaxIterationsError,
    NotPositiveDefiniteError,
    NotUnitaryError,
)
from precondlab.solver import _eigen_operators, build_preconditioner, pcg, scaling_study
from precondlab.symbols import Symbol, constant, parse_trig_expression
from precondlab.toeplitz import ToeplitzOperator, toeplitz_section


def spd_system(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = m @ m.conj().T + n * np.eye(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return a, b


def iterates(a, b, **kw):
    """(x_0, ..., x_k) of one solve: iterate j is the solution of the run capped at j."""
    full = pcg(a, b, **kw)
    xs = []
    for cap in range(full.iterations):
        with pytest.raises(MaxIterationsError) as capped:
            pcg(a, b, max_iter=cap, **kw)
        xs.append(capped.value.trace.solution)
    return xs + [full.solution]


def a_norm_errors(dense, xs, x_true):
    """||x_j - x*||_A of each iterate, the quantity CG decreases monotonically."""
    errors = [x - x_true for x in xs]
    return [float(np.sqrt(max(np.vdot(e, dense @ e).real, 0.0))) for e in errors]


def test_identity_converges_in_one_iteration():
    trace = pcg(np.eye(16, dtype=complex), np.ones(16, dtype=complex))
    assert trace.iterations == 1
    assert trace.converged


def test_exact_preconditioner_converges_immediately():
    f = parse_trig_expression("2+cos")
    circ = project_toeplitz_fast(f, 32)  # already a circulant: P equals A
    trace = pcg(circ, np.ones(32, dtype=complex), precond="algebra_projection")
    assert trace.iterations <= 2


def test_preconditioning_beats_plain_cg():
    f = parse_trig_expression("2-2cos+delta(0.01)")
    op = ToeplitzOperator(f, 512)
    b = np.ones(512, dtype=complex)
    plain = pcg(op, b, precond="none", tol=1e-10)
    fast = pcg(op, b, precond="algebra_projection", tol=1e-10)
    assert fast.iterations < plain.iterations
    assert plain.residual_history[-1] <= 1e-10
    assert fast.residual_history[-1] <= 1e-10


def test_residual_history_contract():
    a, b = spd_system(24, 3)
    trace = pcg(a, b, tol=1e-12)
    assert all(r > 0.0 for r in trace.residual_history[:-1])
    assert trace.residual_history[-1] <= 1e-12
    assert trace.iterations == len(trace.residual_history) - 1


def test_energy_norm_error_monotone():
    # the A-norm of the error is the quantity CG decreases monotonically
    a, b = spd_system(48, 5)
    x_true = np.linalg.solve(a, b)
    for precond in ("none", "algebra_projection"):
        xs = iterates(a, b, precond=precond, alg_kind="sine", tol=1e-12)
        errs = a_norm_errors(a, xs, x_true)
        assert len(errs) > 2
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errs, errs[1:]))


def test_toeplitz_operator_solution_matches_dense_solve():
    # With r = b - T x the true residual, x - x* = -T^-1 r and ||x*|| >= ||b|| / ||T||,
    # so ||x - x*|| / ||x*|| <= cond(T) ||r|| / ||b||; once ||r|| / ||b|| <= tol,
    # cond(T) tol bounds the error (cond(T) < 3 here: f = 2 + cos lies in [1, 3]).
    f = parse_trig_expression("2+cos")
    n, tol = 128, 1e-12
    op = ToeplitzOperator(f, n)
    b = np.ones(n, dtype=complex)
    dense = toeplitz_section(f, n)
    want = np.linalg.solve(dense, b)
    bound = np.linalg.cond(dense) * tol
    for precond in ("none", "algebra_projection"):
        trace = pcg(op, b, precond=precond, tol=tol)
        x = trace.solution
        assert trace.final_residual <= tol
        assert np.linalg.norm(b - dense @ x) <= tol * np.linalg.norm(b), precond
        assert np.linalg.norm(x - want) <= bound * np.linalg.norm(want), precond


def test_negative_curvature_detected():
    with pytest.raises(NotPositiveDefiniteError):
        pcg(-np.eye(8, dtype=complex), np.ones(8, dtype=complex))


def test_max_iterations_raises_with_trace():
    f = parse_trig_expression("2-2cos+delta(0.01)")
    op = ToeplitzOperator(f, 256)
    with pytest.raises(MaxIterationsError) as excinfo:
        pcg(op, np.ones(256, dtype=complex), precond="none", tol=1e-12, max_iter=3)
    trace = excinfo.value.trace
    assert trace is not None and not trace.converged
    assert trace.iterations == 3
    assert trace.solution.shape == (256,) and np.any(trace.solution != 0)


@pytest.mark.parametrize("tol", [0.0, float("nan"), float("inf")])
def test_pcg_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        pcg(np.eye(4, dtype=complex), np.ones(4), tol=tol)


def test_diagonal_inverse_rejects_a_complex_diagonal():
    alg = make_algebra("fourier", 8)
    with pytest.raises(NotPositiveDefiniteError, match="projected diagonal is not real"):
        precondlab.solver._diagonal_inverse(alg, np.ones(8) + 1j)


def test_zero_rhs_returns_without_iterating():
    a, _ = spd_system(8, seed=3)
    trace = pcg(a, np.zeros(8, dtype=complex), precond="algebra_projection")
    assert trace.iterations == 0 and trace.residual_history == [0.0] and trace.converged
    assert np.array_equal(trace.solution, np.zeros(8))


def test_preconditioner_rejects_indefinite_diagonal():
    f = parse_trig_expression("cos")  # sign-changing symbol: negative circulant eigenvalues
    op = ToeplitzOperator(f, 64)
    with pytest.raises(NotPositiveDefiniteError):
        pcg(op, np.ones(64, dtype=complex), precond="algebra_projection")


def test_scaling_study_identity_symbol():
    cells = scaling_study(constant(1.0), (8, 16, 32), tol=1e-10)
    for cell in cells:
        assert cell.iterations == 1


def test_scaling_study_shapes_and_labels():
    f = parse_trig_expression("2-2cos+delta(0.01)")
    cells = scaling_study(f, (64, 128), tol=1e-8)
    assert [c.order for c in cells] == [64, 64, 128, 128]
    labels = {c.preconditioner for c in cells}
    assert labels == {"none", "algebra_projection[fourier]"}
    for cell in cells:
        assert cell.final_residual <= 1e-8


def test_preconditioner_label_names_the_built_algebra():
    # a factory is labelled by the kind of what it builds, not by its function name
    a = toeplitz_section(parse_trig_expression("3+cos"), 16)
    factories = {
        "sine": lambda n: make_algebra("sine", n),
        "custom": lambda n: precondlab.algebras.random_unitary_algebra(n, seed=5),
    }
    for kind, factory in factories.items():
        label, _ = build_preconditioner(a, "algebra_projection", alg_kind=factory)
        assert label == f"algebra_projection[{kind}]"


# ---------------------------------------------------------------------------
# transform-applied algebra preconditioners


def test_tau_preconditioner_solves_tridiagonal_in_one_iteration():
    # the tau (sine) algebra contains the symmetric tridiagonal Toeplitz sections
    op = ToeplitzOperator(parse_trig_expression("2-2cos+delta(0.01)"), 1024)
    trace = pcg(op, np.ones(1024, dtype=complex), precond="algebra_projection",
                alg_kind="sine", tol=1e-10)
    assert trace.iterations == 1


@pytest.mark.parametrize("kind", ALGEBRA_KINDS)
def test_transform_preconditioner_matches_dense_unitary(kind):
    # a dense section: the Fourier kind then takes the generic path too
    n = 96
    op = toeplitz_section(parse_trig_expression("3+cos+0.4sin2x"), n)
    b = np.random.default_rng(5).standard_normal(n).astype(complex)

    def dense_factory(order):
        alg = make_algebra(kind, order)
        return custom_algebra(alg.unitary)

    fast = pcg(op, b, precond="algebra_projection", alg_kind=kind, tol=1e-12)
    dense = pcg(op, b, precond="algebra_projection", alg_kind=dense_factory, tol=1e-12)
    assert fast.iterations == dense.iterations
    np.testing.assert_allclose(fast.residual_history, dense.residual_history,
                               rtol=1e-6, atol=1e-14)


@pytest.mark.parametrize("kind", ALGEBRA_KINDS)
def test_transform_preconditioners_never_build_the_unitary(kind, monkeypatch):
    def refuse(alg):
        raise AssertionError(f"{alg.kind} unitary of order {alg.order} was built")

    monkeypatch.setattr(TransformAlgebra, "unitary", property(refuse))
    a = toeplitz_section(parse_trig_expression("3+cos"), 64)
    b = np.ones(64, dtype=complex)
    trace = pcg(a, b, precond="algebra_projection", alg_kind=kind, tol=1e-10)
    assert trace.converged


# ---------------------------------------------------------------------------
# closed-form diagonal of a ToeplitzOperator


@pytest.mark.parametrize("kind", ALGEBRA_KINDS)
def test_toeplitz_operator_preconditioner_matches_dense_section(kind):
    f = parse_trig_expression("3+cos+0.4sin2x")
    n = 96
    b = np.random.default_rng(6).standard_normal(n).astype(complex)
    fast = pcg(ToeplitzOperator(f, n), b, precond="algebra_projection",
               alg_kind=kind, tol=1e-12)
    dense = pcg(toeplitz_section(f, n), b, precond="algebra_projection",
                alg_kind=kind, tol=1e-12)
    assert fast.iterations == dense.iterations
    np.testing.assert_allclose(fast.residual_history, dense.residual_history,
                               rtol=1e-6, atol=1e-14)


@pytest.mark.parametrize("kind", ALGEBRA_KINDS)
def test_toeplitz_operator_preconditioner_inverts_the_projection(kind):
    f = parse_trig_expression("3+cos+0.4sin2x")
    n = 48
    _, apply = build_preconditioner(ToeplitzOperator(f, n), "algebra_projection",
                                    alg_kind=kind)
    p = project(make_algebra(kind, n), toeplitz_section(f, n))
    r = np.random.default_rng(7).standard_normal(n) + 1j
    np.testing.assert_allclose(apply(r), np.linalg.solve(p, r), atol=1e-12)


@pytest.mark.parametrize("kind", ALGEBRA_KINDS)
def test_toeplitz_operator_preconditioner_skips_dense_work(kind, monkeypatch):
    def refuse(name):
        def fail(*args, **kwargs):
            raise AssertionError(f"{name} was called")
        return fail

    monkeypatch.setattr(ToeplitzOperator, "dense", refuse("ToeplitzOperator.dense"))
    monkeypatch.setattr(precondlab.toeplitz, "toeplitz_section", refuse("toeplitz_section"))
    monkeypatch.setattr(precondlab.algebras, "eigenbasis", refuse("eigenbasis"))
    for module in (precondlab.algebras, precondlab.solver):
        monkeypatch.setattr(module, "algebra_diagonal", refuse("algebra_diagonal"))
    monkeypatch.setattr(TransformAlgebra, "unitary",
                        property(lambda alg: refuse("unitary")()))
    op = ToeplitzOperator(parse_trig_expression("2-2cos+delta(0.01)"), 256)
    trace = pcg(op, np.ones(256, dtype=complex), precond="algebra_projection",
                alg_kind=kind, tol=1e-10)
    assert trace.converged
    if kind == "sine":
        assert trace.iterations == 1


@pytest.mark.parametrize("kind", ALGEBRA_KINDS)
def test_scaled_transform_fails_at_build(kind):
    def factory(n):
        alg = make_algebra(kind, n)

        def scaled(x, out=None):
            return np.multiply(alg.transform(x), 1 + 1e-6, out=out)

        return TransformAlgebra(**(vars(alg) | dict(transform=scaled)))

    op = ToeplitzOperator(parse_trig_expression("3+cos"), 64)
    with pytest.raises(NotUnitaryError, match=kind):
        build_preconditioner(op, "algebra_projection", alg_kind=factory)
    build_preconditioner(op, "algebra_projection", alg_kind=kind)


def _counted_fourier(calls, flip=False):
    """Factory of Fourier algebras whose maps log their calls; flip swaps in U* for U."""
    def factory(n):
        alg = make_algebra("fourier", n)
        inverse_map = alg.transform if flip else alg.inverse

        def transform(x, out=None):
            calls.append("transform")
            return alg.transform(x, out=out)

        def inverse(z, out=None):
            calls.append("inverse")
            return inverse_map(z, out=out)

        return TransformAlgebra(**(vars(alg) | dict(transform=transform, inverse=inverse)))

    return factory


@pytest.mark.parametrize("n", [3, 16, 17])
def test_fourier_toeplitz_build_checks_the_transform_of_its_diagonal(n):
    # one U* for the diagonal, one U for the round trip: no separate check vector
    calls = []
    op = ToeplitzOperator(parse_trig_expression("3+cos"), n)
    build_preconditioner(op, "algebra_projection", alg_kind=_counted_fourier(calls))
    assert calls == ["transform", "inverse"]
    # the column of the even symbol 3+cos is even, yet the flipped U* is caught
    with pytest.raises(NotUnitaryError, match="round-trip"):
        build_preconditioner(op, "algebra_projection", alg_kind=_counted_fourier([], flip=True))


@pytest.mark.parametrize("kind", ALGEBRA_KINDS)
def test_indefinite_symbol_fails_before_the_first_iteration(kind, monkeypatch):
    def refuse(self, x):
        raise AssertionError("an iteration started")

    monkeypatch.setattr(ToeplitzOperator, "matvec", refuse)
    op = ToeplitzOperator(parse_trig_expression("cos"), 64)
    with pytest.raises(NotPositiveDefiniteError, match="clamp"):
        pcg(op, np.ones(64, dtype=complex), precond="algebra_projection", alg_kind=kind)


# ---------------------------------------------------------------------------
# pcg in the algebra's eigen coordinates

# real, HPD, with an odd part: f >= 2.2 - 1 - 0.4 - 0.3 > 0
MIXED = parse_trig_expression("2.2+cos+0.4sin2x+0.3cos3x")
EVEN = parse_trig_expression("2.2+cos+0.4cos2x+0.3cos3x")
# the benchmark's kind of symbol: complex Hermitian coefficients of degree 3
HERMITIAN = Symbol({0: 3.0, 1: 0.4 + 0.3j, -1: 0.4 - 0.3j, 2: -0.2 + 0.5j, -2: -0.2 - 0.5j,
                    3: 0.1 - 0.2j, -3: 0.1 + 0.2j})


def _physical(kind):
    """Built-in algebras without closed-form rows: pcg keeps to x itself."""
    return lambda n: TransformAlgebra(**(vars(make_algebra(kind, n)) | dict(row_exponentials=None)))


def _corrupted_corner(kind):
    """Built-in algebras whose closed-form corner columns are off by 1e-6."""
    def factory(n):
        alg = make_algebra(kind, n)

        def rows(idx):
            period, freqs, coeffs = alg.row_exponentials(idx)
            return period, freqs, coeffs * (1 + 1e-6)

        return TransformAlgebra(**(vars(alg) | dict(row_exponentials=rows)))

    return factory


@pytest.fixture
def eigen_from_order_two(monkeypatch):
    # the eigen path starts at EIGEN_MIN_ORDER for speed; these tests need awkward small n
    monkeypatch.setattr(precondlab.solver, "EIGEN_MIN_ORDER", 2)


# (kind, symbol, n), each with corner parts: n = 2d + 1, odd and even n, all three kinds
EIGEN_CASES = [
    ("fourier", MIXED, 7), ("fourier", MIXED, 97), ("fourier", HERMITIAN, 64),
    ("fourier", parse_trig_expression("3+cos"), 3),
    ("hartley", EVEN, 7), ("hartley", EVEN, 96), ("hartley", EVEN, 97),
    ("sine", EVEN, 7), ("sine", EVEN, 96), ("sine", EVEN, 97),
]
# (kind, symbol, n) that keep to x: n = 2, n < 2d + 1, an odd part in sine or
# Hartley, a band wider than DIRECT_MAX_TAPS, and T_n(f) inside the algebra (S = 0)
PHYSICAL_CASES = [
    ("fourier", parse_trig_expression("3+cos"), 2), ("sine", constant(2.0), 2),
    ("fourier", MIXED, 6), ("hartley", EVEN, 5), ("sine", EVEN, 6),
    ("hartley", MIXED, 97), ("sine", MIXED, 97),
    ("fourier", parse_trig_expression("3+cos+0.5cos32x"), 97),
    ("sine", parse_trig_expression("2-2cos+delta(0.01)"), 97),
    ("fourier", constant(2.0), 16),
]


def _rhs(n):
    return np.random.default_rng(n).standard_normal(n) + 1j


def _solve_both(kind, f, n, **kw):
    b, op = _rhs(n), ToeplitzOperator(f, n)
    eigen = pcg(op, b, precond="algebra_projection", alg_kind=kind, tol=1e-12, **kw)
    physical = pcg(op, b, precond="algebra_projection", alg_kind=_physical(kind), tol=1e-12, **kw)
    return eigen, physical


@pytest.mark.parametrize("kind, f, n", EIGEN_CASES)
def test_eigen_coordinates_match_the_physical_solve(kind, f, n, eigen_from_order_two):
    assert _eigen_operators(make_algebra(kind, n), f) is not None
    dense = toeplitz_section(f, n)
    x_true = np.linalg.solve(dense, _rhs(n))
    eigen, physical = _solve_both(kind, f, n)
    assert eigen.iterations == physical.iterations
    assert eigen.preconditioner == physical.preconditioner == f"algebra_projection[{kind}]"
    np.testing.assert_allclose(eigen.residual_history, physical.residual_history,
                               rtol=1e-6, atol=1e-14)
    errors = {}
    for name, alg_kind in (("eigen", kind), ("physical", _physical(kind))):
        xs = iterates(ToeplitzOperator(f, n), _rhs(n), precond="algebra_projection",
                      alg_kind=alg_kind, tol=1e-12)
        errors[name] = a_norm_errors(dense, xs, x_true)
    scale = errors["physical"][0]
    np.testing.assert_allclose(errors["eigen"], errors["physical"], rtol=1e-6, atol=1e-12 * scale)
    np.testing.assert_allclose(eigen.solution, x_true, atol=1e-9 * np.linalg.norm(x_true))


@pytest.mark.parametrize("kind, f, n", EIGEN_CASES)
def test_eigen_coordinates_return_a_physical_partial_trace(kind, f, n, eigen_from_order_two):
    with pytest.raises(MaxIterationsError) as eigen:
        _solve_both(kind, f, n, max_iter=2)
    with pytest.raises(MaxIterationsError) as physical:
        pcg(ToeplitzOperator(f, n), _rhs(n), precond="algebra_projection",
            alg_kind=_physical(kind), tol=1e-12, max_iter=2)
    got, want = eigen.value.trace, physical.value.trace
    assert got.iterations == want.iterations == 2 and not got.converged
    np.testing.assert_allclose(got.solution, want.solution, atol=1e-12 * np.linalg.norm(want.solution))


@pytest.mark.parametrize("kind, f, n", PHYSICAL_CASES)
def test_physical_cases_keep_to_x(kind, f, n, eigen_from_order_two):
    assert _eigen_operators(make_algebra(kind, n), f) is None
    eigen, physical = _solve_both(kind, f, n)
    assert eigen.residual_history == physical.residual_history


def test_complex_symbol_keeps_to_x(eigen_from_order_two):
    f = Symbol({0: 2.0, 1: 0.7, -1: 0.2 + 0.3j})
    assert _eigen_operators(make_algebra("fourier", 64), f) is None


@pytest.mark.parametrize("kind, f", [("fourier", HERMITIAN), ("hartley", EVEN), ("sine", EVEN)])
def test_eigen_coordinates_at_the_crossover_order(kind, f):
    n = precondlab.solver.EIGEN_MIN_ORDER
    assert _eigen_operators(make_algebra(kind, n), f) is not None
    eigen, physical = _solve_both(kind, f, n)
    assert eigen.iterations == physical.iterations
    np.testing.assert_allclose(eigen.residual_history, physical.residual_history,
                               rtol=1e-6, atol=1e-14)


def test_tau_tridiagonal_above_the_crossover_takes_one_iteration():
    op = ToeplitzOperator(parse_trig_expression("2-2cos+delta(0.01)"), 4096)
    trace = pcg(op, np.ones(4096, dtype=complex), precond="algebra_projection", alg_kind="sine")
    assert trace.iterations == 1


def test_eigen_coordinate_transforms_do_not_grow_with_the_iterations():
    n = 4096
    b = np.random.default_rng(4).standard_normal(n) + 1j
    iterations, counts = [], []
    for tol in (1e-3, 1e-12):
        calls = []
        trace = pcg(ToeplitzOperator(MIXED, n), b, precond="algebra_projection",
                    alg_kind=_counted_fourier(calls), tol=tol)
        iterations.append(trace.iterations)
        counts.append((calls.count("transform"), calls.count("inverse")))
    assert iterations[0] < iterations[1]
    # g and toeplitz_diagonal (U* and its check U), U* b, and U x at the end
    assert counts == [(3, 2), (3, 2)]
    # a band past DIRECT_MAX_TAPS keeps to x: the build's check plus two per apply
    calls = []
    trace = pcg(ToeplitzOperator(parse_trig_expression("3+cos+0.5cos32x"), n), b,
                precond="algebra_projection", alg_kind=_counted_fourier(calls))
    assert len(calls) == 2 + 2 * trace.iterations


def test_fourier_solve_peak_memory():
    # the eigen path adds g, 1/c and factors of O(sqrt(n)) over the physical path's vectors
    n = 65536
    op = ToeplitzOperator(HERMITIAN, n)
    b = np.random.default_rng(9).standard_normal(n).astype(np.complex128)
    tracemalloc.start()
    try:
        trace = pcg(op, b, precond="algebra_projection", tol=1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.converged
    assert peak <= 9 * 16 * n


# ---------------------------------------------------------------------------
# guards: (call, error, message fragment)

GUARDS = [
    pytest.param(lambda: build_preconditioner(np.eye(4), "jacobi"), ValueError,
                 "unknown preconditioner", id="preconditioner"),
    pytest.param(lambda: pcg(np.eye(4), np.ones(5)), DimensionMismatchError,
                 "does not match order 4", id="rhs-shape"),
    pytest.param(lambda: scaling_study(parse_trig_expression("2+cos").scaled(1j), (8, 16)),
                 ValueError, "requires a real symbol", id="complex-symbol"),
    # a NaN makes every `bad > bound` false: each check is written `not value <= bound`
    pytest.param(lambda: pcg(np.array([[np.nan]]), np.ones(1)), NotPositiveDefiniteError,
                 "p\\*Ap = nan", id="nan-curvature"),
    # |b|^2 overflows: gamma and the step are inf, the residual nan, the curvature 1e300
    pytest.param(lambda: pcg(np.array([[1e-300]]), np.array([1e300])), InvariantViolationError,
                 "residual is nan after 1 iterations", id="nan-residual"),
    pytest.param(lambda: precondlab.solver._check_diagonal(np.array([np.nan, 1.0]), 1.0),
                 NotPositiveDefiniteError, "clamp threshold", id="nan-diagonal"),
    pytest.param(
        lambda: precondlab.solver._diagonal_inverse(make_algebra("fourier", 2),
                                                    np.array([complex(1.0, np.nan), 1.0])),
        NotPositiveDefiniteError, "not real", id="nan-diagonal-imag",
    ),
    # a wrong corner column: the residual gap at exit catches it (the CLI exits 2)
    pytest.param(
        lambda: pcg(ToeplitzOperator(EVEN, 4096), np.random.default_rng(1).standard_normal(4096),
                    precond="algebra_projection", alg_kind=_corrupted_corner("fourier")),
        InvariantViolationError, "drifted from the system", id="corrupted-corner",
    ),
    # a bad right-hand side is not blamed on the matrix
    pytest.param(lambda: pcg(np.eye(2), [np.nan, 1.0]), ValueError,
                 "rhs has a NaN or infinite entry", id="nan-rhs"),
    # the step overflows while the residual vanishes: x is [inf]
    pytest.param(lambda: pcg(np.array([[1e-300]]), np.array([1e150])), InvariantViolationError,
                 "solution is not finite after 1 iterations", id="inf-solution"),
    pytest.param(lambda: pcg(np.eye(2), np.ones(2), max_iter=-3), ValueError,
                 "max_iter must be at least 0, got -3", id="negative-max-iter"),
]


@pytest.mark.parametrize("call, error, fragment", GUARDS)
def test_guard_raises(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


def test_bad_rhs_fails_before_the_preconditioner_is_built(monkeypatch):
    for name in ("resolve_algebra_factory", "build_preconditioner"):
        monkeypatch.setattr(precondlab.solver, name, None)
    b = np.ones(4096)
    b[3] = np.inf
    with pytest.raises(ValueError, match="NaN or infinite"):
        pcg(ToeplitzOperator(MIXED, 4096), b, precond="algebra_projection")


def test_max_iter_zero_takes_no_step():
    with pytest.raises(MaxIterationsError) as capped:
        pcg(np.eye(2), np.ones(2), max_iter=0)
    trace = capped.value.trace
    assert trace.iterations == 0 and trace.residual_history == [1.0]
    assert not trace.converged and not trace.solution.any()


# ---------------------------------------------------------------------------
# the exit rule: pcg builds its trace and raises MaxIterationsError after the loop


def _pcg_exits(source: str) -> tuple[int, list[bool]]:
    """(SolveTrace calls, in-loop flag of each MaxIterationsError raise) inside pcg."""
    top = next(node for node in ast.parse(source).body
               if isinstance(node, ast.FunctionDef) and node.name == "pcg")
    in_loop = {id(node) for loop in ast.walk(top) if isinstance(loop, (ast.While, ast.For))
               for node in ast.walk(loop)}
    called = [node.func.id for node in ast.walk(top)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    raises = [node for node in ast.walk(top) if isinstance(node, ast.Raise)
              and getattr(getattr(node.exc, "func", None), "id", "") == "MaxIterationsError"]
    return called.count("SolveTrace"), [id(node) in in_loop for node in raises]


def test_pcg_has_one_exit():
    traces, raises = _pcg_exits(Path(precondlab.solver.__file__).read_text(encoding="utf-8"))
    assert traces <= 2  # a zero right-hand side, and the end
    assert raises == [False]
    # the guard sees what it forbids
    own = ("def pcg(a, b):\n    while True:\n        if done:\n"
           "            raise MaxIterationsError(SolveTrace(), trace=SolveTrace())\n"
           "    return SolveTrace()\n")
    assert _pcg_exits(own) == (3, [True])


FFT_ROUND_TRIPS = """
import resource
import numpy as np
import precondlab
x = np.ones(65536, dtype=complex)
y = np.empty_like(x)
for _ in range(3):
    np.fft.fft(x, out=y); np.fft.ifft(y, out=y)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    np.fft.fft(x, out=y); np.fft.ifft(y, out=y)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


def test_heap_policy_returns_quietly_where_it_cannot_apply(monkeypatch):
    def refuse(name):
        raise AssertionError("libc was loaded")

    monkeypatch.setattr(precondlab.platform, "libc_ver", lambda: ("musl", ""))
    monkeypatch.setattr(precondlab.ctypes, "CDLL", refuse)
    precondlab._keep_fft_scratch_on_heap()
    monkeypatch.setattr(precondlab.platform, "libc_ver", lambda: ("glibc", "2.35"))
    monkeypatch.setattr(precondlab.ctypes, "CDLL", lambda name: object())  # no mallopt
    precondlab._keep_fft_scratch_on_heap()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's")
def test_fft_scratch_stays_mapped_after_import():
    # numpy frees ~2 MB of FFT scratch after each length-65536 transform; under
    # glibc's dynamic thresholds each round trip (one preconditioner apply)
    # faulted in ~960 fresh pages.  A fresh interpreter, with a heap of its own.
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", FFT_ROUND_TRIPS], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 100
