"""Tests for the preconditioned conjugate gradient harness."""


import os
import platform
import subprocess
import sys
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
from precondlab.solver import build_preconditioner, pcg, scaling_study
from precondlab.symbols import constant, parse_trig_expression
from precondlab.toeplitz import ToeplitzOperator, toeplitz_section


def spd_system(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = m @ m.conj().T + n * np.eye(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return a, b


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
        trace = pcg(a, b, precond=precond, alg_kind="sine", tol=1e-12, x_true=x_true)
        errs = trace.error_history
        assert errs is not None
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
]


@pytest.mark.parametrize("call, error, fragment", GUARDS)
def test_guard_raises(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


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
