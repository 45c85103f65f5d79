"""The `precondlab selftest` battery: quick invariant checks across all modules.

Each check raises AssertionError on a violated invariant.  Only the
selftest command imports this module, so no other command compiles it.
"""

from __future__ import annotations

import numpy as np

from . import algebras, clustering, korovkin, solver, symbols, toeplitz
from .linalg import frobenius_norm_sq, hermitian_eigvalues, singular_values


def _seeded_matrix(n, seed, hermitian=False):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (m + m.conj().T) if hermitian else m


def _all_algebras(n):
    algs = [algebras.make_algebra(kind, n) for kind in algebras.ALGEBRA_KINDS]
    algs.append(algebras.random_unitary_algebra(n, seed=algebras.DEFAULT_SEED))
    return algs


def _check_unitarity():
    for alg in _all_algebras(64):
        assert alg.unitarity_defect() <= 1e-10 * np.sqrt(alg.order), alg.kind


def _check_projection_identities():
    n = 16
    a = _seeded_matrix(n, 1)
    b = _seeded_matrix(n, 2)
    for alg in _all_algebras(n):
        pa, pb = algebras.project(alg, a), algebras.project(alg, b)
        lin = algebras.project(alg, 2.0 * a + 0.5j * b) - (2.0 * pa + 0.5j * pb)
        assert np.max(np.abs(lin)) < 1e-9, f"linearity {alg.kind}"
        adj = algebras.project(alg, a.conj().T) - pa.conj().T
        assert np.max(np.abs(adj)) < 1e-9, f"adjoint {alg.kind}"
        assert abs(np.trace(pa) - np.trace(a)) < 1e-9, f"trace {alg.kind}"
        lhs = frobenius_norm_sq(a - pa)
        rhs = frobenius_norm_sq(a) - frobenius_norm_sq(pa)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs)), f"pythagoras {alg.kind}"
        twice = algebras.project(alg, pa)
        assert np.max(np.abs(twice - pa)) < 1e-12 * (1 + np.max(np.abs(pa))), (
            f"idempotence {alg.kind}"
        )


def _check_positivity_bracketing():
    n = 16
    h = _seeded_matrix(n, 3, hermitian=True)
    lo, hi = hermitian_eigvalues(h)[0], hermitian_eigvalues(h)[-1]
    for alg in _all_algebras(n):
        w = hermitian_eigvalues(algebras.project(alg, h))
        assert w[0] >= lo - 1e-9 and w[-1] <= hi + 1e-9, alg.kind


def _check_fast_path():
    sym = symbols.parse_trig_expression("2+cos")
    alg = algebras.make_algebra("fourier", 64)
    generic = algebras.project(alg, toeplitz.toeplitz_section(sym, 64))
    fast = algebras.project_toeplitz_fast(sym, 64)
    assert np.max(np.abs(generic - fast)) < 1e-10


def _check_pinching():
    n = 12
    a = _seeded_matrix(n, 4, hermitian=True)
    alg = algebras.make_algebra("sine", n)
    assert np.allclose(
        algebras.project_pinched(alg, algebras.single_block_partition(n), a), a
    )
    plain = algebras.project(alg, a)
    fine = algebras.project_pinched(alg, algebras.singleton_partition(n), a)
    assert np.max(np.abs(plain - fine)) < 1e-10
    blocks = algebras.contiguous_partition(n, 3)
    pinched = algebras.project_pinched(alg, blocks, a)
    assert (
        np.sqrt(frobenius_norm_sq(a - pinched))
        <= np.sqrt(frobenius_norm_sq(a - plain)) + 1e-12
    )


def _check_widom():
    g = symbols.cosine()
    norms = []
    for n in (16, 32, 64):
        sigma = singular_values(toeplitz.product_correction(g, n))  # ascending
        assert np.all(sigma[: -2 * g.degree] <= 1e-10), f"rank above 2 deg g at n={n}"
        norms.append(sigma[-1])
    assert max(norms) - min(norms) <= 1e-9, "norm not constant"


def _check_lpo_diagonal():
    sym = symbols.parse_trig_expression("2+cos+0.5sin3x")
    n = 16
    a = toeplitz.toeplitz_section(sym, n)
    off_grid = np.array([0.0, np.pi, np.nextafter(np.pi, 0.0), 2.0 * np.pi, -1.0, 7.5])
    for kind in algebras.ALGEBRA_KINDS:
        alg = algebras.make_algebra(kind, n)
        diag = np.diagonal(alg.unitary @ a @ alg.unitary.conj().T).real
        vals = korovkin.lpo_eval(alg, sym, alg.grid)
        assert np.max(np.abs(vals - diag)) < 1e-10, f"grid {kind}"
        v = alg.basis(off_grid)
        dense = np.einsum("ij,ij->i", v @ a, v.conj()).real
        vals = korovkin.lpo_eval(alg, sym, off_grid)
        assert np.max(np.abs(vals - dense)) < 1e-10, f"off grid {kind}"


def _check_fejer():
    alg = algebras.make_algebra("fourier", 32)
    err = korovkin.sup_error(alg, symbols.cosine())
    assert abs(err - 1.0 / 32) < 1e-12


def _check_toeplitz_matvec():
    sym = symbols.parse_trig_expression("2-2cos+delta(0.01)")
    op = toeplitz.ToeplitzOperator(sym, 128)
    dense = op.dense()
    x = np.linspace(-1, 1, 128).astype(np.complex128)
    assert np.max(np.abs(op.matvec(x) - dense @ x)) < 1e-10


def _check_pcg():
    n = 32
    b = np.ones(n, dtype=np.complex128)
    trace = solver.pcg(np.eye(n, dtype=np.complex128), b, precond="none")
    assert trace.iterations == 1, "identity should converge in one step"
    sym = symbols.parse_trig_expression("2+cos")
    circ = algebras.project_toeplitz_fast(sym, n)
    trace = solver.pcg(circ, b, precond="algebra_projection", alg_kind="fourier")
    assert trace.iterations <= 2, "exact preconditioner should converge immediately"


def _check_classifier():
    ladder = (64, 128, 256, 512)
    eps = (0.1, 0.01)
    constant = {(n, e): 3 for n in ladder for e in eps}
    assert clustering.classify(constant, ladder, eps)[0] == "uniform"
    plateau = {(n, 0.1): 7 for n in ladder} | {(n, 0.01): 19 for n in ladder}
    assert clustering.classify(plateau, ladder, (0.1, 0.01))[0] == "strong"
    sqrt_counts = {(n, e): int(np.ceil(np.sqrt(n))) for n in ladder for e in eps}
    assert clustering.classify(sqrt_counts, ladder, eps)[0] == "weak"
    linear = {(n, e): int(0.3 * n) for n in ladder for e in eps}
    assert clustering.classify(linear, ladder, eps)[0] == "none"


def _check_quadrature():
    for n in (16, 32, 64, 128):  # sum cos^2(x_i) = (n/2pi) int cos^2 = n/2
        grid = algebras.make_algebra("fourier", n).grid
        assert abs(np.sum(np.cos(grid) ** 2) - n / 2) / n < 1e-12, f"fourier grid at n={n}"


def _check_symbol_roundtrip():
    sym = symbols.parse_trig_expression("2-2cos+delta(0.01)")
    back = symbols.symbol_from_lines(symbols.symbol_to_lines(sym))
    assert back.coefficients == sym.coefficients


SELFTEST_CHECKS = [
    ("algebra_unitarity", _check_unitarity),
    ("projection_identities", _check_projection_identities),
    ("positivity_bracketing", _check_positivity_bracketing),
    ("fast_path_equivalence", _check_fast_path),
    ("pinching", _check_pinching),
    ("widom_correction", _check_widom),
    ("lpo_grid_diagonal", _check_lpo_diagonal),
    ("fejer_rate", _check_fejer),
    ("toeplitz_matvec", _check_toeplitz_matvec),
    ("pcg", _check_pcg),
    ("cluster_classifier", _check_classifier),
    ("grid_quadrature", _check_quadrature),
    ("symbol_roundtrip", _check_symbol_roundtrip),
]
