"""Tests for entry-generated operators and distribution convergence."""

import numpy as np
import pytest
from scipy.special import zeta

from precondlab.algebras import random_unitary_algebra
from precondlab.errors import InvariantViolationError, ParseError
from precondlab.korovkin import resolve_algebra_factory
from precondlab.linalg import frobenius_norm_sq, is_hermitian, singular_values
from precondlab.operators import (
    OperatorSource,
    diag_plus_compact_source,
    distribution_convergence,
    hs_decay_source,
    hs_tail_fraction,
    identity_source,
    rank1_source,
    source_from_spec,
    toeplitz_source,
    truncate,
)
from precondlab.algebras import project, project_toeplitz_fast, make_algebra
from precondlab.symbols import Symbol, parse_trig_expression
from precondlab.toeplitz import toeplitz_section


def test_truncate_identity():
    np.testing.assert_allclose(truncate(identity_source(), 5), np.eye(5), atol=0)


def test_truncate_toeplitz_consistency():
    f = parse_trig_expression("2+cos+0.5sin2x")
    src = toeplitz_source(f)
    np.testing.assert_allclose(truncate(src, 9), toeplitz_section(f, 9), atol=0)
    assert src.self_adjoint


def test_toeplitz_source_entries_at_any_degree():
    f = parse_trig_expression("1+0.5cos7x+0.25sin3x")  # degree 7 > order 5
    src = toeplitz_source(f)
    for n in (1, 5, 16):
        assert np.array_equal(truncate(src, n), toeplitz_section(f, n))
    assert src.entry(np.array([], dtype=int), np.array([], dtype=int)).shape == (0,)


def test_truncate_separable_kernel_rank_one():
    assert np.count_nonzero(singular_values(truncate(hs_decay_source(1.0), 8)) > 1e-10) == 1


def test_truncations_are_hermitian_for_self_adjoint_sources():
    for src in (identity_source(), rank1_source(0.5), hs_decay_source(1.5),
                diag_plus_compact_source()):
        assert src.self_adjoint
        assert is_hermitian(truncate(src, 16))


def preconditioner(src, kind, n):
    """The algebra projection of the order-n truncation."""
    return project(make_algebra(kind, n), truncate(src, n))


def test_preconditioner_identity():
    for kind in ("fourier", "sine", "hartley"):
        np.testing.assert_allclose(
            preconditioner(identity_source(), kind, 8), np.eye(8), atol=1e-12
        )


def test_preconditioner_contracts_hilbert_schmidt_mass():
    src = hs_decay_source(1.5)
    total = zeta(3.0) ** 2  # sum over the full lattice of |entries|^2
    for kind in ("fourier", "sine", "hartley"):
        p = preconditioner(src, kind, 64)
        assert frobenius_norm_sq(p) <= total + 1e-9


def test_preconditioner_toeplitz_matches_fast_path():
    f = parse_trig_expression("2+cos")
    p = preconditioner(toeplitz_source(f), "fourier", 48)
    np.testing.assert_allclose(p, project_toeplitz_fast(f, 48), atol=1e-10)


# ---------------------------------------------------------------------------
# decay bookkeeping


def test_hs_tail_fraction_small_for_fast_decay():
    assert hs_tail_fraction(hs_decay_source(1.5), 512) < 0.01


def test_hs_tail_fraction_of_a_zero_source_is_zero():
    zero = OperatorSource(lambda j, k: np.zeros(j.shape, dtype=np.complex128),
                          "hilbert_schmidt", "zero", self_adjoint=True)
    assert hs_tail_fraction(zero, 8) == 0.0


@pytest.mark.parametrize("src", [rank1_source(0.7), hs_decay_source(0.75), hs_decay_source(1.5)],
                         ids=lambda src: src.label)
def test_factor_sources_are_their_truncations(src):
    for n in (1, 2, 7, 64):
        v = src.factor(n)
        np.testing.assert_allclose(v @ v.conj().T, truncate(src, n), rtol=1e-14, atol=0)
        entry_only = OperatorSource(src.entry, src.decay_class, src.label, src.self_adjoint)
        assert hs_tail_fraction(src, n) == pytest.approx(
            hs_tail_fraction(entry_only, n), rel=1e-12, abs=1e-15
        )


def test_factor_sources_take_the_structured_counts():
    for src in (rank1_source(0.5), hs_decay_source(1.5)):
        for kind in ("fourier", "sine", "hartley"):
            ladder = (16, 32, 64, 128)
            structured = distribution_convergence(src, kind, ladder=ladder)
            entry_only = OperatorSource(src.entry, src.decay_class, src.label, src.self_adjoint)
            dense = distribution_convergence(entry_only, kind, ladder=ladder)
            assert structured.counts == dense.counts, (src.label, kind)
            for n in ladder:
                fro = dense.frobenius_sq[n]
                assert structured.frobenius_sq[n] == pytest.approx(fro, rel=1e-12)


def test_distribution_convergence_rejects_fake_hs_declaration():
    slow = OperatorSource(
        entry=lambda j, k: np.full(np.shape(j), 0.1, dtype=np.complex128),
        decay_class="hilbert_schmidt",
        label="flat",
        self_adjoint=True,
    )
    with pytest.raises(InvariantViolationError):
        distribution_convergence(slow, "fourier", ladder=(8, 16, 32, 64))


# ---------------------------------------------------------------------------
# distribution convergence


def test_identity_source_uniform_zero_difference():
    # the identity carries its symbol 1, which every built-in algebra contains
    for kind in ("fourier", "sine", "hartley"):
        report = distribution_convergence(identity_source(), kind, ladder=(8, 16, 32, 64))
        assert report.classification == "uniform", kind
        assert report.frobenius_verdict == "strong", kind
        assert all(v == 0.0 for v in report.frobenius_sq.values()), kind


def test_identity_source_strong_in_the_custom_algebra():
    # the dense W of a random unitary leaves ||A_n - B_n||_F^2 at round-off,
    # 1e-29 .. 1e-27, far below 1e-12 ||A_n||_F^2 = 1e-12 n
    report = distribution_convergence(identity_source(), "custom")
    assert 0.0 < max(report.frobenius_sq.values()) < 1e-20
    assert report.frobenius_verdict == "strong"


def test_hs_source_strong_for_all_builtin_algebras():
    src = hs_decay_source(1.5)
    for kind in ("fourier", "sine", "hartley"):
        report = distribution_convergence(src, kind)
        assert report.frobenius_verdict == "strong"
        d = [report.frobenius_sq[n] for n in report.ladder]
        assert d[-1] / d[0] <= 1.1
        # nondecreasing and bounded by the total squared mass
        assert all(b >= a - 1e-12 for a, b in zip(d, d[1:]))
        assert max(d) <= zeta(3.0) ** 2 + 1e-9


def test_pythagoras_for_truncations():
    src = diag_plus_compact_source()
    factory = resolve_algebra_factory("hartley")
    for n in (16, 32, 64):
        a = truncate(src, n)
        p = project(factory(n), a)
        lhs = frobenius_norm_sq(a - p)
        rhs = frobenius_norm_sq(a) - frobenius_norm_sq(p)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_bounded_noncompact_source_under_random_algebra_is_none():
    # degree-32 truncation of a square-wave-like symbol; bounded, not compact
    spectrum = np.fft.fft(np.sign(np.sin(2.0 * np.pi * np.arange(256) / 256))) / 256
    square = Symbol({k: spectrum[k] for k in range(-32, 33)}, label="squarewave32")
    src = toeplitz_source(square)
    report = distribution_convergence(
        src, lambda n: random_unitary_algebra(n, seed=3000 + n), ladder=(32, 64, 128, 256)
    )
    assert report.classification == "none"


def test_rank1_source_strong():
    report = distribution_convergence(rank1_source(0.5), "fourier", ladder=(16, 32, 64, 128))
    assert report.frobenius_verdict == "strong"


# ---------------------------------------------------------------------------
# catalog grammar


def test_source_spec_round_trip():
    assert source_from_spec("identity").label == "identity"
    assert source_from_spec("rank1(0.5)").label == "rank1(0.5)"
    assert source_from_spec("hs_decay(1.5)").label == "hs_decay(1.5)"
    assert source_from_spec("diag_plus_compact").label == "diag_plus_compact"
    for spec in ("toeplitz:2+cos", "toeplitz:preset:2+cos"):
        np.testing.assert_allclose(
            truncate(source_from_spec(spec), 6),
            toeplitz_section(parse_trig_expression("2+cos"), 6), atol=0,
        )


def test_source_spec_rejects_unknown():
    with pytest.raises(ValueError):
        source_from_spec("hilbert")
    with pytest.raises(ValueError):
        source_from_spec("rank1(2.0)")
    with pytest.raises(ParseError, match="bad term"):
        source_from_spec("toeplitz:2+tan")
    for spec in ("hs_decay(inf)", "hs_decay(nan)", "rank1(nan)"):
        with pytest.raises(ValueError, match="must be finite"):
            source_from_spec(spec)


# ---------------------------------------------------------------------------
# guards: (call, error, message fragment)

GUARDS = [
    pytest.param(lambda: OperatorSource(entry=np.add, decay_class="smooth", label="x"),
                 ValueError, "unknown decay class", id="decay-class"),
    pytest.param(lambda: truncate(identity_source(), 0), ValueError, "order must be >= 1",
                 id="truncate-order"),
    pytest.param(
        lambda: truncate(OperatorSource(entry=lambda j, k: 1.0, decay_class="bounded",
                                        label="scalar"), 4),
        ValueError, "must be vectorized", id="truncate-scalar-entry",
    ),
    pytest.param(
        lambda: distribution_convergence(
            toeplitz_source(parse_trig_expression("2+cos").scaled(1j)), "fourier"),
        ValueError, "self-adjoint sources", id="not-self-adjoint",
    ),
    pytest.param(lambda: source_from_spec("rank1(0_5)"), ValueError, "not an ASCII number",
                 id="parameter-ascii"),
    # a NaN tail fraction fails the check rather than passing `frac > max` as false
    pytest.param(
        lambda: distribution_convergence(
            OperatorSource(entry=np.add, decay_class="hilbert_schmidt", label="nan",
                           self_adjoint=True, factor=lambda n: np.full((n, 1), np.nan)),
            "fourier", ladder=(8, 16, 32, 64)),
        InvariantViolationError, "border mass fraction is nan%", id="nan-tail-fraction",
    ),
]


@pytest.mark.parametrize("call, error, fragment", GUARDS)
def test_guard_raises(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
