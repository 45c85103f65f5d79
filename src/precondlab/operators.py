"""Entry-generated bounded operators and their truncation experiments.

An OperatorSource produces the matrix elements of a bounded operator on a
separable Hilbert space in the standard coordinate basis; truncations
P_n A P_n are plain dense sections.  The preconditioner of a source is the
algebra projection of its truncation, and distribution-sense convergence
is measured by the clustering of the projected truncations against the
truncations themselves.
"""

from __future__ import annotations

import re
from typing import Callable, Optional

import numpy as np

from .algebras import LowRank, resolve_algebra_factory
from .clustering import (
    DEFAULT_EPS_GRID, DEFAULT_LADDER, ClusterReport, _validate_ladder, build_cluster_report,
)
from .errors import InvariantViolationError
from .linalg import frobenius_norm_sq
from .symbols import Symbol, ascii_number, constant, resolve_symbol
from .toeplitz import section_entries

HS_TAIL_FRACTION_MAX = 0.01

DECAY_CLASSES = ("hilbert_schmidt", "compact", "bounded")


class OperatorSource:
    """Deterministic entry generator (j, k) -> complex, vectorized over arrays.

    A source may also carry its structure, which the cluster reports use
    instead of the dense truncation: the ``symbol`` f of a Toeplitz
    operator (truncations T_n(f)), or a ``factor`` n -> V (n x r) with
    truncations V V*.
    """

    def __init__(
        self,
        entry: Callable[[np.ndarray, np.ndarray], np.ndarray],
        decay_class: str,
        label: str,
        self_adjoint: bool = False,
        symbol: Optional[Symbol] = None,
        factor: Optional[Callable[[int], np.ndarray]] = None,
    ):
        if decay_class not in DECAY_CLASSES:
            raise ValueError(f"unknown decay class {decay_class!r}")
        self.entry = entry
        self.decay_class = decay_class
        self.label = label
        self.self_adjoint = self_adjoint
        self.symbol = symbol
        self.factor = factor


def truncate(src: OperatorSource, n: int) -> np.ndarray:
    """Dense section with entries (j, k) for 0 <= j, k < n."""
    if n < 1:
        raise ValueError("order must be >= 1")
    jj, kk = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    vals = np.asarray(src.entry(jj, kk), dtype=np.complex128)
    if vals.shape != (n, n):
        raise ValueError("entry generator must be vectorized over index arrays")
    return vals


def hs_tail_fraction(src: OperatorSource, n: int) -> float:
    """Squared-entry mass on the border of the order-n section.

    Fraction of the total squared mass of the n x n section carried by the
    entries outside the n/2 x n/2 leading subsection; small values back up
    a declared Hilbert-Schmidt decay class.  A source with a ``factor`` V
    takes both masses from the r x r Gram matrices, ||V V*||_F = ||V* V||_F.
    """
    half = n // 2
    if src.factor is not None:
        v = src.factor(n)
        total = frobenius_norm_sq(v.conj().T @ v)
        inner = frobenius_norm_sq(v[:half].conj().T @ v[:half])
    else:
        full = truncate(src, n)
        total = frobenius_norm_sq(full)
        inner = frobenius_norm_sq(full[:half, :half])
    if total == 0.0:
        return 0.0
    return (total - inner) / total


def hs_declaration_defect(src: OperatorSource, n: int) -> Optional[str]:
    """Why a declared hilbert_schmidt decay fails at order n (the ladder top), or None.

    It fails when the border mass fraction (``hs_tail_fraction``) exceeds
    HS_TAIL_FRACTION_MAX or is NaN; other decay classes are not checked.
    """
    frac = hs_tail_fraction(src, n) if src.decay_class == "hilbert_schmidt" else 0.0
    if frac <= HS_TAIL_FRACTION_MAX:
        return None
    return (f"source {src.label!r} declares hilbert_schmidt decay but its "
            f"border mass fraction is {frac:.3%} (> {HS_TAIL_FRACTION_MAX:.0%})")


def distribution_convergence(
    src: OperatorSource,
    alg_kind,
    ladder=DEFAULT_LADDER,
    eps_grid=DEFAULT_EPS_GRID,
) -> ClusterReport:
    """Cluster analysis of the projected truncations against the truncations."""
    if not src.self_adjoint:
        raise ValueError("distribution convergence is defined for self-adjoint sources")
    factory = resolve_algebra_factory(alg_kind)
    ladder = _validate_ladder(sorted(ladder))
    defect = hs_declaration_defect(src, max(ladder))
    if defect:
        raise InvariantViolationError(defect)
    pairs = {n: (_truncation(src, n), factory(n)) for n in ladder}
    kind = pairs[ladder[0]][1].kind
    return build_cluster_report(pairs, eps_grid, label=f"{src.label} vs {kind} projection")


def _truncation(src: OperatorSource, n: int):
    """The order-n truncation as a cluster report takes it: symbol, factor or matrix."""
    if src.symbol is not None:
        return src.symbol
    if src.factor is not None:
        return LowRank(src.factor(n))
    return truncate(src, n)


# ---------------------------------------------------------------------------
# built-in source catalog


def identity_source() -> OperatorSource:
    return toeplitz_source(constant(1.0), label="identity")


def rank1_source(p: float) -> OperatorSource:
    """Geometric rank-one kernel p^(j+k), Hilbert-Schmidt for |p| < 1."""
    if not 0 < abs(p) < 1:
        raise ValueError("rank1 parameter must satisfy 0 < |p| < 1")

    def entry(j, k, _p=float(p)):
        return (_p ** (j + k)).astype(np.complex128)

    return OperatorSource(
        entry=entry,
        decay_class="hilbert_schmidt",
        label=f"rank1({p})",
        self_adjoint=True,
        factor=lambda n, _p=float(p): (_p ** np.arange(n, dtype=np.float64))[:, None],
    )


def hs_decay_source(p: float) -> OperatorSource:
    """Kernel 1 / ((1+j)(1+k))^p, Hilbert-Schmidt for p > 1/2."""
    if p <= 0.5:
        raise ValueError("hs_decay parameter must be > 1/2 for square summability")

    def entry(j, k, _p=float(p)):
        return (1.0 / ((1.0 + j) * (1.0 + k)) ** _p).astype(np.complex128)

    return OperatorSource(
        entry=entry,
        decay_class="hilbert_schmidt",
        label=f"hs_decay({p})",
        self_adjoint=True,
        factor=lambda n, _p=float(p): (1.0 / (1.0 + np.arange(n)) ** _p)[:, None],
    )


def toeplitz_source(f: Symbol, label: str = "") -> OperatorSource:
    return OperatorSource(
        entry=lambda j, k: section_entries(f, j - k),
        decay_class="bounded",
        label=label or f"toeplitz:{f.label}",
        self_adjoint=f.is_real,
        symbol=f,
    )


def diag_plus_compact_source() -> OperatorSource:
    """Bounded non-compact diagonal plus a Hilbert-Schmidt perturbation.

    Diagonal alternates between 1.5 and 2.5; the perturbation is the
    hs_decay(1.5) kernel.  Self-adjoint and bounded, not compact.
    """

    def entry(j, k):
        diag = np.where(j % 2 == 0, 2.5, 1.5) * (j == k)
        compact = 1.0 / ((1.0 + j) * (1.0 + k)) ** 1.5
        return (diag + compact).astype(np.complex128)

    return OperatorSource(
        entry=entry,
        decay_class="bounded",
        label="diag_plus_compact",
        self_adjoint=True,
    )


_PARAM_RE = re.compile(r"^(?P<name>[a-z0-9_]+)\((?P<arg>[^)]+)\)$")


def source_from_spec(text: str) -> OperatorSource:
    """Parse catalog grammar: identity, rank1(p), hs_decay(p),
    diag_plus_compact, toeplitz:<symbol-spec>."""
    spec = text.strip()
    if spec == "identity":
        return identity_source()
    if spec == "diag_plus_compact":
        return diag_plus_compact_source()
    if spec.startswith("toeplitz:"):
        return toeplitz_source(resolve_symbol(spec[len("toeplitz:"):]))
    m = _PARAM_RE.match(spec)
    if m:
        arg = ascii_number(m.group("arg"))
        if not np.isfinite(arg):
            raise ValueError(f"operator source parameter must be finite, got {text!r}")
        if m.group("name") == "rank1":
            return rank1_source(arg)
        if m.group("name") == "hs_decay":
            return hs_decay_source(arg)
    raise ValueError(f"unknown operator source {text!r}")
