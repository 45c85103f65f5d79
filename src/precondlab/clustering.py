"""Cluster quantification and classification for matrix sequences.

Outliers are singular values of A_n - B_n at or above a threshold eps.
Whether a sequence clusters uniformly, strongly, weakly or not at all is
undecidable from finite data, so the classifier applies fixed desk-scale
decision rules: plateaus of the last three ladder counts (within +-1),
log-log growth slopes (weak iff <= 0.8 for every eps), and a bounded
Frobenius trend (within 1.2x of the second ladder value, with masses at
round-off of ||A_n||_F^2 read as 0).  The thresholds are the module
constants PLATEAU_TOL, SLOPE_THRESHOLD, BOUNDED_RATIO and FROBENIUS_FLOOR.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .algebras import (
    DiagonalPlusLowRank,
    LowRank,
    TransformAlgebra,
    eigenbasis,
    toeplitz_band_form,
    toeplitz_corner_form,
    toeplitz_pair_form,
)
from .errors import (
    DimensionMismatchError,
    InsufficientLadderError,
    NotPositiveDefiniteError,
)
from .linalg import (
    as_square,
    frobenius_norm_sq,
    hermitian_eig,
    hermitian_eigvalues,
    hermitian_eigvalues_unchecked,
    is_hermitian,
    singular_values,
)
from .symbols import Symbol
from .toeplitz import section_frobenius_sq, toeplitz_section

DEFAULT_LADDER = (64, 128, 256, 512)
DEFAULT_EPS_GRID = (0.2, 0.1, 0.05, 0.01)

PLATEAU_TOL = 1
SLOPE_THRESHOLD = 0.8
BOUNDED_RATIO = 1.2
# ||A_n - B_n||_F^2 at or below this fraction of ||A_n||_F^2 is round-off.
FROBENIUS_FLOOR = 1e-12
# Round-off band of the structured counts: eigenvalues of S below it
# (relative to the scale of A) are dropped, and a count whose Haynsworth
# terms come this close to zero (relative) is a tie at eps and falls back.
STRUCTURE_RTOL = 1e-10
# The banded counter of sine odd parts runs from BAND_MIN_ORDER up: below
# it the dense eigen-solve is faster (degrees 1-5, both modes: up to n ~ 90).
BAND_MIN_ORDER = 96


def _check_eps(eps) -> float:
    eps = float(eps)
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    return eps


def _validate_ladder(ladder) -> tuple[int, ...]:
    ladder = tuple(int(n) for n in ladder)
    if len(ladder) < 4:
        raise InsufficientLadderError(f"need >= 4 ladder sizes, got {len(ladder)}")
    for a, b in zip(ladder, ladder[1:]):
        if b != 2 * a:
            raise InsufficientLadderError(
                f"ladder must double at each step, got {a} -> {b}"
            )
    return ladder


def _fit_slope(ns, values, last: Optional[int] = None) -> Optional[float]:
    """Least-squares slope of log value vs log n over the (last) positive entries, or None."""
    pts = [(n, v) for n, v in zip(ns, values) if v > 0]
    pts = pts[-last:] if last else pts
    if len(pts) < 2:
        return None
    xs, ys = np.log([p[0] for p in pts]), np.log([p[1] for p in pts])
    return float(np.polyfit(xs, ys, 1)[0])


def classify(counts: dict, ladder, epsilons) -> tuple[str, dict]:
    """Classify a table N(n, eps) of outlier counts.

    Returns ``(classification, slopes)`` where classification is one of
    'uniform', 'strong', 'weak', 'none' and slopes maps eps to the fitted
    log-log growth exponent (None when fewer than two nonzero counts).
    """
    ladder = _validate_ladder(ladder)
    epsilons = tuple(float(e) for e in epsilons)
    last3 = ladder[-3:]

    slopes: dict[float, Optional[float]] = {}
    plateau: dict[float, bool] = {}
    for eps in epsilons:
        per_eps = [int(counts[(n, eps)]) for n in ladder]
        tail = [int(counts[(n, eps)]) for n in last3]
        plateau[eps] = (max(tail) - min(tail)) <= PLATEAU_TOL
        slopes[eps] = _fit_slope(ladder, per_eps)

    if all(plateau.values()):
        tail_all = [int(counts[(n, eps)]) for n in last3 for eps in epsilons]
        if max(tail_all) - min(tail_all) <= PLATEAU_TOL:
            return "uniform", slopes
        return "strong", slopes
    if all(s is None or s <= SLOPE_THRESHOLD for s in slopes.values()):
        return "weak", slopes
    return "none", slopes


def classify_frobenius(ladder, dsq, scale=None) -> str:
    """Cluster verdict from d(n) = ||A_n - B_n||_F^2 alone.

    With scale(n) = ||A_n||_F^2 given, a d(n) at or below
    FROBENIUS_FLOOR * scale(n) is round-off and counts as 0.
    'strong' when d stays within BOUNDED_RATIO of its value at the second
    ladder size (a bounded sequence certifies a strong cluster); 'weak'
    when d(n)/n decreases monotonically and ends at most half its starting
    value; 'inconclusive' otherwise.
    """
    ladder = tuple(int(n) for n in ladder)
    d = [float(v) for v in dsq]
    if len(d) != len(ladder) or len(d) < 2:
        raise InsufficientLadderError("need one d value per ladder size, >= 2 sizes")
    if scale is not None:
        d = [0.0 if v <= FROBENIUS_FLOOR * s else v for v, s in zip(d, scale)]
    anchor = d[1]
    if max(d) <= BOUNDED_RATIO * anchor or max(d) == 0.0:
        return "strong"
    ratios = [v / n for v, n in zip(d, ladder)]
    decreasing = all(b <= a for a, b in zip(ratios, ratios[1:]))
    if decreasing and ratios[-1] <= 0.5 * ratios[0]:
        return "weak"
    return "inconclusive"


def _at_order(n: int, *mats) -> list[np.ndarray]:
    """The matrices given for ladder size n, each checked to be n x n."""
    out = [as_square(m) for m in mats]
    shapes = [m.shape for m in out]
    if any(shape != (n, n) for shape in shapes):
        raise DimensionMismatchError(f"ladder size {n} holds matrices of shapes {shapes}")
    return out


def _check_positive(eigenvalues_b) -> float:
    delta = float(np.min(eigenvalues_b))
    if not delta > 0.0:
        raise NotPositiveDefiniteError(f"B is not positive definite: lambda_min {delta:.3e}")
    return delta


def preconditioned_eigenvalues(a, b) -> tuple[np.ndarray, float]:
    """Eigenvalues of B^{-1/2} A B^{-1/2} for Hermitian A and HPD B."""
    ma, mb = as_square(a), as_square(b)
    if ma.shape != mb.shape:
        raise DimensionMismatchError(f"shapes {ma.shape} and {mb.shape} differ")
    if not is_hermitian(ma):
        raise NotPositiveDefiniteError("A must be Hermitian")
    wb, vb = hermitian_eig(mb)
    delta = _check_positive(wb)
    inv_sqrt = (vb / np.sqrt(wb)) @ vb.conj().T
    sym = inv_sqrt @ ma @ inv_sqrt
    return hermitian_eigvalues(0.5 * (sym + sym.conj().T)), delta


class ClusterReport:
    """Outlier counts over a (ladder x eps) grid with a classification.

    `classification` applies the plateau/slope rules to the count table;
    `frobenius_verdict` applies the bounded/vanishing trend rules to
    d(n) = ||A_n - B_n||_F^2.  The two can disagree at desk scale (counts
    near a small eps may still be draining toward their plateau while the
    Frobenius mass is already provably bounded).
    """

    def __init__(
        self,
        ladder: tuple[int, ...],
        epsilons: tuple[float, ...],
        counts: dict,  # (n, eps) -> int
        frobenius_sq: dict,  # n -> float
        classification: str,
        frobenius_verdict: str = "inconclusive",
        slopes: Optional[dict] = None,  # eps -> fitted growth exponent; {} if None
        label: str = "",
    ):
        self.ladder = ladder
        self.epsilons = epsilons
        self.counts = counts
        self.frobenius_sq = frobenius_sq
        self.classification = classification
        self.frobenius_verdict = frobenius_verdict
        self.slopes = {} if slopes is None else slopes
        self.label = label

    @property
    def strong(self) -> bool:
        """Strongly clustered: bounded Frobenius mass, or plateaued counts."""
        return self.frobenius_verdict == "strong" or self.classification in ("strong", "uniform")

    def csv_rows(self) -> list[tuple]:
        rows = []
        for n in self.ladder:
            for eps in self.epsilons:
                rows.append((n, eps, self.counts[(n, eps)], self.frobenius_sq[n]))
        return rows

    def summary(self) -> dict:
        return {
            "label": self.label,
            "ladder": list(self.ladder),
            "epsilons": list(self.epsilons),
            "classification": self.classification,
            "frobenius_verdict": self.frobenius_verdict,
            "slopes": {repr(e): s for e, s in self.slopes.items()},
            "frobenius_sq": {str(n): self.frobenius_sq[n] for n in self.ladder},
        }


def _dense_deviations(a: np.ndarray, b: np.ndarray, mode: str) -> tuple[float, np.ndarray]:
    """||A - B||_F^2 and the deviations counted against eps, from dense B."""
    diff = a - b
    fro = frobenius_norm_sq(diff)
    if mode == "difference":
        return fro, singular_values(diff)
    values, _ = preconditioned_eigenvalues(a, b)
    return fro, np.abs(values - 1.0)


def _algebra_deviations(a, alg: TransformAlgebra, mode: str) -> tuple[float, np.ndarray]:
    """The same for B = U diag(d) U*, the projection of A, read off W = U* A U.

    With d = diag W and W0 = W - diag(d): A - B = U W0 U*, and the
    eigenvalues of B^{-1/2} A B^{-1/2} minus 1 are those of D^{-1/2} W0 D^{-1/2},
    which is scaled in W's memory.
    """
    ma = as_square(a)
    hermitian = is_hermitian(ma)
    if mode == "preconditioned" and not hermitian:
        raise NotPositiveDefiniteError("A must be Hermitian")
    w = eigenbasis(alg, ma)
    # In preconditioned mode A is Hermitian, so d is real up to A's Hermitian
    # defect: Re d are the eigenvalues of the symmetrized B the dense path uses.
    d = np.diagonal(w).real.copy()
    np.fill_diagonal(w, 0.0)
    fro = frobenius_norm_sq(w)
    if mode == "preconditioned":
        _check_positive(d)
        scale = 1.0 / np.sqrt(d)
        w *= scale[:, None]
        w *= scale[None, :]
    elif not hermitian:
        return fro, singular_values(w)
    return fro, np.abs(hermitian_eigvalues_unchecked(w))


def _as_matrix(a, n: int) -> np.ndarray:
    """The dense A_n of a pair's first item: a matrix, a Symbol or a LowRank."""
    if isinstance(a, Symbol):
        return toeplitz_section(a, n)
    if isinstance(a, LowRank):
        return a.factor @ a.factor.conj().T
    return a


def _frobenius_sq(a, n: int) -> float:
    """||A_n||_F^2 of a pair's first item, without a section or a LowRank product."""
    if isinstance(a, Symbol):
        return section_frobenius_sq(a, n)
    if isinstance(a, LowRank):
        v = np.asarray(a.factor)
        return frobenius_norm_sq(v.conj().T @ v)
    return frobenius_norm_sq(a)


def _shifts(epsilons) -> np.ndarray:
    """The pencil shifts s of M - s w: eps_0, -eps_0, eps_1, -eps_1, ...

    By Sylvester's law, pencil eigenvalues lambda >= eps are the
    eigenvalues of M - eps w that are not negative (row 2i), and
    lambda <= -eps those of M + eps w that are not positive (row 2i + 1).
    """
    return np.multiply.outer(np.asarray(epsilons), [1.0, -1.0]).reshape(-1)


def _tally(n: int, negatives, positives, epsilons) -> dict:
    """{eps: count} of |lambda| >= eps from the inertias of M - s w over ``_shifts``."""
    return {
        eps: int((n - negatives[2 * i]) + (n - positives[2 * i + 1]))
        for i, eps in enumerate(epsilons)
    }


def _block_inverse(diag, off, pair, size):
    """(h, b, signature) of a Hermitian G on 1 x 1 and 2 x 2 blocks, or None at a tie.

    Over the last axis, G[i, i] = diag[i] and G[i, pair[i]] = off[i] for an
    involution pair, off 0 at its fixed points (off None: G is diagonal).
    A block [[p, o], [o*, q]] has det = p q - |o|^2 and
    G^-1 = [[q, -o], [-o*, p]] / det, so h = diag(G^-1) and
    b[i] = G^-1[i, pair[i]]; a fixed point is read as the block p I.  The
    signature (positive minus negative eigenvalues) sums sign(p) over the
    indices of blocks with det > 0, whose eigenvalues share the sign of p:
    a block with det < 0 has one of each.  A tie is a block whose smaller
    |eigenvalue| |det| / max |eigenvalue| is within STRUCTURE_RTOL of
    ``size``, which bounds the terms of each of its rows, or a G^-1 that is
    not finite.
    """
    if off is None:
        partner, det, big, signs = 1.0, diag, 1.0, np.sign(diag)
    else:
        partner, square = diag[..., pair], off.real**2 + off.imag**2
        det = diag * partner - square
        big = 0.5 * (np.abs(diag + partner) + np.sqrt((diag - partner) ** 2 + 4.0 * square))
        size, signs = np.maximum(size, size[..., pair]), np.sign(diag) * (det > 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if not np.all(np.abs(det) / big > STRUCTURE_RTOL * size):
            return None
        inv = 1.0 / det
        h, b = partner * inv, None if off is None else -off * inv
    if not (np.all(np.isfinite(h)) and (b is None or np.all(np.isfinite(b)))):
        return None
    return h, b, np.sum(signs, axis=-1)


def _pencil_counts(form: DiagonalPlusLowRank, remainder, weight, epsilons):
    """(||R + L S L*||_F^2, {eps: |lambda| >= eps}) of the pencil (R + L S L*, w), or None.

    The form has S = diag(s) (``compressed``); R and w are Hermitian and
    block diagonal, each (diagonal, off) with off[i] the entry (i, -i mod n)
    (``_block_inverse``); R's off None makes both diagonal, and any other
    needs the form's ``gram`` with Pi.  The inertia of R + L S L* - s w is
    that of G + L S L*, G = R - s w, for each of the ``_shifts`` s.  Haynsworth:
    In(G + L S L*) = In(G) + In(Z) - In(-S^-1), Z = -S^-1 - L* G^-1 L, with
    the Z of all 2|eps| shifts from one batched eigvalsh.  One gram pass
    gives L* G^-1 L for every shift, M = L* L and L* R L for the mass
    ||R||_F^2 + 2 Re tr(L* R L S) + tr(M S M S).  A tie (``_block_inverse``,
    or an eigenvalue of Z within STRUCTURE_RTOL of the terms that form it,
    max |S^-1| + (|h| + |b|) diag(L L*)) gives None: round-off then decides
    the count.  So does a Z that is not finite.
    """
    s, n = np.diagonal(form.s), form.g.size
    shifts = _shifts(epsilons)[:, None]
    (r_diag, r_off), (w_diag, w_off) = remainder, weight
    size = np.abs(r_diag) + np.abs(shifts) * np.abs(w_diag)
    off = pair = None
    if r_off is not None:
        off, pair = r_off - shifts * w_off, -np.arange(n) % n
        size = size + np.abs(r_off) + np.abs(shifts) * np.abs(w_off)
    blocks = _block_inverse(r_diag - shifts * w_diag, off, pair, size)
    if blocks is None:
        return None
    h, b, signature = blocks
    rows = np.vstack((np.ones(n), r_diag, h))
    paired = None if b is None else np.vstack((np.zeros(n), r_off, b))
    grams = form.gram(rows, paired)
    ms = grams[0] @ form.s  # M S
    fro = (np.sum(r_diag**2) + 2.0 * np.diagonal(grams[1]).real @ s + np.sum(ms * ms.T).real
           + (0.0 if r_off is None else np.sum(np.abs(r_off) ** 2)))
    z = np.diag(-1.0 / s) - grams[2:]
    if not np.all(np.isfinite(z)):
        return None
    z = np.linalg.eigvalsh(z)
    inv = np.abs(h) if b is None else np.abs(h) + np.abs(b)
    if np.any(np.min(np.abs(z), axis=1, initial=np.inf) <= STRUCTURE_RTOL * (
            np.max(np.abs(1.0 / s), initial=0.0) + inv @ form.norms)):
        return None
    negatives = (n - signature) / 2 + np.sum(z < 0, axis=1) - np.sum(s > 0)
    positives = (n + signature) / 2 + np.sum(z > 0, axis=1) - np.sum(s < 0)
    return max(float(fro), 0.0), _tally(n, negatives, positives, epsilons)


def _band_blocks(band: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Block-tridiagonal (diagonal, subdiagonal) blocks of the Hermitian band.

    band[p, k] = A[p, p - k], k <= b <= size; the order is padded with
    zero rows to a multiple of size.  Returns the (nb, size, size) blocks
    A_ii and the (nb - 1, size, size) blocks A_{i+1,i}.
    """
    n, width = band.shape
    nb = -(-n // size)
    padded = np.zeros((nb * size + size, width), dtype=np.complex128)
    padded[:n] = band
    r, c = np.arange(size)[:, None], np.arange(size)[None, :]
    start = size * np.arange(nb)[:, None, None]
    lag = np.abs(r - c)
    diag = np.where(lag < width, padded[start + np.maximum(r, c), np.minimum(lag, width - 1)], 0.0)
    diag = np.where(r < c, diag.conj(), diag)
    lag = size + r - c
    off = np.where(lag < width, padded[start[:-1] + size + r, np.minimum(lag, width - 1)], 0.0)
    return diag, off


def _ldl_pivots(rows, scale):
    """Unpivoted LDL* of the pivots P in rows = [P | C], (b, b + c, B), batch last.

    (d, X, tie): D's diagonal, X = L^-1 C (so C* P^-1 C = X* D^-1 X) and,
    per pivot, a d_k not finite or within STRUCTURE_RTOL of the terms that
    formed it, scale + sum_i |L_ki|^2 |d_i|.
    """
    b, rows = rows.shape[0], rows.copy()
    d, formed = np.empty((b, rows.shape[2])), np.zeros((b, rows.shape[2]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(b):
            d[k] = rows[k, k].real
            column = rows[k + 1 :, k]
            formed[k + 1 :] += np.abs(column) ** 2 / np.abs(d[k])
            rows[k + 1 :, k + 1 :] -= (column / d[k])[:, None] * rows[k, None, k + 1 :]
        tie = ~np.all(np.abs(d) > STRUCTURE_RTOL * (scale + formed), axis=0)
    return d, rows[:, b:], tie


def _band_inertia_counts(m_band, w_band, epsilons) -> Optional[dict]:
    """Pencil eigenvalues |lambda| >= eps of (M, w) for Hermitian bands M, w, or None.

    w_band None is w = I.  The inertias of M - s w over the ``_shifts``
    come from a block LDL* on b x b blocks, which are block tridiagonal,
    batched over all 2|eps| shifts and eliminated in odd-even order (block cyclic
    reduction): the odd blocks are decoupled pivots, and the Schur
    complement onto the even blocks is block tridiagonal again, so
    log2(n / b) batched steps cost O(n b^2) per shift.  The inertia is
    the sum of the pivots' inertias (Haynsworth), the signs of D from
    ``_ldl_pivots``, or of eigh's eigenvalues for the pivots it flags.  A
    tie is such an eigenvalue within STRUCTURE_RTOL of ||A_ii||_F plus
    tr(X* |D|^-1 X) of each Schur term X* D^-1 X: round-off decides it.
    """
    n, width = m_band.shape
    size = max(width - 1, 1)
    m_diag, m_off = _band_blocks(m_band, size)
    shifts = _shifts(epsilons)[:, None, None, None]
    w_diag, w_off = (np.eye(size), 0.0) if w_band is None else _band_blocks(w_band, size)
    diag, off = m_diag - shifts * w_diag, m_off - shifts * w_off
    pad = m_diag.shape[0] * size - n
    last = range(size - pad, size)
    diag[:, -1, last, last] = 1.0  # padding: one positive eigenvalue each
    scale = np.linalg.norm(diag, axis=(2, 3))
    negatives = positives = 0
    while True:
        ns, nb = diag.shape[:2]
        odd = slice(1, None, 2) if nb > 1 else slice(None)
        no, k = diag[:, odd].shape[1], (nb - 1) // 2  # pivots, those with a block below
        # rows [A_jj | A_j,j-1 | A_j,j+1] of pivot j = 2i + 1, batched last:
        # A_j,j-1 = off[2i], A_j,j+1 = off[2i + 1]*, zero past the last block
        rows = np.zeros((size, 3 * size, ns, no), dtype=np.complex128)
        rows[:, :size] = diag[:, odd].transpose(2, 3, 0, 1)
        rows[:, size : 2 * size, :, : off.shape[1] - k] = off[:, 0::2].transpose(2, 3, 0, 1)
        rows[:, 2 * size :, :, :k] = off[:, 1::2].conj().transpose(3, 2, 0, 1)
        rows = rows.reshape(size, 3 * size, -1)
        d, x, tie = _ldl_pivots(rows, scale[:, odd].reshape(-1))
        if np.any(tie):  # P = V diag(lam) V*: D = lam, X = V* C
            flagged = rows[..., tie].transpose(2, 0, 1)
            lam, vec = np.linalg.eigh(flagged[..., :size])
            if np.any(np.abs(lam) <= STRUCTURE_RTOL * scale[:, odd].reshape(-1)[tie, None]):
                return None
            d[:, tie] = lam.T
            x[..., tie] = (vec.conj().swapaxes(-1, -2) @ flagged[..., size:]).transpose(1, 2, 0)
        d = d.reshape(size, ns, no)
        negatives = negatives + np.sum(d < 0, axis=(0, 2))
        positives = positives + np.sum(d > 0, axis=(0, 2))
        if nb == 1:
            break
        x = x.reshape(size, 2 * size, ns, no).transpose(2, 3, 0, 1)
        # the blocks of X* D^-1 X = C* P^-1 C: up-up, then down-up and down-down
        xh, y = x.conj().swapaxes(-1, -2), x / d.transpose(1, 2, 0)[..., None]
        up, down = xh[..., :size, :] @ y[..., :size], xh[:, :k, size:] @ y[:, :k]
        mass = np.abs(x * y)  # |X|^2 |D|^-1
        diag, scale = diag[:, 0::2], scale[:, 0::2]
        diag[:, :no] -= up
        diag[:, 1 : k + 1] -= down[..., size:]
        scale[:, :no] += np.sum(mass[..., :size], axis=(2, 3))
        scale[:, 1 : k + 1] += np.sum(mass[:, :k, :, size:], axis=(2, 3))
        off = -down[..., :size]
    return _tally(n, negatives, positives - pad, epsilons)


def _band_counts(f: Symbol, alg: TransformAlgebra, mode: str, epsilons):
    """(||A - B||_F^2, {eps: count}) from ``toeplitz_band_form``, or None.

    M = T_n(f) - P is counted against w = I (difference) or w = P
    (preconditioned); ||M||_F^2 is the sum of |band|^2, each off-diagonal
    entry twice.  ``_structured_counts`` sends it the odd parts in the sine
    algebra.  None below BAND_MIN_ORDER, where the dense path is faster,
    where the form is unavailable (any other kind), or at a tie.
    """
    form = toeplitz_band_form(alg, f) if alg.order >= BAND_MIN_ORDER else None
    if form is None:
        return None
    g, m_band, p_band = form
    weight = None
    if mode == "preconditioned":
        _check_positive(g)
        weight = p_band
    mass = np.abs(m_band) ** 2
    fro = float(2.0 * np.sum(mass) - np.sum(mass[:, 0]))
    counts = _band_inertia_counts(m_band, weight, epsilons)
    return None if counts is None else (fro, counts)


def _structured_counts(a, alg: TransformAlgebra, mode: str, epsilons):
    """(||A - B||_F^2, {eps: count}) without the dense W = U* A U, or None.

    W = diag(g) + L S L* comes as a ``DiagonalPlusLowRank``: from
    ``LowRank.form``, or for a Symbol from ``toeplitz_corner_form``.  S is
    compressed to its range.  There B = diag(W), so with
    Delta = diag(L S L*), A - B = U (L S L* - Delta) U*: the remainder
    R = -Delta is diagonal, and with nothing left A lies in the algebra and
    the counts and the mass are exactly 0.  A Symbol with no corner form in
    the Hartley algebra (an odd part) takes ``toeplitz_pair_form``: W in
    Fourier coordinates, where B has 2 x 2 blocks on the pairs (a, -a) and
    R = diag(g) - B.  An odd part in the sine algebra takes ``_band_counts``,
    on the tau band; a Fourier or Hartley Symbol with neither form is left
    to the dense path.  ``_pencil_counts`` counts the pencil
    (R + L S L*, w), with w = 1 in difference mode and w = B in
    preconditioned mode, whose eigenvalues c must be positive.  None for
    any other A, where no form is available, or where a count is a tie.
    """
    projection = None
    if isinstance(a, LowRank):
        form = a.form(alg)
    elif isinstance(a, Symbol):
        form = toeplitz_corner_form(alg, a)
        if form is None:
            paired = toeplitz_pair_form(alg, a)
            if paired is None:
                return _band_counts(a, alg, mode, epsilons)
            form, c, projection = paired
    else:
        return None
    form = form.compressed(STRUCTURE_RTOL)
    if projection is None:
        c = form.eigenvalues()
        projection, remainder = (c, None), (-form.delta, None)
    else:
        remainder = (form.g - projection[0], -projection[1])
    weight = (1.0, 0.0)
    if mode == "preconditioned":
        _check_positive(c)
        weight = projection
    if not form.s.size and remainder[1] is None:
        return 0.0, dict.fromkeys(epsilons, 0)
    return _pencil_counts(form, remainder, weight, epsilons)


def build_cluster_report(
    pairs: dict,
    epsilons=DEFAULT_EPS_GRID,
    label: str = "",
    mode: str = "difference",
) -> ClusterReport:
    """Assemble a ClusterReport from a map n -> (A_n, B_n) or n -> (A_n, alg_n).

    mode 'difference' counts singular values of A_n - B_n at or above eps;
    mode 'preconditioned' counts eigenvalues of B_n^{-1/2} A_n B_n^{-1/2}
    outside (1 - eps, 1 + eps).  When the second item is a TransformAlgebra,
    B_n is its projection of A_n, and both counts and ||A_n - B_n||_F^2 are
    read off W = U* A_n U without forming B_n.  A_n may then also be a
    Symbol f (A_n = T_n(f)) or a LowRank factor: where W = diag(g) + L S L*
    is available and verified, the counts come from that form, L never
    formed (``_structured_counts``), else from the dense W.  Dense A_n
    and B_n must be n x n, else DimensionMismatchError.
    """
    ladder = _validate_ladder(sorted(pairs))
    epsilons = tuple(_check_eps(e) for e in epsilons)
    if mode not in ("difference", "preconditioned"):
        raise ValueError(f"unknown mode {mode!r}")
    counts: dict = {}
    fro: dict = {}
    scale = []
    for n in ladder:
        a, b = pairs[n]
        scale.append(_frobenius_sq(a, n))
        algebra = isinstance(b, TransformAlgebra)
        if algebra and b.order != n:
            raise DimensionMismatchError(f"algebra of order {b.order} at ladder size {n}")
        structured = _structured_counts(a, b, mode, epsilons) if algebra else None
        if structured is None:
            if not algebra:
                a, b = _at_order(n, _as_matrix(a, n), b)
            deviate = _algebra_deviations if algebra else _dense_deviations
            mass, deviations = deviate(_as_matrix(a, n), b, mode)
            structured = mass, {e: int(np.count_nonzero(deviations >= e)) for e in epsilons}
        fro[n], by_eps = structured
        for eps in epsilons:
            counts[(n, eps)] = by_eps[eps]
    classification, slopes = classify(counts, ladder, epsilons)
    verdict = classify_frobenius(ladder, [fro[n] for n in ladder], scale)
    return ClusterReport(
        ladder=ladder,
        epsilons=epsilons,
        counts=counts,
        frobenius_sq=fro,
        classification=classification,
        frobenius_verdict=verdict,
        slopes=slopes,
        label=label,
    )
