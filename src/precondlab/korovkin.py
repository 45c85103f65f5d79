"""Positive-operator rate tests and the Korovkin clustering harness.

For an algebra with basis row v(x), the linear positive operator sends a
symbol f to the quadratic form x -> v(x) A_n(f) v(x)*, the continuous
interpolation of the diagonal of U A_n(f) U*.  For a Toeplitz section it
is sum_{|k|<n} a_k w_k(x) with the lag weights
w_k(x) = sum_j v_{j+k}(x) conj(v_j(x)), which the built-in algebras have in
closed form (M = n - |k|, D_M(x) = sin(M x) / sin(x)):

  fourier  w_k = (M / n) exp(i k x)
  sine     w_k = (M cos(k x) - cos((n + 1) x) D_M(x)) / (n + 1)
  hartley  w_k = (M cos(k x) + sin((n - 1) x) D_M(x)) / n

so P evaluation points cost O(P deg f), with no section, basis block or
unitary.  For the Fourier algebra the operator is the Fejer mean of f, so
sup errors decay like 1/n on trigonometric polynomials.

The Korovkin harness checks the implication "projection clusters strongly
on a small test set => it clusters strongly on products and holdouts" by
running both the Frobenius-trend criterion and the outlier classifier on
each function over a size ladder.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .algebras import TransformAlgebra, lag_sum, resolve_algebra_factory
from .clustering import (
    DEFAULT_EPS_GRID,
    DEFAULT_LADDER,
    ClusterReport,
    _fit_slope,
    build_cluster_report,
)
from .symbols import Symbol, check_energy, product

EVAL_GRID_POINTS = 4096
RATE_FIT_POINTS = 4
PROPAGATION_FACTOR = 10.0


def lpo_eval(alg: TransformAlgebra, f: Symbol, x):
    """Evaluate v(x) A_n(f) v(x)* for a real symbol f.

    At the i-th grid point this equals the i-th diagonal entry of
    U A_n(f) U*, i.e. the eigenvalue of the algebra projection attached to
    that grid point.  It sums a_k w_k(x) over the symbol's lags |k| < n
    with the closed-form lag weights (``lag_sum``), at O(P deg f) for P
    points.  A custom algebra has no closed-form lag weights: ValueError.
    """
    if alg.lag_weights is None:
        raise ValueError(f"{alg.kind} algebra has no closed-form lag weights")
    if not f.is_real:
        raise ValueError("lpo_eval requires a real symbol")
    values = lag_sum(alg, f, np.atleast_1d(np.asarray(x, dtype=np.float64)))
    return float(values[0]) if np.isscalar(x) or np.ndim(x) == 0 else values


def evaluation_grid(points: int = EVAL_GRID_POINTS) -> np.ndarray:
    return 2.0 * np.pi * np.arange(points) / points


def sup_error(alg: TransformAlgebra, f: Symbol, grid=None, values=None) -> float:
    """sup |L_n(f) - f| over the evaluation grid.

    ``values`` is f on that grid, for callers that evaluate it once for
    many algebras; it is computed when omitted.
    """
    xs = evaluation_grid() if grid is None else np.asarray(grid, dtype=np.float64)
    fx = f.eval_real(xs) if values is None else values
    return float(np.max(np.abs(lpo_eval(alg, f, xs) - fx)))


def fit_rate(ladder, values) -> Optional[float]:
    """Least-squares slope of log error vs log n on the last RATE_FIT_POINTS entries.

    Exact zeros are excluded; returns None when fewer than two usable points
    remain (e.g. the error vanishes identically).
    """
    return _fit_slope(ladder, values, last=RATE_FIT_POINTS)


class LpoReport:
    def __init__(self, symbol_label: str, ladder: tuple[int, ...], sup_error: dict,
                 rate_fit: Optional[float]):
        self.symbol_label = symbol_label
        self.ladder = ladder
        self.sup_error = sup_error  # n -> float
        self.rate_fit = rate_fit

    def csv_rows(self) -> list[tuple]:
        return [(n, self.symbol_label, self.sup_error[n]) for n in self.ladder]


def lpo_rates(
    kind,
    test_set: Sequence[Symbol],
    ladder=DEFAULT_LADDER,
) -> list[LpoReport]:
    """Sup-norm decay of the positive operator on each test symbol."""
    factory = resolve_algebra_factory(kind)
    ladder = tuple(int(n) for n in ladder)
    algebras = {n: factory(n) for n in ladder}
    xs = evaluation_grid()
    reports = []
    for f in test_set:
        fx = f.eval_real(xs)
        errs = {n: sup_error(algebras[n], f, xs, fx) for n in ladder}
        rate = fit_rate(ladder, [errs[n] for n in ladder])
        reports.append(
            LpoReport(
                symbol_label=f.label or "symbol",
                ladder=ladder,
                sup_error=errs,
                rate_fit=rate,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# Korovkin clustering harness


class KorovkinReport:
    def __init__(
        self,
        algebra_kind: str,
        ladder: tuple[int, ...],
        epsilons: tuple[float, ...],
        test_set: tuple[ClusterReport, ...],
        products: tuple[ClusterReport, ...],
        holdout: tuple[ClusterReport, ...],
        test_set_strong: bool,
        holdout_strong: bool,
        implication_observed: Optional[bool],
    ):
        self.algebra_kind = algebra_kind
        self.ladder = ladder
        self.epsilons = epsilons
        self.test_set = test_set
        self.products = products
        self.holdout = holdout
        self.test_set_strong = test_set_strong
        self.holdout_strong = holdout_strong
        self.implication_observed = implication_observed  # None when the premise fails

    def all_verdicts(self):
        return list(self.test_set) + list(self.products) + list(self.holdout)

    def summary(self) -> dict:
        return {
            "algebra": self.algebra_kind,
            "ladder": list(self.ladder),
            "epsilons": list(self.epsilons),
            "test_set_strong": self.test_set_strong,
            "holdout_strong": self.holdout_strong,
            "implication_observed": self.implication_observed,
            "verdicts": {
                v.label: {
                    "frobenius": v.frobenius_verdict,
                    "classification": v.classification,
                }
                for v in self.all_verdicts()
            },
        }


def _korovkin_family(gens: Sequence[Symbol], squares: str):
    """(squares, products): each g_k^2 or their sum ``sum_sq``, and g_k g_l for k < l."""
    if not gens:
        raise ValueError("need at least one generator")
    if squares == "each":
        sq = [product(g, g, label=f"({g.label})^2" if g.label else "g^2") for g in gens]
    elif squares == "sum":
        total = Symbol({})
        for g in gens:
            total = total.plus(product(g, g))
        sq = [Symbol(total.coefficients, label="sum_sq")]
    else:
        raise ValueError(f"unknown squares variant {squares!r}")
    prods = [product(g, h) for i, g in enumerate(gens) for h in gens[i + 1:]]
    return sq, prods


def check_holdout_labels(generators: Sequence[Symbol], holdout: Sequence[Symbol],
                         squares: str = "each") -> tuple[list[Symbol], list[Symbol]]:
    """The (squares, products) family of real generators, checked against the holdout.

    A complex generator, or a holdout labelled like a generator, square or
    product, is a ValueError: a report keys its verdicts by label, so such
    a holdout would hide one.  Each square and product must pass the rule
    every symbol passes, a finite sum |a_k|^2 (``check_energy``): 1e100cos
    passes it, its square does not.
    """
    gens = list(generators)
    if not all(g.is_real for g in gens):
        raise ValueError("generators must be real symbols")
    squares_set, product_set = _korovkin_family(gens, squares)
    for f in [*squares_set, *product_set]:
        check_energy(f.coefficients, f.label)
    taken = {f.label or "symbol" for f in [*gens, *squares_set, *product_set]}
    clash = sorted({h.label or "symbol" for h in holdout} & taken)
    if clash:
        raise ValueError(
            f"holdout labels {clash} repeat a generator, square or product label; "
            "labels key the outputs and must differ"
        )
    return squares_set, product_set


def korovkin_test(
    kind,
    generators: Sequence[Symbol],
    holdout: Sequence[Symbol],
    ladder=DEFAULT_LADDER,
    eps_grid=DEFAULT_EPS_GRID,
    squares: str = "each",
) -> KorovkinReport:
    """Run the test-set-implies-holdout clustering experiment.

    The test set is the generators together with their squares; products
    g_k g_l (k < l) and every holdout symbol are then checked.  A function
    counts as strongly clustered (``ClusterReport.strong``) when either the
    bounded-Frobenius criterion or the outlier classifier certifies it.

    squares='each' puts every g_k^2 in the test set (the theorems'
    hypothesis); squares='sum' replaces them with the single function
    sum_k g_k^2.  Whether the weaker 'sum' variant suffices is an open
    question, so both are exposed and neither is asserted.  The family is
    built and checked once, by ``check_holdout_labels``.
    """
    gens = list(generators)
    squares_set, product_set = check_holdout_labels(gens, holdout, squares)
    factory = resolve_algebra_factory(kind)
    ladder = tuple(int(n) for n in ladder)
    epsilons = tuple(float(e) for e in eps_grid)
    # Reuse one algebra per ladder size across all functions.
    algs = {n: factory(n) for n in ladder}
    test_set, prods, hold = (
        tuple(build_cluster_report({n: (f, alg) for n, alg in algs.items()}, epsilons,
                                   label=f.label or "symbol") for f in group)
        for group in (gens + squares_set, product_set, holdout)
    )
    test_strong = all(v.strong for v in test_set)
    hold_strong = all(v.strong for v in prods + hold)
    return KorovkinReport(
        algebra_kind=algs[ladder[0]].kind,
        ladder=ladder,
        epsilons=epsilons,
        test_set=test_set,
        products=prods,
        holdout=hold,
        test_set_strong=test_strong,
        holdout_strong=hold_strong,
        implication_observed=hold_strong if test_strong else None,
    )


# ---------------------------------------------------------------------------
# remainder propagation


class PropagationReport:
    def __init__(self, ladder: tuple[int, ...], generator_errors: dict, derived_errors: dict,
                 rates: dict, propagation_ok: bool):
        self.ladder = ladder
        self.generator_errors = generator_errors  # label -> {n: sup_error}
        self.derived_errors = derived_errors  # label -> {n: sup_error}, squares-sum and products
        self.rates = rates  # label -> fitted rate or None
        self.propagation_ok = propagation_ok


def remainder_propagation(
    kind,
    generators: Sequence[Symbol],
    ladder=DEFAULT_LADDER,
) -> PropagationReport:
    """Check that product errors track the generator error scale theta_n.

    Measures sup errors (``lpo_rates``) for each generator, for the sum of
    squares and for every pairwise product; `propagation_ok` requires each
    derived error to stay within PROPAGATION_FACTOR times the worst
    generator error at every ladder size, or at round-off (1e-14).
    Unlabelled generators are labelled g0, g1, ... by position; labels must differ.
    """
    gens = [g if g.label else Symbol(g.coefficients, f"g{i}") for i, g in enumerate(generators)]
    squares, prods = _korovkin_family(gens, "sum")
    labels = [f.label for f in gens + squares + prods]
    if len(set(labels)) < len(labels):
        raise ValueError(f"duplicate labels among generators and derived functions: {labels}")
    reports = lpo_rates(kind, gens + squares + prods, ladder=ladder)
    gen_errors = {r.symbol_label: r.sup_error for r in reports[: len(gens)]}
    derived_errors = {r.symbol_label: r.sup_error for r in reports[len(gens):]}
    ladder = reports[0].ladder
    theta = {n: max(errs[n] for errs in gen_errors.values()) for n in ladder}
    ok = all(
        errs[n] <= PROPAGATION_FACTOR * theta[n] or errs[n] <= 1e-14
        for errs in derived_errors.values()
        for n in ladder
    )
    return PropagationReport(
        ladder=ladder,
        generator_errors=gen_errors,
        derived_errors=derived_errors,
        rates={r.symbol_label: r.rate_fit for r in reports},
        propagation_ok=ok,
    )

