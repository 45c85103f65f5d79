"""Frobenius-optimal matrix-algebra approximants and clustering experiments.

Builds the best approximation of Toeplitz and truncated-operator matrices
inside trigonometric unitary matrix algebras (Fourier/circulant, sine/tau,
Hartley, custom Vandermonde), quantifies how the approximants' spectra
cluster as the order grows, and measures the resulting preconditioned
conjugate gradient payoff.
"""

from .algebras import (
    ALGEBRA_KINDS,
    PinchingPartition,
    TransformAlgebra,
    algebra_diagonal,
    contiguous_partition,
    custom_algebra,
    eigenbasis,
    from_eigenbasis,
    make_algebra,
    pinch,
    project,
    project_pinched,
    project_toeplitz_fast,
    random_unitary_algebra,
    single_block_partition,
    singleton_partition,
    toeplitz_corner_form,
    toeplitz_diagonal,
)
from .clustering import (
    DEFAULT_EPS_GRID,
    DEFAULT_LADDER,
    ClusterReport,
    LowRank,
    PreconditionedSpectrum,
    build_cluster_report,
    classify,
    classify_frobenius,
    frobenius_criterion,
    outlier_count,
    preconditioned_spectrum,
)
from .errors import (
    BadPartitionError,
    DimensionMismatchError,
    InsufficientLadderError,
    InsufficientSamplesError,
    InvariantViolationError,
    MaxIterationsError,
    NoConvergenceError,
    NotHermitianError,
    NotPositiveDefiniteError,
    NotUnitaryError,
    ParseError,
    PrecondlabError,
    SingularMatrixError,
    UsageError,
)
from .korovkin import (
    KorovkinReport,
    LpoReport,
    grid_quadrature_check,
    korovkin_test,
    lpo_eval,
    lpo_rates,
    remainder_propagation,
    sup_error,
)
from .linalg import (
    frobenius_norm_sq,
    hermitian_eig,
    hermitian_eigvalues,
    is_hermitian,
    operator_norm,
    singular_values,
    solve_hermitian,
)
from .operators import (
    OperatorSource,
    diag_plus_compact_source,
    distribution_convergence,
    hs_decay_source,
    identity_source,
    preconditioner_of,
    rank1_source,
    source_from_spec,
    toeplitz_source,
    truncate,
)
from .solver import SolveTrace, build_preconditioner, pcg, scaling_study
from .symbols import (
    DEFAULT_TRUNCATION_DEGREE,
    SampledFunction,
    Symbol,
    constant,
    cosine,
    fourier_coefficients,
    from_function,
    load_symbol,
    parse_trig_expression,
    product,
    save_symbol,
    sine,
    standard_test_set,
    symbol_from_lines,
    symbol_to_lines,
)
from .toeplitz import (
    ToeplitzOperator,
    hankel_section,
    product_correction,
    toeplitz_section,
    widom_correction_report,
)

__version__ = "0.1.0"
