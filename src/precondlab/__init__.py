"""Frobenius-optimal matrix-algebra approximants and clustering experiments.

Builds the best approximation of Toeplitz and truncated-operator matrices
inside trigonometric unitary matrix algebras (Fourier/circulant, sine/tau,
Hartley, custom Vandermonde), quantifies how the approximants' spectra
cluster as the order grows, and measures the resulting preconditioned
conjugate gradient payoff.
"""

from .algebras import (
    ALGEBRA_KINDS,
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
    build_cluster_report,
    classify,
    classify_frobenius,
)
from .errors import (
    DimensionMismatchError,
    InsufficientLadderError,
    InvariantViolationError,
    MaxIterationsError,
    NoConvergenceError,
    NotHermitianError,
    NotPositiveDefiniteError,
    NotUnitaryError,
    ParseError,
    PrecondlabError,
    UsageError,
)
from .korovkin import (
    KorovkinReport,
    LpoReport,
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
    singular_values,
)
from .operators import (
    OperatorSource,
    diag_plus_compact_source,
    distribution_convergence,
    hs_decay_source,
    identity_source,
    rank1_source,
    source_from_spec,
    toeplitz_source,
    truncate,
)
from .solver import SolveTrace, build_preconditioner, pcg, scaling_study
from .symbols import (
    Symbol,
    constant,
    cosine,
    load_symbol,
    parse_trig_expression,
    product,
    sine,
    standard_test_set,
    symbol_from_lines,
    symbol_to_lines,
)
from .toeplitz import (
    ToeplitzOperator,
    product_correction,
    toeplitz_section,
)

__version__ = "0.1.0"
