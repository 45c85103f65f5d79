"""Frobenius-optimal matrix-algebra approximants and clustering experiments.

Builds the best approximation of Toeplitz and truncated-operator matrices
inside trigonometric unitary matrix algebras (Fourier/circulant, sine/tau,
Hartley, custom Vandermonde), quantifies how the approximants' spectra
cluster as the order grows, and measures the resulting preconditioned
conjugate gradient payoff.
"""

import ctypes
import platform

from .algebras import (
    ALGEBRA_KINDS,
    LowRank,
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

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_fft_scratch_on_heap() -> None:
    """Keep the buffers numpy frees in glibc's heap instead of handing them back to the OS.

    numpy's FFT frees ~2 MB of scratch after each length-65536 transform.
    Under glibc's dynamic thresholds that memory goes back to the OS, and
    the next transform faults in ~480 fresh pages: a PCG solve at that
    order took ~10000 page faults.  Fixed thresholds, mmap only past 32 MiB
    and trim only past 64 MiB of free heap top, keep it mapped.  Both must
    be set: setting either one turns the dynamic thresholds off and leaves
    the other at its default (128 KiB).  Elsewhere this does nothing; no
    result depends on it.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_fft_scratch_on_heap()
