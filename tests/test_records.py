"""The result records are plain classes with the constructors they had as dataclasses.

Each record takes its fields by position or keyword, in the order and
with the defaults listed here, and keeps each one as an attribute of the
same name.
"""

import inspect

import numpy as np
import pytest

import precondlab as pl
from precondlab.clustering import ClusterReport, LowRank
from precondlab.korovkin import KorovkinReport, LpoReport, PropagationReport
from precondlab.solver import SolveTrace

REQUIRED = inspect.Parameter.empty
# record -> (field, default) in constructor order; REQUIRED marks a field without one
FIELDS = {
    pl.TransformAlgebra: [
        ("kind", REQUIRED), ("order", REQUIRED), ("grid", None), ("basis", None),
        ("lag_weights", None), ("transform", None), ("inverse", None), ("_unitary", None),
    ],
    ClusterReport: [
        ("ladder", REQUIRED), ("epsilons", REQUIRED), ("counts", REQUIRED),
        ("frobenius_sq", REQUIRED), ("classification", REQUIRED),
        ("frobenius_verdict", "inconclusive"), ("slopes", None), ("label", ""),
    ],
    LowRank: [("factor", REQUIRED)],
    LpoReport: [
        ("symbol_label", REQUIRED), ("ladder", REQUIRED), ("sup_error", REQUIRED),
        ("rate_fit", REQUIRED),
    ],
    KorovkinReport: [
        ("algebra_kind", REQUIRED), ("ladder", REQUIRED), ("epsilons", REQUIRED),
        ("test_set", REQUIRED), ("products", REQUIRED), ("holdout", REQUIRED),
        ("test_set_strong", REQUIRED), ("holdout_strong", REQUIRED),
        ("implication_observed", REQUIRED),
    ],
    PropagationReport: [
        ("ladder", REQUIRED), ("generator_errors", REQUIRED), ("derived_errors", REQUIRED),
        ("rates", REQUIRED), ("propagation_ok", REQUIRED),
    ],
    pl.OperatorSource: [
        ("entry", REQUIRED), ("decay_class", REQUIRED), ("label", REQUIRED),
        ("self_adjoint", False), ("symbol", None), ("factor", None),
    ],
    SolveTrace: [
        ("order", REQUIRED), ("iterations", REQUIRED), ("residual_history", REQUIRED),
        ("preconditioner", REQUIRED), ("wall_time", REQUIRED), ("converged", True),
        ("error_history", None), ("solution", None),
    ],
    pl.Symbol: [("coefficients", REQUIRED), ("label", "")],
}

# values the constructors keep as given (they normalize coefficients and
# check the decay class)
VALID = {
    "coefficients": {0: 2.0 + 0j, 1: 0.5 + 0j},
    "decay_class": "bounded",
}


@pytest.mark.parametrize("record", FIELDS, ids=lambda record: record.__name__)
def test_constructor_matches_the_dataclass_fields(record):
    params = list(inspect.signature(record).parameters.values())
    assert [(p.name, p.default) for p in params] == FIELDS[record]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    values = {name: VALID.get(name, object()) for name, _ in FIELDS[record]}
    for obj in (record(*values.values()), record(**values)):
        assert {name: getattr(obj, name) for name in values} == values


def test_an_algebra_rebuilds_from_its_attributes():
    # the tests build tampered algebras as TransformAlgebra(**(vars(alg) | changes))
    alg = pl.make_algebra("sine", 8)
    assert list(vars(alg)) == [name for name, _ in FIELDS[pl.TransformAlgebra]]
    copy = pl.TransformAlgebra(**vars(alg))
    assert vars(copy) == vars(alg)


@pytest.mark.parametrize("record", FIELDS, ids=lambda record: record.__name__)
def test_defaults_fill_the_optional_fields(record):
    required = {name: VALID.get(name, object()) for name, default in FIELDS[record]
                if default is REQUIRED}
    obj = record(**required)
    for name, default in FIELDS[record]:
        if name == "slopes":
            assert obj.slopes == {}
        elif default is not REQUIRED:
            assert getattr(obj, name) is default, name


def test_cluster_reports_do_not_share_slopes():
    one, two = (ClusterReport((8,), (0.1,), {}, {}, "none") for _ in range(2))
    one.slopes[0.1] = 1.0
    assert two.slopes == {}
    given = {0.1: 0.5}
    assert ClusterReport((8,), (0.1,), {}, {}, "none", slopes=given).slopes is given


def test_solve_trace_keeps_what_the_benchmark_reads():
    trace = pl.pcg(np.eye(4, dtype=complex), np.ones(4, dtype=complex), precond="none")
    assert isinstance(trace, SolveTrace)
    assert trace.iterations == 1 and trace.converged is True
    assert trace.residual_history[-1] == trace.final_residual
    assert trace.preconditioner == "none"


def test_constructors_still_normalize():
    sym = pl.Symbol({1: 1, 0: 0, -1: 1.0}, "c")
    assert sym.coefficients == {1: 1 + 0j, -1: 1 + 0j}
    assert all(type(v) is complex for v in sym.coefficients.values())


def test_symbol_eval_is_a_class_attribute():
    # the benchmark's tracer wraps Symbol.eval on the class
    assert "eval" in vars(pl.Symbol)
