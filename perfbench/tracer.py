"""Out-of-process span tracer for the precondlab layers.

The tracer wraps named public functions from outside the program: it
rebinds every attribute of every loaded ``precondlab`` module that *is*
the original function, so names bound by ``from .x import y`` and the
package re-exports are traced too.  It never reads attributes of the
objects the program returns, except the SolveTrace fields pcg reports
(iterations, converged), so lazy implementations stay lazy.

Spans (name, start, end, parent, op id) are kept in memory and written
out by the process when it finishes.  ``LayerTotals`` turns them into
calls and self time (span time minus the part covered by child spans) per
function and per layer.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

# (layer, attribute path in that module, metric name)
TARGETS = (
    ("cli", "main", "cli.main"),
    ("parallel", "ladder_map", "parallel.ladder_map"),
    ("symbols", "product", "symbols.product"),
    ("symbols", "Symbol.eval", "symbols.eval"),
    ("symbols", "load_symbol", "symbols.load_symbol"),
    ("toeplitz", "toeplitz_section", "toeplitz.toeplitz_section"),
    ("toeplitz", "ToeplitzOperator.__init__", "toeplitz.ToeplitzOperator.init"),
    ("toeplitz", "ToeplitzOperator.matvec", "toeplitz.matvec"),
    ("algebras", "make_algebra", "algebras.make_algebra"),
    ("algebras", "project", "algebras.project"),
    ("algebras", "algebra_diagonal", "algebras.algebra_diagonal"),
    ("linalg", "singular_values", "linalg.singular_values"),
    ("linalg", "hermitian_eig", "linalg.hermitian_eig"),
    ("linalg", "hermitian_eigvalues", "linalg.hermitian_eigvalues"),
    ("linalg", "frobenius_norm_sq", "linalg.frobenius_norm_sq"),
    ("clustering", "build_cluster_report", "clustering.build_cluster_report"),
    ("clustering", "preconditioned_eigenvalues", "clustering.preconditioned_eigenvalues"),
    ("korovkin", "lpo_eval", "korovkin.lpo_eval"),
    ("korovkin", "sup_error", "korovkin.sup_error"),
    ("korovkin", "korovkin_test", "korovkin.korovkin_test"),
    ("operators", "truncate", "operators.truncate"),
    ("operators", "hs_tail_fraction", "operators.hs_tail_fraction"),
    ("solver", "pcg", "solver.pcg"),
    ("solver", "build_preconditioner", "solver.build_preconditioner"),
)
APPLY_NAME = "solver.precond_apply"
LAYERS = ("cli", "symbols", "toeplitz", "algebras", "clustering", "linalg",
          "korovkin", "operators", "solver", "parallel")
FUNCTION_NAMES = tuple(name for _, _, name in TARGETS) + (APPLY_NAME,)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.counters = {"solver.iterations": 0, "solver.converged": 0}
        self.missing: list[str] = []
        self.op_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, post=None):
        name_id = self._name_id(name)
        spans, lock, clock = self.spans, self._lock, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # Work handed to a pool thread belongs to the span that
                # submitted it on the main thread.
                parent = self._main_stack[-1] if self._main_stack else -1
            with lock:
                index = len(spans)
                spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op_id)
            return result if post is None else post(result)

        return traced

    def _wrap_preconditioner(self, result):
        label, apply = result
        return label, self.wrap(APPLY_NAME, apply)

    def _count_solve(self, trace):
        self.counters["solver.iterations"] += int(trace.iterations)
        self.counters["solver.converged"] += int(bool(trace.converged))
        return trace

    def install(self) -> None:
        """Wrap every target in the loaded precondlab modules."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "precondlab" or name.startswith("precondlab."))]
        posts = {"solver.build_preconditioner": self._wrap_preconditioner,
                 "solver.pcg": self._count_solve}
        for layer, path, name in TARGETS:
            module = sys.modules.get(f"precondlab.{layer}")
            owner_name, _, attr = path.rpartition(".")
            owner = module
            if module is not None and owner_name:
                owner = getattr(module, owner_name, None)
            if owner is None or attr not in vars(owner):
                self.missing.append(name)
                continue
            original = vars(owner)[attr]
            wrapped = self.wrap(name, original, posts.get(name))
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans,
                "counters": self.counters, "missing": self.missing}


def _covered(intervals) -> int:
    """Length of the union of [start, end) intervals."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(dump: dict):
    """Yield (name, op_id, self_ns) for every span of one process."""
    spans = dump["spans"]
    children = defaultdict(list)
    for span in spans:
        if span is not None and span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    for index, span in enumerate(spans):
        if span is None:  # opened by a thread that never returned
            continue
        name_id, start, end, parent, op_id = span
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(index, ())]
        child_ns = _covered([c for c in clipped if c[1] > c[0]])
        yield dump["names"][name_id], op_id, end - start - child_ns


class LayerTotals:
    """Calls and self time per traced function, summed over processes."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.self_ns_by_kind = defaultdict(lambda: defaultdict(int))  # op kind -> layer -> ns
        self.counters = defaultdict(int)
        self.missing: set[str] = set()

    def add(self, dump: dict, op_kind) -> None:
        """Add one process's spans; op_kind maps a span's op id to its op kind."""
        for name, op_id, self_ns in self_times(dump):
            self.calls[name] += 1
            self.self_ns[name] += self_ns
            self.self_ns_by_kind[op_kind(op_id)][name.split(".")[0]] += self_ns
        for key, value in dump["counters"].items():
            self.counters[key] += value
        self.missing.update(dump["missing"])

    def layer_self_s(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for name, ns in self.self_ns.items():
            out[name.split(".")[0]] += ns / 1e9
        return out
