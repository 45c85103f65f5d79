"""Benchmark runner for precondlab.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one client, ops strictly sequential):

* ``spectral_scan``  cluster-scan (difference and --preconditioned) and
  operator-scan CLI commands, each in a fresh interpreter;
* ``lpo_korovkin``   lpo-rates and korovkin-test CLI commands, each in a
  fresh interpreter;
* ``pcg_solve``      in-process ``precondlab.pcg`` calls on fresh
  Toeplitz systems, one worker interpreter per pass of 20 solves.

A pass is one fixed sequence of ops with inputs drawn from the seed and
the pass index (see workloads.py).  With ``--trace 0`` the runner makes
passes until the next one would end after ``--seconds`` (at least
``min_passes``), checks every op's output with the oracles in oracles.py
and reports:

* ``setup_s``      median over the run's interpreters of the time from
                   spawning the interpreter until the first timed op can
                   start (import precondlab, build the CLI parser and,
                   for pcg_solve, one warm-up solve per op kind);
* ``wall_s``       time of the pass's op sequence, each op at its slot
                   latency (below);
* ``op_p50_ms``, ``op_p90_ms``  percentiles over the op slots of a pass of
                   each slot's latency, the median of its repeats over the
                   passes (the counts are on the info line);
* ``peak_rss_mb``  smallest over passes of the highest peak RSS of any
                   process an op of the pass ran in.

Every time is host-speed adjusted: the wall time measured, divided by the
host slowdown the probe in probe.py reports next to the op (in the parent
before and after a CLI op or a PCG worker's set-up, in the PCG worker
before and after each solve), raised to the measured sensitivity of such
ops.

With ``--trace 1`` the runner alternates untraced and traced passes
(``trace_passes`` of each) and reports per-layer calls and self times from
out-of-process spans (tracer.py), totalled over the traced passes.

The last line of standard output is the result object; the line before it
records the environment, sample counts and failure details.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

CHILD = HERE / "child.py"
CHILD_ALARM_S = 60  # a hung child kills itself
RUN_LIMIT_S = 100  # no new pass starts after this, on however slow a host
WORK_DIR = ".perfbench_work"


@dataclass
class OpRecord:
    kind: str
    check: dict
    latency_ns: int | None = None  # wall time
    slowdown: float | None = None  # host slowdown around the op (probe.py)
    sensitivity: float = 1.0  # op time grows as slowdown ** sensitivity
    errors: list = field(default_factory=list)
    outputs: dict | None = None


@dataclass
class PassRecord:
    ops: list
    setups_s: list  # adjusted set-up time of each interpreter
    peak_rss_kb: int
    dumps: list  # (trace dump, op-id -> op kind)

    @property
    def wall_ns(self) -> int:
        return sum(op.latency_ns for op in self.ops if op.latency_ns is not None)


# ---------------------------------------------------------------------------
# environment


def configure_environment() -> dict:
    """Pin BLAS threads and ladder workers unless set; return the child env."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    os.environ.setdefault("PRECONDLAB_WORKERS", "1")
    return dict(os.environ)


def _blas_threads(np) -> int | None:
    import ctypes
    import glob

    libdir = os.path.dirname(np.__file__) + ".libs"
    for path in sorted(glob.glob(os.path.join(libdir, "lib*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment_record(root: Path) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = _blas_threads(np)
    if threads is None:
        threads = int(os.environ["OPENBLAS_NUM_THREADS"])
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10, check=True,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
                                ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # not a git checkout
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "precondlab_workers": os.environ["PRECONDLAB_WORKERS"],
        "git_commit": commit,
    }


# ---------------------------------------------------------------------------
# running passes


def _spawn(job: dict, jobdir: Path, env: dict):
    """Run one child interpreter; return (spawn_ns, exit_ns, returncode, rusage, result)."""
    job_path = jobdir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    with open(jobdir / "stdout.txt", "wb") as out, open(jobdir / "stderr.txt", "wb") as err:
        spawn = time.monotonic_ns()
        proc = subprocess.Popen([sys.executable, str(CHILD), str(job_path)],
                                stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        exit_ns = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        result = {}
    return spawn, exit_ns, proc.returncode, usage, result


def _stderr_tail(jobdir: Path) -> str:
    text = (jobdir / "stderr.txt").read_text(encoding="utf-8", errors="replace").strip()
    return text.splitlines()[-1] if text else "no stderr"


def run_cli_pass(ops, passdir: Path, src: Path, env: dict, trace: bool, probe) -> PassRecord:
    import oracles
    from probe import PARENT_SENSITIVITY, adjusted

    record = PassRecord(ops=[], setups_s=[], peak_rss_kb=0, dumps=[])
    before = probe.slowdown()
    for index, op in enumerate(ops):
        opdir = passdir / f"op{index:02d}"
        opdir.mkdir()
        job = {"mode": "cli", "src": str(src), "trace": trace, "alarm_s": CHILD_ALARM_S,
               "argv": op.argv + ["--outdir", str(opdir / "out")],
               "result": str(opdir / "result.json")}
        spawn, exit_ns, rc, usage, result = _spawn(job, opdir, env)
        after = probe.slowdown()
        rec = OpRecord(kind=op.kind, check=op.check, latency_ns=exit_ns - spawn,
                       slowdown=(before + after) / 2, sensitivity=PARENT_SENSITIVITY)
        record.peak_rss_kb = max(record.peak_rss_kb, usage.ru_maxrss)
        if "ready_ns" in result:
            record.setups_s.append(
                adjusted((result["ready_ns"] - spawn) / 1e9, before, PARENT_SENSITIVITY))
        before = after
        if "trace" in result:
            record.dumps.append((result["trace"], lambda _id, kind=op.kind: kind))
        if rc != 0:
            rec.errors.append(f"exit code {rc}: {_stderr_tail(opdir)}")
        else:
            try:
                rec.outputs = oracles.read_outputs(op.check, opdir / "out")
            except (OSError, ValueError, IndexError) as exc:
                rec.errors.append(f"unreadable output: {exc}")
            else:
                rec.errors.extend(oracles.check(op.check, rec.outputs))
        record.ops.append(rec)
    return record


def run_pcg_pass(ops, passdir: Path, src: Path, env: dict, trace: bool, probe) -> PassRecord:
    import oracles
    import workloads
    from probe import PARENT_SENSITIVITY, WORKER_SENSITIVITY, adjusted

    job = {"mode": "pcg", "src": str(src), "trace": trace, "alarm_s": CHILD_ALARM_S,
           "warmup": workloads.pcg_warmup_solves(), "solves": [op.solve for op in ops],
           "result": str(passdir / "result.json")}
    before = probe.slowdown()
    spawn, _, rc, usage, result = _spawn(job, passdir, env)
    record = PassRecord(ops=[], setups_s=[], peak_rss_kb=usage.ru_maxrss, dumps=[])
    if "ready_ns" in result:
        record.setups_s.append(
            adjusted((result["ready_ns"] - spawn) / 1e9, before, PARENT_SENSITIVITY))
    solves = result.get("solves") or [{"error": f"worker exit code {rc}: {_stderr_tail(passdir)}"}
                                      for _ in ops]
    for op, solve in zip(ops, solves):
        rec = OpRecord(kind=op.kind, check=op.check, outputs=solve)
        if "error" not in solve:
            rec.latency_ns = solve["end_ns"] - solve["start_ns"]
            rec.slowdown = solve["slowdown"]
            rec.sensitivity = WORKER_SENSITIVITY
        rec.errors.extend(oracles.check(op.check, solve))
        record.ops.append(rec)
    if "trace" in result:
        kinds = [op.kind for op in ops]
        record.dumps.append((result["trace"], lambda op_id: kinds[op_id]))
    return record


def run_pass(workload, seed: int, index: int, workdir: Path, src: Path, env: dict,
             trace: bool, seen: set, probe) -> PassRecord:
    """Run pass `index`; `seen` collects the systems of the run's ops so far."""
    import workloads

    passdir = workdir / f"pass{index:03d}"
    passdir.mkdir()
    ops = workload.make_pass(seed, index, passdir)
    for op in ops:
        key = workloads.system_key(op)
        if key in seen:
            raise RuntimeError(f"pass {index}: {op.kind} repeats a system of the run")
        seen.add(key)
    runner = run_pcg_pass if workload.in_process else run_cli_pass
    return runner(ops, passdir, src, env, trace, probe)


# ---------------------------------------------------------------------------
# metrics


def _percentile(values, q: int) -> float:
    """q-th percentile by nearest rank: the ceil(q N / 100)-th smallest value."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered) / 100) - 1)]


def slot_latencies_ms(passes) -> list[float]:
    """Median adjusted latency of each op slot over the passes.

    Every pass runs the same op shapes in the same order, so slot j of
    each pass is one repeated sample of one op.
    """
    from probe import adjusted

    slots = []
    for slot in zip(*(p.ops for p in passes)):
        timed = [op for op in slot if op.latency_ns is not None]
        # A slot that failed on every pass still reports the time it took;
        # the failures are counted against the run.
        chosen = [op for op in timed if not op.errors] or timed
        if not chosen:
            raise RuntimeError(f"op {slot[0].kind} never ran to the end; nothing to report")
        slots.append(statistics.median(adjusted(op.latency_ns, op.slowdown, op.sensitivity)
                                       for op in chosen) / 1e6)
    return slots


def end_to_end_metrics(passes) -> dict:
    slots = slot_latencies_ms(passes)
    setups = [s for p in passes for s in p.setups_s]
    if not setups:
        raise RuntimeError("no interpreter finished set-up; nothing to report")
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(slots) / 1e3, "s"),
        "op_p50_ms": (statistics.median(slots), "ms"),
        "op_p90_ms": (_percentile(slots, 90), "ms"),
        # A pass's peak is the same on every pass of a CLI workload; a PCG
        # worker's allocator now and then keeps ~20 MB more heap, so take
        # the leanest pass: the memory the op sequence needs.
        "peak_rss_mb": (min(p.peak_rss_kb for p in passes) / 1024.0, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer_metrics(plain, traced) -> tuple[dict, dict]:
    from tracer import FUNCTION_NAMES, LayerTotals

    totals = LayerTotals()
    for p in traced:
        for dump, op_kind in p.dumps:
            totals.add(dump, op_kind)
    metrics = {}
    for name in FUNCTION_NAMES:
        metrics[f"{name}.calls"] = (totals.calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (totals.self_ns.get(name, 0) / 1e9, "s")
    layer_self = totals.layer_self_s()
    for layer, seconds in layer_self.items():
        metrics[f"{layer}.self_s"] = (seconds, "s")
    solves = totals.calls.get("solver.pcg", 0)
    metrics["solver.iterations"] = (totals.counters["solver.iterations"], "count")
    metrics["solver.converged_frac"] = (
        totals.counters["solver.converged"] / solves if solves else 0.0, "fraction")
    op_s = sum(p.wall_ns for p in traced) / 1e9
    metrics["trace.op_s"] = (op_s, "s")
    metrics["trace.uncovered_s"] = (op_s - sum(layer_self.values()), "s")
    metrics["trace.overhead_s"] = (
        (sum(slot_latencies_ms(traced)) - sum(slot_latencies_ms(plain))) / 1e3, "s")
    by_kind = {kind: {layer: round(ns / 1e9, 6) for layer, ns in sorted(layers.items())}
               for kind, layers in sorted(totals.self_ns_by_kind.items())}
    detail = {"layer_self_s_by_op_kind": by_kind, "untraced_targets": sorted(totals.missing)}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail


def negative_check(passes) -> bool:
    """A perturbed copy of the first checked output must be counted as failed."""
    import oracles

    for p in passes:
        for op in p.ops:
            if op.outputs is not None and not op.errors:
                return bool(oracles.check(op.check, oracles.perturb(op.check, op.outputs)))
    return False


# ---------------------------------------------------------------------------


def declared_metrics(root: Path, trace: bool) -> list[str]:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def parse_args(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    env = configure_environment()  # before anything imports numpy
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "precondlab" / "__init__.py").is_file():
        print(f"error: no precondlab sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    record = environment_record(root)
    workers = int(record["precondlab_workers"])
    if record["blas_threads"] * workers > record["nproc"]:
        print(f"error: {record['blas_threads']} BLAS threads x {workers} ladder workers "
              f"exceeds nproc={record['nproc']}", file=sys.stderr)
        return 3

    import workloads
    from probe import Probe

    probe = Probe()
    workload = workloads.WORKLOADS[args.workload]
    workdir = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    seen: set = set()

    def one_pass(index, trace):
        return run_pass(workload, args.seed, index, workdir, src, env, trace, seen, probe)

    start = time.monotonic()
    plain, traced = [], []
    try:
        if args.trace:
            for i in range(workload.trace_passes):
                plain.append(one_pass(2 * i, False))
                traced.append(one_pass(2 * i + 1, True))
        else:
            # Another pass while it should end within --seconds.
            while (len(plain) < workload.min_passes
                   or (time.monotonic() - start) * (len(plain) + 1) / len(plain) <= args.seconds):
                if time.monotonic() - start > RUN_LIMIT_S:
                    break
                plain.append(one_pass(len(plain), False))
        passes = plain + traced
        attempted = sum(len(p.ops) for p in passes)
        failures = [f"{op.kind}: {e}" for p in passes for op in p.ops for e in op.errors]
        failed = sum(1 for p in passes for op in p.ops if op.errors)
        caught = negative_check(passes)
        detail = {}
        if args.trace:
            metrics, detail = per_layer_metrics(plain, traced)
        else:
            metrics = end_to_end_metrics(plain)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass

    declared = declared_metrics(root, bool(args.trace))
    if sorted(declared) != sorted(metrics):
        print(f"error: reported metrics differ from BENCHMARK.json: "
              f"{sorted(set(declared) ^ set(metrics))}", file=sys.stderr)
        return 4
    latencies = sum(1 for p in plain for op in p.ops if op.latency_ns is not None)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": record,
        "samples": {"passes": len(plain) + len(traced), "untraced_passes": len(plain),
                    "op_slots": len(plain[0].ops) if plain else 0, "op_latencies": latencies,
                    "interpreters": sum(len(p.setups_s) for p in plain)},
        "slot_ms": {f"{i:02d} {op.kind}": round(ms, 3) for i, (op, ms) in
                    enumerate(zip(plain[0].ops, slot_latencies_ms(plain)))} if plain else {},
        "host_slowdown_p50": statistics.median(
            op.slowdown for p in passes for op in p.ops if op.slowdown is not None),
        "failed_frac": failed / attempted,
        "negative_check_caught": caught,
        "failures": failures[:10],
        "run_s": round(time.monotonic() - start, 3),
        **detail,
    }
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and caught, "attempted": attempted,
                      "failed": failed, "metrics": {k: metrics[k] for k in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
