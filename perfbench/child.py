"""One fresh interpreter of the benchmark: a CLI op or a PCG worker.

Usage: python3 perfbench/child.py JOB.json

The job file names the source tree to import, the mode and whether to
trace.  The child imports precondlab and builds the CLI parser; in ``pcg``
mode it also runs one untimed warm-up solve per op kind.  It then
optionally installs the tracer, notes the moment it is ready
(CLOCK_MONOTONIC, which the parent shares) and runs either
``cli.main(argv)``, as the ``precondlab`` console script would, or the
timed solves, with the host speed probe (probe.py) run before and after
each solve.  It writes its timings, spans and solve records to the
job's result file and exits with the command's exit code.
"""

import json
import signal
import sys
import time


def _solve(pl, np, spec):
    coeffs = {int(k): complex(re, im) for k, re, im in spec["coeffs"]}
    sym = pl.Symbol(coeffs)
    b = np.random.default_rng(spec["rhs_seed"]).standard_normal(spec["n"]).astype(np.complex128)
    start = time.monotonic_ns()
    op = pl.ToeplitzOperator(sym, spec["n"])
    trace = pl.pcg(op, b, precond=spec["precond"], alg_kind=spec["algebra"], tol=spec["tol"])
    end = time.monotonic_ns()
    return start, end, trace


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    signal.alarm(job["alarm_s"])
    sys.path.insert(0, job["src"])
    import numpy as np

    import precondlab as pl
    from precondlab import cli

    cli.build_parser()
    if job["mode"] == "pcg":
        for spec in job["warmup"]:
            _solve(pl, np, spec)
    result = {"rc": None}
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result["ready_ns"] = time.monotonic_ns()
    try:
        if job["mode"] == "cli":
            result["rc"] = cli.main(job["argv"])
        else:
            from probe import Probe

            probe = Probe()
            solves = []
            before = probe.slowdown()
            for op_id, spec in enumerate(job["solves"]):
                if tracer is not None:
                    tracer.op_id = op_id
                try:
                    start, end, trace = _solve(pl, np, spec)
                except pl.PrecondlabError as exc:
                    solves.append({"error": f"{type(exc).__name__}: {exc}"})
                    before = probe.slowdown()
                    continue
                after = probe.slowdown()
                solves.append({
                    "start_ns": start, "end_ns": end, "slowdown": (before + after) / 2,
                    "iterations": trace.iterations,
                    "converged": bool(trace.converged),
                    "final_residual": float(trace.residual_history[-1]),
                    "preconditioner": trace.preconditioner,
                })
                before = after
            result["solves"] = solves
            result["rc"] = 0
    finally:
        if tracer is not None:
            result["trace"] = tracer.dump()
        with open(job["result"], "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main())
