"""Seeded inputs for the benchmark workloads.

A pass is one fixed sequence of ops.  Its shape (commands, algebras,
ladders, sizes, op mix) is the same on every pass; only the generated
inputs change, drawn from ``(seed, pass_index)``.  Every op gets its own
symbol, source parameter or right-hand side, so no two ops in a run
share a system and no cross-op cache can be rewarded.

Symbols are real trigonometric polynomials of degree <= 3, written as
``file:`` coefficient tables (one ``k re im`` line per coefficient).
Their constant term is set so that min f = margin * (max f - min f); the
condition number of the Toeplitz sections is then about (1 + margin) /
margin whatever the seed, which keeps iteration counts and spectra steady
from one seed to the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SHAPE_GRID = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
PCG_TOL = 1e-10

CLUSTER_MARGIN = 0.2
LPO_MARGIN = 0.5


def hpd_symbol(rng, degree: int, margin: float, even: bool = False) -> dict:
    """Coefficients {k: a_k} of a real symbol with min f = margin * range."""
    coeffs = {}
    for k in range(1, degree + 1):
        re = rng.uniform(-1.0, 1.0)
        im = 0.0 if even else rng.uniform(-1.0, 1.0)
        coeffs[k] = complex(re, im)
        coeffs[-k] = complex(re, -im)
    values = symbol_values(coeffs, SHAPE_GRID)
    lo, hi = float(values.min()), float(values.max())
    coeffs[0] = complex(-lo + margin * (hi - lo), 0.0)
    return coeffs


def symbol_values(coeffs: dict, xs) -> np.ndarray:
    """Real part of sum_k a_k exp(i k x)."""
    out = np.zeros(np.shape(xs), dtype=np.complex128)
    for k, a in coeffs.items():
        out += a * np.exp(1j * k * np.asarray(xs))
    return out.real


def write_symbol(coeffs: dict, path: Path) -> str:
    lines = [f"{k} {v.real!r} {v.imag!r}" for k, v in sorted(coeffs.items())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def ladder(top: int) -> list[int]:
    return [top // 8, top // 4, top // 2, top]


def _ladder_arg(sizes) -> str:
    return ",".join(str(n) for n in sizes)


@dataclass
class Op:
    """One timed operation and what its oracle needs to check it.

    ``argv`` is a CLI command line (fresh-interpreter ops); ``solve`` is an
    in-process PCG call.  ``check`` holds the generated inputs in plain
    form, so the oracle never has to trust the program to read them back.
    """

    kind: str
    check: dict
    argv: list | None = None
    solve: dict | None = None


class _Inputs:
    """Per-pass input factory writing symbol files into the pass directory."""

    def __init__(self, seed: int, pass_index: int, passdir: Path):
        self.rng = np.random.default_rng([seed, pass_index])
        self.dir = passdir
        self.count = 0

    def symbol_file(self, coeffs: dict) -> str:
        self.count += 1
        return write_symbol(coeffs, self.dir / f"sym{self.count:03d}.txt")

    def cluster_symbol(self):
        coeffs = hpd_symbol(self.rng, 3, CLUSTER_MARGIN)
        return coeffs, self.symbol_file(coeffs)


def _cluster_scan(inp: _Inputs, algebra: str, top: int, preconditioned: bool) -> Op:
    coeffs, path = inp.cluster_symbol()
    sizes = ladder(top)
    argv = ["cluster-scan", "--algebra", algebra, "--symbol", f"file:{path}",
            "--ladder", _ladder_arg(sizes)]
    if preconditioned:
        argv.append("--preconditioned")
    mode = "preconditioned" if preconditioned else "difference"
    return Op(
        kind=f"cluster-scan/{algebra}/{mode}/{top}",
        argv=argv,
        check={"command": "cluster-scan", "algebra": algebra, "mode": mode,
               "ladder": sizes, "source": {"kind": "toeplitz", "coeffs": coeffs}},
    )


def _operator_scan(inp: _Inputs, source: str, algebra: str, top: int) -> Op:
    sizes = ladder(top)
    if source == "toeplitz":
        coeffs, path = inp.cluster_symbol()
        spec = f"toeplitz:file:{path}"
        check_source = {"kind": "toeplitz", "coeffs": coeffs}
    elif source == "hs_decay":
        p = round(float(inp.rng.uniform(1.2, 2.0)), 6)
        spec = f"hs_decay({p!r})"
        check_source = {"kind": "hs_decay", "p": p}
    elif source == "rank1":
        p = round(float(inp.rng.uniform(0.3, 0.8)), 6)
        spec = f"rank1({p!r})"
        check_source = {"kind": "rank1", "p": p}
    else:
        raise ValueError(f"unknown source {source!r}")
    return Op(
        kind=f"operator-scan/{source}/{algebra}/{top}",
        argv=["operator-scan", "--source", spec, "--algebra", algebra,
              "--ladder", _ladder_arg(sizes)],
        check={"command": "operator-scan", "algebra": algebra, "mode": "difference",
               "ladder": sizes, "source": check_source},
    )


def spectral_scan_pass(seed: int, pass_index: int, passdir: Path) -> list[Op]:
    """Cluster scans in both modes on all three algebras, plus operator scans."""
    inp = _Inputs(seed, pass_index, passdir)
    return [
        _cluster_scan(inp, "sine", 512, preconditioned=True),
        _cluster_scan(inp, "hartley", 1024, preconditioned=False),
        _cluster_scan(inp, "fourier", 512, preconditioned=False),
        _cluster_scan(inp, "fourier", 512, preconditioned=True),
        _cluster_scan(inp, "sine", 256, preconditioned=False),
        _cluster_scan(inp, "hartley", 256, preconditioned=True),
        _operator_scan(inp, "toeplitz", "fourier", 512),
        _operator_scan(inp, "hs_decay", "sine", 512),
        _operator_scan(inp, "rank1", "hartley", 256),
    ]


LPO_LADDER = [8, 16, 32, 64, 128, 256, 512, 1024]
KOROVKIN_LADDER = [32, 64, 128, 256]


def _lpo_rates(inp: _Inputs, algebra: str, count: int) -> Op:
    tables = [hpd_symbol(inp.rng, 3, LPO_MARGIN) for _ in range(count)]
    paths = [inp.symbol_file(c) for c in tables]
    return Op(
        kind=f"lpo-rates/{algebra}",
        argv=["lpo-rates", "--algebra", algebra,
              "--symbols", ";".join(f"file:{p}" for p in paths),
              "--ladder", _ladder_arg(LPO_LADDER)],
        check={"command": "lpo-rates", "algebra": algebra, "ladder": LPO_LADDER,
               "symbols": [{"label": p, "coeffs": c} for p, c in zip(paths, tables)]},
    )


def _korovkin_test(inp: _Inputs, algebra: str, count: int) -> Op:
    tables = [hpd_symbol(inp.rng, 3, LPO_MARGIN) for _ in range(count)]
    paths = [inp.symbol_file(c) for c in tables]
    return Op(
        kind=f"korovkin-test/{algebra}",
        argv=["korovkin-test", "--algebra", algebra, "--generators", "cos;sin",
              "--holdout", ";".join(f"file:{p}" for p in paths),
              "--ladder", _ladder_arg(KOROVKIN_LADDER)],
        check={"command": "korovkin-test", "algebra": algebra, "ladder": KOROVKIN_LADDER,
               "holdout": [{"label": p, "coeffs": c} for p, c in zip(paths, tables)]},
    )


def lpo_korovkin_pass(seed: int, pass_index: int, passdir: Path) -> list[Op]:
    """LPO sup-error ladders on all three algebras, plus Korovkin tests."""
    inp = _Inputs(seed, pass_index, passdir)
    return [
        _lpo_rates(inp, "fourier", 1),
        _lpo_rates(inp, "sine", 1),
        _lpo_rates(inp, "hartley", 1),
        _korovkin_test(inp, "fourier", 2),
        _korovkin_test(inp, "sine", 1),
    ]


# kind -> (n, precond, algebra, degree, margin, even symbol).  Sine ops
# use tridiagonal 2-2cos+delta-type symbols, which the tau algebra
# contains: they must converge in one iteration.
PCG_KINDS = {
    "none": (2048, "none", "fourier", 3, 0.006, False),
    "hartley": (512, "algebra_projection", "hartley", 3, 0.05, True),
    "fourier": (65536, "algebra_projection", "fourier", 3, 0.01, False),
    "sine": (1024, "algebra_projection", "sine", 1, 0.01, True),
}
# One pass, in a fixed interleaved order so every worker allocates in the
# same pattern.  Sorted by latency the kinds occupy the quantile bands
# 0-15 % (none, ~20 ms), 15-30 % (hartley, ~60 ms), 30-80 % (fourier,
# ~95 ms) and 80-100 % (sine, ~260 ms) on a 2-core x86-64 host, so the
# median falls well inside the Fourier band and the 90th percentile in
# the sine band.
PCG_PASS = "FSFNFHFSFNFHFSFNFHFS"
PCG_CODES = {"F": "fourier", "S": "sine", "N": "none", "H": "hartley"}
PCG_WARMUP_ORDER = 64


def _pcg_solve(rng, kind: str, n: int) -> dict:
    _, precond, algebra, degree, margin, even = PCG_KINDS[kind]
    coeffs = hpd_symbol(rng, degree, margin, even=even)
    return {"n": n, "precond": precond, "algebra": algebra, "tol": PCG_TOL,
            "coeffs": [[k, v.real, v.imag] for k, v in sorted(coeffs.items())],
            "rhs_seed": int(rng.integers(2**62))}


def pcg_solve_pass(seed: int, pass_index: int, passdir: Path) -> list[Op]:
    """Matrix-free PCG solves on fresh HPD Toeplitz systems, four op kinds."""
    rng = np.random.default_rng([seed, pass_index])
    ops = []
    for code in PCG_PASS:
        kind = PCG_CODES[code]
        ops.append(Op(kind=f"pcg/{kind}", solve=_pcg_solve(rng, kind, PCG_KINDS[kind][0]),
                      check={"command": "pcg", "kind": kind, "tol": PCG_TOL}))
    return ops


def pcg_warmup_solves() -> list[dict]:
    """One small untimed solve per op kind, run after set-up in each worker."""
    rng = np.random.default_rng(0)
    return [_pcg_solve(rng, kind, PCG_WARMUP_ORDER) for kind in PCG_KINDS]


@dataclass(frozen=True)
class Workload:
    make_pass: Callable[[int, int, Path], list[Op]]
    in_process: bool  # ops run inside one worker interpreter per pass
    min_passes: int  # an untraced run makes at least this many passes
    trace_passes: int  # traced passes in a --trace 1 run


# Passes take ~6-10 s (CLI workloads) and ~3-5 s (pcg_solve) on a 2-core
# x86-64 host; five pcg passes are the 100 solves a run must make.
WORKLOADS = {
    "spectral_scan": Workload(spectral_scan_pass, in_process=False, min_passes=3,
                              trace_passes=2),
    "lpo_korovkin": Workload(lpo_korovkin_pass, in_process=False, min_passes=3,
                             trace_passes=2),
    "pcg_solve": Workload(pcg_solve_pass, in_process=True, min_passes=5, trace_passes=3),
}


def system_key(op: Op) -> str:
    """Identity of the system an op works on, to prove no two ops share one."""
    if op.solve is not None:
        return repr((op.solve["coeffs"], op.solve["rhs_seed"]))
    src = op.check.get("source")
    if src is not None:
        return repr(sorted((src.get("coeffs") or {}).items())) + repr(src.get("p"))
    tables = op.check.get("symbols") or op.check.get("holdout")
    return repr([sorted(t["coeffs"].items()) for t in tables])
