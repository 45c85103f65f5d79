"""Correctness oracles owned by the benchmark.

Each op's outputs are checked against references computed here with plain
numpy from the generated inputs, never from the program's own helpers:

* the T. Chan (1988) closed form of ||T_n(f) - C_n||_F^2 for the optimal
  circulant, at every ladder size of a Fourier-algebra op;
* the Fejer closed form of the Fourier positive-operator sup error;
* a dense-definition recompute, U diag(U* A U) U*, svd and eigvalsh, at
  the smallest ladder size for every algebra and operator source;
* for PCG, convergence to the tolerance, plus exactly one iteration for
  sine-preconditioned tridiagonal systems (the tau algebra contains them).

Numeric values are compared at a relative tolerance with an absolute floor
scaled by ||A||_F^2: exact-tau cases give Frobenius distances near 1e-27,
which a relative test alone would reject.  Outlier counts must lie between
the reference counts at eps plus and minus a round-off band.

``check`` returns a list of failure messages (empty when the op is
correct); ``perturb`` returns a copy of an op's outputs with one value
changed, which ``check`` must then reject.
"""

from __future__ import annotations

import copy
import csv
import json
from pathlib import Path

import numpy as np

EPS_GRID = (0.2, 0.1, 0.05, 0.01)  # the CLI's default eps grid
LPO_POINTS = 4096
FRO_RTOL = 1e-8
FRO_FLOOR = 1e-12  # times ||A||_F^2
BAND_RTOL = 1e-7
BAND_ATOL = 1e-10  # times ||A||_F for singular values
LPO_RTOL = 1e-8
LPO_FLOOR = 1e-12  # times sum |a_k|
RATE_TOL = 1e-6
BOUNDED_RATIO = 1.2  # the bounded-Frobenius rule of the Korovkin verdicts

OUTPUT_FILES = {
    "cluster-scan": ("cluster_scan.csv", None),
    "operator-scan": ("operator_scan.csv", None),
    "lpo-rates": ("lpo_rates.csv", "lpo_rates.json"),
    "korovkin-test": ("korovkin_test.csv", "korovkin_test.json"),
}


# ---------------------------------------------------------------------------
# dense definitions


def toeplitz_dense(coeffs: dict, n: int) -> np.ndarray:
    idx = np.arange(n)
    diff = idx[:, None] - idx[None, :]
    a = np.zeros((n, n), dtype=np.complex128)
    for k, v in coeffs.items():
        a[diff == k] = v
    return a


def source_dense(source: dict, n: int) -> np.ndarray:
    if source["kind"] == "toeplitz":
        return toeplitz_dense(source["coeffs"], n)
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    p = source["p"]
    if source["kind"] == "hs_decay":
        return (1.0 / ((1.0 + j) * (1.0 + k)) ** p).astype(np.complex128)
    if source["kind"] == "rank1":
        return (p ** (j + k)).astype(np.complex128)
    raise ValueError(f"no oracle for source {source['kind']!r}")


def basis(kind: str, n: int, xs) -> np.ndarray:
    """Rows v(x) of the algebra's generalized Vandermonde matrix."""
    xs = np.asarray(xs, dtype=np.float64)
    if kind == "fourier":
        return np.exp(1j * np.outer(xs, np.arange(n))) / np.sqrt(n)
    if kind == "sine":
        return np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(xs, np.arange(1, n + 1))) + 0j
    if kind == "hartley":
        ang = np.outer(xs, np.arange(n))
        return (np.cos(ang) + np.sin(ang)) / np.sqrt(n) + 0j
    raise ValueError(f"no oracle for algebra {kind!r}")


def unitary(kind: str, n: int) -> np.ndarray:
    if kind == "sine":
        grid = np.pi * np.arange(1, n + 1) / (n + 1)
    else:
        grid = 2.0 * np.pi * np.arange(n) / n
    return basis(kind, n, grid)


def projection(kind: str, a: np.ndarray) -> np.ndarray:
    u = unitary(kind, a.shape[0])
    d = np.einsum("ji,jk,ki->i", u.conj(), a, u)
    return (u * d) @ u.conj().T


def fro_sq(a) -> float:
    return float(np.sum(np.abs(a) ** 2))


def chan_frobenius_sq(coeffs: dict, n: int) -> float:
    """||T_n(f) - C_n||_F^2 for the optimal circulant C_n, n > 2 deg f.

    T - C is |m| a_m / n on the n - |m| entries of diagonal m and
    -(n - |m|) a_m / n on the |m| wrapped corner entries, which sums to
    sum_{m != 0} |a_m|^2 |m| (n - |m|) / n.
    """
    return float(sum(abs(v) ** 2 * abs(m) * (n - abs(m)) / n
                     for m, v in coeffs.items() if m != 0))


def toeplitz_fro_sq(coeffs: dict, n: int) -> float:
    return float(sum(abs(v) ** 2 * max(n - abs(m), 0) for m, v in coeffs.items()))


def fejer_sup_error(coeffs: dict, n: int) -> float:
    """sup over the 4096-point grid of |F_n f - f|; F_n scales a_k by (n - |k|)_+ / n."""
    xs = 2.0 * np.pi * np.arange(LPO_POINTS) / LPO_POINTS
    err = {k: -v * min(abs(k), n) / n for k, v in coeffs.items() if k != 0}
    return float(np.max(np.abs(_trig_values(err, xs))))


def _trig_values(coeffs: dict, xs) -> np.ndarray:
    out = np.zeros(len(xs), dtype=np.complex128)
    for k, v in coeffs.items():
        out += v * np.exp(1j * k * xs)
    return out


def dense_sup_error(kind: str, coeffs: dict, n: int) -> float:
    xs = 2.0 * np.pi * np.arange(LPO_POINTS) / LPO_POINTS
    v = basis(kind, n, xs)
    values = np.einsum("ij,ij->i", v @ toeplitz_dense(coeffs, n), v.conj()).real
    return float(np.max(np.abs(values - _trig_values(coeffs, xs).real)))


def _close(value: float, ref: float, rtol: float, atol: float) -> bool:
    return abs(value - ref) <= rtol * abs(ref) + atol


def _band_counts(values, eps: float, scale: float) -> tuple[int, int]:
    """Counts of values >= eps at the upper and lower edge of the round-off band."""
    slack = BAND_RTOL * eps + BAND_ATOL * scale
    return int(np.sum(values >= eps + slack)), int(np.sum(values >= eps - slack))


# ---------------------------------------------------------------------------
# output parsing


def read_outputs(check: dict, outdir: Path) -> dict:
    csv_name, json_name = OUTPUT_FILES[check["command"]]
    with open(outdir / csv_name, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    out = {"header": rows[0], "rows": rows[1:]}
    if json_name:
        out["json"] = json.loads((outdir / json_name).read_text(encoding="utf-8"))
    return out


# ---------------------------------------------------------------------------
# per-command checks


def _check_scan(check: dict, out: dict) -> list[str]:
    errors = []
    ladder, kind, mode = check["ladder"], check["algebra"], check["mode"]
    table = {}
    for n, eps, outliers, fro in out["rows"]:
        table[(int(n), float(eps))] = (int(outliers), float(fro))
    expected = {(n, eps) for n in ladder for eps in EPS_GRID}
    if set(table) != expected:
        return [f"rows cover {sorted(table)}, expected ladder x eps {sorted(expected)}"]
    source = check["source"]
    if kind == "fourier" and source["kind"] == "toeplitz":
        for n in ladder:
            ref = chan_frobenius_sq(source["coeffs"], n)
            floor = FRO_FLOOR * toeplitz_fro_sq(source["coeffs"], n)
            got = table[(n, EPS_GRID[0])][1]
            if not _close(got, ref, FRO_RTOL, floor):
                errors.append(f"n={n}: frobenius_sq {got!r} vs Chan closed form {ref!r}")
    n = ladder[0]
    a = source_dense(source, n)
    p = projection(kind, a)
    ref = fro_sq(a - p)
    norm_sq = fro_sq(a)
    if mode == "difference":
        values, scale = np.linalg.svd(a - p, compute_uv=False), np.sqrt(norm_sq)
    else:
        # B = L L*: L^-1 A L^-* is similar to B^-1/2 A B^-1/2.
        chol = np.linalg.cholesky(0.5 * (p + p.conj().T))
        whitened = np.linalg.solve(chol, np.linalg.solve(chol, a).conj().T)
        eig = np.linalg.eigvalsh(0.5 * (whitened + whitened.conj().T))
        values, scale = np.abs(eig - 1.0), 1.0
    for eps in EPS_GRID:
        outliers, got = table[(n, eps)]
        if not _close(got, ref, FRO_RTOL, FRO_FLOOR * norm_sq):
            errors.append(f"n={n} eps={eps}: frobenius_sq {got!r} vs dense {ref!r}")
        hi, lo = _band_counts(values, eps, scale)
        if not hi <= outliers <= lo:
            errors.append(f"n={n} eps={eps}: {outliers} outliers, dense gives {hi}..{lo}")
    return errors


def _check_lpo(check: dict, out: dict) -> list[str]:
    errors = []
    ladder, kind = check["ladder"], check["algebra"]
    table = {(row[1], int(row[0])): float(row[2]) for row in out["rows"]}
    labels = [s["label"] for s in check["symbols"]]
    if set(table) != {(label, n) for label in labels for n in ladder}:
        return [f"rows cover {sorted(table)}, expected symbols x ladder"]
    for sym in check["symbols"]:
        coeffs, label = sym["coeffs"], sym["label"]
        floor = LPO_FLOOR * sum(abs(v) for v in coeffs.values())
        if kind == "fourier":
            refs = {n: fejer_sup_error(coeffs, n) for n in ladder}
            fit = out["json"]["rate_fits"].get(label)
            if fit is None or abs(fit + 1.0) > RATE_TOL:
                errors.append(f"{label}: rate fit {fit!r}, Fejer errors decay exactly like 1/n")
        else:
            refs = {ladder[0]: dense_sup_error(kind, coeffs, ladder[0])}
        for n, ref in refs.items():
            if not _close(table[(label, n)], ref, LPO_RTOL, floor):
                errors.append(f"{label} n={n}: sup_error {table[(label, n)]!r} vs {ref!r}")
    return errors


def _product(s: dict, t: dict) -> dict:
    out: dict = {}
    for k, a in s.items():
        for m, b in t.items():
            out[k + m] = out.get(k + m, 0) + a * b
    return out


def _frobenius_verdict(ladder, d) -> str:
    """Reference restatement of the bounded / vanishing Frobenius-trend rule."""
    if max(d) <= BOUNDED_RATIO * d[1] or max(d) == 0.0:
        return "strong"
    ratios = [v / n for v, n in zip(d, ladder)]
    if all(b <= a for a, b in zip(ratios, ratios[1:])) and ratios[-1] <= 0.5 * ratios[0]:
        return "weak"
    return "inconclusive"


def _check_korovkin(check: dict, out: dict) -> list[str]:
    errors = []
    ladder, kind = check["ladder"], check["algebra"]
    cos, sin = {1: 0.5, -1: 0.5}, {1: -0.5j, -1: 0.5j}
    functions = [("test_set", "cos", cos), ("test_set", "sin", sin),
                 ("test_set", "(cos)^2", _product(cos, cos)),
                 ("test_set", "(sin)^2", _product(sin, sin)),
                 ("product", "(cos)*(sin)", _product(cos, sin))]
    functions += [("holdout", h["label"], h["coeffs"]) for h in check["holdout"]]
    rows = out["rows"]
    if [(r[0], r[1]) for r in rows] != [(role, label) for role, label, _ in functions]:
        return [f"rows {[(r[0], r[1]) for r in rows]} do not match the expected functions"]
    for (role, label, coeffs), (_, _, fro, cls, strong) in zip(functions, rows):
        if int(strong) != int(fro == "strong" or cls in ("strong", "uniform")):
            errors.append(f"{label}: strong={strong} contradicts {fro}/{cls}")
        if kind == "fourier":
            d = [chan_frobenius_sq(coeffs, n) for n in ladder]
        else:
            d = [fro_sq(a - projection(kind, a))
                 for a in (toeplitz_dense(coeffs, n) for n in ladder)]
        # Round-off-level distances (exact-tau cases) carry no verdict.
        if max(d) <= FRO_FLOOR * toeplitz_fro_sq(coeffs, ladder[0]):
            continue
        if abs(max(d) / (BOUNDED_RATIO * d[1]) - 1.0) < 1e-6:
            continue
        ref = _frobenius_verdict(ladder, d)
        if fro != ref:
            errors.append(f"{label}: frobenius verdict {fro!r}, reference {ref!r}")
    summary = out["json"]
    strong = [int(r[4]) == 1 for r in rows]
    n_test = 4
    test_strong, hold_strong = all(strong[:n_test]), all(strong[n_test:])
    if summary["test_set_strong"] != test_strong or summary["holdout_strong"] != hold_strong:
        errors.append("summary strong flags contradict the CSV rows")
    if summary["implication_observed"] != (hold_strong if test_strong else None):
        errors.append("implication_observed contradicts the strong flags")
    return errors


def _check_pcg(check: dict, record: dict) -> list[str]:
    if "error" in record:
        return [record["error"]]
    errors = []
    if not record["converged"] or not record["final_residual"] <= check["tol"]:
        errors.append(f"did not converge: residual {record['final_residual']!r}")
    if check["kind"] == "sine" and record["iterations"] != 1:
        errors.append(f"sine-preconditioned tridiagonal system took "
                      f"{record['iterations']} iterations, tau contains it (expected 1)")
    return errors


CHECKS = {
    "cluster-scan": _check_scan,
    "operator-scan": _check_scan,
    "lpo-rates": _check_lpo,
    "korovkin-test": _check_korovkin,
    "pcg": _check_pcg,
}


def check(op_check: dict, outputs: dict) -> list[str]:
    try:
        return CHECKS[op_check["command"]](op_check, outputs)
    except (KeyError, ValueError, IndexError, TypeError, np.linalg.LinAlgError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def perturb(op_check: dict, outputs: dict) -> dict:
    """A copy of the outputs with one checked value moved off its reference."""
    out = copy.deepcopy(outputs)
    command = op_check["command"]
    if command in ("cluster-scan", "operator-scan"):
        n0 = str(op_check["ladder"][0])
        norm_sq = fro_sq(source_dense(op_check["source"], int(n0)))
        for row in out["rows"]:
            if row[0] == n0:
                row[3] = repr(float(row[3]) * (1 + 1e-3) + 1e-6 * norm_sq)
    elif command == "lpo-rates":
        out["rows"][0][2] = repr(float(out["rows"][0][2]) * (1 + 1e-3) + 1e-9)
    elif command == "korovkin-test":
        out["rows"][-1][4] = str(1 - int(out["rows"][-1][4]))
    else:
        out.update(converged=False, final_residual=1e3 * op_check["tol"])
    return out
