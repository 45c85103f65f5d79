"""Golden outputs of the documented commands.

Files whose every byte is fixed by exact arithmetic or by a settled
algorithm are pinned by sha256.  Files holding Frobenius sums or PCG
residuals that may move by round-off when the way they are computed
changes are parsed: the outlier counts, classifications, slopes, labels,
verdicts and iteration counts stay exact (pinned by the sha256 of the
file with those values taken out), and the Frobenius values are held to
ROUND_OFF_RTOL of pinned or exact values, the residuals to
PCG_RESIDUAL_ATOL.  The hashes were taken on x86-64 Linux with the OpenBLAS 0.3.31
that NumPy wheels bundle; another BLAS may move the last bits of the
spectra and so the hashes.
"""

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from precondlab.algebras import make_algebra
from precondlab.cli import main
from precondlab.clustering import DEFAULT_EPS_GRID, _algebra_deviations, _structured_counts
from precondlab.symbols import parse_trig_expression
from precondlab.toeplitz import toeplitz_section
from test_acceptance import DOCUMENTED_COMMANDS

GOLDEN_SHA256 = {
    "0-selftest/selftest.csv": "8721fa360d8c344aa84a79cc40d88fa46e8cfe2812c6b10fc135cb88e700304a",
    "3-korovkin-test/korovkin_test.csv": "8ede9e0a7fc52b3a243f83052e7c7361141abc9b385d3a45a2275eb4a61e9c10",
    "3-korovkin-test/korovkin_test.json": "c21450501036fcb25998b2f1c7f01da5b07edb28d1eda841c9272b56f29b8c36",
    "4-lpo-rates/lpo_rates.csv": "7597d407700f59ce2228f032f85ee0b428e859b1bd3965c473da139dc2aa1cfa",
    "4-lpo-rates/lpo_rates.json": "24680884c54b93e1f5a135c57439def01642fd70c8e5dbb149e7c984d9008312",
    "6-pcg-bench/pcg_bench.json": "e736414c282ce5df3a6120d36e7bf0bf4c64428d5e8aa7d411c427c1a774490b",
}

# Scan outputs hold (n, eps, outliers, frobenius_sq) rows and a JSON
# summary.  Pinned: (classification, frobenius_verdict), then the sha256 of
# the canonical JSON of the rows without frobenius_sq and of the summary
# without its frobenius_sq map (counts, slopes, label, ladder, eps).  The
# tau-exact 7-cluster-scan read frobenius_sq 8.8e-30 .. 6.0e-28 from the
# dense eigen-solve and "inconclusive" from that noise; it is exactly 0.
GOLDEN_SCANS = {
    "2-cluster-scan": (
        "uniform", "strong",
        "8bc67bf7f2fb3b4cf19a73fb868bf2b5c3a3e5f9b5e64609c9d9ed1e83171265",
        "49a922689faab549cc14ab8ddaec944bcf9c72e94b0296c2f292c34829740f10",
    ),
    "5-operator-scan": (
        "weak", "strong",
        "03434e877244259ea2dd15a8f501b5e5a1275b7c1870402c264bda04e2308568",
        "ee5befa2e61bcbe8e9687d6d1920433adabb56564b35ea74c7a8b2324ce1c392",
    ),
    "7-cluster-scan": (
        "uniform", "strong",
        "e16ab0e37b67c59f910a6d50adeb50a654126ecea35ae9fc392379bc9f5caaca",
        "939bcc2f6bb6a321683b93330a270077b9b1cb98a3f7642eba0855db914332a0",
    ),
    "8-cluster-scan": (
        "uniform", "strong",
        "2a1817d1c4418cd46a385c5428f88955a4f393b6960b8be393614310271dba24",
        "81d991664d9ab7937756cf5eefad4767d82da413f4d63c18de097a949e5d9190",
    ),
    # the odd part of 2+cos+0.5sin2x is invisible to the Hartley algebra:
    # the outliers grow like n, so "none"
    "9-cluster-scan": (
        "none", "inconclusive",
        "7ca25a7cfb9325b061a73308103d25ea50617a927d0283387ec04471af49402f",
        "7c53d3ae9b48b74baa5726cd2067bc3cabbaeb67c23eee57127154582b51d19d",
    ),
}


# ||T_n - C_n||_F^2 = 0.5 - 1/(2n) for 2+cos against its optimal circulant.
def _two_plus_cos(n):
    return 0.5 - 1.0 / (2 * n)


# Written by the dense eigen-solve of U* A U before the structured counts.
HS_DECAY_SINE = {
    64: 1.4121531919365404,
    128: 1.4284966097759617,
    256: 1.4367052871328356,
    512: 1.4408196152851496,
}


# ||T_n - H_n||_F^2 for 2+cos+0.5sin2x against its optimal Hartley matrix.
# The odd part i K (K real skew, entries +-1/4 on lags +-2) is orthogonal
# to the real symmetric algebra and not projected at all: ||K||_F^2 =
# (n - 2) / 8.  The even part 2+cos adds 0.5 - 1/n.
def _hartley_odd_control(n):
    return (n - 2) / 8 + 0.5 - 1.0 / n


GOLDEN_FROBENIUS_SQ = {
    "2-cluster-scan": _two_plus_cos,
    "5-operator-scan": HS_DECAY_SINE.__getitem__,
    # the tau algebra contains T_n(2 - 2cos + 0.01): exactly 0, no round-off
    "7-cluster-scan": lambda n: 0.0,
    "8-cluster-scan": _two_plus_cos,
    "9-cluster-scan": _hartley_odd_control,
}

# pcg-bench rows are (n, precond, iterations, final_residual, wall_time).
# The final residuals move by round-off with the way T_n x and the
# preconditioner diagonal are computed.  Pinned: the sha256 of the
# canonical JSON of the rows without final_residual, and each
# final_residual at or below the command's tol and within
# PCG_RESIDUAL_ATOL of the value the 2n FFT-embedded product wrote.
PCG_BENCH_CSV = "6-pcg-bench/pcg_bench.csv"
PCG_BENCH_ROWS_SHA256 = "90be036ea22b17ca8105f568f591455e64f3880b3abe22ade351fd434e093249"
PCG_BENCH_TOL = 1e-10
PCG_BENCH_FINAL_RESIDUALS = (
    2.4035997837710454e-16,
    2.6708216146394607e-11,
    5.978027623240885e-19,
    9.019934758591664e-11,
    9.409434258172029e-11,
    1.3377902827647884e-11,
)
PCG_RESIDUAL_ATOL = 1e-15

PROJECT_CSV = "1-project/project.csv"
# Written by the dense-U projection; the exact values are 287.0078125 and 0.4921875.
GOLDEN_PROJECT_ROW = {
    "n": "64",
    "algebra": "fourier",
    "symbol": "2+cos",
    "frobenius_sq_a": "287.5",
    "frobenius_sq_p": "287.0078125000001",
    "frobenius_sq_diff": "0.4921874999999951",
}
ROUND_OFF_RTOL = 1e-12


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _canonical_sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def _check_scan(name: str, out_dir: Path) -> None:
    (csv_path,) = sorted(out_dir.glob("*.csv"))
    (json_path,) = sorted(out_dir.glob("*.json"))
    with open(csv_path, encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["n", "eps", "outliers", "frobenius_sq"], name
    summary = json.loads(json_path.read_text(encoding="utf-8"))
    fro = {int(n): float(v) for n, v in summary.pop("frobenius_sq").items()}
    classification, verdict, rows_digest, summary_digest = GOLDEN_SCANS[name]
    assert (summary["classification"], summary["frobenius_verdict"]) == (classification, verdict)
    assert _canonical_sha256([header[:3]] + [row[:3] for row in rows]) == rows_digest, name
    assert _canonical_sha256(summary) == summary_digest, name
    assert sorted(fro) == summary["ladder"], name
    for row in rows:
        assert float(row[3]) == fro[int(row[0])], (name, row)
    gold = GOLDEN_FROBENIUS_SQ[name]
    for n, value in fro.items():
        assert abs(value - gold(n)) <= ROUND_OFF_RTOL * abs(gold(n)), (name, n, value)


def test_documented_commands_match_golden_outputs(tmp_path, capsys):
    written = {}
    for i, argv in enumerate(DOCUMENTED_COMMANDS):
        out_dir = tmp_path / f"{i}-{argv[0]}"
        assert main(argv + ["--outdir", str(out_dir)]) == 0, argv
        capsys.readouterr()
        for path in sorted(out_dir.iterdir()):
            written[f"{out_dir.name}/{path.name}"] = path
    scans = {f"{name}/{name.split('-', 1)[1].replace('-', '_')}.{ext}"
             for name in GOLDEN_SCANS for ext in ("csv", "json")}
    assert sorted(written) == sorted([*GOLDEN_SHA256, PCG_BENCH_CSV, PROJECT_CSV, *scans])

    moved = [key for key, digest in GOLDEN_SHA256.items() if _sha256(written[key]) != digest]
    assert moved == []
    for name in GOLDEN_SCANS:
        _check_scan(name, tmp_path / name)

    with open(written[PCG_BENCH_CSV], encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["n", "precond", "iterations", "final_residual", "wall_time"]
    assert _canonical_sha256([row[:3] + row[4:] for row in [header, *rows]]) == (
        PCG_BENCH_ROWS_SHA256
    )
    assert len(rows) == len(PCG_BENCH_FINAL_RESIDUALS)
    for row, gold in zip(rows, PCG_BENCH_FINAL_RESIDUALS):
        residual = float(row[3])
        assert residual <= PCG_BENCH_TOL, row
        assert abs(residual - gold) <= PCG_RESIDUAL_ATOL, (row, gold)

    with open(written[PROJECT_CSV], encoding="utf-8", newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    for key in ("n", "algebra", "symbol", "frobenius_sq_a"):
        assert row[key] == GOLDEN_PROJECT_ROW[key], key
    for key in ("frobenius_sq_p", "frobenius_sq_diff"):
        gold = float(GOLDEN_PROJECT_ROW[key])
        assert abs(float(row[key]) - gold) <= ROUND_OFF_RTOL * abs(gold), key
    fro_a = float(row["frobenius_sq_a"])
    for key in ("trace_defect", "pythagoras_defect"):
        assert float(row[key]) <= ROUND_OFF_RTOL * fro_a, key


def test_hartley_odd_control_matches_the_dense_eigen_solve():
    # the banded counts of 9-cluster-scan at its smallest size, against the dense W
    f = parse_trig_expression("2+cos+0.5sin2x")
    alg = make_algebra("hartley", 1024)
    fro, deviations = _algebra_deviations(toeplitz_section(f, 1024), alg, "difference")
    banded = _structured_counts(f, alg, "difference", DEFAULT_EPS_GRID)
    assert banded[1] == {e: int(np.count_nonzero(deviations >= e)) for e in DEFAULT_EPS_GRID}
    for value in (fro, banded[0]):
        assert abs(value - _hartley_odd_control(1024)) <= ROUND_OFF_RTOL * value
