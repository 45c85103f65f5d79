"""Golden outputs of the documented commands.

Every file the README commands write is pinned by sha256, except
``project.csv``: its Frobenius sums may move by round-off when the
projection changes how it applies U and U*, so it is parsed and held to
stated bounds instead.  The hashes were taken on x86-64 Linux with the
OpenBLAS 0.3.31 that NumPy wheels bundle; another BLAS may move the
last bits of the spectra and so the hashes.
"""

import csv
import hashlib
from pathlib import Path

from precondlab.cli import main
from test_acceptance import DOCUMENTED_COMMANDS

GOLDEN_SHA256 = {
    "0-selftest/selftest.csv": "8721fa360d8c344aa84a79cc40d88fa46e8cfe2812c6b10fc135cb88e700304a",
    "2-cluster-scan/cluster_scan.csv": "8acf7782a63d0702057e85640e43aeac73743c90554036a4962cda7bc9766246",
    "2-cluster-scan/cluster_scan.json": "1127821dafab5b7254b11da5f4bc3298c1bed015c5f85b2a9dd7d241fd121a4d",
    "3-korovkin-test/korovkin_test.csv": "8ede9e0a7fc52b3a243f83052e7c7361141abc9b385d3a45a2275eb4a61e9c10",
    "3-korovkin-test/korovkin_test.json": "c21450501036fcb25998b2f1c7f01da5b07edb28d1eda841c9272b56f29b8c36",
    "4-lpo-rates/lpo_rates.csv": "7597d407700f59ce2228f032f85ee0b428e859b1bd3965c473da139dc2aa1cfa",
    "4-lpo-rates/lpo_rates.json": "24680884c54b93e1f5a135c57439def01642fd70c8e5dbb149e7c984d9008312",
    "5-operator-scan/operator_scan.csv": "b75616205272fca1888a3d85033d6c195c948d22894da50e8523e28e90ff19c3",
    "5-operator-scan/operator_scan.json": "3c5f285ac41fdfa1b23f022e81da62b0cc671b771119edd12f3687e51bcafb8d",
    "6-pcg-bench/pcg_bench.csv": "ba9f8f7cb88bdf45307db70cec0ac24ab119291a19820edca3fe2fc1049d3038",
    "6-pcg-bench/pcg_bench.json": "e736414c282ce5df3a6120d36e7bf0bf4c64428d5e8aa7d411c427c1a774490b",
    "7-cluster-scan/cluster_scan.csv": "fa81deb4084c8e688e7b2d1ee4c56fdb6612ad9ae46465a983d2389ac0d43e08",
    "7-cluster-scan/cluster_scan.json": "7dba11a4b0036678e70f2249be508a2f6a7572326123d1e4ac07e58e3689b0b8",
}

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


def test_documented_commands_match_golden_outputs(tmp_path, capsys):
    written = {}
    for i, argv in enumerate(DOCUMENTED_COMMANDS):
        out_dir = tmp_path / f"{i}-{argv[0]}"
        assert main(argv + ["--outdir", str(out_dir)]) == 0, argv
        capsys.readouterr()
        for path in sorted(out_dir.iterdir()):
            written[f"{out_dir.name}/{path.name}"] = path
    assert sorted(written) == sorted([*GOLDEN_SHA256, PROJECT_CSV])

    moved = [key for key, digest in GOLDEN_SHA256.items() if _sha256(written[key]) != digest]
    assert moved == []

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
