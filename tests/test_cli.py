"""Tests for the experiment runner CLI."""

import json

import pytest

from precondlab.cli import SUBCOMMANDS, load_config, main, resolve_symbol
from precondlab.errors import ParseError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# config files


def test_load_config_empty(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = load_config(path)
    assert cfg.ladder is None and cfg.seed is None


def test_load_config_values(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("ladder = 64,128\nseed = 7\nalgebra = sine\n# comment\n\ntol = 1e-8\n")
    cfg = load_config(path)
    assert cfg.ladder == (64, 128)
    assert cfg.seed == 7
    assert cfg.algebra == "sine"
    assert cfg.tol == 1e-8


def test_load_config_duplicate_key(tmp_path):
    path = tmp_path / "dup.cfg"
    path.write_text("seed = 1\nseed = 2\n")
    with pytest.raises(ParseError, match="2"):
        load_config(path)


def test_load_config_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("volume = 11\n")
    with pytest.raises(ParseError, match="unknown key"):
        load_config(path)


def test_load_config_bad_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("ladder = 64,32\n")
    with pytest.raises(ParseError):
        load_config(path)


def test_config_feeds_command(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 12\nalgebra = hartley\n")
    code, out, _ = run(
        capsys, "project", "--config", str(cfg),
        "--outdir", str(tmp_path), "--dry-run",
    )
    assert code == 0
    plan = json.loads(out)
    assert plan["n"] == 12 and plan["algebra"] == "hartley"


def test_explicit_flag_beats_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 12\n")
    code, out, _ = run(
        capsys, "project", "--config", str(cfg), "--n", "6",
        "--outdir", str(tmp_path), "--dry-run",
    )
    assert code == 0
    assert json.loads(out)["n"] == 6


# ---------------------------------------------------------------------------
# symbol resolution


def test_resolve_symbol_preset_and_file(tmp_path):
    s = resolve_symbol("preset:2+cos")
    assert s.coefficient(0) == 2.0
    path = tmp_path / "sym.txt"
    path.write_text("\n".join(["0 2.0 0.0", "1 0.5 0.0", "-1 0.5 0.0"]) + "\n")
    t = resolve_symbol(f"file:{path}")
    assert t.coefficients == s.coefficients


# ---------------------------------------------------------------------------
# exit codes


def test_usage_error_exit_one(capsys):
    code, _, err = run(capsys, "cluster-scan", "--algebra")
    assert code == 1 and err


def test_unknown_preset_exit_one(tmp_path, capsys):
    code, _, err = run(
        capsys, "cluster-scan", "--symbol", "preset:tan", "--outdir", str(tmp_path)
    )
    assert code == 1 and "error" in err


def test_pcg_bench_rejects_pinched(capsys):
    # the CLI has no way to pass the partition a pinched preconditioner needs
    code, _, err = run(capsys, "pcg-bench", "--precond", "pinched", "--dry-run")
    assert code == 1 and "invalid choice" in err


def test_invariant_violation_exit_two(tmp_path, capsys):
    # non-doubling ladder passes argument parsing but violates the
    # classifier's ladder invariant
    code, _, err = run(
        capsys, "cluster-scan", "--ladder", "8,16,32,65", "--outdir", str(tmp_path)
    )
    assert code == 2 and "invariant" in err


# ---------------------------------------------------------------------------
# dry runs


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_dry_run_writes_nothing(command, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, command, "--outdir", str(out_dir), "--dry-run")
    assert code == 0
    assert json.loads(out)["command"] == command
    assert not out_dir.exists() or not any(out_dir.iterdir())


# ---------------------------------------------------------------------------
# real runs on small ladders


def test_project_writes_csv(tmp_path, capsys):
    code, out, _ = run(
        capsys, "project", "--n", "16", "--outdir", str(tmp_path)
    )
    assert code == 0
    lines = (tmp_path / "project.csv").read_text().splitlines()
    assert lines[0].startswith("n,algebra,symbol")
    assert len(lines) == 2
    assert "project:" in out


def test_cluster_scan_small(tmp_path, capsys):
    code, out, _ = run(
        capsys, "cluster-scan", "--ladder", "8,16,32,64",
        "--eps", "0.2,0.1", "--outdir", str(tmp_path),
    )
    assert code == 0
    csv_text = (tmp_path / "cluster_scan.csv").read_text()
    assert csv_text.splitlines()[0] == "n,eps,outliers,frobenius_sq"
    assert len(csv_text.splitlines()) == 1 + 4 * 2
    summary = json.loads((tmp_path / "cluster_scan.json").read_text())
    assert summary["classification"] in ("uniform", "strong", "weak", "none")


def test_lpo_rates_small(tmp_path, capsys):
    code, out, _ = run(
        capsys, "lpo-rates", "--symbols", "cos", "--ladder", "8,16,32,64",
        "--outdir", str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "lpo_rates.csv").read_text().splitlines()
    assert lines[0] == "n,symbol,sup_error"
    # Fejer: sup error is 1/n up to round-off
    n, label, err = lines[1].split(",")
    assert (n, label) == ("8", "cos")
    assert abs(float(err) - 0.125) < 1e-12
    summary = json.loads((tmp_path / "lpo_rates.json").read_text())
    assert abs(summary["rate_fits"]["cos"] + 1.0) < 0.01


def test_operator_scan_small(tmp_path, capsys):
    code, out, _ = run(
        capsys, "operator-scan", "--source", "rank1(0.5)",
        "--ladder", "8,16,32,64", "--outdir", str(tmp_path),
    )
    assert code == 0
    summary = json.loads((tmp_path / "operator_scan.json").read_text())
    assert summary["frobenius_verdict"] == "strong"


def test_korovkin_small(tmp_path, capsys):
    code, out, _ = run(
        capsys, "korovkin-test", "--generators", "cos", "--holdout", "2+cos",
        "--ladder", "8,16,32,64", "--outdir", str(tmp_path),
    )
    assert code == 0
    summary = json.loads((tmp_path / "korovkin_test.json").read_text())
    assert summary["test_set_strong"] is True


def test_pcg_bench_wall_time_blank_by_default(tmp_path, capsys):
    code, _, _ = run(
        capsys, "pcg-bench", "--ladder", "16,32", "--tol", "1e-8",
        "--outdir", str(tmp_path),
    )
    assert code == 0
    rows = (tmp_path / "pcg_bench.csv").read_text().splitlines()[1:]
    assert all(row.endswith(",") for row in rows)


def test_pcg_bench_timings_flag(tmp_path, capsys):
    code, _, _ = run(
        capsys, "pcg-bench", "--ladder", "16,32", "--tol", "1e-8",
        "--timings", "--outdir", str(tmp_path),
    )
    assert code == 0
    rows = (tmp_path / "pcg_bench.csv").read_text().splitlines()[1:]
    assert all(not row.endswith(",") for row in rows)


# ---------------------------------------------------------------------------
# determinism


def test_cluster_scan_byte_identical(tmp_path, capsys):
    args = ["cluster-scan", "--ladder", "8,16,32,64", "--eps", "0.2,0.1,0.05,0.01"]
    dirs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        code, _, _ = run(capsys, *args, "--outdir", str(out_dir))
        assert code == 0
        dirs.append(out_dir)
    for fname in ("cluster_scan.csv", "cluster_scan.json"):
        assert (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes()
