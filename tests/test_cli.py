"""Tests for the experiment runner CLI."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import precondlab
from precondlab import algebras, cli, operators, toeplitz
from precondlab.algebras import ALGEBRA_KINDS, TransformAlgebra, resolve_algebra_factory
from precondlab.cli import SUBCOMMANDS, load_config, main, resolve_symbol
from precondlab.errors import InvariantViolationError, ParseError
from precondlab.selftest import SELFTEST_CHECKS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# config files


def test_load_config_empty(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    assert load_config(path) == []


def test_load_config_values(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "ladder = 64,128\nseed = 7\nalgebra = sine\n# comment\n\ntol = 1e-8\nmax_iter = 9\n"
    )
    assert load_config(path) == [
        "--ladder=64,128", "--seed=7", "--algebra=sine", "--tol=1e-8", "--max-iter=9",
    ]


def test_load_config_duplicate_key(tmp_path):
    path = tmp_path / "dup.cfg"
    path.write_text("seed = 1\nseed = 2\n")
    with pytest.raises(ParseError, match="2"):
        load_config(path)


def test_load_config_malformed_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("seed 1\n")
    with pytest.raises(ParseError, match="key = value"):
        load_config(path)


def test_missing_config_file_exit_one(tmp_path, capsys):
    code, _, err = run(capsys, "project", "--config", str(tmp_path / "none.cfg"), "--dry-run")
    assert code == 1 and "cannot read config file" in err


def test_load_config_unknown_key(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("volume = 11\n")
    code, _, err = run(capsys, "project", "--config", str(path), "--dry-run")
    assert code == 1 and "volume" in err


def test_load_config_bad_value(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("ladder = 64,32\n")
    code, _, err = run(capsys, "pcg-bench", "--config", str(path), "--dry-run")
    assert code == 1 and "strictly increasing" in err


@pytest.mark.parametrize("dry_run", [True, False])
def test_config_value_checked_against_choices(tmp_path, capsys, dry_run):
    path = tmp_path / "run.cfg"
    path.write_text("precond = pinched\n")
    argv = ["pcg-bench", "--config", str(path), "--outdir", str(tmp_path / "out")]
    code, out, err = run(capsys, *argv, *(["--dry-run"] if dry_run else []))
    assert code == 1 and "invalid choice" in err
    assert not out and not (tmp_path / "out").exists()


def test_config_key_foreign_to_subcommand(tmp_path, capsys):
    # `precond` is a pcg-bench option; project does not take it
    path = tmp_path / "run.cfg"
    path.write_text("precond = none\n")
    code, _, err = run(capsys, "project", "--config", str(path), "--dry-run")
    assert code == 1 and str(path) in err


@pytest.mark.parametrize("command, text", [
    ("lpo-rates", "seed = 7\n"),
    ("selftest", "seed = 7\n"),
    ("lpo-rates", "testset = classical\nsymbols = cos\n"),
])
def test_config_keys_a_command_refuses_name_the_file(command, text, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    code, out, err = run(capsys, command, "--config", str(path), "--dry-run")
    assert code == 1 and not out and f"error: config file {path}" in err


def test_config_key_config_rejected(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(f"config = {path}\n")
    code, _, err = run(capsys, "project", "--config", str(path), "--dry-run")
    assert code == 1 and "cannot set 'config'" in err


def test_lpo_rates_symbols_from_config(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("symbols = cos;2+sin\n")
    code, out, _ = run(capsys, "lpo-rates", "--config", str(path), "--dry-run")
    assert code == 0
    assert json.loads(out)["symbols"] == ["cos", "2+sin"]


def test_config_run_matches_flag_run(tmp_path, capsys):
    options = {"ladder": "8,16,32,64", "eps": "0.2,0.1", "algebra": "sine",
               "symbol": "preset:2+cos"}
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in options.items()))
    flags = [token for key, value in options.items() for token in (f"--{key}", value)]
    code_flags, _, _ = run(capsys, "cluster-scan", *flags, "--outdir", str(tmp_path / "flags"))
    code_cfg, _, _ = run(capsys, "cluster-scan", "--config", str(path),
                         "--outdir", str(tmp_path / "cfg"))
    assert code_flags == code_cfg == 0
    for fname in ("cluster_scan.csv", "cluster_scan.json"):
        assert (tmp_path / "flags" / fname).read_bytes() == (tmp_path / "cfg" / fname).read_bytes()


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


@pytest.mark.parametrize("value, flags", [("true", ["--preconditioned"]), ("false", [])])
def test_config_switch_matches_the_flag(value, flags, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(f"preconditioned = {value}\n")
    common = ["--ladder", "8,16,32,64", "--eps", "0.2,0.1"]
    code_flags, _, _ = run(capsys, "cluster-scan", *common, *flags,
                           "--outdir", str(tmp_path / "flags"))
    code_cfg, _, _ = run(capsys, "cluster-scan", *common, "--config", str(path),
                         "--outdir", str(tmp_path / "cfg"))
    assert code_flags == code_cfg == 0
    for fname in ("cluster_scan.csv", "cluster_scan.json"):
        assert (tmp_path / "flags" / fname).read_bytes() == (tmp_path / "cfg" / fname).read_bytes()


def test_config_dry_run_prints_the_plan(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("dry_run = true\nn = 12\n")
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "project", "--config", str(path), "--outdir", str(out_dir))
    assert code == 0 and json.loads(out)["n"] == 12
    assert not out_dir.exists()


@pytest.mark.parametrize("command, line", [
    ("cluster-scan", "preconditioned = yes"),
    ("cluster-scan", "preconditioned ="),
    ("pcg-bench", "timings = 1"),
    ("project", "dry_run = True"),
])
def test_config_switch_rejects_other_values(command, line, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n")
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, command, "--config", str(path), "--outdir", str(out_dir))
    assert code == 1 and f"error: config file {path}" in err and "true or false" in err
    assert not out and not out_dir.exists()


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
    # the only preconditioners are none and algebra_projection
    code, _, err = run(capsys, "pcg-bench", "--precond", "pinched", "--dry-run")
    assert code == 1 and "invalid choice" in err


@pytest.mark.parametrize("command", ["cluster-scan", "korovkin-test", "operator-scan"])
@pytest.mark.parametrize("ladder", ["8,16,32,65", "8,16,32"])
def test_classifier_ladder_checked_at_parse(command, ladder, capsys):
    # the classifier needs >= 4 doubling sizes; --dry-run rejects what the run would
    code, out, err = run(capsys, command, "--ladder", ladder, "--dry-run")
    assert code == 1 and err.startswith("error: bad ladder") and not out


def test_classifier_ladder_checked_in_config(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("ladder = 8,16,32,65\n")
    code, _, err = run(capsys, "cluster-scan", "--config", str(path), "--dry-run")
    assert code == 1 and err.startswith("error:") and str(path) in err


def test_invariant_violation_exit_two(tmp_path, capsys, monkeypatch):
    # an invariant that fails inside the run, past the argument checks, is exit 2
    def fail(*args, **kwargs):
        raise InvariantViolationError("checked in the run")

    monkeypatch.setattr(operators, "distribution_convergence", fail)
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "operator-scan", "--outdir", str(out_dir))
    assert code == 2 and err == "invariant violation: checked in the run\n" and not out
    assert not out_dir.exists()


@pytest.mark.parametrize("source", ["hs_decay(1.0)", "rank1(0.95)"])
@pytest.mark.parametrize("dry_run", [[], ["--dry-run"]])
def test_operator_scan_takes_a_backed_hilbert_schmidt_source(source, dry_run, tmp_path, capsys):
    code, _, err = run(capsys, "operator-scan", "--source", source, *dry_run,
                       "--outdir", str(tmp_path / "out"))
    assert code == 0, err


# Bad input, one row each: (argv, exit code, message fragment).  Options are
# written --key=value so the config-file run can move them into the file;
# {tmp} is the test's directory, holding inf.txt ("0 inf 0"), nan.txt
# ("0 nan 0"), complex.txt, the complex symbol 2 + 0.5i e^{ix}, and big.txt,
# two finite coefficients whose squares sum past the largest float.
BAD_INPUTS = [
    (["cluster-scan", "--eps=0"], 1, "eps must be positive and finite"),
    (["cluster-scan", "--eps=0.1,inf"], 1, "eps must be positive and finite"),
    (["korovkin-test", "--eps=nan"], 1, "eps must be positive and finite"),
    (["operator-scan", "--eps=-0.1"], 1, "eps must be positive and finite"),
    (["pcg-bench", "--tol=nan"], 1, "tol must be positive and finite"),
    (["pcg-bench", "--tol=inf"], 1, "tol must be positive and finite"),
    (["pcg-bench", "--max-iter=0"], 1, "max-iter must be >= 1"),
    (["project", "--symbol=file:{tmp}/missing.txt"], 1, "cannot read symbol file"),
    (["operator-scan", "--source=toeplitz:file:{tmp}/missing.txt"], 1,
     "cannot read symbol file"),
    (["project", "--symbol=preset:1e400"], 1, "non-finite coefficient from term '1e400'"),
    (["pcg-bench", "--symbol=file:{tmp}/inf.txt"], 1, "line 1: non-finite coefficient"),
    (["pcg-bench", "--symbol=file:{tmp}/nan.txt"], 1, "line 1: non-finite coefficient"),
    (["korovkin-test", "--generators=;"], 1, "names no symbol"),
    (["lpo-rates", "--symbols=;"], 1, "names no symbol"),
    (["lpo-rates", "--symbols=cos;cos"], 1, "key the outputs and must differ"),
    (["project", "--algebra=bogus"], 1, "algebra must be one of fourier, sine, hartley, custom"),
    (["lpo-rates", "--algebra=custom"], 1, "algebra must be one of fourier, sine, hartley, got"),
    (["project", "--n=0"], 1, "size must be >= 2"),
    (["lpo-rates", "--ladder=0,8"], 1, "size must be >= 2"),
    (["pcg-bench", "--ladder=1,4"], 1, "size must be >= 2"),
    (["operator-scan", "--source=hs_decay(inf)"], 1, "parameter must be finite"),
    (["operator-scan", "--source=hs_decay(nan)"], 1, "parameter must be finite"),
    (["korovkin-test", "--holdout=cos"], 1, "repeat a generator, square or product label"),
    (["project", "--n=abc"], 1, "bad size 'abc'"),
    (["cluster-scan", "--eps=abc"], 1, "bad eps 'abc'"),
    (["operator-scan", "--source=hs_decay(0.3)"], 1, "must be > 1/2"),
    (["lpo-rates", "--symbols=file:{tmp}/complex.txt"], 1, "needs a real symbol"),
    (["korovkin-test", "--generators=cos;file:{tmp}/complex.txt"], 1,
     "generators must be real symbols"),
    (["pcg-bench", "--symbol=file:{tmp}/complex.txt"], 1, "needs a real symbol"),
    (["operator-scan", "--source=toeplitz:file:{tmp}/complex.txt"], 1, "needs a real symbol"),
    (["pcg-bench", "--symbol=preset:2-2cos+delta(0.01)+0.3sin2x"], 1,
     "needs a positive symbol"),
    # numbers are ASCII: int() and float() alone read other digits and "_" separators
    (["project", "--n=\u0661\u0660\u0660"], 1, "not an ASCII number"),
    (["pcg-bench", "--tol=1_0e-10"], 1, "not an ASCII number"),
    (["lpo-rates", "--ladder=6_4,128"], 1, "not an ASCII number"),
    (["operator-scan", "--source=hs_decay(\u0661.\u0665)"], 1, "not an ASCII number"),
    (["project", "--symbol=file:{tmp}/underscore.txt"], 1, "line 1: not an ASCII number"),
    (["project", "--seed=-1", "--algebra=custom"], 1, "seed must be >= 0"),
    # eps values key the outputs, so they must differ by value
    (["cluster-scan", "--eps=0.1,0.1"], 1, "eps values must differ"),
    (["korovkin-test", "--eps=0.1,0.10"], 1, "eps values must differ"),
    (["operator-scan", "--eps=0.5,0.1,5e-1"], 1, "eps values must differ"),
    # --seed draws only the custom algebra; lpo-rates and selftest build none
    (["lpo-rates", "--seed=7"], 1, "unrecognized arguments: --seed=7"),
    (["selftest", "--seed=7"], 1, "unrecognized arguments: --seed=7"),
    # a test set and a symbol list exclude each other, the default symbols too
    (["lpo-rates", "--testset=classical", "--symbols=sin"], 1, "not allowed with argument"),
    (["lpo-rates", "--testset=classical", "--symbols=cos"], 1, "not allowed with argument"),
    # ||T_n(f)||_F^2 squares the coefficients, so their sum of squares must be finite
    (["cluster-scan", "--symbol=preset:1e160"], 1,
     "sum of |a_k|^2 is not finite for symbol '1e160'"),
    (["operator-scan", "--source=toeplitz:1e160+cos"], 1, "not finite for symbol '1e160+cos'"),
    (["pcg-bench", "--symbol=preset:1e160+cos"], 1, "not finite for symbol '1e160+cos'"),
    (["project", "--symbol=file:{tmp}/big.txt"], 1, "sum of |a_k|^2 is not finite for symbol"),
    # and so must each square and product that korovkin-test builds from the generators
    (["korovkin-test", "--generators=1e100cos", "--holdout=", "--ladder=8,16,32,64"], 1,
     "sum of |a_k|^2 is not finite for symbol '(1e100cos)^2'"),
    # a declared Hilbert-Schmidt decay must hold at the ladder top (512): border mass <= 1 %
    (["operator-scan", "--source=hs_decay(0.6)"], 1, "border mass fraction is 9.994% (> 1%)"),
    (["operator-scan", "--source=rank1(0.99)"], 1, "border mass fraction is 1.155% (> 1%)"),
    # a preconditioned scan needs f >= 0, f != 0, for an HPD projection in every algebra:
    # the tau algebra contains T_n(cos) itself, whose eigenvalues change sign
    (["cluster-scan", "--algebra=sine", "--symbol=preset:cos", "--ladder=16,32,64,128",
      "--preconditioned"], 1, "needs a nonnegative symbol"),
    (["cluster-scan", "--symbol=preset:0.01cos3x", "--ladder=8,16,32,64", "--preconditioned"], 1,
     "needs a nonnegative symbol"),
    (["cluster-scan", "--symbol=preset:1+1.5cos", "--ladder=2,4,8,16", "--preconditioned"], 1,
     "got min -0.5 for '1+1.5cos'"),
    (["cluster-scan", "--symbol=preset:0", "--preconditioned"], 1,
     "needs a nonnegative symbol other than 0"),
]


def _write_symbol_files(tmp_path):
    (tmp_path / "inf.txt").write_text("0 inf 0\n")
    (tmp_path / "nan.txt").write_text("0 nan 0\n")
    (tmp_path / "complex.txt").write_text("0 2 0\n1 0 0.5\n")
    (tmp_path / "underscore.txt").write_text("1_0 0.5 0\n")
    (tmp_path / "big.txt").write_text("0 1.3e154 0\n1 1.3e154 0\n")


@pytest.mark.parametrize("mode", ["plain", "dry-run", "config"])
@pytest.mark.parametrize("argv, code, fragment", BAD_INPUTS)
def test_bad_input_exits_with_error_line(argv, code, fragment, mode, tmp_path, capsys):
    _write_symbol_files(tmp_path)
    command, *options = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    if mode == "dry-run":
        options.append("--dry-run")
    elif mode == "config":
        cfg = tmp_path / "run.cfg"
        # a switch --key is the line key = true
        cfg.write_text("".join((opt[2:].replace("=", " = ", 1) if "=" in opt else opt[2:] + " = true")
                               + "\n" for opt in options))
        options = ["--config", str(cfg)]
    out_dir = tmp_path / "out"
    got, _, err = run(capsys, command, *options, "--outdir", str(out_dir))
    assert got == code, err
    assert "error:" in err and fragment in err
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("mode", ["plain", "dry-run", "config"])
def test_preconditioned_scan_rejects_a_complex_symbol(mode, tmp_path, capsys):
    _write_symbol_files(tmp_path)
    out_dir = tmp_path / "out"
    switch = ["--preconditioned"]
    if mode == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preconditioned = true\n")
        switch = ["--config", str(cfg)]
    extra = ["--dry-run"] if mode == "dry-run" else []
    code, out, err = run(capsys, "cluster-scan", f"--symbol=file:{tmp_path}/complex.txt",
                         *switch, "--outdir", str(out_dir), *extra)
    assert code == 1 and "error:" in err and "needs a real symbol" in err
    assert not out and not out_dir.exists()


def test_complex_symbol_scans_in_difference_mode(tmp_path, capsys):
    _write_symbol_files(tmp_path)
    code, _, err = run(capsys, "cluster-scan", f"--symbol=file:{tmp_path}/complex.txt",
                       "--ladder", "8,16,32,64", "--outdir", str(tmp_path), "--dry-run")
    assert code == 0, err


# ---------------------------------------------------------------------------
# dry runs


def test_subcommands_are_the_parser_choices():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    assert SUBCOMMANDS == tuple(sub.choices)


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


FREEZE = """
import gc, json, sys
from precondlab import cli
assert gc.get_freeze_count() == 0
argv = ["cluster-scan", "--outdir", sys.argv[1], "--dry-run"]
assert cli.main(argv) == 0
frozen, count = gc.get_freeze_count(), gc.get_freeze_count


def refuse():  # the count walks every frozen object: a second main must not take it
    raise AssertionError("gc.get_freeze_count called again")


gc.get_freeze_count = refuse
assert cli.main(argv) == 0
gc.get_freeze_count = count
print(json.dumps([frozen, gc.get_freeze_count()]))
"""


def test_main_freezes_the_import_heap_once(tmp_path):
    # the collector then skips the imports, at exit too; a second call adds nothing
    # and does not count the frozen objects
    done = subprocess.run([sys.executable, "-c", FREEZE, str(tmp_path)], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert done.returncode == 0, done.stderr
    frozen, again = json.loads(done.stdout.splitlines()[-1])
    assert frozen > 0 and again == frozen


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_dry_run_writes_nothing(command, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, command, "--outdir", str(out_dir), "--dry-run")
    assert code == 0
    plan = json.loads(out)
    assert plan["command"] == command
    assert ("seed" in plan) == (command not in ("lpo-rates", "selftest"))
    assert not out_dir.exists() or not any(out_dir.iterdir())


# ---------------------------------------------------------------------------
# the output rule: one runner writes every command's files and summary line


def _output_sites(source: str) -> set[str]:
    """The top-level functions that write a CSV or JSON file, make a directory,
    print JSON or print a summary line ('... -> <path>')."""
    sites = set()
    for top in ast.parse(source).body:
        if not isinstance(top, ast.FunctionDef):
            continue
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            summary = name == "print" and any(
                isinstance(part, ast.Constant) and "->" in str(part.value)
                for arg in node.args if isinstance(arg, ast.JoinedStr) for part in arg.values
            )
            if name in ("write_csv", "write_json", "mkdir", "dumps") or summary:
                sites.add(top.name)
    return sites


def test_only_the_runner_writes_outputs():
    assert _output_sites(Path(cli.__file__).read_text(encoding="utf-8")) == {"_run"}
    # the guard sees what it forbids
    own = 'def cmd_x(args):\n    out.mkdir()\n    print(f"x: {s} -> {out}")\n'
    assert _output_sites(own) == {"cmd_x"}


# small inputs for each subcommand
TINY_RUNS = {
    "project": ["--n", "4"],
    "cluster-scan": ["--ladder", "4,8,16,32", "--eps", "0.1"],
    "korovkin-test": ["--generators", "cos", "--holdout", "", "--ladder", "4,8,16,32"],
    "lpo-rates": ["--ladder", "4,8"],
    "operator-scan": ["--source", "rank1(0.5)", "--ladder", "4,8,16,32", "--eps", "0.1"],
    "pcg-bench": ["--symbol", "preset:2+cos", "--ladder", "4,8"],
    "selftest": [],
}


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_command_writes_its_csv_sidecar_and_summary(command, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, command, *TINY_RUNS[command], "--outdir", str(out_dir))
    assert code == 0, err
    stem = command.replace("-", "_")
    files = {f"{stem}.csv"} | (set() if command in ("project", "selftest") else {f"{stem}.json"})
    assert {p.name for p in out_dir.iterdir()} == files
    assert out.splitlines()[-1].startswith(f"{command}: ")
    assert out.splitlines()[-1].endswith(f" -> {out_dir / stem}.csv")


def test_a_failing_selftest_check_exits_2(tmp_path, capsys, monkeypatch):
    def broken():
        raise AssertionError("off by one")

    monkeypatch.setattr(precondlab.selftest, "SELFTEST_CHECKS",
                        [("broken", broken), SELFTEST_CHECKS[-1]])
    code, out, _ = run(capsys, "selftest", "--outdir", str(tmp_path))
    assert code == 2
    assert out.splitlines()[:2] == ["FAIL broken: off by one", f"ok {SELFTEST_CHECKS[-1][0]}"]
    rows = (tmp_path / "selftest.csv").read_text(encoding="utf-8").splitlines()
    assert rows == ["check,status", "broken,fail", f"{SELFTEST_CHECKS[-1][0]},pass"]


def test_failed_run_makes_no_outdir(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "pcg-bench", "--ladder", "16,32", "--max-iter", "1",
                         "--outdir", str(out_dir))
    assert code == 2 and "did not reach tol" in err and not out
    assert not out_dir.exists()


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


def test_algebra_in_any_case_printed_as_typed(tmp_path, capsys):
    code, _, err = run(capsys, "project", "--algebra", "Sine", "--n", "8",
                       "--outdir", str(tmp_path))
    assert code == 0, err
    assert (tmp_path / "project.csv").read_text().splitlines()[1].startswith("8,Sine,2+cos,")


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


@pytest.mark.parametrize("kind", ALGEBRA_KINDS)
def test_spectral_commands_never_build_the_unitary(kind, tmp_path, capsys, monkeypatch):
    def refuse(alg):
        raise AssertionError(f"{alg.kind} unitary of order {alg.order} was built")

    monkeypatch.setattr(TransformAlgebra, "unitary", property(refuse))
    ladder = ["--ladder", "16,32,64,128", "--algebra", kind]
    commands = [
        ["project", "--symbol", "preset:2+cos+0.5sin2x", "--n", "64", "--algebra", kind],
        ["cluster-scan", "--symbol", "preset:2+cos+0.5sin2x", *ladder],
        ["cluster-scan", "--symbol", "preset:2+cos+0.5sin2x", *ladder, "--preconditioned"],
        ["operator-scan", "--source", "hs_decay(1.5)", *ladder],
        ["korovkin-test", "--generators", "cos;sin", "--holdout", "2+cos", *ladder],
    ]
    for i, argv in enumerate(commands):
        code, _, err = run(capsys, *argv, "--outdir", str(tmp_path / str(i)))
        assert code == 0, (argv, err)


LARGE_LADDER_SCAN = [
    "cluster-scan", "--algebra", "fourier", "--symbol", "preset:2+cos",
    "--ladder", "4096,8192,16384,32768",
]


@pytest.mark.parametrize("argv", [
    LARGE_LADDER_SCAN,
    ["operator-scan", "--source", "rank1(0.6)", "--algebra", "hartley",
     "--ladder", "256,512,1024,2048"],
    ["operator-scan", "--source", "hs_decay(1.5)", "--algebra", "sine",
     "--ladder", "1024,2048,4096,8192"],
    ["operator-scan", "--source", "hs_decay(1.5)", "--algebra", "fourier",
     "--ladder", "1024,2048,4096,8192"],
], ids=lambda argv: argv[0] + ":" + argv[2])
def test_structured_commands_never_form_a_section(argv, tmp_path, capsys, monkeypatch):
    # no dense W, Toeplitz section or truncation: the counts, the mass and
    # the Hilbert-Schmidt tail come from the diagonal-plus-low-rank form
    originals = (algebras.eigenbasis, toeplitz.toeplitz_section, operators.truncate)

    def refuse(*args, **kwargs):
        raise AssertionError("a dense section or eigenbasis was formed")

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("precondlab"):
            for name, value in list(vars(module).items()):
                if any(value is original for original in originals):
                    monkeypatch.setattr(module, name, refuse)
    code, _, err = run(capsys, *argv, "--outdir", str(tmp_path))
    assert code == 0, err


# ---------------------------------------------------------------------------
# determinism


def test_write_csv_writes_numpy_floats_as_plain_reprs(tmp_path):
    path = tmp_path / "cells.csv"
    cli.write_csv(path, ["a", "b", "c", "d"], [(np.float64(0.5), np.float32(0.25), 0.1, 3)])
    assert path.read_text() == "a,b,c,d\n0.5,0.25,0.1,3\n"


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


# --seed draws the custom algebra, the one algebra it reaches.  korovkin-test
# writes verdicts only, and at 16..128 they agree across seeds.
CUSTOM_RUNS = [
    ["project", "--n", "16"],
    ["cluster-scan", "--ladder", "8,16,32,64"],
    ["operator-scan", "--ladder", "8,16,32,64"],
    ["pcg-bench", "--ladder", "16,32"],
    ["korovkin-test", "--ladder", "16,32,64,128"],
]


@pytest.mark.parametrize("argv", CUSTOM_RUNS, ids=lambda argv: argv[0])
def test_seed_reaches_custom_algebra(argv, tmp_path, capsys, monkeypatch):
    def outputs(name, seed):
        out_dir = tmp_path / name
        code, _, err = run(capsys, *argv, "--algebra", "custom", "--seed", seed,
                           "--outdir", str(out_dir))
        assert code == 0, err
        return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}

    one = outputs("one", "1")
    assert outputs("one-again", "1") == one
    if argv[0] != "korovkin-test":
        assert outputs("two", "2") != one
    at_default = outputs("42", "42")
    # the library's default seed: resolve --algebra without passing --seed on
    monkeypatch.setattr(
        cli, "_algebra_factory", lambda args: resolve_algebra_factory(args.algebra)
    )
    assert outputs("library", "1") == at_default


# ---------------------------------------------------------------------------
# the runtime needs NumPy only

SRC = Path(precondlab.__file__).resolve().parents[1]

IMPORT_GUARD = """
import json, sys
import numpy as np
import precondlab
from precondlab import cli, solver
from precondlab.symbols import parse_trig_expression
from precondlab.toeplitz import toeplitz_section

outdir, commands = sys.argv[1], json.loads(sys.argv[2])
for i, argv in enumerate(commands):
    assert cli.main(argv + ["--outdir", f"{outdir}/{i}"]) == 0, argv
a = toeplitz_section(parse_trig_expression("3+cos"), 16)
solver.pcg(a, np.ones(16, dtype=complex), precond="algebra_projection", alg_kind="sine")
print(json.dumps(sorted(name for name in sys.modules if name.startswith("scipy"))))
"""


def test_commands_and_solves_never_import_scipy(tmp_path):
    ladder = ["--ladder", "8,16,32,64"]
    commands = [
        ["cluster-scan", "--symbol", "preset:2+cos+0.5sin2x", *ladder],
        ["cluster-scan", "--symbol", "preset:2+cos", "--algebra", "sine", *ladder,
         "--preconditioned"],
        ["operator-scan", "--source", "rank1(0.5)", "--algebra", "hartley", *ladder],
        ["lpo-rates", "--testset", "classical", *ladder],
        ["korovkin-test", "--generators", "cos;sin", "--holdout", "2+cos", *ladder],
        ["pcg-bench", "--symbol", "preset:2+cos", "--ladder", "16,32"],
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, str(tmp_path), json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


def test_sources_do_not_import_scipy():
    sources = sorted((SRC / "precondlab").rglob("*.py"))
    assert sources
    imports = re.compile(r"^\s*(import|from)\s+scipy\b", re.MULTILINE)
    assert [p.name for p in sources if imports.search(p.read_text())] == []


def _names_kind(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "kind") or (
        isinstance(node, ast.Name) and node.id.endswith("kind")
    )


def _kind_tests_and_unitary_reads(path: Path, exempt: set) -> list[str]:
    """Each comparison of an algebra kind and each read of ``.unitary``.

    Module-level functions named in ``exempt`` are skipped.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skipped = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in exempt:
            skipped.update(id(inner) for inner in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Attribute) and node.attr == "unitary":
            found.append(f"{path.name}:{node.lineno} reads .unitary")
        if isinstance(node, ast.Compare) and any(
            _names_kind(side) for side in (node.left, *node.comparators)
        ):
            found.append(f"{path.name}:{node.lineno} compares a kind")
    return found


def test_only_algebras_chooses_how_u_is_applied():
    # Every other module applies U and U* through the algebra's own maps;
    # the selftest oracles in selftest.py check those maps against the dense U.
    oracles = {check.__name__ for _, check in SELFTEST_CHECKS}
    found = []
    for path in sorted((SRC / "precondlab").rglob("*.py")):
        if path.name != "algebras.py":
            exempt = oracles if path.name == "selftest.py" else set()
            found += _kind_tests_and_unitary_reads(path, exempt)
    assert found == []
    # the guard itself sees what it forbids
    assert _kind_tests_and_unitary_reads(SRC / "precondlab" / "selftest.py", set()) != []
