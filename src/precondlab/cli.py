"""Experiment runner.

Every pipeline is a subcommand writing plot-ready CSV, all but project and
selftest with a JSON summary sidecar.  Given the same configuration and
seed, output files are byte-identical across runs; wall-clock timings are
only written when --timings is passed since they would break that
guarantee.  ``--help`` lists the subcommands.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import sys
from functools import cache, partial
from pathlib import Path
from typing import Sequence

import numpy as np

from . import algebras, clustering, korovkin, operators, solver, symbols, toeplitz
from .errors import InsufficientLadderError, ParseError, PrecondlabError, UsageError
from .linalg import frobenius_norm_sq
from .symbols import resolve_symbol, resolve_symbol_list

DEFAULT_TOL = 1e-10


# ---------------------------------------------------------------------------
# option types and configuration files


def _bounded_int(text: str, what: str, least: int) -> int:
    try:
        value = symbols.ascii_number(text, int)
    except ValueError as exc:
        raise ParseError(f"bad {what} {text!r}: {exc}") from exc
    if value < least:
        raise ParseError(f"{what} must be >= {least}, got {text!r}")
    return value


def _algebra_name(text: str, choices: tuple[str, ...]) -> str:
    """A name in `choices`, in any case; kept as typed, since the outputs print it."""
    if text.lower() not in choices:
        raise ParseError(f"algebra must be one of {', '.join(choices)}, got {text!r}")
    return text


def _parse_ladder(text: str) -> tuple[int, ...]:
    ladder = tuple(_parse_size(part) for part in text.split(","))
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ParseError(f"ladder must be strictly increasing, got {text!r}")
    return ladder


def _parse_cluster_ladder(text: str) -> tuple[int, ...]:
    """A ladder the outlier classifier accepts: >= 4 sizes, doubling at each step."""
    try:
        return clustering._validate_ladder(_parse_ladder(text))
    except InsufficientLadderError as exc:
        raise ParseError(f"bad ladder {text!r}: {exc}") from exc


def _positive_float(text: str, what: str) -> float:
    try:
        value = symbols.ascii_number(text)
    except ValueError as exc:
        raise ParseError(f"bad {what} {text!r}: {exc}") from exc
    if not (np.isfinite(value) and value > 0):
        raise ParseError(f"{what} must be positive and finite, got {text!r}")
    return value


def _parse_eps(text: str) -> tuple[float, ...]:
    epsilons = tuple(_positive_float(part, "eps") for part in text.split(","))
    # by value: 0.1 and 0.10 would key the same outputs twice
    if len(set(epsilons)) < len(epsilons):
        raise ParseError(f"eps values must differ, got {text!r}")
    return epsilons


# Algebras need order >= 2, and every command builds one per size (pcg-bench: unless none).
_parse_size = partial(_bounded_int, what="size", least=2)
_parse_max_iter = partial(_bounded_int, what="max-iter", least=1)
_parse_seed = partial(_bounded_int, what="seed", least=0)
_parse_tol = partial(_positive_float, what="tol")
_parse_algebra = partial(_algebra_name, choices=(*algebras.ALGEBRA_KINDS, "custom"))
# lpo-rates sums closed-form lag weights, and the custom algebra has none.
_parse_basis_algebra = partial(_algebra_name, choices=algebras.ALGEBRA_KINDS)


def load_config(path) -> list[str]:
    """Read `key = value` lines as `--key=value` tokens for the subcommand's parser.

    Keys are option names (`max_iter` and `max-iter` both name --max-iter);
    the parser checks each value exactly like a flag.  Malformed lines,
    duplicate keys and a `config` key fail here.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read config file: {exc}") from exc
    tokens: list[str] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        key = key.strip().replace("_", "-")
        if not eq or not key:
            raise ParseError(f"{path}:{lineno}: expected 'key = value'")
        if key == "config":
            raise ParseError(f"{path}:{lineno}: a config file cannot set 'config'")
        if key in seen:
            raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        tokens.append(f"--{key}={value.strip()}")
    return tokens


# ---------------------------------------------------------------------------
# symbol checks


def _real(sym: symbols.Symbol, what: str) -> symbols.Symbol:
    """sym, if it is real: `what` needs Hermitian sections or real values."""
    if not sym.is_real:
        raise ParseError(f"{what} needs a real symbol, got complex {sym.label!r}")
    return sym


def _positive(sym: symbols.Symbol, what: str, zeros: bool = False) -> symbols.Symbol:
    """sym, if it is real and positive on a grid of max(1024, 32 deg) points.

    `what` needs HPD sections, or with zeros an HPD projection in every
    algebra, whose eigenvalues u* T_n(f) u are >= min f: f >= 0, f != 0, a
    value down to -REALNESS_TOL sum |a_k| read as 0.  Between grid points h
    apart, f dips at most h^2/8 max |f''| <= 0.5 % of sum |a_k| below them.
    """
    _real(sym, what)
    points = max(1024, 32 * sym.degree)
    low = float(np.min(sym.eval_real(2.0 * np.pi * np.arange(points) / points)))
    scale = sum(abs(a) for a in sym.coefficients.values())
    if not (low > 0.0 or zeros and low >= -symbols.REALNESS_TOL * scale and scale > 0.0):
        need = "a nonnegative symbol other than 0" if zeros else "a positive symbol"
        raise ParseError(f"{what} needs {need}, got min {low:.6g} for {sym.label!r}")
    return sym


# ---------------------------------------------------------------------------
# deterministic CSV/JSON writers


def _fmt(value) -> str:
    # float(), since NumPy 2 writes repr(np.float64(0.5)) as 'np.float64(0.5)'
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: Sequence[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommand implementations: input checks, plan fields and work for ``_run``


# The options a plan carries whenever the subcommand's parser has them.
_PLAN_OPTIONS = ("algebra", "seed", "ladder", "eps")
_SCAN_HEADER = ["n", "eps", "outliers", "frobenius_sq"]


def _run(args, plan: dict, work) -> int:
    """The output rule of every subcommand.

    Under --dry-run, print the plan as one JSON line: the command, --outdir,
    those of ``_PLAN_OPTIONS`` the parser has, and the command's `plan`
    fields.  Otherwise call work() for (header, rows, payload, summary),
    then write <command>.csv into --outdir (made only now, so a failed run
    leaves nothing) and, unless the payload is None, the <command>.json
    sidecar, and print '<command>: <summary> -> <csv path>'.
    """
    if args.dry_run:
        options = {key: getattr(args, key) for key in _PLAN_OPTIONS if hasattr(args, key)}
        head = {"command": args.command, "outdir": str(args.outdir)}
        print(json.dumps(head | options | plan, sort_keys=True))
        return 0
    header, rows, payload, summary = work()
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    stem = args.command.replace("-", "_")
    write_csv(out / f"{stem}.csv", header, rows)
    if payload is not None:
        write_json(out / f"{stem}.json", payload)
    print(f"{args.command}: {summary} -> {out / f'{stem}.csv'}")
    return 0


def _algebra_factory(args):
    """The --algebra choice as a factory n -> algebra; only custom reads --seed."""
    return algebras.resolve_algebra_factory(args.algebra, seed=args.seed)


def cmd_project(args) -> int:
    sym = resolve_symbol(args.symbol)

    def work():
        alg = _algebra_factory(args)(args.n)
        a = toeplitz.toeplitz_section(sym, args.n)
        p = algebras.project(alg, a)
        fro_a, fro_p, fro_diff = (frobenius_norm_sq(m) for m in (a, p, a - p))
        row = (args.n, args.algebra, sym.label, fro_a, fro_p, fro_diff,
               abs(np.trace(p) - np.trace(a)), abs(fro_diff - (fro_a - fro_p)))
        header = ["n", "algebra", "symbol", "frobenius_sq_a", "frobenius_sq_p",
                  "frobenius_sq_diff", "trace_defect", "pythagoras_defect"]
        summary = (f"algebra={args.algebra} symbol={sym.label} n={args.n} "
                   f"frobenius_sq_diff={fro_diff!r}")
        return header, [row], None, summary

    return _run(args, {"symbol": sym.label, "n": args.n}, work)


def cmd_cluster_scan(args) -> int:
    sym = resolve_symbol(args.symbol)
    if args.preconditioned:
        _positive(sym, "cluster-scan --preconditioned", zeros=True)
    mode = "preconditioned" if args.preconditioned else "difference"

    def work():
        factory = _algebra_factory(args)
        report = clustering.build_cluster_report(
            {n: (sym, factory(n)) for n in args.ladder}, args.eps,
            label=f"{sym.label} vs {args.algebra} projection", mode=mode,
        )
        summary = (f"algebra={args.algebra} symbol={sym.label} mode={mode} "
                   f"classification={report.classification}")
        return _SCAN_HEADER, report.csv_rows(), report.summary(), summary

    return _run(args, {"symbol": sym.label, "mode": mode}, work)


def cmd_korovkin_test(args) -> int:
    generators = resolve_symbol_list(args.generators)
    holdout = resolve_symbol_list(args.holdout) if args.holdout else []
    korovkin.check_holdout_labels(generators, holdout)

    def work():
        report = korovkin.korovkin_test(
            _algebra_factory(args), generators, holdout, ladder=args.ladder, eps_grid=args.eps
        )
        groups = (("test_set", report.test_set), ("product", report.products),
                  ("holdout", report.holdout))
        rows = [(role, v.label, v.frobenius_verdict, v.classification, int(v.strong))
                for role, group in groups for v in group]
        summary = (f"algebra={args.algebra} test_set_strong={report.test_set_strong} "
                   f"implication_observed={report.implication_observed}")
        header = ["role", "symbol", "frobenius", "classification", "strong"]
        return header, rows, report.summary(), summary

    plan = {"generators": [g.label for g in generators], "holdout": [h.label for h in holdout]}
    return _run(args, plan, work)


def cmd_lpo_rates(args) -> int:
    if args.testset:
        test_set = symbols.standard_test_set(args.testset)
    else:
        specs = "cos" if args.symbols is None else args.symbols
        test_set = [_real(s, "lpo-rates --symbols") for s in resolve_symbol_list(specs)]

    def work():
        reports = korovkin.lpo_rates(args.algebra, test_set, ladder=args.ladder)
        rows = [row for rep in reports for row in rep.csv_rows()]
        payload = {"algebra": args.algebra, "ladder": args.ladder,
                   "rate_fits": {rep.symbol_label: rep.rate_fit for rep in reports}}
        fits = ", ".join(f"{rep.symbol_label}:{rep.rate_fit}" for rep in reports)
        summary = f"algebra={args.algebra} rate_fits=[{fits}]"
        return ["n", "symbol", "sup_error"], rows, payload, summary

    return _run(args, {"symbols": [s.label for s in test_set]}, work)


def cmd_operator_scan(args) -> int:
    src = operators.source_from_spec(args.source)
    if src.symbol is not None:
        _real(src.symbol, "operator-scan --source toeplitz:")
    defect = operators.hs_declaration_defect(src, max(args.ladder))
    if defect:
        raise ParseError(defect)

    def work():
        report = operators.distribution_convergence(
            src, _algebra_factory(args), ladder=args.ladder, eps_grid=args.eps
        )
        summary = (f"source={src.label} algebra={args.algebra} "
                   f"classification={report.classification}")
        return _SCAN_HEADER, report.csv_rows(), report.summary(), summary

    return _run(args, {"source": src.label}, work)


def cmd_pcg_bench(args) -> int:
    sym = _positive(resolve_symbol(args.symbol), "pcg-bench --symbol")
    preconds = ("none", "algebra_projection") if args.precond == "both" else (args.precond,)

    def work():
        cells = solver.scaling_study(
            sym, args.ladder, tol=args.tol, alg_kind=_algebra_factory(args),
            preconds=preconds, max_iter=args.max_iter,
        )
        rows = [(c.order, c.preconditioner, c.iterations, c.final_residual,
                 c.wall_time if args.timings else "") for c in cells]
        iterations = {f"{c.preconditioner}@{c.order}": c.iterations for c in cells}
        payload = {"symbol": sym.label, "tol": args.tol, "iterations": iterations}
        brief = ", ".join(f"{key}:{count}" for key, count in iterations.items())
        header = ["n", "precond", "iterations", "final_residual", "wall_time"]
        return header, rows, payload, f"symbol={sym.label} iterations=[{brief}]"

    return _run(args, {"symbol": sym.label, "tol": args.tol, "preconds": preconds}, work)


def cmd_selftest(args) -> int:
    """Exit 2 when a check fails; each check prints its own ok/FAIL line."""
    from .selftest import SELFTEST_CHECKS

    failures = []

    def work():
        for name, check in SELFTEST_CHECKS:
            try:
                check()
            except AssertionError as exc:
                failures.append(name)
                print(f"FAIL {name}: {exc}")
            else:
                print(f"ok {name}")
        rows = [(name, "fail" if name in failures else "pass") for name, _ in SELFTEST_CHECKS]
        passed = len(rows) - len(failures)
        return ["check", "status"], rows, None, f"{passed}/{len(rows)} checks passed"

    code = _run(args, {"checks": [name for name, _ in SELFTEST_CHECKS]}, work)
    return 2 if failures else code


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _switch_tokens(tokens: list[str], args, path) -> list[str]:
    """Config tokens with an on/off flag's ``--flag=true`` as ``--flag``, ``=false`` dropped.

    The on/off flags are the store_true options, the only ones whose parsed
    value is a bool.  Any other value for one is a ParseError naming the file.
    """
    out = []
    for token in tokens:
        key, _, value = token.partition("=")
        if not isinstance(getattr(args, key[2:].replace("-", "_"), None), bool):
            out.append(token)
        elif value == "true":
            out.append(key)
        elif value != "false":
            raise ParseError(
                f"config file {path}: {key} is an on/off flag; "
                f"set it to true or false, not {value!r}"
            )
    return out


def _add_common(p: _Parser, algebra=_parse_algebra) -> None:
    """Options every subcommand takes; --algebra parsed by `algebra`, unless None.

    --seed draws only the custom algebra, so only an `algebra` that accepts
    custom adds it.
    """
    if algebra is not None:
        p.add_argument("--algebra", type=algebra, default="fourier")
    p.add_argument("--outdir", default=".", help="output directory (default: .)")
    if algebra is _parse_algebra:
        p.add_argument("--seed", type=_parse_seed, default=algebras.DEFAULT_SEED)
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--dry-run", action="store_true",
                   help="print the resolved plan without computing")


@cache
def build_parser() -> _Parser:
    """The CLI parser, built once per process: parsing leaves it as it was."""
    parser = _Parser(prog="precondlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("project", parents=[], help="project one Toeplitz section")
    p.add_argument("--symbol", default="preset:2+cos")
    p.add_argument("--n", type=_parse_size, default=64)
    _add_common(p)

    p = sub.add_parser("cluster-scan", help="outlier counts over a size ladder")
    p.add_argument("--symbol", default="preset:2+cos")
    p.add_argument("--ladder", type=_parse_cluster_ladder,
                   default=clustering.DEFAULT_LADDER)
    p.add_argument("--eps", type=_parse_eps, default=clustering.DEFAULT_EPS_GRID)
    p.add_argument("--preconditioned", action="store_true",
                   help="count preconditioned eigenvalues off 1 instead of "
                        "singular values of the difference")
    _add_common(p)

    p = sub.add_parser("korovkin-test", help="test-set implies holdout experiment")
    p.add_argument("--generators", default="cos;sin",
                   help="semicolon-separated symbol specs")
    p.add_argument("--holdout", default="2+cos+0.5cos2x")
    p.add_argument("--ladder", type=_parse_cluster_ladder,
                   default=clustering.DEFAULT_LADDER)
    p.add_argument("--eps", type=_parse_eps, default=clustering.DEFAULT_EPS_GRID)
    _add_common(p)

    p = sub.add_parser("lpo-rates", help="sup-error decay of the positive operator")
    test_set = p.add_mutually_exclusive_group()
    test_set.add_argument("--testset", default=None, choices=("classical", "fourier_basic"))
    test_set.add_argument("--symbols", default=None,
                          help="semicolon-separated symbol specs (default: cos; "
                               "not with --testset)")
    p.add_argument("--ladder", type=_parse_ladder,
                   default=(8, 16, 32, 64, 128, 256, 512, 1024))
    _add_common(p, algebra=_parse_basis_algebra)

    p = sub.add_parser("operator-scan", help="distribution convergence of a source")
    p.add_argument("--source", default="hs_decay(1.5)")
    p.add_argument("--ladder", type=_parse_cluster_ladder,
                   default=clustering.DEFAULT_LADDER)
    p.add_argument("--eps", type=_parse_eps, default=clustering.DEFAULT_EPS_GRID)
    _add_common(p)

    p = sub.add_parser("pcg-bench", help="iteration scaling with and without preconditioning")
    p.add_argument("--symbol", default="preset:2-2cos+delta(0.01)")
    p.add_argument("--ladder", type=_parse_ladder, default=(128, 256, 512, 1024))
    p.add_argument("--tol", type=_parse_tol, default=DEFAULT_TOL)
    p.add_argument("--precond", default="both",
                   choices=("both", "none", "algebra_projection"))
    p.add_argument("--max-iter", type=_parse_max_iter, default=None, dest="max_iter")
    p.add_argument("--timings", action="store_true",
                   help="record wall times in the CSV (breaks byte determinism)")
    _add_common(p)

    p = sub.add_parser("selftest", help="run the invariant battery")
    _add_common(p, algebra=None)

    return parser


_HANDLERS = {
    "project": cmd_project,
    "cluster-scan": cmd_cluster_scan,
    "korovkin-test": cmd_korovkin_test,
    "lpo-rates": cmd_lpo_rates,
    "operator-scan": cmd_operator_scan,
    "pcg-bench": cmd_pcg_bench,
    "selftest": cmd_selftest,
}
SUBCOMMANDS = tuple(_HANDLERS)


def main(argv=None) -> int:
    # The collector skips what is alive at the first call (the imports), at exit
    # too; a long-lived host that calls main also keeps what it held then out.
    if not gc.get_freeze_count():
        gc.freeze()
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # Parse again with the file's tokens ahead of the command line:
            # argparse keeps the last value, so explicit flags win.
            tokens = _switch_tokens(load_config(args.config), args, args.config)
            try:
                args = parser.parse_args([argv[0], *tokens, *argv[1:]])
            except PrecondlabError as exc:
                raise type(exc)(f"config file {args.config}: {exc}") from exc
        return _HANDLERS[args.command](args)
    except (UsageError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PrecondlabError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
