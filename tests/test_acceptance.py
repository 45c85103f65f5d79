"""Acceptance suite.

One test per criterion, each printing a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s``).  Tolerances are pinned here;
nothing is deferred to later calibration.
"""

import functools
import time
from pathlib import Path

import numpy as np
import pytest

import precondlab as pl
from precondlab.cli import main as cli_main
from precondlab.korovkin import remainder_propagation

RNG_STREAM = 20240801  # base seed for all acceptance draws


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                print(f"ACCEPTANCE C{number} FAIL: {description}: {exc}")
                raise
            print(f"ACCEPTANCE C{number} PASS: {description}")

        return wrapper

    return decorate


def seeded_complex(n, seed):
    rng = np.random.default_rng(RNG_STREAM + seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def four_algebras(n, seed):
    return [pl.make_algebra(kind, n) for kind in ("fourier", "sine", "hartley")] + [
        pl.random_unitary_algebra(n, seed=seed)
    ]


def three_partitions(n):
    return (
        pl.single_block_partition(n),
        pl.singleton_partition(n),
        pl.contiguous_partition(n, 2),
    )


@criterion(1, "projection identity suite (linearity, adjoint, trace, Pythagoras)")
def test_criterion_1_projection_identities():
    start = time.perf_counter()
    sizes = (4, 8, 16, 32)
    count = 0
    for index in range(100):
        n = sizes[index % 4]
        a = seeded_complex(n, 2 * index)
        b = seeded_complex(n, 2 * index + 1)
        alpha, beta = 1.25 - 0.5j, -0.75 + 2.0j
        scale_a = max(1.0, pl.frobenius_norm_sq(a))
        for alg in four_algebras(n, seed=index):
            projections = [(lambda m, _alg=alg: pl.project(_alg, m))]
            for part in three_partitions(n):
                projections.append(
                    lambda m, _alg=alg, _p=part: pl.project_pinched(_alg, _p, m)
                )
            for proj in projections:
                pa, pb = proj(a), proj(b)
                lin = proj(alpha * a + beta * b) - (alpha * pa + beta * pb)
                assert pl.frobenius_norm_sq(lin) <= 1e-18 * scale_a, "linearity"
                adj = proj(a.conj().T) - pa.conj().T
                assert pl.frobenius_norm_sq(adj) <= 1e-18 * scale_a, "adjoint"
                assert abs(np.trace(pa) - np.trace(a)) <= 1e-9 * (
                    1.0 + abs(np.trace(a))
                ), "trace"
                lhs = pl.frobenius_norm_sq(a - pa)
                rhs = pl.frobenius_norm_sq(a) - pl.frobenius_norm_sq(pa)
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs)), "pythagoras"
        count += 1
    elapsed = time.perf_counter() - start
    assert count == 100
    assert elapsed < 30.0, f"identity suite took {elapsed:.1f}s"


@criterion(2, "eigenvalue bracketing and PSD preservation")
def test_criterion_2_eigenvalue_bracketing():
    sizes = (4, 8, 16, 32)
    for index in range(100):
        n = sizes[index % 4]
        raw = seeded_complex(n, 500 + index)
        h = 0.5 * (raw + raw.conj().T)
        w = pl.hermitian_eigvalues(h)
        psd = h - (w[0] - 0.1) * np.eye(n)  # strictly positive definite shift
        for alg in four_algebras(n, seed=900 + index):
            wp = pl.hermitian_eigvalues(pl.project(alg, h))
            assert wp[0] >= w[0] - 1e-9, "lower bracket"
            assert wp[-1] <= w[-1] + 1e-9, "upper bracket"
            assert pl.hermitian_eigvalues(pl.project(alg, psd))[0] > 0.0, "PSD"


@criterion(3, "fast circulant path equivalence and speed")
def test_criterion_3_fast_path():
    rng = np.random.default_rng(RNG_STREAM)
    test_symbols = [
        pl.parse_trig_expression("2+cos"),
        pl.parse_trig_expression("2-2cos+delta(0.01)"),
        pl.parse_trig_expression("1"),
        pl.parse_trig_expression("1+0.5cos2x+0.25sin3x"),
    ]
    while len(test_symbols) < 20:
        degree = int(rng.integers(1, 9))
        coeffs = {0: complex(rng.standard_normal())}
        for k in range(1, degree + 1):
            a = rng.standard_normal() + 1j * rng.standard_normal()
            coeffs[k] = a
            # half real-valued, half generic complex tables
            coeffs[-k] = a.conjugate() if len(test_symbols) % 2 else (
                rng.standard_normal() + 1j * rng.standard_normal()
            )
        test_symbols.append(pl.Symbol(coeffs, label=f"random{len(test_symbols)}"))

    for f in test_symbols:
        for n in (16, 32, 64, 128, 256, 512):
            alg = pl.make_algebra("fourier", n)
            generic = pl.project(alg, pl.toeplitz_section(f, n))
            fast = pl.project_toeplitz_fast(f, n)
            assert np.max(np.abs(generic - fast)) <= 1e-10, (f.label, n)
            # sine and Hartley: the closed-form eigenvalues of the projection.
            # max |U diag(e) U*| <= max |e|, so this bounds the projections too.
            for kind in ("sine", "hartley"):
                other = pl.make_algebra(kind, n)
                generic_d = pl.algebra_diagonal(other, pl.toeplitz_section(f, n))
                fast_d = pl.toeplitz_diagonal(other, f)
                assert np.max(np.abs(generic_d - fast_d)) <= 1e-10, (kind, f.label, n)

    # timing: fast path at 4096 vs the dense definition U diag(U* A U) U*
    # at 1024 extrapolated cubically, medians of three runs; pl.project is
    # O(n^2 log n) through the FFT, so a cubic extrapolation of it is no bar
    f = test_symbols[0]
    u = pl.make_algebra("fourier", 1024).unitary
    a1024 = pl.toeplitz_section(f, 1024)

    def dense_projection():
        return (u * np.diagonal(u.conj().T @ a1024 @ u)) @ u.conj().T

    dense_projection()  # warm up
    dense_times = []
    for _ in range(3):
        t0 = time.perf_counter()
        dense_projection()
        dense_times.append(time.perf_counter() - t0)
    pl.project_toeplitz_fast(f, 4096)  # warm up
    fast_times = []
    for _ in range(3):
        t0 = time.perf_counter()
        pl.project_toeplitz_fast(f, 4096)
        fast_times.append(time.perf_counter() - t0)
    dense = sorted(dense_times)[1]
    fast = sorted(fast_times)[1]
    extrapolated = dense * (4096 / 1024) ** 3
    assert extrapolated >= 50.0 * fast, (
        f"speedup {extrapolated / fast:.1f}x below 50x "
        f"(dense@1024 {dense:.3f}s, fast@4096 {fast:.3f}s)"
    )


@criterion(4, "Fejer rate: sup error 1/n, fitted rate -1, product propagation")
def test_criterion_4_fejer_rate():
    ladder = (8, 16, 32, 64, 128, 256, 512, 1024)
    rep = pl.lpo_rates("fourier", [pl.cosine()], ladder=ladder)[0]
    for n in ladder:
        assert abs(rep.sup_error[n] - 1.0 / n) <= 1e-12, n
    assert abs(rep.rate_fit - (-1.0)) <= 0.02, rep.rate_fit
    prop = remainder_propagation(
        "fourier", [pl.cosine(), pl.sine()], ladder=(64, 128, 256, 512)
    )
    assert abs(prop.rates["(cos)*(sin)"] - (-1.0)) <= 0.05


@criterion(5, "strong clustering of the preconditioned spectrum for 2+cos")
def test_criterion_5_strong_clustering_end_to_end():
    start = time.perf_counter()
    f = pl.parse_trig_expression("2+cos")
    ladder = (64, 128, 256, 512)
    pairs = {}
    for n in ladder:
        a = pl.toeplitz_section(f, n)
        pairs[n] = (a, pl.project_toeplitz_fast(f, n))
    report = pl.build_cluster_report(
        pairs, (0.2, 0.1, 0.05, 0.01), mode="preconditioned"
    )
    tail = [report.counts[(n, 0.1)] for n in ladder[-3:]]
    assert max(tail) - min(tail) <= 1, f"no plateau at eps=0.1: {tail}"
    assert report.classification in ("strong", "uniform"), report.classification
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"dense run took {elapsed:.1f}s"


@criterion(6, "Widom product correction: bounded rank, constant norm")
def test_criterion_6_widom_correction():
    ladder = (16, 32, 64, 128, 256)
    cases = [
        pl.cosine(),
        pl.parse_trig_expression("2+cos"),
        pl.product(pl.cosine(), pl.cosine(), label="cos^2"),
    ]
    for g in cases:
        bound = 2 * g.degree
        norms = []
        for n in ladder:
            r = pl.product_correction(g, n)
            sigma = pl.singular_values(r)[::-1]  # descending
            assert np.all(sigma[bound:] <= 1e-10), (g.label, n)
            norms.append(float(sigma[0]))
        assert max(norms) - min(norms) <= 1e-9, (g.label, norms)


@criterion(7, "Hilbert-Schmidt distribution convergence on hs_decay(1.5)")
def test_criterion_7_hilbert_schmidt():
    src = pl.hs_decay_source(1.5)
    for kind in ("fourier", "sine", "hartley"):
        report = pl.distribution_convergence(src, kind)
        d = [report.frobenius_sq[n] for n in report.ladder]
        assert d[-1] / d[0] <= 1.1, (kind, d)
        # bounded Frobenius mass certifies the strong cluster (the
        # Tyrtyshnikov route); at 64..512 the count classifier is still
        # draining toward its plateau at the smallest eps ...
        assert report.frobenius_verdict == "strong", (kind, report.frobenius_verdict)
        # ... and reaches it on a ladder the structured counts make cheap
        large = pl.distribution_convergence(src, kind, ladder=(1024, 2048, 4096, 8192))
        assert large.classification in ("strong", "uniform"), (kind, large.counts)


@criterion(8, "PCG payoff: flat preconditioned iterations, 3x gap at n=1024")
def test_criterion_8_pcg_payoff():
    start = time.perf_counter()
    f = pl.parse_trig_expression("2-2cos+delta(0.01)")
    ladder = (128, 256, 512, 1024)
    cells = pl.scaling_study(f, ladder, tol=1e-10)
    by_precond = {}
    for cell in cells:
        by_precond.setdefault(cell.preconditioner.split("[")[0], {})[cell.order] = (
            cell.iterations
        )
    pre = [by_precond["algebra_projection"][n] for n in ladder]
    un = by_precond["none"][1024]
    # constant within +-2 of a central value
    assert max(pre) - min(pre) <= 4, f"preconditioned counts not flat: {pre}"
    assert pre[-1] <= un / 3.0, f"preconditioned {pre[-1]} vs unpreconditioned {un}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"pcg study took {elapsed:.1f}s"


@criterion(9, "classifier negative control and planted tables")
def test_criterion_9_negative_control():
    f = pl.parse_trig_expression("2+cos")
    ladder = (64, 128, 256, 512)
    pairs = {}
    for n in ladder:
        a = pl.toeplitz_section(f, n)
        alg = pl.random_unitary_algebra(n, seed=RNG_STREAM + n)
        pairs[n] = (a, pl.project(alg, a))
    report = pl.build_cluster_report(pairs)
    assert report.classification == "none", report.classification

    eps = (0.2, 0.1, 0.05, 0.01)

    def planted(counts_fn):
        return {(n, e): counts_fn(n, e) for n in ladder for e in eps}

    uniform = planted(lambda n, e: 3)
    assert pl.classify(uniform, ladder, eps)[0] == "uniform"
    strong = planted(lambda n, e: 7 if e >= 0.1 else 19)
    assert pl.classify(strong, ladder, eps)[0] == "strong"
    weak = planted(lambda n, e: int(np.ceil(np.sqrt(n))))
    assert pl.classify(weak, ladder, eps)[0] == "weak"
    linear = planted(lambda n, e: int(0.3 * n))
    assert pl.classify(linear, ladder, eps)[0] == "none"


# Commands documented in the README; each must be byte-deterministic.
DOCUMENTED_COMMANDS = [
    ["selftest"],
    ["project", "--algebra", "fourier", "--symbol", "preset:2+cos", "--n", "64"],
    [
        "cluster-scan", "--algebra", "fourier", "--symbol", "preset:2+cos",
        "--ladder", "64,128,256,512", "--eps", "0.2,0.1,0.05,0.01",
    ],
    [
        "korovkin-test", "--algebra", "fourier", "--generators", "cos;sin",
        "--holdout", "2+cos+0.5cos2x", "--ladder", "32,64,128,256",
    ],
    [
        "lpo-rates", "--algebra", "fourier", "--testset", "classical",
        "--ladder", "8,16,32,64,128,256",
    ],
    [
        "operator-scan", "--source", "hs_decay(1.5)", "--algebra", "sine",
        "--ladder", "64,128,256,512",
    ],
    [
        "pcg-bench", "--symbol", "preset:2-2cos+delta(0.01)",
        "--ladder", "128,256,512", "--tol", "1e-10",
    ],
    [
        "cluster-scan", "--algebra", "sine", "--symbol", "preset:2-2cos+delta(0.01)",
        "--ladder", "32,64,128,256", "--preconditioned",
    ],
    [
        "cluster-scan", "--algebra", "fourier", "--symbol", "preset:2+cos",
        "--ladder", "4096,8192,16384,32768",
    ],
    [
        "cluster-scan", "--algebra", "hartley", "--symbol", "preset:2+cos+0.5sin2x",
        "--ladder", "1024,2048,4096,8192",
    ],
]


@criterion(10, "byte-identical CSV output across consecutive runs")
def test_criterion_10_determinism(tmp_path, capsys):
    for argv in DOCUMENTED_COMMANDS:
        outputs = []
        for attempt in ("first", "second"):
            out_dir = tmp_path / f"{argv[0]}-{attempt}"
            code = cli_main(argv + ["--outdir", str(out_dir)])
            capsys.readouterr()
            assert code == 0, argv
            outputs.append(
                sorted(p for p in Path(out_dir).iterdir() if p.suffix in (".csv", ".json"))
            )
        first, second = outputs
        assert [p.name for p in first] == [p.name for p in second]
        assert first, f"{argv[0]} wrote no artifacts"
        for fa, fb in zip(first, second):
            assert fa.read_bytes() == fb.read_bytes(), f"{argv[0]}/{fa.name}"
