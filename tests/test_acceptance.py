"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from sca.cli import main
from sca.dataset import DataSet, Dissimilarity, pairwise_dissimilarity
from sca.markov import build_transition, default_epsilon, stationary_distribution
from sca.nystrom import build_extension, extend_eigenfunctions
from sca.prototypes import PrototypeSet, fit_mixture, quantization_benchmark
from sca.regression import basis_risk_curve, fit, fitted_values, _refit
from sca.spectral import decompose, embed
from sca.synthetic import GeneratorSpec, generate

from _oracles import diffusion_distance_matrix, pca_scores, power_stationary
from _util import healthy_rank

# criterion 1's seeded dataset family, reused by criteria 2 and 3
FAMILY = [
    dict(n=n, d=d, t=t, seed=100 + k)
    for k, (n, d, t) in enumerate(
        itertools.islice(itertools.cycle(
            itertools.product([10, 30, 50], [2, 5], [1, 2, 5])), 20)
    )
]

# 1/|lambda| amplification of the eigensolver residual (~1e-15) makes the
# 1e-9 training-point identity meaningful only above this magnitude
NYSTROM_EIGENVALUE_CUT = 1e-6


def _report(num, name, ok, detail=""):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def _family_pipeline(case):
    rng = np.random.default_rng(case["seed"])
    data = DataSet(points=rng.normal(size=(case["n"], case["d"])),
                   ids=tuple(str(i) for i in range(case["n"])))
    dmat = pairwise_dissimilarity(data, Dissimilarity())
    transition = build_transition(dmat, default_epsilon(dmat))
    return data, transition, decompose(transition)


@pytest.fixture(scope="module")
def quantization_run():
    lib = generate(GeneratorSpec(kind="degenerate-components", n=120, seed=11,
                                 separation=0.01))
    start = time.perf_counter()
    report = quantization_benchmark(lib, 10, 100, 0.02, seed=42)
    return report, time.perf_counter() - start


def test_criterion_1_diffusion_identity():
    start = time.perf_counter()
    worst = 0.0
    for case in FAMILY:
        _, transition, decomposition = _family_pipeline(case)
        phi0 = stationary_distribution(transition)
        n, t = case["n"], case["t"]
        coords = embed(decomposition, t, n - 1).coords
        oracle = diffusion_distance_matrix(transition, phi0, t)
        for i in range(n - 1):
            dist = np.sqrt(np.sum((coords[i + 1:] - coords[i]) ** 2, axis=1))
            rel = np.abs(dist - oracle[i, i + 1:]) / oracle[i, i + 1:]
            worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - start
    _report(1, "full-rank embedding distances equal matrix-power diffusion distances",
            worst <= 1e-8 and elapsed <= 10.0,
            f"max rel err {worst:.2e}, {elapsed:.1f}s of 10s")


def test_criterion_2_markov_structure():
    worst_row = worst_lam = worst_phi = worst_closed = worst_const = 0.0
    for case in FAMILY:
        _, transition, decomposition = _family_pipeline(case)
        a = transition.matrix
        worst_row = max(worst_row, float(np.abs(a.sum(axis=1) - 1.0).max()))
        worst_const = max(worst_const, float(np.abs(a @ np.ones(case["n"]) - 1.0).max()))
        worst_lam = max(worst_lam, float(np.abs(decomposition.eigenvalues).max()))
        phi0 = stationary_distribution(transition)
        worst_phi = max(worst_phi, float(np.abs(phi0 @ a - phi0).max()))
        power = power_stationary(transition)
        worst_closed = max(worst_closed, float(np.abs(power / phi0 - 1.0).max()))
    ok = (worst_row <= 1e-12 and worst_const <= 1e-12 and
          worst_lam <= 1.0 + 1e-12 and worst_phi <= 1e-10 and worst_closed <= 1e-10)
    _report(2, "row-stochasticity, trivial pair, spectral bound, stationary law", ok,
            f"row {worst_row:.1e}, |lam| {worst_lam:.12f}, phi0 {worst_phi:.1e}, "
            f"closed-form {worst_closed:.1e}")


def test_criterion_3_nystrom_training_consistency():
    worst = 0.0
    checked = skipped = 0
    for case in FAMILY:
        data, transition, decomposition = _family_pipeline(case)
        ext = build_extension(data, transition, decomposition)
        # the leading pairs above the cut go through the library; one above
        # it past that block would go unchecked, so it fails the criterion
        k = healthy_rank(decomposition, NYSTROM_EIGENVALUE_CUT)
        usable = np.abs(decomposition.eigenvalues) >= NYSTROM_EIGENVALUE_CUT
        skipped += int(usable[k:].sum())
        if k:
            estimates = extend_eigenfunctions(ext, data.points, k)
            err = np.abs(estimates - decomposition.eigenvectors[:, :k]).max()
            worst = max(worst, float(err))
        checked += k
    _report(3, "extension at training points reproduces eigenvectors",
            worst <= 1e-9 and checked > 0 and skipped == 0,
            f"max abs err {worst:.2e} over {checked} eigenfunctions with "
            f"|lambda| >= {NYSTROM_EIGENVALUE_CUT}, {skipped} outside the leading block")


def test_criterion_4_regression_exactness():
    # noiseless Y = psi_1
    rng = np.random.default_rng(201)
    data = DataSet(points=rng.normal(size=(20, 3)),
                   ids=tuple(str(i) for i in range(20)))
    dmat = pairwise_dissimilarity(data, Dissimilarity())
    transition = build_transition(dmat, default_epsilon(dmat))
    decomposition = decompose(transition)
    y = decomposition.eigenvectors[:, 0]
    labeled = DataSet(points=data.points, ids=data.ids, response=y)
    r = int((np.abs(decomposition.eigenvalues) >= 1e-8).sum())
    emb = embed(decomposition, 1, r)
    ext = build_extension(labeled, transition, decomposition)
    model = fit(labeled, emb, ext, folds=5, seed=0)
    mse = float(np.mean((fitted_values(model) - y) ** 2))

    # full-basis residual for arbitrary seeded responses at n <= 30
    worst_rel = 0.0
    for n, d, seed in [(12, 2, 301), (20, 5, 302), (30, 5, 303)]:
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, d))
        yy = rng.normal(size=n)
        dm = pairwise_dissimilarity(
            DataSet(points=pts, ids=tuple(str(i) for i in range(n))), Dissimilarity())
        tr = build_transition(dm, default_epsilon(dm))
        dec = decompose(tr)
        coords = embed(dec, 1, n - 1).coords
        intercept, coefs = _refit(coords, yy, n - 1)
        rel = np.linalg.norm(intercept + coords @ coefs - yy) / np.linalg.norm(yy)
        worst_rel = max(worst_rel, float(rel))
    _report(4, "noiseless eigenfunction recovered; full basis interpolates",
            mse <= 1e-18 and worst_rel <= 1e-8,
            f"psi1 MSE {mse:.2e}, full-basis rel residual {worst_rel:.2e}")


def test_criterion_5_diffusion_beats_pca_on_swiss_roll():
    start = time.perf_counter()
    data = generate(GeneratorSpec(kind="swiss-roll", n=600, noise_sd=0.05, seed=21))
    dmat = pairwise_dissimilarity(data, Dissimilarity())
    transition = build_transition(dmat, default_epsilon(dmat))
    decomposition = decompose(transition)
    emb = embed(decomposition, 1, 50)
    ext = build_extension(data, transition, decomposition)
    model = fit(data, emb, ext, folds=10, seed=7)
    diffusion_risk = float(model.cv_risk_curve[model.p - 1])

    pca_basis = pca_scores(data.points)  # 3 columns for 3-D data
    pca_risks = basis_risk_curve(pca_basis, data.response, folds=10, seed=7)
    pca_at_equal_p = float(pca_risks[min(model.p, len(pca_risks)) - 1])
    pca_best = float(pca_risks.min())
    elapsed = time.perf_counter() - start
    ok = diffusion_risk < pca_at_equal_p and diffusion_risk < pca_best and elapsed <= 60.0
    _report(5, "diffusion-basis out-of-fold MSE beats the PCA basis", ok,
            f"diffusion {diffusion_risk:.3g} at p={model.p} vs PCA best "
            f"{pca_best:.3g}, {elapsed:.1f}s of 60s")


def _simplex_grid_best(vectors, y, resolution=0.01):
    k = vectors.shape[0]
    steps = int(round(1.0 / resolution))
    best, best_gamma = np.inf, None
    if k == 2:
        for i in range(steps + 1):
            gamma = np.array([i, steps - i]) / steps
            rss = float(np.sum((y - gamma @ vectors) ** 2))
            if rss < best:
                best, best_gamma = rss, gamma
    else:
        for i in range(steps + 1):
            for j in range(steps + 1 - i):
                gamma = np.array([i, j, steps - i - j]) / steps
                rss = float(np.sum((y - gamma @ vectors) ** 2))
                if rss < best:
                    best, best_gamma = rss, gamma
    return best_gamma


def test_criterion_6_simplex_mixture_fitting():
    vectors = np.random.default_rng(40).normal(size=(5, 30))
    proto = PrototypeSet(
        prototypes=vectors,
        log_ages=np.linspace(0.0, 1.0, 5), log_metallicities=np.linspace(-1.0, 0.0, 5))
    vertex = fit_mixture(proto, vectors[3])
    vertex_err = float(np.abs(vertex.gamma - np.eye(5)[3]).max())
    midpoint = fit_mixture(proto, 0.5 * vectors[0] + 0.5 * vectors[1])
    midpoint_err = float(np.abs(midpoint.gamma - np.array([.5, .5, 0, 0, 0])).max())

    worst_l1 = 0.0
    for trial in range(50):
        rng = np.random.default_rng([500, trial])
        k = 2 if trial % 2 == 0 else 3
        vecs = rng.normal(size=(k, 25))
        gamma_true = rng.dirichlet(np.ones(k))
        signal = gamma_true @ vecs
        y = signal + 0.01 * np.linalg.norm(signal) / 5.0 * rng.normal(size=25)
        small = PrototypeSet(
            prototypes=vecs,
            log_ages=np.zeros(k) + 1.0, log_metallicities=np.zeros(k) - 1.0)
        solved = fit_mixture(small, y)
        oracle = _simplex_grid_best(vecs, y)
        worst_l1 = max(worst_l1, float(np.abs(solved.gamma - oracle).sum()))
    ok = vertex_err <= 1e-6 and midpoint_err <= 1e-6 and worst_l1 <= 0.02
    _report(6, "vertex/midpoint exact; solver matches 0.01 simplex grid oracle", ok,
            f"vertex {vertex_err:.1e}, midpoint {midpoint_err:.1e}, "
            f"worst L1 vs oracle {worst_l1:.3f}")


def test_criterion_7_quantization_benefit(quantization_run):
    report, elapsed = quantization_run
    ok = (report.diffusion.rmse_log_age <= report.grid.rmse_log_age
          and elapsed <= 120.0)
    _report(7, "diffusion K-means prototypes beat the parameter grid", ok,
            f"log-age RMSE {report.diffusion.rmse_log_age:.3f} vs "
            f"{report.grid.rmse_log_age:.3f}, {elapsed:.1f}s of 120s")


def test_criterion_8_cli_determinism(tmp_path):
    def run_all(base: Path):
        base.mkdir(parents=True, exist_ok=True)
        d = base / "d.csv"
        lib = base / "lib.csv"
        steps = [
            ["gen", "--kind", "swiss-roll", "--n", "40", "--seed", "3",
             "--noise-sd", "0.05", "--out", str(d)],
            ["embed", "--input", str(d), "--r", "4", "--response", "response",
             "--out", str(base / "coords.csv"), "--save-model", str(base / "model")],
            ["extend", "--model", str(base / "model"), "--input", str(d),
             "--response", "response", "--out", str(base / "ext.csv")],
            ["regress", "--input", str(d), "--response", "response", "--folds", "5",
             "--r", "6", "--seed", "1", "--out-model", str(base / "model.json"),
             "--out-predictions", str(base / "fitted.csv")],
            ["predict", "--model", str(base / "model.json"), "--input", str(d),
             "--out", str(base / "preds.csv")],
            ["gen", "--kind", "degenerate-components", "--n", "24", "--seed", "5",
             "--out", str(lib)],
            ["prototype", "--input", str(lib), "--k", "4", "--seed", "2", "--r", "3",
             "--out-prefix", str(base / "proto")],
            ["bench-quantization", "--input", str(lib), "--k", "3", "--trials", "2",
             "--noise", "0.01", "--seed", "9", "--out", str(base / "bench.json")],
        ]
        for argv in steps:
            assert main(argv) == 0, argv
        # fit-mixture consumes the prototype output
        rows = (base / "proto.prototypes.csv").read_text().splitlines()
        cells = rows[1].split(",")
        obs = base / "obs.csv"
        obs.write_text("id," + ",".join(f"b{k}" for k in range(len(cells) - 3)) +
                       "\nq0," + ",".join(cells[3:]) + "\n")
        assert main(["fit-mixture", "--prototypes", str(base / "proto.prototypes.csv"),
                     "--input", str(obs), "--out", str(base / "fit.json")]) == 0

    def snapshot(base: Path):
        return {p.relative_to(base): p.read_bytes()
                for p in base.rglob("*") if p.is_file()}

    base = tmp_path / "run"
    run_all(base)
    first = snapshot(base)
    run_all(base)  # identical config, same output paths
    second = snapshot(base)
    mismatched = [str(rel) for rel in first
                  if first[rel] != second.get(rel)]
    _report(8, "every CLI subcommand is byte-identical across reruns",
            not mismatched and len(first) >= 18 and first.keys() == second.keys(),
            f"{len(first)} files compared" +
            (f"; mismatches: {mismatched}" if mismatched else ""))


def test_criterion_9_kmeans_monotonicity(quantization_run):
    report, _ = quantization_run
    history = report.diffusion_set.wcss_history
    ok = len(history) >= 1 and all(
        a >= b - 1e-12 for a, b in zip(history, history[1:]))
    _report(9, "within-cluster sum of squares never increases across Lloyd iterations",
            ok, f"{len(history)} assignment steps")
