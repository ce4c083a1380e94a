"""Eigenbasis regression: CV selection, exactness, and prediction."""

import dataclasses

import numpy as np
import pytest

from sca import nystrom, regression
from sca.dataset import DataSet
from sca.errors import NumericalError, ValidationError
from sca.markov import build_transition
from sca.nystrom import build_extension, extend_eigenfunctions
from sca.regression import (
    EigenbasisRegression,
    basis_risk_curve,
    fit,
    fitted_values,
    kfold_indices,
    predict,
    risk_curve,
    _refit,
)
from sca.spectral import DiffusionEmbedding, decompose, embed
from sca.synthetic import GeneratorSpec, generate

from _oracles import pca_scores
from _util import full_pipeline, gaussian_dataset, healthy_rank


def _with_response(data, y):
    return DataSet(points=data.points, ids=data.ids, response=y)


def _healthy_setup(n, d, seed, t=1):
    data = gaussian_dataset(n, d, seed)
    _, dec, _, ext = full_pipeline(data, t=t)
    r = healthy_rank(dec)
    return data, dec, embed(dec, t, r), ext


def test_hand_built_embedding_takes_r_from_its_coordinates():
    data, dec, emb, ext = _healthy_setup(15, 3, 0)
    data = _with_response(data, np.random.default_rng(3).normal(size=15))
    hand = DiffusionEmbedding(coords=emb.coords[:, :3], t=1)
    assert hand.r == 3
    model = fit(data, hand, ext, folds=5, seed=1)
    assert model.cv_risk_curve.size == 3
    np.testing.assert_array_equal(
        model.coefficients, fit(data, embed(dec, 1, 3), ext, folds=5, seed=1).coefficients)
    with pytest.raises(TypeError):
        DiffusionEmbedding(coords=emb.coords, t=1, r=3)


def test_constant_response_fits_exactly():
    data, dec, emb, ext = _healthy_setup(15, 3, 0)
    model = fit(_with_response(data, np.full(15, 2.5)), emb, ext, folds=5, seed=1)
    yhat = fitted_values(model)
    assert np.abs(yhat - 2.5).max() <= 1e-10


def test_noiseless_psi1_recovered():
    data, dec, emb, ext = _healthy_setup(15, 3, 1)
    y = dec.eigenvectors[:, 0]
    model = fit(_with_response(data, y), emb, ext, folds=5, seed=1)
    mse = float(np.mean((fitted_values(model) - y) ** 2))
    assert mse <= 1e-18
    assert model.p >= 1


def test_predict_on_training_matches_fitted_values():
    data, dec, emb, ext = _healthy_setup(14, 3, 2)
    y = np.sin(data.points[:, 0])
    model = fit(_with_response(data, y), emb, ext, folds=5, seed=3)
    preds = predict(model, data.points)
    assert np.abs(preds - fitted_values(model)).max() <= 1e-9


def test_p_is_the_number_of_coefficients():
    data, dec, emb, ext = _healthy_setup(14, 3, 2)
    model = fit(_with_response(data, np.sin(data.points[:, 0])), emb, ext, folds=5, seed=3)
    assert model.p == model.coefficients.size
    shorter = dataclasses.replace(model, coefficients=model.coefficients[:-1])
    assert shorter.p == model.p - 1
    assert predict(shorter, data.points[:3]).shape == (3,)


def test_predict_empty_input():
    data, dec, emb, ext = _healthy_setup(12, 2, 3)
    model = fit(_with_response(data, data.points[:, 0]), emb, ext, folds=4, seed=0)
    assert predict(model, np.empty((0, 2))).shape == (0,)


@pytest.mark.parametrize("diss_kind", ["sqeuclidean", "euclidean"])
def test_predict_matches_the_eigenfunction_oracle(diss_kind):
    # predict folds coefficients / lambda into one n-vector; the oracle
    # extends every eigenfunction and takes the dot with the coefficients
    roll = generate(GeneratorSpec(kind="swiss-roll", n=700, noise_sd=0.3, seed=2))
    train = DataSet(points=roll.points[:500], ids=roll.ids[:500],
                    response=roll.response[:500])
    _, _, emb, ext = full_pipeline(train, r=30, diss_kind=diss_kind)
    model = fit(train, emb, ext, folds=5, seed=1)
    queries = roll.points[500:]
    oracle = model.intercept + extend_eigenfunctions(ext, queries, model.p) @ model.coefficients
    np.testing.assert_allclose(predict(model, queries), oracle, rtol=1e-12, atol=0)


def _two_point_model():
    """A model whose one eigenvalue is zero, below the extension floor."""
    data = DataSet(points=[[0.0], [0.0]], ids=("0", "1"))
    transition = build_transition(np.zeros((2, 2)), epsilon=1.0)
    ext = build_extension(data, transition, decompose(transition))
    return EigenbasisRegression(intercept=0.0, coefficients=[1.0], cv_risk_curve=[0.0],
                                extension=ext, folds=2, seed=0)


@pytest.mark.parametrize("query", [np.array([[np.nan]]), np.zeros((1, 2)), np.zeros((0, 1))],
                         ids=["non-finite", "wrong-dimension", "empty"])
def test_predict_checks_the_eigenvalue_floor_before_the_queries(query):
    model = _two_point_model()
    for _ in range(2):   # a failed check is not cached: every call raises
        with pytest.raises(NumericalError, match="eigenvalue 1 has magnitude 0.000e[+]00 "
                                                 "below the 1e-12 floor; its extension is undefined"):
            predict(model, query)


def test_predict_underflow_in_a_later_block_names_the_global_row():
    data, _, emb, ext = _healthy_setup(12, 2, 3)
    model = fit(_with_response(data, data.points[:, 0]), emb, ext, folds=4, seed=0)
    step = nystrom.QUERY_BLOCK_ENTRIES // ext.n
    queries = np.zeros((2 * step + 10, 2))
    queries[step + 7] = 1e4
    with pytest.raises(NumericalError, match=f"query point {step + 7} underflowed"):
        predict(model, queries)


def test_heldout_swiss_roll_mse_within_2x():
    data = generate(GeneratorSpec(kind="swiss-roll", n=200, noise_sd=0.05, seed=21))
    split = np.random.default_rng(3).permutation(200)
    train_idx, test_idx = np.sort(split[:160]), np.sort(split[160:])
    train = DataSet(points=data.points[train_idx],
                    ids=tuple(str(i) for i in range(160)),
                    response=data.response[train_idx])
    _, dec, _, ext = full_pipeline(train, r=50)
    emb = embed(dec, 1, 50)
    model = fit(train, emb, ext, folds=10, seed=7)
    mse_in = float(np.mean((fitted_values(model) - train.response) ** 2))
    preds = predict(model, data.points[test_idx])
    mse_out = float(np.mean((preds - data.response[test_idx]) ** 2))
    assert mse_out <= 2.0 * mse_in


def test_risk_curve_shape_and_minimum_location():
    data, dec, emb, ext = _healthy_setup(16, 3, 4)
    y = data.points[:, 0] + 0.1 * np.random.default_rng(0).normal(size=16)
    model = fit(_with_response(data, y), emb, ext, folds=4, seed=2)
    curve = risk_curve(model)
    assert len(curve) == emb.r
    assert [p for p, _ in curve] == list(range(1, emb.r + 1))
    risks = [rk for _, rk in curve]
    assert risks[model.p - 1] == min(risks)
    # ties resolve to the smallest p
    assert all(risks[q] > risks[model.p - 1] for q in range(model.p - 1))


def test_risk_curve_captures_signal_over_intercept():
    data, dec, emb, ext = _healthy_setup(15, 2, 5)
    y = dec.eigenvectors[:, 0]
    model = fit(_with_response(data, y), emb, ext, folds=5, seed=4)
    # intercept-only CV risk, same folds
    intercept_risk = 0.0
    for held_out in kfold_indices(15, 5, 4):
        train = np.ones(15, dtype=bool)
        train[held_out] = False
        intercept_risk += float(np.sum((y[held_out] - y[train].mean()) ** 2))
    intercept_risk /= 15
    assert model.cv_risk_curve[0] <= intercept_risk - np.var(y)


def test_risk_curve_bitwise_reproducible():
    data, dec, emb, ext = _healthy_setup(18, 3, 6)
    y = data.points[:, 1] + 0.2 * np.random.default_rng(5).normal(size=18)
    a = fit(_with_response(data, y), emb, ext, folds=6, seed=9)
    b = fit(_with_response(data, y), emb, ext, folds=6, seed=9)
    assert np.array_equal(a.cv_risk_curve, b.cv_risk_curve)
    assert a.p == b.p


def test_fitted_values_invariant_to_basis_rescaling():
    data, dec, emb, ext = _healthy_setup(14, 3, 7)
    y = np.cos(data.points[:, 0])
    scales = np.random.default_rng(8).uniform(0.5, 10.0, size=emb.r)
    for p in (1, emb.r // 2 or 1, emb.r):
        i0, c0 = _refit(emb.coords, y, p)
        i1, c1 = _refit(emb.coords * scales[None, :], y, p)
        a = i0 + emb.coords[:, :p] @ c0
        b = i1 + (emb.coords * scales[None, :])[:, :p] @ c1
        assert np.abs(a - b).max() <= 1e-10


def test_training_residual_nonincreasing_in_p():
    data, dec, emb, ext = _healthy_setup(16, 3, 8)
    y = np.tanh(data.points[:, 0] * 2.0)
    previous = np.inf
    for p in range(1, emb.r + 1):
        intercept, coefs = _refit(emb.coords, y, p)
        rss = float(np.sum((intercept + emb.coords[:, :p] @ coefs - y) ** 2))
        assert rss <= previous + 1e-12
        previous = rss


def test_kfold_is_pure_function_of_inputs():
    a = kfold_indices(23, 4, 11)
    b = kfold_indices(23, 4, 11)
    c = kfold_indices(23, 4, 12)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))
    assert np.array_equal(np.sort(np.concatenate(a)), np.arange(23))


def test_full_basis_drives_residual_to_zero_small_n():
    for n, d, seed in [(12, 2, 0), (20, 5, 1), (30, 5, 3)]:
        data = gaussian_dataset(n, d, seed, with_response=True)
        _, dec, emb, ext = full_pipeline(data, t=1)
        y = data.response
        intercept, coefs = _refit(emb.coords, y, n - 1)
        residual = np.linalg.norm(intercept + emb.coords @ coefs - y)
        assert residual <= 1e-8 * np.linalg.norm(y)


def test_fit_requires_response():
    data, dec, emb, ext = _healthy_setup(12, 2, 9)
    with pytest.raises(ValidationError, match="response"):
        fit(data, emb, ext, folds=4, seed=0)


def test_folds_out_of_range():
    data, dec, emb, ext = _healthy_setup(12, 2, 10)
    labeled = _with_response(data, data.points[:, 0])
    with pytest.raises(ValidationError, match="folds"):
        fit(labeled, emb, ext, folds=1, seed=0)
    with pytest.raises(ValidationError, match="folds"):
        fit(labeled, emb, ext, folds=13, seed=0)
    # a count must be an integer: 2.5 folds used to split and be stored
    with pytest.raises(ValidationError, match=r"folds must lie in \[2, 12\], got 2.5"):
        fit(labeled, emb, ext, folds=2.5, seed=0)
    with pytest.raises(ValidationError, match=r"folds must lie in \[2, 10\], got 2.5"):
        kfold_indices(10, 2.5, 0)


def test_negative_seed_rejected():
    data, dec, emb, ext = _healthy_setup(12, 2, 10)
    labeled = _with_response(data, data.points[:, 0])
    with pytest.raises(ValidationError, match="seed must be an integer >= 0, got -1"):
        fit(labeled, emb, ext, folds=4, seed=-1)


def test_mismatched_embedding_and_extension_rejected():
    data_a, _, emb_a, _ = _healthy_setup(12, 2, 11)
    data_b, _, _, ext_b = _healthy_setup(12, 2, 12)
    labeled = _with_response(data_a, data_a.points[:, 0])
    with pytest.raises(ValidationError):
        fit(labeled, emb_a, ext_b, folds=4, seed=0)


def test_embedding_of_another_decomposition_rejected():
    data, _, emb, ext = _healthy_setup(12, 2, 11)
    labeled = _with_response(data, data.points[:, 0])
    other = full_pipeline(data, epsilon=2 * ext.epsilon)[1]
    with pytest.raises(ValidationError, match="different decompositions"):
        fit(labeled, embed(other, 1, emb.r), ext, folds=4, seed=0)


def test_refit_on_a_repeated_column_is_rank_deficient():
    rng = np.random.default_rng(14)
    column = rng.normal(size=10)
    with pytest.raises(NumericalError, match=r"rank-deficient at p=2 \(rank 2 < 3\)"):
        _refit(np.column_stack([column, column]), rng.normal(size=10), 2)


def test_pca_scores_are_centered_svd_scores():
    pts = np.random.default_rng(13).normal(size=(30, 3)) * [3.0, 1.0, 0.2]
    scores = pca_scores(pts)
    assert scores.shape == (30, 3)
    np.testing.assert_allclose(scores.mean(axis=0), 0.0, atol=1e-12)
    # column variances are the principal variances, in decreasing order
    variances = (scores ** 2).sum(axis=0)
    assert (np.diff(variances) <= 1e-9).all()
    centered = pts - pts.mean(axis=0)
    np.testing.assert_allclose(scores @ scores.T, centered @ centered.T, atol=1e-10)


def test_basis_risk_curve_matches_fit_curve():
    data, dec, emb, ext = _healthy_setup(14, 2, 14)
    y = data.points[:, 0] ** 2
    model = fit(_with_response(data, y), emb, ext, folds=4, seed=5)
    manual = basis_risk_curve(dec.eigenvectors[:, :emb.r], y, 4, 5)
    assert np.array_equal(manual, model.cv_risk_curve)


# --- one triangular factor per fold against per-p least squares -----------------

def _lstsq_risk_curve(basis, y, folds, seed):
    """Risk oracle: a fresh minimum-norm lstsq fit for every (p, fold)."""
    n, r = basis.shape
    risks = np.empty(r)
    for p in range(1, r + 1):
        design = np.column_stack([np.ones(n), basis[:, :p]])
        total_sq = 0.0
        for held_out in kfold_indices(n, folds, seed):
            train = np.ones(n, dtype=bool)
            train[held_out] = False
            beta = np.linalg.lstsq(design[train], y[train], rcond=None)[0]
            total_sq += float(np.sum((design[held_out] @ beta - y[held_out]) ** 2))
        risks[p - 1] = total_sq / n
    return risks


def _assert_risks_match_oracle(basis, y, folds, seed):
    risks = basis_risk_curve(basis, y, folds, seed)
    oracle = _lstsq_risk_curve(basis, y, folds, seed)
    assert np.abs(risks - oracle).max() <= 1e-12 * np.abs(oracle).max()
    assert np.argmin(risks) == np.argmin(oracle)


def test_qr_risk_curve_matches_lstsq_on_swiss_roll_basis():
    data = generate(GeneratorSpec(kind="swiss-roll", n=400, noise_sd=0.3, seed=4))
    _, dec, _, _ = full_pipeline(data, r=50)
    emb = embed(dec, 1, 50)
    _assert_risks_match_oracle(emb.coords, data.response, 10, 3)


def test_qr_risk_curve_matches_lstsq_on_underdetermined_folds(monkeypatch):
    # 2 folds of 12 rows train on 6 rows, fewer than the 12 design columns
    rng = np.random.default_rng(5)
    routes = _count_fold_routes(monkeypatch)
    _assert_risks_match_oracle(rng.normal(size=(12, 11)), rng.normal(size=12), 2, 0)
    assert routes == {"one-pass": 0, "two-pass": 0, "lstsq": 2}


def test_qr_risk_curve_matches_lstsq_with_duplicate_points():
    data = gaussian_dataset(30, 3, 6)
    points = np.vstack([data.points, data.points[:10]])
    doubled = DataSet(points=points, ids=tuple(str(i) for i in range(40)))
    _, dec, _, _ = full_pipeline(doubled, r=20)
    y = np.random.default_rng(6).normal(size=40)
    _assert_risks_match_oracle(embed(dec, 1, 20).coords, y, 5, 1)


def test_qr_risk_curve_matches_lstsq_on_rank_deficient_columns(monkeypatch):
    # column 3 repeats column 1, so X^T X is singular and no Cholesky factor
    # passes: every fold takes lstsq for every p
    rng = np.random.default_rng(7)
    basis = rng.normal(size=(50, 6))
    basis[:, 2] = basis[:, 0]
    routes = _count_fold_routes(monkeypatch)
    _assert_risks_match_oracle(basis, rng.normal(size=50), 5, 2)
    assert routes == {"one-pass": 0, "two-pass": 0, "lstsq": 5}


def _count_fold_routes(monkeypatch):
    """Folds scored from one Cholesky pass, from two, and by lstsq, told apart
    by spies on np.linalg.cholesky and np.linalg.lstsq that are live only
    inside each call of the fold scorer: a fold that calls lstsq takes it for
    every p, and otherwise makes one Cholesky call per pass."""
    routes = {"one-pass": 0, "two-pass": 0, "lstsq": 0}
    scorer = regression._fold_squared_errors

    def scorer_spy(design, *args):
        calls = {"cholesky": 0, "lstsq": 0}

        def spy(name, real):
            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return counted
        with pytest.MonkeyPatch.context() as patch:
            for name in calls:
                patch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
            errors = scorer(design, *args)
        assert calls["lstsq"] in (0, design.shape[1] - 1)
        routes["lstsq" if calls["lstsq"] else ("one-pass", "two-pass")[calls["cholesky"] - 1]] += 1
        return errors
    monkeypatch.setattr(regression, "_fold_squared_errors", scorer_spy)
    return routes


def test_gram_risk_curve_matches_lstsq_on_swiss_roll_psi(monkeypatch):
    # [1, psi] is well conditioned (psi is phi0-orthonormal), so every fold
    # is scored from the Cholesky factor of its downdated Gram matrix
    data = generate(GeneratorSpec(kind="swiss-roll", n=400, noise_sd=0.3, seed=4))
    _, dec, _, _ = full_pipeline(data, r=50)
    routes = _count_fold_routes(monkeypatch)
    _assert_risks_match_oracle(dec.eigenvectors, data.response, 10, 3)
    assert routes == {"one-pass": 10, "two-pass": 0, "lstsq": 0}


def test_near_collinear_basis_takes_the_second_pass_on_every_fold(monkeypatch):
    # column 4 is column 2 plus 1e-3 noise: cond(X) ~ 1e3 > 10, so one pass
    # would lose about cond^2 eps and every fold takes a second Cholesky pass
    rng = np.random.default_rng(8)
    basis = rng.normal(size=(200, 8))
    basis[:, 3] = basis[:, 1] + 1e-3 * rng.normal(size=200)
    routes = _count_fold_routes(monkeypatch)
    _assert_risks_match_oracle(basis, rng.normal(size=200), 5, 2)
    assert routes == {"one-pass": 0, "two-pass": 5, "lstsq": 0}


def test_two_density_psi_basis_mixes_the_routes(monkeypatch):
    # a blob half as wide as the rest: at r = 20 the folds whose [1, psi]
    # keeps cond 6.8-7.2 take one pass, those at 37-67 a second pass
    rng = np.random.default_rng(6)
    points = np.vstack([0.5 * rng.normal(size=(320, 2)), rng.normal(size=(80, 2))])
    y = points[:, 0] + 0.1 * rng.normal(size=400)
    data = DataSet(points=points, ids=tuple(str(i) for i in range(400)), response=y)
    _, dec, _, _ = full_pipeline(data)
    routes = _count_fold_routes(monkeypatch)
    _assert_risks_match_oracle(dec.eigenvectors[:, :20], y, 10, 0)
    assert routes == {"one-pass": 7, "two-pass": 3, "lstsq": 0}


def test_second_pass_scores_from_q1_not_the_normal_equations(monkeypatch):
    # the two-density layout at n = 800, r = 40: every fold takes the second
    # pass, where c = L^-1 X^T y, the seminormal equations, would lose about
    # eps cond^2 (2.2e-11 of the largest risk); c = L2^-1 Q1^T y stays
    # within 1.9e-13 of the oracle
    rng = np.random.default_rng(1)
    points = np.vstack([0.5 * rng.normal(size=(640, 2)), rng.normal(size=(160, 2))])
    y = points[:, 0] + 0.1 * rng.normal(size=800)
    data = DataSet(points=points, ids=tuple(str(i) for i in range(800)), response=y)
    _, dec, _, _ = full_pipeline(data, r=40)
    routes = _count_fold_routes(monkeypatch)
    _assert_risks_match_oracle(dec.eigenvectors, y, 10, 0)
    assert routes == {"one-pass": 0, "two-pass": 10, "lstsq": 0}


def test_fit_and_predict_do_not_depend_on_diffusion_time():
    # the fit is on psi; on lambda^t psi rounding broke it here at t >= 3
    roll = generate(GeneratorSpec(kind="swiss-roll", n=1300, noise_sd=0.3, seed=1))
    train = DataSet(points=roll.points[:1000], ids=roll.ids[:1000],
                    response=roll.response[:1000])
    _, dec, _, ext = full_pipeline(train, r=50)
    models = [fit(train, embed(dec, t, 50), ext, folds=10, seed=1) for t in range(1, 6)]
    preds = [predict(model, roll.points[1000:]) for model in models]
    for model, pred in zip(models, preds):
        assert model.p == models[0].p
        assert np.array_equal(model.coefficients, models[0].coefficients)
        assert np.array_equal(pred, preds[0])
