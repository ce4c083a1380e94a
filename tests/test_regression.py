"""Eigenbasis regression: CV selection, exactness, and prediction."""

import dataclasses

import numpy as np
import pytest

from sca.dataset import DataSet
from sca.errors import ValidationError
from sca.regression import (
    basis_risk_curve,
    fit,
    fitted_values,
    kfold_indices,
    predict,
    risk_curve,
    _refit,
)
from sca.spectral import embed
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


def test_negative_seed_rejected():
    data, dec, emb, ext = _healthy_setup(12, 2, 10)
    labeled = _with_response(data, data.points[:, 0])
    with pytest.raises(ValidationError, match="seed must be nonnegative"):
        fit(labeled, emb, ext, folds=4, seed=-1)


def test_mismatched_embedding_and_extension_rejected():
    data_a, _, emb_a, _ = _healthy_setup(12, 2, 11)
    data_b, _, _, ext_b = _healthy_setup(12, 2, 12)
    labeled = _with_response(data_a, data_a.points[:, 0])
    with pytest.raises(ValidationError):
        fit(labeled, emb_a, ext_b, folds=4, seed=0)


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


# --- one QR per fold against per-p least squares --------------------------------

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


def test_qr_risk_curve_matches_lstsq_on_underdetermined_folds():
    # 2 folds of 12 rows train on 6 rows, fewer than the 12 design columns
    rng = np.random.default_rng(5)
    _assert_risks_match_oracle(rng.normal(size=(12, 11)), rng.normal(size=12), 2, 0)


def test_qr_risk_curve_matches_lstsq_with_duplicate_points():
    data = gaussian_dataset(30, 3, 6)
    points = np.vstack([data.points, data.points[:10]])
    doubled = DataSet(points=points, ids=tuple(str(i) for i in range(40)))
    _, dec, _, _ = full_pipeline(doubled, r=20)
    y = np.random.default_rng(6).normal(size=40)
    _assert_risks_match_oracle(embed(dec, 1, 20).coords, y, 5, 1)


def test_qr_risk_curve_matches_lstsq_on_rank_deficient_columns():
    # column 3 repeats column 1, so R_33 is zero and p >= 3 use lstsq
    rng = np.random.default_rng(7)
    basis = rng.normal(size=(50, 6))
    basis[:, 2] = basis[:, 0]
    _assert_risks_match_oracle(basis, rng.normal(size=50), 5, 2)


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
