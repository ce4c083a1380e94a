"""Adaptive regression on the diffusion eigenbasis.

The response is fit by least squares on an intercept plus the leading
eigenvectors psi_1..psi_p; p is chosen by K-fold cross-validated risk
over p = 1..r, and prediction evaluates the Nystrom estimates psi_hat_j.
Rescaling columns cannot change a least-squares fit, so diffusion time
has no place here: on lambda_j^t psi_j it would only add rounding.
"""

from dataclasses import dataclass

import numpy as np

from .dataset import DataSet, frozen_array
from .errors import NumericalError, ValidationError
from .nystrom import ExtensionModel, extend_eigenfunctions
from .spectral import DiffusionEmbedding, _coords


@dataclass(frozen=True)
class EigenbasisRegression:
    intercept: float
    coefficients: np.ndarray
    cv_risk_curve: np.ndarray      # risk estimate for each candidate p = 1..r
    extension: ExtensionModel
    folds: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "coefficients", frozen_array(self.coefficients))
        object.__setattr__(self, "cv_risk_curve", frozen_array(self.cv_risk_curve))

    @property
    def p(self) -> int:
        """Number of eigenvectors in the fit."""
        return self.coefficients.size


def kfold_indices(n: int, folds: int, seed: int):
    """Deterministic shuffled K-fold split; a pure function of (n, folds, seed)."""
    if not 2 <= folds <= n:
        raise ValidationError(f"folds must lie in [2, {n}], got {folds}")
    if seed < 0:
        raise ValidationError("seed must be nonnegative")
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(perm, folds)]


def _design(basis: np.ndarray, p: int) -> np.ndarray:
    return np.column_stack([np.ones(basis.shape[0]), basis[:, :p]])


def basis_risk_curve(basis: np.ndarray, y: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """K-fold CV squared-error risk for each truncation p = 1..r.

    Folds reuse the full-sample basis and refit coefficients only; see
    :func:`_fold_squared_errors` for how one fold scores every p.
    """
    n, r = basis.shape
    design = _design(basis, r)
    total_sq = np.zeros(r)
    for held_out in kfold_indices(n, folds, seed):
        train = np.ones(n, dtype=bool)
        train[held_out] = False
        total_sq += _fold_squared_errors(design[train], y[train],
                                         design[held_out], y[held_out])
    return total_sq / n


def _fold_squared_errors(train_x, train_y, held_x, held_y) -> np.ndarray:
    """Held-out squared error of the least-squares fit on columns 0..p, p = 1..r.

    One thin QR of the training design serves every p: with Q^T y = c,
    the fit on the leading p+1 columns predicts held_x[:, :p+1] R_p^{-1}
    c[:p+1], the p-th partial sum of (held_x R^{-1}) * c.  From the first
    numerically zero |R_jj| on (and for p + 1 beyond the training rows)
    each p falls back to the minimum-norm ``lstsq`` solution.
    """
    m, k = train_x.shape
    q, rr = np.linalg.qr(train_x)
    pivots = np.abs(np.diag(rr))
    zero = np.flatnonzero(pivots <= max(m, k) * np.finfo(float).eps * pivots.max())
    solved = int(zero[0]) if zero.size else pivots.size
    # z = held_x[:, :solved] R^{-1} by forward substitution over the columns
    z = np.empty((held_x.shape[0], solved))
    for j in range(solved):
        z[:, j] = (held_x[:, j] - z[:, :j] @ rr[:j, j]) / rr[j, j]
    preds = np.cumsum(z * (q.T[:solved] @ train_y)[None, :], axis=1)
    errors = np.empty(k - 1)
    errors[:solved - 1] = np.sum((preds[:, 1:] - held_y[:, None]) ** 2, axis=0)
    for p in range(solved, k):
        beta = np.linalg.lstsq(train_x[:, :p + 1], train_y, rcond=None)[0]
        errors[p - 1] = np.sum((held_x[:, :p + 1] @ beta - held_y) ** 2)
    return errors


def _refit(basis: np.ndarray, y: np.ndarray, p: int):
    design = _design(basis, p)
    beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < p + 1:
        raise NumericalError(
            f"design matrix is rank-deficient at p={p} (rank {rank} < {p + 1}); "
            "duplicate points or numerically repeated eigenvectors"
        )
    return float(beta[0]), beta[1:]


def fit(data: DataSet, emb: DiffusionEmbedding, ext: ExtensionModel,
        folds: int = 10, seed: int = 0) -> EigenbasisRegression:
    """Select p <= emb.r by CV risk on psi and refit on all data at that p."""
    if data.response is None:
        raise ValidationError("dataset has no response to regress on")
    if not np.array_equal(ext.points, data.points):
        raise ValidationError("extension model was built on different points")
    if not np.array_equal(_coords(ext.decomposition, emb.t, emb.r), emb.coords):
        raise ValidationError("embedding and extension derive from different decompositions")
    basis = ext.decomposition.eigenvectors[:, :emb.r]
    y = data.response
    risks = basis_risk_curve(basis, y, folds, seed)
    p = int(np.argmin(risks)) + 1  # first minimum, so ties pick the smallest p
    intercept, coefficients = _refit(basis, y, p)
    return EigenbasisRegression(
        intercept=intercept,
        coefficients=coefficients,
        cv_risk_curve=risks,
        extension=ext,
        folds=folds,
        seed=seed,
    )


def predict(model: EigenbasisRegression, new_points: np.ndarray) -> np.ndarray:
    """intercept + psi_hat(x)[:p] @ coefficients at each new point x."""
    psi_hat = extend_eigenfunctions(model.extension, new_points, model.p)
    return model.intercept + psi_hat @ model.coefficients


def risk_curve(model: EigenbasisRegression):
    """CV risk estimates as (p, risk) pairs; the minimum sits at model.p."""
    return tuple((p + 1, float(r)) for p, r in enumerate(model.cv_risk_curve))


def fitted_values(model: EigenbasisRegression) -> np.ndarray:
    """In-sample fitted values at the training points."""
    psi = model.extension.decomposition.eigenvectors[:, :model.p]
    return model.intercept + psi @ model.coefficients

