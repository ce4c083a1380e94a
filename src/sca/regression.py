"""Adaptive regression on the diffusion eigenbasis.

The response is fit by least squares on an intercept plus the leading
eigenvectors psi_1..psi_p; p is chosen by K-fold cross-validated risk
over p = 1..r, and prediction evaluates the fit on the Nystrom
estimates psi_hat_j.
Rescaling columns cannot change a least-squares fit, so diffusion time
has no place here: on lambda_j^t psi_j it would only add rounding.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import DataSet, frozen_array, frozen_field
from .errors import NumericalError, ValidationError, check_array, check_int
from .nystrom import ExtensionModel, _checked_eigenvalues, _query_blocks
from .spectral import DiffusionEmbedding, _check_pair_index, _coords


@dataclass(frozen=True)
class EigenbasisRegression:
    """A fit on psi_1..psi_p; construction checks p in [1, k] for the
    extension's k stored pairs, a finite fit, folds in [2, n] and seed >= 0."""

    intercept: float
    coefficients: np.ndarray
    cv_risk_curve: np.ndarray      # risk estimate for each candidate p = 1..r
    extension: ExtensionModel
    folds: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "intercept", float(check_array(self.intercept, (), "intercept")))
        for name in ("coefficients", "cv_risk_curve"):
            frozen_field(self, name, (None,))
        _check_pair_index(self.p, self.extension.decomposition, "number of coefficients p")
        check_int(self.folds, 2, self.extension.n, "folds")
        check_int(self.seed, 0, None, "seed")

    @property
    def p(self) -> int:
        """Number of eigenvectors in the fit."""
        return self.coefficients.size

    @cached_property
    def _folded(self) -> np.ndarray:
        """v = psi[:, :p] @ (coefficients / lambda[:p]), the fit as one n-vector.

        Computed on first use, after the eigenvalue-floor check, which
        raises again on every use until it passes.
        """
        lams = _checked_eigenvalues(self.extension, self.p)
        return frozen_array(
            self.extension.decomposition.eigenvectors[:, :self.p] @ (self.coefficients / lams))


def kfold_indices(n: int, folds: int, seed: int):
    """Deterministic shuffled K-fold split; a pure function of (n, folds, seed)."""
    folds = check_int(folds, 2, n, "folds")
    perm = np.random.default_rng(check_int(seed, 0, None, "seed")).permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(perm, folds)]


# Largest cond_2 accepted from each Cholesky pass of a fold's factor: the
# factor of a Gram matrix carries an error of about eps cond^2.
_GRAM_COND_MAX = 10.0


def _design(basis: np.ndarray, p: int) -> np.ndarray:
    return np.column_stack([np.ones(basis.shape[0]), basis[:, :p]])


def basis_risk_curve(basis: np.ndarray, y: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """K-fold CV squared-error risk for each truncation p = 1..r.

    Folds reuse the full-sample basis and refit coefficients only; each
    is scored by :func:`_fold_squared_errors` from X^T X and X^T y of the
    whole design.
    """
    n, r = basis.shape
    design = _design(basis, r)
    gram, moment = design.T @ design, design.T @ y
    total_sq = np.zeros(r)
    for held_out in kfold_indices(n, folds, seed):
        total_sq += _fold_squared_errors(design, y, held_out, gram, moment)
    return total_sq / n


def _fold_squared_errors(design, y, held_out, gram, moment) -> np.ndarray:
    """Held-out squared error of the least-squares fit on columns 0..p, p = 1..r.

    One lower-triangular L with training X = Q L^T serves every p: the fit
    on columns 0..p predicts the p-th partial sum of (held_x L^{-T}) * c,
    c = Q^T y.  L1 is the Cholesky factor of X^T X less the held-out rows'
    share, and c = L1^{-1} X^T y, if cond_2(L1) <= ``_GRAM_COND_MAX``.
    Else a second Cholesky QR pass on Q1 = X L1^{-T} gives L = L1 L2,
    L2 = chol(Q1^T Q1), and c = L2^{-1} Q1^T y (L^{-1} X^T y would keep
    the normal equations' eps cond^2), if cond_2(L2) meets the same bound.
    A fold with fewer training rows than columns, or whose factor fails,
    takes the minimum-norm ``lstsq`` fit for every p.
    """
    held_x, held_y = design[held_out], y[held_out]
    m, k = design.shape[0] - held_out.size, design.shape[1]
    try:
        chol = np.linalg.cholesky(gram - held_x.T @ held_x)
        cond, inv = np.linalg.cond(chol), np.linalg.inv(chol)
        if cond > _GRAM_COND_MAX:
            q1 = np.delete(design, held_out, axis=0) @ inv.T
            second = np.linalg.cholesky(q1.T @ q1)
            cond, inv2 = np.linalg.cond(second), np.linalg.inv(second)
            inv, c = inv2 @ inv, inv2 @ (q1.T @ np.delete(y, held_out))
        else:
            c = inv @ (moment - held_x.T @ held_y)
    except np.linalg.LinAlgError:
        cond = np.inf
    if m < k or cond > _GRAM_COND_MAX:
        train_x, train_y = np.delete(design, held_out, axis=0), np.delete(y, held_out)
        fits = [np.linalg.lstsq(train_x[:, :p + 1], train_y, rcond=None)[0] for p in range(1, k)]
        return np.array([np.sum((held_x[:, :b.size] @ b - held_y) ** 2) for b in fits])
    preds = np.cumsum((held_x @ inv.T) * c, axis=1)
    return np.sum((preds[:, 1:] - held_y[:, None]) ** 2, axis=0)


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
    return EigenbasisRegression(intercept=intercept, coefficients=coefficients,
                                cv_risk_curve=risks, extension=ext, folds=folds, seed=seed)


def predict(model: EigenbasisRegression, new_points: np.ndarray) -> np.ndarray:
    """intercept + psi_hat(x)[:p] @ coefficients at each new point x.

    With psi_hat_j(x) = sum_i A(x, x_i) psi_j(x_i) / lambda_j this is
    intercept + sum_i w_i v_i / sum_i w_i, where w_i = exp(-D(x, x_i)/eps)
    and v = psi[:, :p] @ (coefficients / lambda[:p]) folds the fit into one
    n-vector, computed once per model: O(n d) per query.  Each answer is an
    elementwise product and a row sum, so it does not depend on how the
    queries are batched.
    """
    ext = model.extension
    v = model._folded
    q = check_array(new_points, (None, ext.d), "query points")
    out = np.empty(q.shape[0])
    for rows, weights, sums in _query_blocks(ext, q):
        weights *= v
        np.divide(weights.sum(axis=1), sums, out=out[rows])
    out += model.intercept
    return out


def risk_curve(model: EigenbasisRegression):
    """CV risk estimates as (p, risk) pairs; the minimum sits at model.p."""
    return tuple((p + 1, float(r)) for p, r in enumerate(model.cv_risk_curve))


def fitted_values(model: EigenbasisRegression) -> np.ndarray:
    """In-sample fitted values at the training points."""
    psi = model.extension.decomposition.eigenvectors[:, :model.p]
    return model.intercept + psi @ model.coefficients

