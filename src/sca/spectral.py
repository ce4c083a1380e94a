"""Eigendecomposition of the transition matrix and diffusion coordinates."""

from dataclasses import dataclass

import numpy as np

from .dataset import frozen_array
from .errors import NumericalError, ValidationError
from .markov import TransitionMatrix, stationary_distribution

# Nontrivial pairs ``decompose`` keeps when no r is given.
DEFAULT_PAIRS = 50

# Block Krylov solver: block = wanted pairs + _GUARD, basis [X, M X, M^2 X],
# residual tolerance on the unit-norm symmetric conjugate, fixed start seed.
_GUARD = 8
_DEPTH = 3
_RESIDUAL_TOL = 1e-11
_START_SEED = 0

# Below _GAP_FLOOR the gap 1 - lambda_1 means a numerically disconnected
# graph (eigenvalue 1 repeated once per component).  Above it the top
# vector is within _RESIDUAL_TOL / _GAP_FLOOR = 1e-5 of the constant
# (Davis-Kahan), under _CONSTANT_TOL.
_GAP_FLOOR = 1e-6
_CONSTANT_TOL = 1e-4

# Sign convention: the lead entry of an eigenvector is the first whose
# magnitude is within this relative margin of the largest, so that
# rounding-level differences between near-equal entries do not decide it.
_LEAD_TIE = 1e-9


@dataclass(frozen=True)
class SpectralDecomposition:
    """Nontrivial spectrum of A in descending eigenvalue order.

    ``decompose`` stores the leading ``r`` nontrivial pairs (by default
    ``min(DEFAULT_PAIRS, n - 1)``); a model read back from disk stores
    the ones it uses.

    Right eigenvectors are normalized to be orthonormal under the
    phi0-weighted inner product, which makes the euclidean metric of the
    full-rank diffusion map coincide with the diffusion distance.  The
    trivial pair (eigenvalue 1, constant eigenvector) is the same for
    every chain and is not stored; neither is phi0, which
    ``markov.stationary_distribution`` gives from the chain.
    """

    eigenvalues: np.ndarray      # (r,) descending
    eigenvectors: np.ndarray     # (n, r), column j evaluates psi_{j+1}

    def __post_init__(self):
        for name in ("eigenvalues", "eigenvectors"):
            object.__setattr__(self, name, frozen_array(getattr(self, name)))

    @property
    def n(self) -> int:
        return self.eigenvectors.shape[0]


@dataclass(frozen=True)
class DiffusionEmbedding:
    """r-dimensional diffusion coordinates at time t: column j is lambda_j^t psi_j."""

    coords: np.ndarray
    t: int
    r: int

    def __post_init__(self):
        object.__setattr__(self, "coords", frozen_array(self.coords))


def decompose(transition: TransitionMatrix, r=None) -> SpectralDecomposition:
    """Leading r nontrivial eigenpairs of A, via its symmetric conjugate.

    With kernel W and row sums s, M = S^{-1/2} W S^{-1/2} = S^{1/2} A
    S^{-1/2} is symmetric (bitwise, as W is); its orthonormal
    eigenvectors map back to right eigenvectors of A, which are then
    scaled to phi0-orthonormality.  ``r=None`` keeps
    ``min(DEFAULT_PAIRS, n - 1)`` pairs.  Sign convention: in each
    eigenvector the lead entry, the lowest-index one whose magnitude is
    at least (1 - 1e-9) times the largest, is positive.

    When the Krylov basis is small next to n the leading pairs come from
    :func:`_krylov_pairs`, which applies M through W and the diagonal
    scalings and never forms it; otherwise, or when that solver does not
    reach its tolerance within its budget, from a full ``eigh`` of M.  A
    numerically disconnected graph raises NumericalError.
    """
    n = transition.n
    if r is None:
        r = min(DEFAULT_PAIRS, n - 1)
    elif not isinstance(r, (int, np.integer)) or not 1 <= r <= n - 1:
        raise ValidationError(
            f"number of eigenpairs r must lie in [1, {n - 1}], got {r!r}")
    r = int(r)
    s = transition.kernel_row_sums
    sqrt_s = np.sqrt(s)
    inv_sqrt_s = 1.0 / sqrt_s
    block = r + 1 + _GUARD
    pairs = None
    if 2 * _DEPTH * block <= n:
        pairs = _krylov_pairs(transition.kernel, inv_sqrt_s,
                              sqrt_s / np.linalg.norm(sqrt_s), r + 1, block)
    if pairs is None:
        sym = np.outer(inv_sqrt_s, inv_sqrt_s)
        sym *= transition.kernel
        pairs = _eigh_pairs(sym, r + 1)
    eigvals, eigvecs = pairs
    phi0 = stationary_distribution(transition).probabilities
    total = s.sum()
    # back-scaled, the dropped top vector must be the constant 1
    top = eigvecs[:, 0] * np.sqrt(total) / sqrt_s
    deviation = float(np.sqrt(phi0 @ (top * np.sign(phi0 @ top) - 1.0) ** 2))
    gap = 1.0 - eigvals[1]
    if not (gap >= _GAP_FLOOR and deviation <= _CONSTANT_TOL):
        raise NumericalError(
            f"graph is numerically disconnected: 1 - lambda_1 = {gap:.3e} (floor "
            f"{_GAP_FLOOR:g}), top eigenvector off the constant by {deviation:.3e} "
            f"(tolerance {_CONSTANT_TOL:g}); try a larger epsilon than {transition.epsilon!r}")
    psi = (eigvecs[:, 1:] / sqrt_s[:, None]) * np.sqrt(total)
    magnitude = np.abs(psi)
    lead = np.argmax(magnitude >= (1.0 - _LEAD_TIE) * magnitude.max(axis=0), axis=0)
    psi[:, psi[lead, np.arange(r)] < 0] *= -1.0
    return SpectralDecomposition(eigenvalues=eigvals[1:], eigenvectors=psi)


def _eigh_pairs(sym: np.ndarray, wanted: int):
    """Leading ``wanted`` pairs of a full ``eigh``, in descending order."""
    try:
        eigvals, eigvecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolver failed: {exc}") from exc
    return eigvals[::-1][:wanted], eigvecs[:, ::-1][:, :wanted]


def _orthonormalize(w: np.ndarray, previous) -> np.ndarray:
    """Orthonormal basis for the columns of w with span(previous) removed.

    Block Gram-Schmidt against the orthonormal blocks in ``previous``,
    each pass followed by a Householder QR.  The second pass (DGKS)
    works on unit columns, so a column that the first pass left at
    rounding level (the Krylov image of a converged eigenvector is
    nearly in ``previous``) still comes out orthogonal to ``previous``.
    """
    for _ in range(2):
        for q in previous:
            w = w - q @ (q.T @ w)
        w = np.linalg.qr(w)[0]
    return w


def _krylov_pairs(kernel: np.ndarray, scale: np.ndarray, v0: np.ndarray,
                  wanted: int, block: int):
    """Leading ``wanted`` pairs of M = diag(scale) W diag(scale) by restarted
    block Krylov-Rayleigh-Ritz, with W = ``kernel``.

    Products M X are taken as scale * (W (scale * X)), so M is never
    formed.  Each restart spans [X, M X, M^2 X] from the current
    ``block`` Ritz vectors X (the first start block holds v0 and seeded
    Gaussian columns), and keeps the leading ``block`` Ritz pairs of M on
    that span.  It stops when every wanted pair has ||M x - theta x||_2 <=
    ``_RESIDUAL_TOL`` (||M||_2 = 1 for a diffusion operator) and returns
    (theta, X) in descending order.  Returns None when the products with
    M reach 2n columns (4n^3 flops), about the work of a full ``eigh``,
    or as soon as the rate at which the largest residual fell over the
    last two restarts would not reach the tolerance within that budget.
    """
    n = kernel.shape[0]
    scale = scale[:, None]

    def apply(x):
        return scale * (kernel @ (scale * x))

    start = np.random.default_rng(_START_SEED).standard_normal((n, block))
    start[:, 0] = v0
    x = np.linalg.qr(start)[0]
    mx = apply(x)
    restarts = 2 * n // ((_DEPTH - 1) * block)
    worst = []
    for done in range(1, restarts + 1):
        blocks, images = [x], [mx]
        for _ in range(_DEPTH - 1):
            blocks.append(_orthonormalize(images[-1], blocks))
            images.append(apply(blocks[-1]))
        basis, image = np.hstack(blocks), np.hstack(images)
        h = basis.T @ image
        theta, y = np.linalg.eigh(0.5 * (h + h.T))
        theta, y = theta[::-1][:block], y[:, ::-1][:, :block]
        x, mx = basis @ y, image @ y
        residual = mx[:, :wanted] - x[:, :wanted] * theta[None, :wanted]
        worst.append(np.linalg.norm(residual, axis=0).max())
        if worst[-1] <= _RESIDUAL_TOL:
            return theta[:wanted], x[:, :wanted]
        if done >= 3 and (worst[-1] / worst[-3]) ** ((restarts - done) / 2) > \
                _RESIDUAL_TOL / worst[-1]:
            return None
    return None


def _check_time(t) -> int:
    if not isinstance(t, (int, np.integer)) or t < 1:
        raise ValidationError(f"diffusion time t must be a positive integer, got {t!r}")
    return int(t)


def _check_pair_index(value, decomposition: SpectralDecomposition, what: str) -> int:
    """Validate a 1-based count or index of nontrivial pairs against those stored."""
    pairs = decomposition.eigenvalues.shape[0]
    if not isinstance(value, (int, np.integer)) or not 1 <= value <= pairs:
        raise ValidationError(
            f"{what} must lie in [1, {pairs}] (the decomposition stores {pairs} "
            f"nontrivial eigenpairs), got {value!r}"
        )
    return int(value)


def embed(decomposition: SpectralDecomposition, t: int, r: int) -> DiffusionEmbedding:
    """Diffusion map coordinates: coords[i, j] = lambda_{j+1}^t psi_{j+1}(x_i)."""
    t = _check_time(t)
    r = _check_pair_index(r, decomposition, "embedding dimension r")
    return DiffusionEmbedding(coords=_coords(decomposition, t, r), t=t, r=r)


def _coords(decomposition: SpectralDecomposition, t: int, r: int) -> np.ndarray:
    return decomposition.eigenvectors[:, :r] * (decomposition.eigenvalues[:r] ** t)[None, :]

