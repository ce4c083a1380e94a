"""Eigendecomposition of the transition matrix and diffusion coordinates."""

from dataclasses import dataclass

import numpy as np

from .dataset import frozen_array, frozen_field
from .errors import NumericalError, ValidationError, check_int
from .markov import TransitionMatrix, stationary_distribution

# Nontrivial pairs ``decompose`` keeps when no r is given.
DEFAULT_PAIRS = 50

# Block Krylov solver: block = wanted pairs + _GUARD, basis of at most
# _BASIS_CAP * n columns, residual tolerance on the unit-norm symmetric
# conjugate, fixed start seed.
_GUARD = 8
_BASIS_CAP = 0.6
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
    the ones it uses.  Construction checks k >= 1 eigenvalues, n x k
    eigenvectors with n > k, and finite entries.

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
        k = frozen_field(self, "eigenvalues", (None,)).size
        frozen_field(self, "eigenvectors", (None, k))
        if not 1 <= k < self.n:
            raise ValidationError(f"eigenvectors must be n x k for k >= 1 eigenvalues, n > k; "
                                  f"got {self.eigenvectors.shape}")

    @property
    def n(self) -> int:
        return self.eigenvectors.shape[0]


@dataclass(frozen=True)
class DiffusionEmbedding:
    """r-dimensional diffusion coordinates at time t: column j is lambda_j^t psi_j.
    Construction checks that t is an integer >= 1."""

    coords: np.ndarray
    t: int

    def __post_init__(self):
        object.__setattr__(self, "coords", frozen_array(self.coords))
        check_int(self.t, 1, None, "diffusion time t")

    @property
    def r(self) -> int:
        """Number of diffusion coordinates."""
        return self.coords.shape[1]


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
    reach its tolerance within its basis cap, from a full ``eigh`` of M.  A
    numerically disconnected graph raises NumericalError.
    """
    n = transition.n
    r = check_int(min(DEFAULT_PAIRS, n - 1) if r is None else r, 1, n - 1,
                  "number of eigenpairs r")
    s = transition.kernel_row_sums
    sqrt_s = np.sqrt(s)
    inv_sqrt_s = 1.0 / sqrt_s
    block = r + 1 + _GUARD
    pairs = None
    if 6 * block <= n:
        pairs = _krylov_pairs(transition.kernel, inv_sqrt_s,
                              sqrt_s / np.linalg.norm(sqrt_s), r + 1, block)
    if pairs is None:
        sym = np.outer(inv_sqrt_s, inv_sqrt_s)
        sym *= transition.kernel
        pairs = _eigh_pairs(sym, r + 1)
    eigvals, eigvecs = pairs
    phi0 = stationary_distribution(transition)
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


def _widened(a: np.ndarray, shape) -> np.ndarray:
    """``a`` copied into the leading corner of a larger column-major array."""
    out = np.empty(shape, order="F")
    out[:a.shape[0], :a.shape[1]] = a
    return out


def _krylov_pairs(kernel: np.ndarray, scale: np.ndarray, v0: np.ndarray,
                  wanted: int, block: int):
    """Leading ``wanted`` pairs of M = diag(scale) W diag(scale) by block
    Lanczos with full reorthogonalization, with W = ``kernel``.

    The basis V grows one ``block`` at a time from a start block of v0 and
    seeded Gaussian columns.  Each new block is the image M X of the last
    one, orthonormalized against all of V by two passes of block
    Gram-Schmidt, each followed by a Cholesky QR (the second pass works on
    near-unit columns, so what the first left at rounding level, or not
    quite orthonormal, comes out orthonormal and orthogonal to V).  Each
    image is taken once, as scale * (W (scale * X)), so M is never formed,
    and H = V^T M V grows by one block row with V.  V and its image are
    column-major and grow by doubling.  Rayleigh-Ritz on H stops when
    every wanted pair has ||M x - theta x||_2 <= ``_RESIDUAL_TOL``
    (||M||_2 = 1 for a diffusion operator) and returns (theta, X) in
    descending order.  Otherwise the log of the largest residual is
    projected to fall with the square of the basis size, as Krylov
    convergence speeds up while the basis grows: the next Rayleigh-Ritz
    runs at the projected size, and the solver returns None once that
    size or the next block would pass ``_BASIS_CAP`` * n columns.
    """
    n = kernel.shape[0]
    scale = scale[:, None]
    cap = _BASIS_CAP * n
    start = np.random.default_rng(_START_SEED).standard_normal((n, block))
    start[:, 0] = v0
    x = _orthonormal(start)
    basis, image, h = np.empty((n, 0)), np.empty((n, 0)), np.empty((0, 0))
    k = target = 0
    while True:
        lo, k = k, k + block
        if k > basis.shape[1]:
            room = max(2 * lo, k)
            basis, image = _widened(basis, (n, room)), _widened(image, (n, room))
            h = _widened(h, (room, room))
        basis[:, lo:k] = x
        np.matmul(kernel, scale * x, out=image[:, lo:k])
        image[:, lo:k] *= scale
        v, mx = basis[:, :k], image[:, lo:k]
        projection = v.T @ mx
        h[lo:k, :k] = projection.T
        if k + block > target:
            # eigh reads the lower triangle: the block rows set so far
            theta, y = np.linalg.eigh(h[:k, :k], UPLO="L")
            theta, y = theta[::-1][:wanted], y[:, ::-1][:, :wanted]
            ritz = v @ y
            worst = np.linalg.norm(image[:, :k] @ y - ritz * theta, axis=0).max()
            if worst <= _RESIDUAL_TOL:
                return theta, ritz
            # share of the way from 1 down to the tolerance, in logs
            share = np.log(worst) / np.log(_RESIDUAL_TOL)
            if k * k > share * cap * cap or k + block > cap:
                return None
            target = k / np.sqrt(share)
        w = _orthonormal(mx - v @ projection)
        x = _orthonormal(w - v @ (v.T @ w))


def _orthonormal(a: np.ndarray) -> np.ndarray:
    """Q of a thin QR of ``a``: Cholesky QR, a chol(a^T a)^{-T}, or Householder
    where a^T a is not numerically positive definite.  Orthogonality is lost
    like eps cond(a)^2, so ``_krylov_pairs`` applies it twice (CholeskyQR2)."""
    try:
        chol = np.linalg.cholesky(a.T @ a)
    except np.linalg.LinAlgError:
        return np.linalg.qr(a)[0]
    return a @ np.linalg.inv(chol).T


def _check_pair_index(value, decomposition: SpectralDecomposition, what: str) -> int:
    """Validate a 1-based count or index of nontrivial pairs against those stored."""
    k = decomposition.eigenvalues.size
    return check_int(value, 1, k, f"{what} (the decomposition stores {k} nontrivial eigenpairs)")


def embed(decomposition: SpectralDecomposition, t: int, r: int) -> DiffusionEmbedding:
    """Diffusion map coordinates: coords[i, j] = lambda_{j+1}^t psi_{j+1}(x_i)."""
    t = check_int(t, 1, None, "diffusion time t")
    r = _check_pair_index(r, decomposition, "embedding dimension r")
    return DiffusionEmbedding(coords=_coords(decomposition, t, r), t=t)


def _coords(decomposition: SpectralDecomposition, t: int, r: int) -> np.ndarray:
    return decomposition.eigenvectors[:, :r] * (decomposition.eigenvalues[:r] ** t)[None, :]

