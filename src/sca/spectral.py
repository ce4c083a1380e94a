"""Eigendecomposition of the transition matrix, diffusion coordinates, and
the brute-force diffusion-distance oracle."""

from dataclasses import dataclass

import numpy as np

from .dataset import frozen_array
from .errors import NumericalError, ValidationError
from .markov import StationaryDistribution, TransitionMatrix


@dataclass(frozen=True)
class SpectralDecomposition:
    """Nontrivial spectrum of A in descending eigenvalue order.

    ``decompose`` stores all n-1 nontrivial pairs; a model read back from
    disk may store only the leading ones.

    Right eigenvectors are normalized to be orthonormal under the
    phi0-weighted inner product, which makes the euclidean metric of the
    full-rank diffusion map coincide with the diffusion distance.  The
    trivial pair (eigenvalue 1, constant eigenvector) is the same for
    every chain and is not stored.
    """

    eigenvalues: np.ndarray      # (n-1,) descending
    eigenvectors: np.ndarray     # (n, n-1), column j evaluates psi_{j+1}
    phi0: np.ndarray

    def __post_init__(self):
        for name in ("eigenvalues", "eigenvectors", "phi0"):
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


def decompose(transition: TransitionMatrix) -> SpectralDecomposition:
    """Eigendecompose A via conjugation to a symmetric matrix.

    With kernel row sums s, M = S^{1/2} A S^{-1/2} is symmetric; its
    orthonormal eigenvectors map back to right eigenvectors of A, which
    are then scaled to phi0-orthonormality.  Sign convention: the entry
    of largest magnitude in each eigenvector is positive (ties broken by
    lowest index).
    """
    a = transition.matrix
    s = transition.kernel_row_sums
    sqrt_s = np.sqrt(s)
    sym = a * (sqrt_s[:, None] / sqrt_s[None, :])
    sym = 0.5 * (sym + sym.T)
    try:
        eigvals, eigvecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolver failed: {exc}") from exc
    # ascending from eigh; flip to descending and drop the trivial top pair
    eigvals = eigvals[::-1][1:]
    eigvecs = eigvecs[:, ::-1][:, 1:]
    total = s.sum()
    psi = (eigvecs / sqrt_s[:, None]) * np.sqrt(total)
    for j in range(psi.shape[1]):
        lead = np.argmax(np.abs(psi[:, j]))
        if psi[lead, j] < 0:
            psi[:, j] = -psi[:, j]
    return SpectralDecomposition(
        eigenvalues=eigvals,
        eigenvectors=psi,
        phi0=s / total,
    )


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
    scale = decomposition.eigenvalues[:r] ** t
    coords = decomposition.eigenvectors[:, :r] * scale[None, :]
    return DiffusionEmbedding(coords=coords, t=t, r=r)


def diffusion_distance(transition: TransitionMatrix, phi0: StationaryDistribution,
                       t: int, i: int, j: int) -> float:
    """Brute-force diffusion distance between observations i and j.

    Computes sqrt( sum_z (A_t(x_i, z) - A_t(x_j, z))^2 / phi0(z) ) with
    A_t obtained by explicit matrix powering.  This is the oracle route
    and is never approximated.
    """
    t = _check_time(t)
    n = transition.n
    if not (0 <= i < n and 0 <= j < n):
        raise ValidationError(f"indices ({i}, {j}) out of range for n={n}")
    a_t = np.linalg.matrix_power(transition.matrix, t)
    diff = a_t[i] - a_t[j]
    return float(np.sqrt(np.sum(diff * diff / phi0.probabilities)))


def diffusion_distance_matrix(transition: TransitionMatrix, phi0: StationaryDistribution,
                              t: int) -> np.ndarray:
    """All-pairs version of :func:`diffusion_distance` (same matrix powering)."""
    t = _check_time(t)
    a_t = np.linalg.matrix_power(transition.matrix, t)
    scaled = a_t / np.sqrt(phi0.probabilities)[None, :]
    n = transition.n
    out = np.zeros((n, n))
    for i in range(n - 1):
        diff = scaled[i + 1:] - scaled[i]
        out[i, i + 1:] = np.sqrt(np.sum(diff * diff, axis=1))
    return out + out.T
