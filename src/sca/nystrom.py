"""Out-of-sample extension of empirical eigenfunctions and embeddings.

A new point x gets the kernel-smoothed estimate

    psi_hat_j(x) = (1/lambda_j) * sum_i A(x, x_i) psi_j(x_i),

where A(x, .) is the same epsilon-bandwidth Gaussian kernel row used in
training, renormalized over the training points.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .dataset import DataSet, frozen_array
from .errors import NumericalError, ValidationError
from .markov import TransitionMatrix
from .spectral import SpectralDecomposition, _check_pair_index, _check_time

EIGENVALUE_FLOOR = 1e-12

# query rows per block in ``extend_eigenfunctions``: about 256k kernel
# entries (2 MiB of float64) per block
QUERY_BLOCK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class ExtensionModel:
    """Everything needed to evaluate eigenfunctions at new points."""

    points: np.ndarray
    decomposition: SpectralDecomposition
    epsilon: float
    diss_kind: str

    def __post_init__(self):
        if self.diss_kind not in ("sqeuclidean", "euclidean"):
            raise ValidationError(
                "out-of-sample extension needs a computable dissimilarity; "
                f"kind {self.diss_kind!r} has no values for unseen points"
            )
        object.__setattr__(self, "points", frozen_array(self.points))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def build_extension(data: DataSet, transition: TransitionMatrix,
                    decomposition: SpectralDecomposition) -> ExtensionModel:
    """Bundle training data with its decomposition, keeping kernel provenance."""
    if transition.n != data.n or decomposition.n != data.n:
        raise ValidationError("dataset, transition, and decomposition sizes disagree")
    return ExtensionModel(
        points=data.points,
        decomposition=decomposition,
        epsilon=transition.epsilon,
        diss_kind=transition.diss_kind,
    )


def _check_queries(model: ExtensionModel, new_points: np.ndarray) -> np.ndarray:
    q = np.asarray(new_points, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != model.d:
        raise ValidationError(
            f"query points must be m x {model.d}, got shape {q.shape}"
        )
    if not np.isfinite(q).all():
        raise ValidationError("query points contain non-finite entries")
    return q


def _convex_weights(model: ExtensionModel, q: np.ndarray, first: int = 0) -> np.ndarray:
    """Kernel weights of checked queries ``q``, whose row 0 is query ``first``."""
    # one buffer throughout; dividing by -epsilon equals negating and
    # then dividing, bit for bit
    weights = kernels.cross_sq_dists(q, model.points)
    if model.diss_kind == "euclidean":
        np.sqrt(weights, out=weights)
    np.divide(weights, -model.epsilon, out=weights)
    np.exp(weights, out=weights)
    sums = weights.sum(axis=1)
    if not (sums > 0).all():
        k = first + int(np.argmin(sums > 0))
        raise NumericalError(
            f"kernel row for query point {k} underflowed to zero; "
            "the point is too far from the training data at this epsilon"
        )
    weights /= sums[:, None]
    return weights


def kernel_weights(model: ExtensionModel, new_points: np.ndarray) -> np.ndarray:
    """Convex kernel weights A(x, .) over training points, one row per query."""
    return _convex_weights(model, _check_queries(model, new_points))


def extend_eigenfunctions(model: ExtensionModel, new_points: np.ndarray,
                          r: int) -> np.ndarray:
    """Nystrom estimates at m new points: row k is (psi_hat_j(x_k))_{j=1..r}.

    The queries are weighted in row blocks of about ``QUERY_BLOCK_ENTRIES``
    kernel entries, so the m x n weight matrix is never held whole.
    """
    r = _check_pair_index(r, model.decomposition, "number of eigenfunctions r")
    lams = model.decomposition.eigenvalues[:r]
    small = np.flatnonzero(np.abs(lams) < EIGENVALUE_FLOOR)
    if small.size:
        j = small[0]
        raise NumericalError(
            f"eigenvalue {j + 1} has magnitude {abs(lams[j]):.3e} below the "
            f"{EIGENVALUE_FLOOR} floor; its extension is undefined")
    q = _check_queries(model, new_points)
    # contiguous: bitwise equal for a model storing only r pairs, and faster
    psi = np.ascontiguousarray(model.decomposition.eigenvectors[:, :r])
    out = np.empty((q.shape[0], r))
    step = max(1, QUERY_BLOCK_ENTRIES // model.n)
    for lo in range(0, q.shape[0], step):
        np.matmul(_convex_weights(model, q[lo:lo + step], lo), psi, out=out[lo:lo + step])
    out /= lams[None, :]
    return out


def extend_eigenfunction(model: ExtensionModel, x: np.ndarray, j: int) -> float:
    """Kernel-smoothed estimate of eigenfunction j (1-based, nontrivial) at x."""
    j = _check_pair_index(j, model.decomposition, "eigenfunction index j")
    point = np.asarray(x, dtype=np.float64).reshape(1, -1)
    return float(extend_eigenfunctions(model, point, j)[0, j - 1])


def extend_embedding(model: ExtensionModel, new_points: np.ndarray,
                     t: int, r: int) -> np.ndarray:
    """Diffusion coordinates for m new points: row k is (lambda_j^t psi_hat_j(x_k))_j."""
    t = _check_time(t)
    r = _check_pair_index(r, model.decomposition, "embedding dimension r")
    psi_hat = extend_eigenfunctions(model, new_points, r)
    return psi_hat * (model.decomposition.eigenvalues[:r] ** t)[None, :]
