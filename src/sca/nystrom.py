"""Out-of-sample extension of empirical eigenfunctions and embeddings.

A new point x gets the kernel-smoothed estimate

    psi_hat_j(x) = (1/lambda_j) * sum_i A(x, x_i) psi_j(x_i),

where A(x, .) is the same epsilon-bandwidth Gaussian kernel row used in
training, renormalized over the training points.
"""

from dataclasses import dataclass

import numpy as np

from .dataset import DISS_KINDS, DataSet, _point_dissimilarity, frozen_field
from .errors import NumericalError, ValidationError, check_array, check_int, check_real
from .markov import TransitionMatrix, _gaussian_kernel
from .spectral import SpectralDecomposition, _check_pair_index

EIGENVALUE_FLOOR = 1e-12

# kernel entries per query block in ``_query_blocks`` (2 MiB of float64)
QUERY_BLOCK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class ExtensionModel:
    """Everything needed to evaluate eigenfunctions at new points: finite
    n x d points with the decomposition's n rows, 0 < epsilon < inf and a
    computable dissimilarity kind, each checked on construction."""

    points: np.ndarray
    decomposition: SpectralDecomposition
    epsilon: float
    diss_kind: str

    def __post_init__(self):
        if self.diss_kind not in DISS_KINDS:
            raise ValidationError("out-of-sample extension needs a computable dissimilarity; "
                                  f"kind {self.diss_kind!r} has no values for unseen points")
        frozen_field(self, "points", (self.decomposition.n, None))
        object.__setattr__(self, "epsilon", check_real(self.epsilon, True, "epsilon"))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def build_extension(data: DataSet, transition: TransitionMatrix,
                    decomposition: SpectralDecomposition) -> ExtensionModel:
    """Bundle training data with its decomposition, keeping kernel provenance."""
    if transition.n != data.n:
        raise ValidationError("dataset and transition sizes disagree")
    return ExtensionModel(points=data.points, decomposition=decomposition,
                          epsilon=transition.epsilon, diss_kind=transition.diss_kind)


def _query_blocks(model: ExtensionModel, q: np.ndarray):
    """Kernel rows exp(-D(x, .)/epsilon) of the checked queries ``q``, in
    row blocks of about ``QUERY_BLOCK_ENTRIES`` entries, so the m x n
    kernel matrix is never held whole.

    Yields ``(rows, weights, sums)``: the block's slice of the queries,
    its kernel rows in a buffer the caller may overwrite, and their row
    sums.  A row sum that underflowed to zero raises NumericalError
    naming the query's index in ``q``.
    """
    step = max(1, QUERY_BLOCK_ENTRIES // model.n)
    for lo in range(0, q.shape[0], step):
        weights = _point_dissimilarity(q[lo:lo + step], model.diss_kind, model.points)
        _gaussian_kernel(weights, model.epsilon, out=weights)
        sums = weights.sum(axis=1)
        if not (sums > 0).all():
            k = lo + int(np.argmin(sums > 0))
            raise NumericalError(
                f"kernel row for query point {k} underflowed to zero; "
                "the point is too far from the training data at this epsilon"
            )
        yield slice(lo, lo + step), weights, sums


def _checked_eigenvalues(model: ExtensionModel, r: int) -> np.ndarray:
    """The leading ``r`` eigenvalues, each checked against ``EIGENVALUE_FLOOR``:
    1/lambda_j scales the extension of psi_j, so it is undefined below it."""
    r = _check_pair_index(r, model.decomposition, "number of eigenfunctions r")
    lams = model.decomposition.eigenvalues[:r]
    small = np.flatnonzero(np.abs(lams) < EIGENVALUE_FLOOR)
    if small.size:
        j = small[0]
        raise NumericalError(
            f"eigenvalue {j + 1} has magnitude {abs(lams[j]):.3e} below the "
            f"{EIGENVALUE_FLOOR} floor; its extension is undefined")
    return lams


def extend_eigenfunctions(model: ExtensionModel, new_points: np.ndarray,
                          r: int) -> np.ndarray:
    """Nystrom estimates at m new points: row k is (psi_hat_j(x_k))_{j=1..r}.

    The queries are weighted in the row blocks of ``_query_blocks``.
    """
    lams = _checked_eigenvalues(model, r)
    q = check_array(new_points, (None, model.d), "query points")
    # contiguous: bitwise equal for a model storing only r pairs, and faster
    psi = np.ascontiguousarray(model.decomposition.eigenvectors[:, :lams.size])
    out = np.empty((q.shape[0], lams.size))
    for rows, weights, sums in _query_blocks(model, q):
        weights /= sums[:, None]
        np.matmul(weights, psi, out=out[rows])
    out /= lams[None, :]
    return out


def extend_embedding(model: ExtensionModel, new_points: np.ndarray,
                     t: int, r: int) -> np.ndarray:
    """Diffusion coordinates for m new points: row k is (lambda_j^t psi_hat_j(x_k))_j."""
    t = check_int(t, 1, None, "diffusion time t")
    psi_hat = extend_eigenfunctions(model, new_points, r)
    return psi_hat * (model.decomposition.eigenvalues[:r] ** t)[None, :]
