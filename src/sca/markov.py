"""Row-stochastic Markov kernel over observed data and its stationary law."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import _point_dissimilarity, frozen_array, validate_dissimilarity
from .errors import NumericalError, ValidationError


@dataclass(frozen=True)
class TransitionMatrix:
    """The chain A = S^{-1} W of a symmetric Gaussian kernel W, with its
    bandwidth provenance.

    The chain is stored once, as W and its row sums s: since W is
    symmetric they give the stationary distribution in closed form and
    the symmetric conjugate S^{-1/2} W S^{-1/2} that ``decompose``
    solves.  ``matrix`` derives A for the oracles that need it.
    """

    kernel: np.ndarray
    kernel_row_sums: np.ndarray
    epsilon: float
    diss_kind: str

    def __post_init__(self):
        object.__setattr__(self, "kernel", frozen_array(self.kernel))
        object.__setattr__(self, "kernel_row_sums", frozen_array(self.kernel_row_sums))

    @property
    def matrix(self) -> np.ndarray:
        """A_ij = W_ij / s_i, computed afresh on each read."""
        return self.kernel / self.kernel_row_sums[:, None]

    @property
    def n(self) -> int:
        return self.kernel.shape[0]


@dataclass(frozen=True)
class StationaryDistribution:
    """Length-n probability vector phi0 with phi0^T A = phi0^T."""

    probabilities: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probabilities", frozen_array(self.probabilities))


def build_transition(dmat: np.ndarray, epsilon: Optional[float] = None,
                     diss_kind: str = "sqeuclidean") -> TransitionMatrix:
    """Gaussian-kernel chain: W_ij = exp(-D_ij/eps), A_ij = W_ij / sum_k W_ik.

    The bandwidth eps is ``epsilon`` when given, else ``default_epsilon(D)``
    (the median off-diagonal dissimilarity), taken after D is validated so
    that a NaN in D is reported as non-finite.
    Any kernel entry that underflows to zero breaks the
    strictly-positive-chain invariant and raises NumericalError naming
    the offending row.  D itself is never written.
    """
    return _gaussian_chain(validate_dissimilarity(dmat), epsilon, diss_kind)


def transition_from_points(points: np.ndarray, diss_kind: str = "sqeuclidean",
                           epsilon: Optional[float] = None) -> TransitionMatrix:
    """``build_transition`` on the ``diss_kind`` dissimilarities of ``points``.

    D is computed into a buffer this function owns and exponentiated in
    place into W, so beside W only the triangle ``default_epsilon`` takes
    is ever held (1.5 n x n at the peak).  The chain is bitwise the one
    ``build_transition`` builds on ``pairwise_dissimilarity`` of the same
    points and kind.  D is symmetric, non-negative and zero on the
    diagonal by ``kernels``' construction, so only its finiteness is
    checked: finite coordinates far enough apart overflow.
    """
    dmat = _point_dissimilarity(points, diss_kind)
    if not np.isfinite(dmat).all():
        raise ValidationError("dissimilarity matrix has non-finite entries")
    return _gaussian_chain(dmat, epsilon, diss_kind, out=dmat)


def _gaussian_chain(dmat: np.ndarray, epsilon: Optional[float], diss_kind: str,
                    out: Optional[np.ndarray] = None) -> TransitionMatrix:
    """The chain of a validated D; W is written to ``out``, or to a new buffer."""
    if dmat.shape[0] < 2:
        raise ValidationError("need at least 2 observations")
    if epsilon is None:
        epsilon = default_epsilon(dmat)
    elif not 0 < epsilon < np.inf:
        raise ValidationError(f"epsilon must be a positive finite real, got {epsilon}")
    # one n x n buffer: exp(-D/eps) computed in place, then frozen as it is
    weights = np.divide(dmat, -epsilon, out=out)
    np.exp(weights, out=weights)
    if not weights.all():
        i, j = np.argwhere(weights == 0.0)[0]
        raise NumericalError(
            f"kernel entry underflowed to zero at row {i} (pair {i},{j}); "
            f"epsilon={epsilon!r} is far too small for this dissimilarity scale"
        )
    weights.setflags(write=False)
    return TransitionMatrix(kernel=weights, kernel_row_sums=weights.sum(axis=1),
                            epsilon=float(epsilon), diss_kind=diss_kind)


def default_epsilon(dmat: np.ndarray) -> float:
    """Median of the strictly-upper-triangle dissimilarities (scale heuristic).

    The triangle is gathered row by row into one buffer of n(n-1)/2
    entries, partitioned in place and its middle ranks averaged: bitwise
    ``np.median`` of the triangle, which is not called because its NaN
    check imports ``numpy.ma`` (12 ms and 0.6 MB on first use).
    """
    dmat = np.asarray(dmat, dtype=np.float64)
    n = dmat.shape[0]
    if n < 2:
        raise ValidationError("need at least 2 observations")
    upper = np.concatenate([dmat[i, i + 1:] for i in range(n - 1)])
    low, high = (upper.size - 1) // 2, upper.size // 2
    # a NaN is partitioned to the end, and makes the median NaN
    upper.partition([low, high, -1])
    med = np.nan if np.isnan(upper[-1]) else float(np.mean(upper[low:high + 1]))
    if not med > 0:
        raise ValidationError(
            "off-diagonal dissimilarities are degenerate (median is zero); "
            "are all points identical?"
        )
    return med


def stationary_distribution(transition: TransitionMatrix) -> StationaryDistribution:
    """Dominant left eigenvector of A, normalized to a probability vector.

    Detailed balance of the symmetric Gaussian kernel gives it in closed
    form: phi0 is proportional to the kernel row sums.
    """
    s = transition.kernel_row_sums
    return StationaryDistribution(probabilities=s / s.sum())
