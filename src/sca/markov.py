"""Row-stochastic Markov kernel over observed data and its stationary law."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import _check_kind, _point_dissimilarity, frozen_array, frozen_field, \
    validate_dissimilarity
from .errors import NumericalError, ValidationError, check_real, square_matrix
from .kernels import BLOCK_ENTRIES


@dataclass(frozen=True)
class TransitionMatrix:
    """The chain A = S^{-1} W of a symmetric Gaussian kernel W, with its
    bandwidth provenance.

    The chain is stored once, as W and its row sums s: since W is
    symmetric they give the stationary distribution in closed form and
    the symmetric conjugate S^{-1/2} W S^{-1/2} that ``decompose``
    solves.  ``matrix`` derives A for the oracles that need it.
    Construction checks W's shape (not its entries), s and the bandwidth.
    """

    kernel: np.ndarray
    kernel_row_sums: np.ndarray
    epsilon: float
    diss_kind: str

    def __post_init__(self):
        object.__setattr__(self, "kernel", frozen_array(square_matrix(self.kernel, "kernel")))
        if not (frozen_field(self, "kernel_row_sums", (self.n,)) > 0).all():
            raise ValidationError("kernel_row_sums must be positive")
        object.__setattr__(self, "epsilon", check_real(self.epsilon, True, "epsilon"))

    @property
    def matrix(self) -> np.ndarray:
        """A_ij = W_ij / s_i, computed afresh on each read."""
        return self.kernel / self.kernel_row_sums[:, None]

    @property
    def n(self) -> int:
        return self.kernel.shape[0]


def build_transition(dmat: np.ndarray, epsilon: Optional[float] = None,
                     diss_kind: str = "sqeuclidean") -> TransitionMatrix:
    """Gaussian-kernel chain: W_ij = exp(-D_ij/eps), A_ij = W_ij / sum_k W_ik.

    The bandwidth eps is ``epsilon`` when given, else ``default_epsilon(D)``
    (the median off-diagonal dissimilarity), taken after D is validated so
    that a NaN in D is reported as non-finite.
    Any kernel entry that underflows to zero breaks the
    strictly-positive-chain invariant and raises NumericalError naming
    the offending row.  D itself is never written.  ``diss_kind`` names
    how D was computed and must be one of ``DISS_KINDS``.
    """
    _check_kind(diss_kind)
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
    dmat = square_matrix(_point_dissimilarity(points, diss_kind), "dissimilarity matrix")
    if not np.isfinite(dmat.max()):  # D >= 0: +inf or NaN makes the max non-finite
        raise ValidationError("dissimilarity matrix has non-finite entries")
    return _gaussian_chain(dmat, epsilon, diss_kind, out=dmat)


def _gaussian_chain(dmat: np.ndarray, epsilon: Optional[float], diss_kind: str,
                    out: Optional[np.ndarray] = None) -> TransitionMatrix:
    """The chain of a validated D; W is written to ``out``, or to a new buffer."""
    epsilon = default_epsilon(dmat) if epsilon is None else check_real(epsilon, True, "epsilon")
    # one n x n buffer, filled with exp(-D/eps) a row block at a time, each
    # block checked and summed while it is in cache, then frozen as it is
    weights = np.empty(dmat.shape) if out is None else out
    sums = np.empty(dmat.shape[0])
    step = max(1, BLOCK_ENTRIES // sums.size)
    for lo in range(0, sums.size, step):
        block = _gaussian_kernel(dmat[lo:lo + step], epsilon, weights[lo:lo + step])
        if not block.all():
            i, j = np.argwhere(block == 0.0)[0]
            raise NumericalError(
                f"kernel entry underflowed to zero at row {lo + i} (pair {lo + i},{j}); "
                f"epsilon={epsilon!r} is far too small for this dissimilarity scale")
        block.sum(axis=1, out=sums[lo:lo + step])
    weights.setflags(write=False)
    return TransitionMatrix(kernel=weights, kernel_row_sums=sums,
                            epsilon=epsilon, diss_kind=diss_kind)


def _gaussian_kernel(dmat: np.ndarray, epsilon: float,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    """exp(-D/eps) into ``out`` (which may be D) or a new buffer: the one
    kernel step of training and of queries, so a query at a training
    point gets that point's kernel row bit for bit."""
    weights = np.divide(dmat, -epsilon, out=out)
    return np.exp(weights, out=weights)


def default_epsilon(dmat: np.ndarray) -> float:
    """Median of the strictly-upper-triangle dissimilarities (scale heuristic).

    The triangle is gathered row by row into one buffer of n(n-1)/2
    entries, partitioned in place at its lower middle rank and its middle
    ranks averaged: bitwise ``np.median`` of the triangle, which is not
    called because its NaN check imports ``numpy.ma`` (12 ms and 0.6 MB
    on first use).
    """
    dmat = square_matrix(dmat, "dissimilarity matrix")
    upper = np.concatenate([dmat[i, i + 1:] for i in range(dmat.shape[0] - 1)])
    low, high = (upper.size - 1) // 2, upper.size // 2
    # one partition point: for an even count the upper middle rank is the
    # least entry above ``low``.  A NaN sorts after every number, so any
    # NaN lands in upper[low:], and it makes the median NaN
    upper.partition(low)
    if np.isnan(upper[low:]).any():
        med = np.nan
    elif high == low:
        med = float(upper[low])
    else:
        med = float((upper[low] + upper[low + 1:].min()) / 2)
    if not med > 0:
        raise ValidationError("off-diagonal dissimilarities are degenerate (median is "
                              "zero); are all points identical?")
    return med


def stationary_distribution(transition: TransitionMatrix) -> np.ndarray:
    """Dominant left eigenvector of A, as a read-only probability vector.

    Detailed balance of the symmetric Gaussian kernel gives it in closed
    form: phi0 is proportional to the kernel row sums.
    """
    s = transition.kernel_row_sums
    return frozen_array(s / s.sum())
