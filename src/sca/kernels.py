"""Squared-euclidean distance kernels in numpy.

Every kernel goes through one cache-blocked routine, ``_sq_dists``.  It
fills the output in row blocks of about ``BLOCK_ENTRIES`` entries and,
within a block, accumulates (q_k - x_k)^2 coordinate by coordinate in
the fixed order k = 0..d-1.  So each entry is the same scalar sum
whatever the shapes, which gives:

- results that are deterministic and independent of blocking;
- an exactly symmetric pairwise matrix with a zero diagonal, since
  (a - b)^2 and (b - a)^2 are bitwise equal;
- ``cross_sq_dists(x, x)`` bitwise equal to ``pairwise_sq_dists(x)``, so
  the kernel row of a query that coincides with a training point is the
  training row itself (the Nystrom training-point identity relies on it).

The public functions do not call each other.
"""

import numpy as np

# entries per row block: 32k float64 (256 KiB) per temporary
BLOCK_ENTRIES = 1 << 15


def _sq_dists(q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(m, n) squared distances between float64 rows, summed over coordinates
    in index order (d >= 1).  The first square is written straight into the
    output: it equals 0.0 + square bit for bit, as every square is >= +0.0."""
    m, d = q.shape
    n = x.shape[0]
    out = np.empty((m, n), dtype=np.float64)
    step = max(1, BLOCK_ENTRIES // max(n, 1))
    buf = np.empty((step, n), dtype=np.float64)
    xt = np.ascontiguousarray(x.T)
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        blk = out[lo:hi]
        np.subtract(q[lo:hi, 0, None], xt[0], out=blk)
        np.square(blk, out=blk)
        diff = buf[:hi - lo]
        for k in range(1, d):
            np.subtract(q[lo:hi, k, None], xt[k], out=diff)
            np.square(diff, out=diff)
            blk += diff
    return out


def pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    """Dense squared-euclidean distance matrix, exactly symmetric, zero diagonal."""
    return _sq_dists(x, x)


def cross_sq_dists(q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Squared-euclidean distances from each query row to each reference row."""
    return _sq_dists(q, x)


def assign_nearest(x: np.ndarray, centroids: np.ndarray):
    """Nearest-centroid labels and squared distances; ties go to the lowest index."""
    d2 = _sq_dists(x, centroids)
    labels = np.argmin(d2, axis=1)
    return labels.astype(np.int64), d2[np.arange(d2.shape[0]), labels]


def backend_name() -> str:
    return "numpy"
