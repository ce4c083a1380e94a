"""Distance kernels against a scalar-loop oracle, bitwise, across block edges."""

import numpy as np
import pytest

from sca import kernels


def _oracle(q, x):
    # one scalar accumulation per entry, coordinates in index order
    m, d = q.shape
    n = x.shape[0]
    out = np.empty((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for k in range(d):
                diff = q[i, k] - x[j, k]
                acc += diff * diff
            out[i, j] = acc
    return out


# block step is BLOCK_ENTRIES // n rows; these shapes put m off a multiple
# of the step, n above BLOCK_ENTRIES (step 1), d = 1, d >= 8, m = 1 and m = 0
@pytest.mark.parametrize("m,n,d", [
    (7, 5000, 3),                       # step 6: a partial last block
    (3, kernels.BLOCK_ENTRIES + 5, 2),  # step 1
    (40, 900, 1),
    (30, 20, 9),
    (12, 16, 12),
    (1, 300, 4),
    (0, 10, 3),
])
def test_cross_matches_scalar_oracle(m, n, d):
    rng = np.random.default_rng(m * 1000 + d)
    q = rng.normal(size=(m, d))
    x = rng.normal(size=(n, d))
    # the first square is written straight into the output, which is bit
    # for bit the oracle's 0.0 + square: check the bytes, with 0.0 and -0.0
    # coordinates and a query equal to a reference row
    x[:2, 0] = 0.0, -0.0
    if m:
        q[0, 0] = -0.0
        x[2] = q[0]
    assert kernels.cross_sq_dists(q, x).tobytes() == _oracle(q, x).tobytes()


@pytest.mark.parametrize("n,d", [(1, 3), (37, 1), (60, 8), (200, 3)])
def test_pairwise_matches_scalar_oracle(n, d):
    x = np.random.default_rng(n + d).normal(size=(n, d))
    assert np.array_equal(kernels.pairwise_sq_dists(x), _oracle(x, x))


def test_cross_on_training_rows_is_bitwise_pairwise():
    # the Nystrom training-point identity relies on query kernel rows
    # reproducing the pairwise rows exactly; n = 500 spans eight blocks
    x = np.random.default_rng(3).normal(size=(500, 5))
    assert kernels.BLOCK_ENTRIES // x.shape[0] < x.shape[0] // 4
    assert np.array_equal(kernels.pairwise_sq_dists(x), kernels.cross_sq_dists(x, x))


def test_pairwise_structure():
    x = np.random.default_rng(0).normal(size=(300, 3))
    d2 = kernels.pairwise_sq_dists(x)
    assert np.array_equal(d2, d2.T)
    assert (np.diag(d2) == 0).all()
    assert (d2 >= 0).all()


def test_assign_nearest_ties_take_lowest_index():
    x = np.array([[0.0, 0.0]])
    centroids = np.array([[1.0, 0.0], [-1.0, 0.0]])  # equidistant
    labels, dists = kernels.assign_nearest(x, centroids)
    assert labels[0] == 0
    assert dists[0] == 1.0


def test_assign_nearest_matches_oracle():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(50, 4))
    c = rng.normal(size=(6, 4))
    labels, dists = kernels.assign_nearest(x, c)
    d2 = _oracle(x, c)
    assert np.array_equal(labels, np.argmin(d2, axis=1))
    assert np.array_equal(dists, d2.min(axis=1))
    assert labels.dtype == np.int64
