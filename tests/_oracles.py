"""Brute-force oracles the tests check the pipeline against.

None of these is part of using ``sca``: each recomputes by a slow,
direct route what the library derives in closed form or from the
spectrum, so that the two can be compared.
"""

import numpy as np

from sca import kernels
from sca.errors import NumericalError, ValidationError, check_int
from sca.markov import TransitionMatrix
from sca.nystrom import ExtensionModel


def power_stationary(transition: TransitionMatrix, max_iter: int = 10000,
                     tol: float = 1e-13) -> np.ndarray:
    """Stationary law of A by left power iteration from the uniform vector."""
    a = transition.matrix
    v = np.full(transition.n, 1.0 / transition.n)
    for _ in range(max_iter):
        nxt = v @ a
        nxt = nxt / nxt.sum()
        if np.max(np.abs(nxt - v)) <= tol:
            return nxt
        v = nxt
    raise NumericalError(
        f"power iteration did not converge within {max_iter} iterations"
    )


def diffusion_distance(transition: TransitionMatrix, phi0: np.ndarray,
                       t: int, i: int, j: int) -> float:
    """Brute-force diffusion distance between observations i and j.

    Computes sqrt( sum_z (A_t(x_i, z) - A_t(x_j, z))^2 / phi0(z) ) with
    A_t obtained by explicit matrix powering.  This is the oracle route
    and is never approximated.
    """
    t = check_int(t, 1, None, "diffusion time t")
    n = transition.n
    if not (0 <= i < n and 0 <= j < n):
        raise ValidationError(f"indices ({i}, {j}) out of range for n={n}")
    a_t = np.linalg.matrix_power(transition.matrix, t)
    diff = a_t[i] - a_t[j]
    return float(np.sqrt(np.sum(diff * diff / phi0)))


def diffusion_distance_matrix(transition: TransitionMatrix, phi0: np.ndarray,
                              t: int) -> np.ndarray:
    """All-pairs version of :func:`diffusion_distance` (same matrix powering)."""
    t = check_int(t, 1, None, "diffusion time t")
    a_t = np.linalg.matrix_power(transition.matrix, t)
    scaled = a_t / np.sqrt(phi0)[None, :]
    n = transition.n
    out = np.zeros((n, n))
    for i in range(n - 1):
        diff = scaled[i + 1:] - scaled[i]
        out[i, i + 1:] = np.sqrt(np.sum(diff * diff, axis=1))
    return out + out.T


def kernel_weights(model: ExtensionModel, queries: np.ndarray) -> np.ndarray:
    """The whole m x n matrix of convex kernel weights A(x, .) of the
    queries, computed out of place in one piece."""
    dists = kernels.cross_sq_dists(queries, model.points)
    if model.diss_kind == "euclidean":
        dists = np.sqrt(dists)
    weights = np.exp(-dists / model.epsilon)
    return weights / weights.sum(axis=1)[:, None]


def pca_scores(points: np.ndarray, r=None) -> np.ndarray:
    """Centered principal-component scores, the linear baseline basis."""
    pts = np.asarray(points, dtype=np.float64)
    centered = pts - pts.mean(axis=0)
    u, s, _ = np.linalg.svd(centered, full_matrices=False)
    scores = u * s
    return scores if r is None else scores[:, :r]
