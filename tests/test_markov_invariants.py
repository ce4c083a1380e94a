"""Markov invariants on random point clouds: the stored kernel is exactly
symmetric and positive, the derived chain is row-stochastic with phi0 as its
stationary law, and ``decompose`` returns phi0-orthonormal eigenpairs of A."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sca.dataset import DataSet, Dissimilarity, pairwise_dissimilarity  # noqa: E402
from sca.markov import build_transition, default_epsilon, stationary_distribution  # noqa: E402
from sca.spectral import decompose  # noqa: E402

# (n, d, seed, per-axis log10 scales, epsilon as a multiple of the median heuristic)
CLOUDS = st.integers(3, 40).flatmap(lambda n: st.integers(1, 4).flatmap(lambda d: st.tuples(
    st.just(n), st.just(d), st.integers(0, 2**32 - 1),
    st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d),
    st.floats(0.5, 4.0))))
PROPERTY = settings(derandomize=True, max_examples=100, deadline=None, database=None)


def _transition(cloud):
    n, d, seed, log_scales, eps_scale = cloud
    points = np.random.default_rng(seed).normal(size=(n, d)) * 10.0 ** np.array(log_scales)
    data = DataSet(points=points, ids=tuple(str(i) for i in range(n)))
    dmat = pairwise_dissimilarity(data, Dissimilarity())
    return build_transition(dmat, default_epsilon(dmat) * eps_scale)


@PROPERTY
@given(CLOUDS)
def test_kernel_chain_and_stationary_law(cloud):
    transition = _transition(cloud)
    w = transition.kernel
    assert np.array_equal(w, w.T)
    assert (w > 0).all()
    a = transition.matrix
    assert np.abs(a.sum(axis=1) - 1.0).max() <= 1e-12
    phi0 = stationary_distribution(transition)
    assert np.abs(phi0 @ a - phi0).max() <= 1e-12


@PROPERTY
@given(CLOUDS)
def test_decompose_pairs_are_phi0_orthonormal_eigenpairs(cloud):
    transition = _transition(cloud)
    dec = decompose(transition)
    psi, lam = dec.eigenvectors, dec.eigenvalues
    residual = transition.matrix @ psi - psi * lam[None, :]
    assert np.linalg.norm(residual, axis=0).max() <= 1e-10
    phi0 = stationary_distribution(transition)
    gram = (psi * phi0[:, None]).T @ psi
    assert np.abs(gram - np.eye(lam.size)).max() <= 1e-9
