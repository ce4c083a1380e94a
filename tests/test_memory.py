"""Memory budget of the dense training stages.

tracemalloc sees numpy's data buffers, so the peak a stage reaches above
its starting point, in units of one n x n float64 matrix, counts the
dense buffers it holds at once (its result included).
"""

import tracemalloc

import pytest

from sca import spectral
from sca.dataset import DataSet, Dissimilarity, pairwise_dissimilarity
from sca.markov import build_transition, default_epsilon
from sca.synthetic import GeneratorSpec, generate

N = 2000


@pytest.fixture(scope="module")
def dmat():
    points = generate(GeneratorSpec(kind="swiss-roll", n=N, noise_sd=0.05, seed=1)).points
    data = DataSet(points=points, ids=tuple(map(str, range(N))))
    return pairwise_dissimilarity(data, Dissimilarity())


def _peak_in_matrices(fn, *args):
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, (peak - start) / (N * N * 8)


def test_default_epsilon_holds_half_a_matrix(dmat):
    # the n(n-1)/2 triangle, partitioned in place
    _, peak = _peak_in_matrices(default_epsilon, dmat)
    assert peak <= 0.6, peak


def test_build_transition_holds_one_matrix(dmat):
    # one buffer, exponentiated in place and kept as it is
    transition, peak = _peak_in_matrices(build_transition, dmat, default_epsilon(dmat))
    assert transition.n == N
    assert peak <= 1.1, peak


def test_krylov_decompose_never_forms_the_conjugate(dmat, monkeypatch):
    # the Krylov path applies W with diagonal scalings; what it holds
    # beside W is the n x 3(r + 9) basis [X, MX, M^2X] and its image
    transition = build_transition(dmat, default_epsilon(dmat))

    def no_eigh(sym, wanted):
        raise AssertionError("full eigh fallback taken")
    monkeypatch.setattr(spectral, "_eigh_pairs", no_eigh)
    decomposition, peak = _peak_in_matrices(spectral.decompose, transition)
    assert decomposition.eigenvalues.size == spectral.DEFAULT_PAIRS
    assert peak <= 0.75, peak
