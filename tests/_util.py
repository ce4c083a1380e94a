"""Shared helpers for the test suite."""

import numpy as np

from sca.dataset import DataSet, Dissimilarity, pairwise_dissimilarity
from sca.markov import build_transition
from sca.nystrom import build_extension
from sca.spectral import decompose, embed


def gaussian_dataset(n, d, seed, with_response=False):
    rng = np.random.default_rng(seed)
    response = rng.normal(size=n) if with_response else None
    return DataSet(points=rng.normal(size=(n, d)),
                   ids=tuple(str(i) for i in range(n)),
                   response=response)


def pipeline(data, diss_kind="sqeuclidean", epsilon=None):
    """data -> (dissimilarities, transition, decomposition)."""
    dmat = pairwise_dissimilarity(data, Dissimilarity(kind=diss_kind))
    transition = build_transition(dmat, epsilon, diss_kind=diss_kind)
    return dmat, transition, decompose(transition)


def full_pipeline(data, t=1, r=None, diss_kind="sqeuclidean", epsilon=None):
    """data -> (transition, decomposition, embedding, extension)."""
    _, transition, decomposition = pipeline(data, diss_kind=diss_kind, epsilon=epsilon)
    if r is None:
        r = decomposition.eigenvalues.size
    embedding = embed(decomposition, t, r)
    extension = build_extension(data, transition, decomposition)
    return transition, decomposition, embedding, extension


def healthy_rank(decomposition, floor=1e-6):
    """Largest r such that eigenfunctions 1..r all clear the magnitude floor.

    The Nystrom identity at training points amplifies the eigensolver
    residual by 1/|lambda|, so consistency checks at 1e-9 are meaningful
    only for eigenvalues comfortably above ~1e-6.
    """
    above = np.abs(decomposition.eigenvalues) >= floor
    r = 0
    for flag in above:
        if not flag:
            break
        r += 1
    return r
