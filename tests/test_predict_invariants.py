"""Predictions do not depend on how the queries are batched: the same rows
answered in one call, one at a time, or in blocks of any sizes, including
blocks that straddle ``nystrom.QUERY_BLOCK_ENTRIES``, are bitwise equal."""

import functools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sca import nystrom  # noqa: E402
from sca.regression import fit, predict  # noqa: E402
from sca.synthetic import GeneratorSpec, generate  # noqa: E402

from _util import full_pipeline  # noqa: E402

N = 40
# rows per kernel block of a model on N points
STEP = nystrom.QUERY_BLOCK_ENTRIES // N
PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None)


@functools.lru_cache(maxsize=None)
def _case(diss_kind):
    """A fitted model, queries filling 2.5 kernel blocks, and their answers
    from one call."""
    train = generate(GeneratorSpec(kind="swiss-roll", n=N, noise_sd=0.05, seed=3))
    _, _, embedding, extension = full_pipeline(train, r=8, diss_kind=diss_kind)
    model = fit(train, embedding, extension, folds=5, seed=1)
    queries = train.points[np.random.default_rng(4).integers(0, N, 5 * STEP // 2)]
    queries = queries + np.random.default_rng(5).normal(scale=0.5, size=queries.shape)
    return model, queries, predict(model, queries)


@PROPERTY
@given(st.sampled_from(["sqeuclidean", "euclidean"]),
       st.lists(st.integers(1, 2 * STEP), min_size=1, max_size=4),
       st.lists(st.integers(0, 5 * STEP // 2 - 1), max_size=10))
def test_predict_ignores_batching(diss_kind, sizes, singles):
    model, queries, whole = _case(diss_kind)
    cuts = np.minimum(np.cumsum([0] + sizes), len(queries))
    blocks = [predict(model, queries[lo:hi]) for lo, hi in zip(cuts[:-1], cuts[1:])]
    assert np.array_equal(np.concatenate(blocks), whole[:cuts[-1]])
    one_at_a_time = [predict(model, queries[i:i + 1])[0] for i in singles]
    assert np.array_equal(one_at_a_time, whole[singles])
