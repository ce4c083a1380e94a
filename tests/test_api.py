"""The public surface: what ``sca`` exports, and what it no longer does."""

import dataclasses
import inspect

import numpy as np
import pytest

import sca
from sca import cli, markov, nystrom, regression, spectral, synthetic
from sca.errors import ValidationError
from sca.nystrom import ExtensionModel
from sca.prototypes import PrototypeSet
from sca.regression import EigenbasisRegression
from sca.spectral import SpectralDecomposition

from _util import full_pipeline, gaussian_dataset


def test_every_exported_name_resolves():
    assert len(sca.__all__) == len(set(sca.__all__)) == 33
    for name in sca.__all__:
        assert getattr(sca, name) is not None, name


@pytest.mark.parametrize("module, name", [
    (spectral, "diffusion_distance"),
    (spectral, "diffusion_distance_matrix"),
    (regression, "pca_scores"),
    (nystrom, "extend_eigenfunction"),
    (nystrom, "kernel_weights"),
    (markov, "StationaryDistribution"),
    (cli, "config_argv"),
])
def test_moved_and_deleted_names_are_gone(module, name):
    # the oracles live in tests/_oracles.py and config_argv in
    # tests/test_cli.py; extend_eigenfunction, kernel_weights and
    # StationaryDistribution are deleted
    assert not hasattr(module, name)
    assert not hasattr(sca, name)
    assert name not in sca.__all__


def test_stationary_distribution_takes_only_the_chain():
    params = inspect.signature(markov.stationary_distribution).parameters
    assert list(params) == ["transition"]


def test_generator_spec_has_no_height_or_length():
    fields = [f.name for f in dataclasses.fields(synthetic.GeneratorSpec)]
    assert fields == ["kind", "n", "noise_sd", "seed", "n_families", "n_bins", "separation"]


def _pipeline_parts():
    """(points, decomposition with 5 pairs, extension) of 30 training points."""
    data = gaussian_dataset(30, 2, 5)
    _, dec, _, ext = full_pipeline(data)
    dec = SpectralDecomposition(dec.eigenvalues[:5], dec.eigenvectors[:, :5])
    return data.points, dec, ExtensionModel(data.points, dec, ext.epsilon, ext.diss_kind)


def _decomposition(vals, vecs):
    return lambda pts, dec, ext: SpectralDecomposition(vals(dec), vecs(dec))


def _extension(points=None, rows=None, epsilon=1.0):
    def build(pts, dec, ext):
        if rows is not None:
            dec = SpectralDecomposition(dec.eigenvalues, np.ones((rows, 5)))
        return ExtensionModel(pts if points is None else points(pts), dec, epsilon,
                              "sqeuclidean")
    return build


def _regression(coefficients, intercept=0.0):
    return lambda pts, dec, ext: EigenbasisRegression(
        intercept=intercept, coefficients=coefficients, cv_risk_curve=np.ones(5),
        extension=ext, folds=2, seed=0)


def _prototypes(vectors, log_ages=None):
    k = len(vectors)
    return lambda *_: PrototypeSet(
        prototypes=vectors, log_metallicities=np.zeros(k),
        log_ages=np.zeros(k) if log_ages is None else log_ages)


# (case id, builder of the invalid object from a valid pipeline, message)
INVALID_OBJECTS = [
    ("extension-decomposition-rows", _extension(rows=40),
     r"decomposition's n = 40 rows, got \(30, 2\)"),
    ("extension-points-1d", _extension(points=np.ravel), "n x d"),
    ("extension-points-nan", _extension(points=lambda p: np.where(p > 1, np.nan, p)),
     "points contain non-finite"),
    ("extension-epsilon-negative", _extension(epsilon=-1.0),
     "epsilon must be a positive finite real, got -1.0"),
    ("extension-epsilon-inf", _extension(epsilon=np.inf), "epsilon"),
    ("extension-epsilon-nan", _extension(epsilon=np.nan), "epsilon"),
    ("decomposition-eigenvectors-columns",
     _decomposition(lambda d: d.eigenvalues, lambda d: d.eigenvectors[:, :4]),
     r"got \(30, 4\) for eigenvalues \(5,\)"),
    ("decomposition-no-pairs",
     _decomposition(lambda d: d.eigenvalues[:0], lambda d: d.eigenvectors[:, :0]), "k >= 1"),
    ("decomposition-as-many-pairs-as-points",
     _decomposition(lambda d: np.ones(30), lambda d: np.eye(30)), "n > k"),
    ("decomposition-eigenvalues-2d",
     _decomposition(lambda d: d.eigenvalues[None], lambda d: d.eigenvectors), "n x k"),
    ("decomposition-eigenvalue-nan",
     _decomposition(lambda d: d.eigenvalues * np.nan, lambda d: d.eigenvectors), "non-finite"),
    ("decomposition-eigenvectors-inf",
     _decomposition(lambda d: d.eigenvalues, lambda d: d.eigenvectors * np.inf), "non-finite"),
    ("regression-coefficients-beyond-pairs", _regression(np.ones(9)),
     r"number of coefficients p must lie in \[1, 5\] \(the decomposition stores 5"),
    ("regression-no-coefficients", _regression(np.ones(0)), "got 0"),
    ("regression-coefficient-nan", _regression(np.array([1.0, np.nan])), "must be finite"),
    ("regression-intercept-inf", _regression(np.ones(2), intercept=np.inf), "must be finite"),
    ("prototypes-none", _prototypes(np.empty((0, 4))), "prototype set is empty"),
    ("prototypes-nan", _prototypes(np.full((2, 4), np.nan)), "non-finite"),
    ("prototypes-log-age-inf", _prototypes(np.ones((2, 4)), np.array([0.0, np.inf])),
     "non-finite"),
]


@pytest.mark.parametrize("build, message", [c[1:] for c in INVALID_OBJECTS],
                         ids=[c[0] for c in INVALID_OBJECTS])
def test_types_reject_invalid_fields_on_construction(build, message):
    """Each pipeline type checks its own invariants, whoever builds it."""
    parts = _pipeline_parts()
    with pytest.raises(ValidationError, match=message):
        build(*parts)
