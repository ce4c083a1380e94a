"""The public surface: what ``sca`` exports, and what it no longer does."""

import dataclasses
import inspect
import re
from types import SimpleNamespace

import numpy as np
import pytest

import sca
from sca import cli, markov, nystrom, regression, spectral, synthetic
from sca.dataset import Dissimilarity, pairwise_dissimilarity
from sca.errors import ValidationError
from sca.markov import build_transition, transition_from_points
from sca.nystrom import ExtensionModel, extend_eigenfunctions, extend_embedding
from sca.prototypes import (ComponentLibrary, PrototypeSet, diffusion_kmeans, fit_mixture,
                            grid_prototypes, quantization_benchmark)
from sca.regression import EigenbasisRegression, fit, kfold_indices
from sca.spectral import DiffusionEmbedding, SpectralDecomposition, decompose, embed
from sca.synthetic import GeneratorSpec

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
     r"number of coefficients p \(the decomposition stores 5 nontrivial eigenpairs\) "
     r"must lie in \[1, 5\], got 9"),
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


@pytest.fixture(scope="module")
def pipeline():
    """A labeled 30-point pipeline and a 12-component library."""
    data = gaussian_dataset(30, 2, 5, with_response=True)
    transition, dec, emb, ext = full_pipeline(data)
    lib = synthetic.generate(GeneratorSpec(kind="component-families", n=12, seed=1))
    return SimpleNamespace(data=data, transition=transition, dec=dec, emb=emb, ext=ext,
                           lib=lib, dmat=pairwise_dissimilarity(data, Dissimilarity()))


# None comes last: where it selects a default the sites take the rest
_NOT_INTEGERS = (1.5, True, np.float64(1.0), None)
_NOT_REALS = ("1.0", 1 + 0j, True, None)


def _regression_with(f, **fields):
    return EigenbasisRegression(**{
        "intercept": 0.0, "coefficients": np.ones(2), "cv_risk_curve": np.ones(5),
        "extension": f.ext, "folds": 2, "seed": 0, **fields})


def _library_call(f, method, v):
    return method(f.lib.spectra, f.lib.ages, f.lib.metallicities, ref_index=v)


# (site, argument name that starts the message, call passing v as that
# argument, values it refuses)
_ARGUMENT_SITES = [
    ("decompose-r", "number of eigenpairs r",
     lambda f, v: decompose(f.transition, v), _NOT_INTEGERS[:-1]),
    ("embed-t", "diffusion time t", lambda f, v: embed(f.dec, v, 3), _NOT_INTEGERS),
    ("embed-r", "embedding dimension r", lambda f, v: embed(f.dec, 1, v), _NOT_INTEGERS),
    ("embedding-t", "diffusion time t",
     lambda f, v: DiffusionEmbedding(f.emb.coords, v), _NOT_INTEGERS),
    ("extend-embedding-t", "diffusion time t",
     lambda f, v: extend_embedding(f.ext, f.data.points[:2], v, 3), _NOT_INTEGERS),
    ("extend-eigenfunctions-r", "number of eigenfunctions r",
     lambda f, v: extend_eigenfunctions(f.ext, f.data.points[:2], v), _NOT_INTEGERS),
    ("kfold-folds", "folds", lambda f, v: kfold_indices(10, v, 0), _NOT_INTEGERS),
    ("kfold-seed", "seed", lambda f, v: kfold_indices(10, 2, v), _NOT_INTEGERS),
    ("fit-folds", "folds", lambda f, v: fit(f.data, f.emb, f.ext, folds=v), _NOT_INTEGERS),
    ("fit-seed", "seed", lambda f, v: fit(f.data, f.emb, f.ext, seed=v), _NOT_INTEGERS),
    ("regression-folds", "folds", lambda f, v: _regression_with(f, folds=v), _NOT_INTEGERS),
    ("regression-seed", "seed", lambda f, v: _regression_with(f, seed=v), _NOT_INTEGERS),
    ("kmeans-k", "k", lambda f, v: diffusion_kmeans(f.lib, v), _NOT_INTEGERS),
    ("kmeans-seed", "seed", lambda f, v: diffusion_kmeans(f.lib, 2, seed=v), _NOT_INTEGERS),
    ("grid-k", "k", lambda f, v: grid_prototypes(f.lib, v), _NOT_INTEGERS),
    ("library-ref-index", "ref_index",
     lambda f, v: _library_call(f, ComponentLibrary, v), _NOT_INTEGERS + (0.0,)),
    ("normalize-ref-index", "ref_index",
     lambda f, v: _library_call(f, ComponentLibrary.normalize, v), _NOT_INTEGERS),
    ("benchmark-trials", "n_trials",
     lambda f, v: quantization_benchmark(f.lib, 2, v, 0.01, 0), _NOT_INTEGERS),
    ("benchmark-noise", "noise_sd",
     lambda f, v: quantization_benchmark(f.lib, 2, 1, v, 0), _NOT_REALS),
    ("mixture-noise", "noise_sd",
     lambda f, v: fit_mixture(grid_prototypes(f.lib, 2), f.lib.spectra[0], noise_sd=v),
     _NOT_REALS),
    ("spec-n", "n", lambda f, v: GeneratorSpec(kind="swiss-roll", n=v), _NOT_INTEGERS),
    ("spec-seed", "seed",
     lambda f, v: GeneratorSpec(kind="swiss-roll", n=30, seed=v), _NOT_INTEGERS),
    ("spec-families", "n_families",
     lambda f, v: GeneratorSpec(kind="component-families", n=30, n_families=v),
     _NOT_INTEGERS),
    ("spec-bins", "n_bins",
     lambda f, v: GeneratorSpec(kind="component-families", n=30, n_bins=v),
     _NOT_INTEGERS + (8.5,)),
    ("spec-noise", "noise_sd",
     lambda f, v: GeneratorSpec(kind="swiss-roll", n=30, noise_sd=v), _NOT_REALS),
    ("spec-separation", "separation",
     lambda f, v: GeneratorSpec(kind="degenerate-components", n=30, separation=v),
     _NOT_REALS),
    ("transition-epsilon", "epsilon",
     lambda f, v: build_transition(f.dmat, v), _NOT_REALS[:-1]),
    ("points-epsilon", "epsilon",
     lambda f, v: transition_from_points(f.data.points, epsilon=v), _NOT_REALS[:-1]),
    ("extension-epsilon", "epsilon",
     lambda f, v: ExtensionModel(f.data.points, f.dec, v, "sqeuclidean"), _NOT_REALS),
]
INVALID_ARGUMENTS = [(f"{site}={value!r}", what, call, value)
                     for site, what, call, values in _ARGUMENT_SITES for value in values]


@pytest.mark.parametrize("what, call, value", [c[1:] for c in INVALID_ARGUMENTS],
                         ids=[c[0] for c in INVALID_ARGUMENTS])
def test_scalar_arguments_of_the_wrong_type_are_refused(pipeline, what, call, value):
    """A bool, float, None, str or complex where an integer or a real number
    belongs is a ValidationError that names the argument, never a numpy
    error or a silent 1."""
    with pytest.raises(ValidationError, match=f"^{re.escape(what)} "):
        call(pipeline, value)
