"""The public surface: what ``sca`` exports, and what it no longer does."""

import dataclasses
import inspect
import re
from types import SimpleNamespace

import numpy as np
import pytest

import sca
from sca import cli, markov, nystrom, regression, spectral, synthetic
from sca.dataset import DataSet, Dissimilarity, pairwise_dissimilarity
from sca.errors import ValidationError
from sca.markov import build_transition, default_epsilon, transition_from_points
from sca.nystrom import ExtensionModel, extend_eigenfunctions, extend_embedding
from sca.prototypes import (ComponentLibrary, PrototypeSet, diffusion_kmeans, fit_mixture,
                            grid_prototypes, project_to_simplex, quantization_benchmark)
from sca.regression import EigenbasisRegression, fit, kfold_indices, predict
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
     r"^points must have shape \(40, any\), got \(30, 2\)"),
    ("extension-points-1d", _extension(points=np.ravel),
     r"^points must have shape \(30, any\), got \(60,\)"),
    ("extension-points-nan", _extension(points=lambda p: np.where(p > 1, np.nan, p)),
     "^points has non-finite entries"),
    ("extension-epsilon-negative", _extension(epsilon=-1.0),
     "epsilon must be a positive finite real, got -1.0"),
    ("extension-epsilon-inf", _extension(epsilon=np.inf), "epsilon"),
    ("extension-epsilon-nan", _extension(epsilon=np.nan), "epsilon"),
    ("decomposition-eigenvectors-columns",
     _decomposition(lambda d: d.eigenvalues, lambda d: d.eigenvectors[:, :4]),
     r"^eigenvectors must have shape \(any, 5\), got \(30, 4\)"),
    ("decomposition-no-pairs",
     _decomposition(lambda d: d.eigenvalues[:0], lambda d: d.eigenvectors[:, :0]), "k >= 1"),
    ("decomposition-as-many-pairs-as-points",
     _decomposition(lambda d: np.ones(30), lambda d: np.eye(30)), "n > k"),
    ("decomposition-eigenvalues-2d",
     _decomposition(lambda d: d.eigenvalues[None], lambda d: d.eigenvectors),
     r"^eigenvalues must have shape \(any,\), got \(1, 5\)"),
    ("decomposition-eigenvalue-nan",
     _decomposition(lambda d: d.eigenvalues * np.nan, lambda d: d.eigenvectors), "non-finite"),
    ("decomposition-eigenvectors-inf",
     _decomposition(lambda d: d.eigenvalues, lambda d: d.eigenvectors * np.inf), "non-finite"),
    ("regression-coefficients-beyond-pairs", _regression(np.ones(9)),
     r"number of coefficients p \(the decomposition stores 5 nontrivial eigenpairs\) "
     r"must lie in \[1, 5\], got 9"),
    ("regression-no-coefficients", _regression(np.ones(0)), "got 0"),
    ("regression-coefficient-nan", _regression(np.array([1.0, np.nan])),
     "^coefficients has non-finite entries"),
    ("regression-intercept-inf", _regression(np.ones(2), intercept=np.inf),
     "^intercept has non-finite entries"),
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
    """A labeled 30-point pipeline, a 12-component library and its 2 K-means prototypes."""
    data = gaussian_dataset(30, 2, 5, with_response=True)
    transition, dec, emb, ext = full_pipeline(data)
    lib = synthetic.generate(GeneratorSpec(kind="component-families", n=12, seed=1))
    return SimpleNamespace(data=data, transition=transition, dec=dec, emb=emb, ext=ext,
                           lib=lib, dmat=pairwise_dissimilarity(data, Dissimilarity()),
                           protos=diffusion_kmeans(lib, 2))


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


def _first_set(a, value):
    a.flat[0] = value
    return a


# each refused array made from a valid float64 array ``a``
_NOT_ARRAYS = {
    "text": lambda a: _first_set(a.astype(object), "a").tolist(),
    "complex": lambda a: _first_set(a.astype(complex), 1j),
    "bool": lambda a: a > 0,
    "None": lambda a: None,
    "ragged": lambda a: [a.tolist(), [a.tolist()]],
    "ndim": lambda a: a[None],
    "rows": lambda a: a[:-1],
    "columns": lambda a: a[..., :-1],
    "nan": lambda a: _first_set(a.copy(), np.nan),
    "inf": lambda a: _first_set(a.copy(), np.inf),
}
# every site refuses these; a site whose length along an axis is fixed also
# refuses a wrong length there ("rows" or "columns"); None is not refused
# where it means the argument is not given
_ANY_ARRAY = ("text", "complex", "bool", "None", "ragged", "ndim", "nan", "inf")
_GIVEN_ARRAY = tuple(kind for kind in _ANY_ARRAY if kind != "None")

# (site, argument name that starts the message, the valid array, call passing
# v as that argument, the refused kinds)
_ARRAY_SITES = [
    ("dataset-points", "points", lambda f: f.data.points,
     lambda f, v: DataSet(v, f.data.ids), _ANY_ARRAY),
    ("dataset-response", "response", lambda f: f.data.response,
     lambda f, v: DataSet(f.data.points, f.data.ids, v), _GIVEN_ARRAY + ("rows",)),
    ("transition-points", "points", lambda f: f.data.points,
     lambda f, v: transition_from_points(v), _ANY_ARRAY),
    ("extension-points", "points", lambda f: f.data.points,
     lambda f, v: ExtensionModel(v, f.dec, f.ext.epsilon, "sqeuclidean"),
     _ANY_ARRAY + ("rows",)),
    ("extend-queries", "query points", lambda f: f.data.points[:2],
     lambda f, v: extend_eigenfunctions(f.ext, v, 3), _ANY_ARRAY + ("columns",)),
    ("predict-queries", "query points", lambda f: f.data.points[:2],
     lambda f, v: predict(_regression_with(f), v), _ANY_ARRAY + ("columns",)),
    ("library-spectra", "spectra", lambda f: f.lib.spectra,
     lambda f, v: ComponentLibrary(v, f.lib.ages, f.lib.metallicities), _ANY_ARRAY),
    ("library-ages", "ages", lambda f: f.lib.ages,
     lambda f, v: ComponentLibrary(f.lib.spectra, v, f.lib.metallicities),
     _ANY_ARRAY + ("rows",)),
    ("library-metallicities", "metallicities", lambda f: f.lib.metallicities,
     lambda f, v: ComponentLibrary(f.lib.spectra, f.lib.ages, v), _ANY_ARRAY + ("rows",)),
    ("normalize-spectra", "spectra", lambda f: f.lib.spectra,
     lambda f, v: ComponentLibrary.normalize(v, f.lib.ages, f.lib.metallicities), _ANY_ARRAY),
    ("normalize-ages", "ages", lambda f: f.lib.ages,
     lambda f, v: ComponentLibrary.normalize(f.lib.spectra, v, f.lib.metallicities),
     _ANY_ARRAY + ("rows",)),
    ("normalize-metallicities", "metallicities", lambda f: f.lib.metallicities,
     lambda f, v: ComponentLibrary.normalize(f.lib.spectra, f.lib.ages, v),
     _ANY_ARRAY + ("rows",)),
    ("prototypes", "prototypes", lambda f: f.protos.prototypes,
     lambda f, v: dataclasses.replace(f.protos, prototypes=v), _ANY_ARRAY),
    ("prototypes-log-ages", "log_ages", lambda f: f.protos.log_ages,
     lambda f, v: dataclasses.replace(f.protos, log_ages=v), _ANY_ARRAY + ("rows",)),
    ("prototypes-log-metallicities", "log_metallicities", lambda f: f.protos.log_metallicities,
     lambda f, v: dataclasses.replace(f.protos, log_metallicities=v), _ANY_ARRAY + ("rows",)),
    ("prototypes-centroids", "centroids_diffusion", lambda f: f.protos.centroids_diffusion,
     lambda f, v: dataclasses.replace(f.protos, centroids_diffusion=v),
     _GIVEN_ARRAY + ("rows",)),
    ("prototypes-member-coords", "member_coords_diffusion",
     lambda f: f.protos.member_coords_diffusion,
     lambda f, v: dataclasses.replace(f.protos, member_coords_diffusion=v), _GIVEN_ARRAY),
    ("mixture-observation", "observation", lambda f: f.lib.spectra[0],
     lambda f, v: fit_mixture(f.protos, v), _ANY_ARRAY + ("rows",)),
    ("decomposition-eigenvalues", "eigenvalues", lambda f: f.dec.eigenvalues,
     lambda f, v: SpectralDecomposition(v, f.dec.eigenvectors), _ANY_ARRAY),
    ("decomposition-eigenvectors", "eigenvectors", lambda f: f.dec.eigenvectors,
     lambda f, v: SpectralDecomposition(f.dec.eigenvalues, v), _ANY_ARRAY + ("columns",)),
    ("regression-coefficients", "coefficients", lambda f: np.ones(2),
     lambda f, v: _regression_with(f, coefficients=v), _ANY_ARRAY),
    ("regression-cv-risk-curve", "cv_risk_curve", lambda f: np.ones(5),
     lambda f, v: _regression_with(f, cv_risk_curve=v), _ANY_ARRAY),
    ("regression-intercept", "intercept", lambda f: 0.0,
     lambda f, v: _regression_with(f, intercept=v), _ANY_ARRAY),
    ("simplex-projection", "v", lambda f: np.array([0.2, 0.9]),
     lambda f, v: project_to_simplex(v), _ANY_ARRAY),
    # a dissimilarity matrix is checked for its dtype only: its own min and
    # max find a NaN or inf, and ``default_epsilon`` takes no shape check
    ("transition-dissimilarity", "dissimilarity matrix", lambda f: f.dmat,
     lambda f, v: build_transition(v), _ANY_ARRAY + ("columns",)),
    ("default-epsilon-dissimilarity", "dissimilarity matrix", lambda f: f.dmat,
     lambda f, v: default_epsilon(v), ("text", "complex", "bool", "None", "ragged")),
]
INVALID_ARRAYS = [(f"{site}-{kind}", what, valid, call, kind)
                  for site, what, valid, call, kinds in _ARRAY_SITES for kind in kinds]


@pytest.mark.parametrize("what, valid, call, kind", [c[1:] for c in INVALID_ARRAYS],
                         ids=[c[0] for c in INVALID_ARRAYS])
def test_malformed_arrays_are_refused(pipeline, what, valid, call, kind):
    """Text, complex or bool entries, None, a ragged list, a wrong shape and
    a NaN or inf are a ValidationError that names the array, never a numpy
    error, a ComplexWarning or a silent cast to float."""
    bad = _NOT_ARRAYS[kind](np.array(valid(pipeline), dtype=np.float64))
    with pytest.raises(ValidationError, match=f"^{re.escape(what)} "):
        call(pipeline, bad)


@pytest.mark.parametrize("what, call, value", [
    ("ids", lambda f, v: DataSet(f.data.points, v), 5),
    ("ids", lambda f, v: DataSet(f.data.points, v), None),
    ("member_assignments",
     lambda f, v: dataclasses.replace(f.protos, member_assignments=v), np.full(12, 0.5)),
    ("member_assignments",
     lambda f, v: dataclasses.replace(f.protos, member_assignments=v), np.full(12, True)),
    ("member_assignments",
     lambda f, v: dataclasses.replace(f.protos, member_assignments=v), np.full(12, 2)),
    ("member_assignments",
     lambda f, v: dataclasses.replace(f.protos, member_assignments=v), np.full(12, -1)),
    ("member_assignments",
     lambda f, v: dataclasses.replace(f.protos, member_assignments=v), np.zeros((2, 6), int)),
    ("epsilon", lambda f, v: dataclasses.replace(f.protos, epsilon=v), -1.0),
    ("epsilon", lambda f, v: dataclasses.replace(f.protos, epsilon=v), "1.0"),
], ids=["ids-int", "ids-none", "labels-float", "labels-bool", "labels-k", "labels-negative",
        "labels-2d", "epsilon-negative", "epsilon-str"])
def test_prototype_labels_epsilon_and_ids_are_checked(pipeline, what, call, value):
    """Labels of two clusters must be integers in [0, 2): a 0.5 is not
    truncated to cluster 0.  A given epsilon passes the bandwidth check."""
    with pytest.raises(ValidationError, match=f"^{re.escape(what)} "):
        call(pipeline, value)
