"""The public surface: what ``sca`` exports, and what it no longer does."""

import dataclasses
import inspect

import pytest

import sca
from sca import cli, markov, nystrom, regression, spectral, synthetic


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
