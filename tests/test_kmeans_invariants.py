"""Diffusion K-means on generated libraries: the prototypes, with their mean
log ages and log metallicities, are the same multiset, bitwise, whatever the
order of the library rows."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sca.prototypes import ComponentLibrary, diffusion_kmeans  # noqa: E402
from sca.synthetic import GeneratorSpec, generate  # noqa: E402

# (library spec, k, t, r, k-means seed, permutation seed)
CASES = st.tuples(
    st.sampled_from(["component-families", "degenerate-components"]),
    st.integers(6, 40), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.01]),
    st.integers(1, 4), st.integers(1, 5), st.integers(1, 3),
    st.one_of(st.none(), st.integers(1, 4)), st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1))
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)


def _labelled_prototypes(lib, k, t, r, seed):
    """Rows (prototype, log age, log metallicity), sorted lexicographically."""
    proto = diffusion_kmeans(lib, k, t=t, r=r, seed=seed)
    rows = np.column_stack([proto.prototypes, proto.log_ages, proto.log_metallicities])
    return rows[np.lexsort(rows.T[::-1])]


@PROPERTY
@given(CASES)
def test_prototype_multiset_ignores_row_order(case):
    kind, n, lib_seed, noise_sd, n_families, k, t, r, seed, perm_seed = case
    lib = generate(GeneratorSpec(kind=kind, n=n, seed=lib_seed, noise_sd=noise_sd,
                                 n_families=n_families))
    perm = np.random.default_rng(perm_seed).permutation(n)
    permuted = ComponentLibrary(spectra=lib.spectra[perm], ages=lib.ages[perm],
                                metallicities=lib.metallicities[perm],
                                ref_index=lib.ref_index)
    expected = _labelled_prototypes(lib, k, t, r, seed)
    assert np.array_equal(_labelled_prototypes(permuted, k, t, r, seed), expected)
