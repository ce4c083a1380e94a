"""Generators: determinism, noiseless geometry, degeneracy control."""

import math

import numpy as np
import pytest

from sca.dataset import DataSet
from sca.errors import ValidationError
from sca.prototypes import ComponentLibrary
from sca import synthetic
from sca.synthetic import KINDS, GeneratorSpec, generate


def test_noiseless_circle_four_points():
    data = generate(GeneratorSpec(kind="noisy-circle", n=4, seed=0))
    angles = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
    expected = [[math.cos(a), math.sin(a)] for a in angles]
    np.testing.assert_allclose(data.points, expected, atol=1e-15)
    np.testing.assert_allclose(data.response, angles, atol=0)


def test_swiss_roll_bitwise_determinism():
    spec = GeneratorSpec(kind="swiss-roll", n=50, noise_sd=0.1, seed=4)
    a = generate(spec)
    b = generate(spec)
    assert a.points.tobytes() == b.points.tobytes()
    assert a.response.tobytes() == b.response.tobytes()


def test_swiss_roll_response_is_spiral_arc_length():
    data = generate(GeneratorSpec(kind="swiss-roll", n=30, seed=5))
    radius = np.hypot(data.points[:, 0], data.points[:, 2])  # theta for rho=theta
    expected = 0.5 * (radius * np.hypot(1.0, radius) + np.arcsinh(radius))
    np.testing.assert_allclose(data.response, expected, rtol=1e-9)


def test_swiss_roll_shape():
    data = generate(GeneratorSpec(kind="swiss-roll", n=25, seed=6))
    assert isinstance(data, DataSet)
    assert data.points.shape == (25, 3)
    assert data.points[:, 1].min() >= 0
    assert data.points[:, 1].max() <= 10.0


def test_line_chain_noiseless_symmetric():
    data = generate(GeneratorSpec(kind="line-chain", n=5, seed=7))
    np.testing.assert_allclose(data.points[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(data.response, data.points[:, 0])


def test_per_point_noise_is_order_independent():
    # keyed by (seed, index): the first rows do not depend on how many follow
    short = generate(GeneratorSpec(kind="swiss-roll", n=10, noise_sd=0.2, seed=8))
    long = generate(GeneratorSpec(kind="swiss-roll", n=25, noise_sd=0.2, seed=8))
    assert np.array_equal(short.points, long.points[:10])


def test_component_families_library_structure():
    lib = generate(GeneratorSpec(kind="component-families", n=30, seed=9,
                                 n_families=3, n_bins=24))
    assert isinstance(lib, ComponentLibrary)
    assert lib.spectra.shape == (30, 24)
    assert (lib.spectra[:, lib.ref_index] == 1.0).all()
    assert lib.ages.min() > 0
    assert lib.metallicities.min() > 0


def test_degenerate_families_collapse_as_separation_shrinks():
    def hausdorff(a, b):
        d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
        return max(d.min(axis=1).max(), d.min(axis=0).max())

    gaps = []
    for sep in (1e-1, 1e-2, 1e-3):
        lib = generate(GeneratorSpec(kind="degenerate-components", n=40, seed=2,
                                     separation=sep))
        gaps.append(hausdorff(lib.spectra[:20], lib.spectra[20:]))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 1.5e-2 * gaps[0]  # linear scaling in the separation


def test_degenerate_families_have_disjoint_ages():
    lib = generate(GeneratorSpec(kind="degenerate-components", n=40, seed=3))
    young = lib.ages[:20]
    old = lib.ages[20:]
    assert young.max() < old.min()


def test_generators_are_pure_functions():
    for kind in ("noisy-circle", "line-chain", "component-families",
                 "degenerate-components"):
        spec = GeneratorSpec(kind=kind, n=12, noise_sd=0.05, seed=10)
        a, b = generate(spec), generate(spec)
        arr_a = a.points if isinstance(a, DataSet) else a.spectra
        arr_b = b.points if isinstance(b, DataSet) else b.spectra
        assert arr_a.tobytes() == arr_b.tobytes()


def test_invalid_specs_rejected():
    with pytest.raises(ValidationError, match="kind"):
        GeneratorSpec(kind="torus", n=10)
    with pytest.raises(ValidationError, match="n must"):
        GeneratorSpec(kind="swiss-roll", n=1)
    with pytest.raises(ValidationError, match="noise_sd"):
        GeneratorSpec(kind="swiss-roll", n=10, noise_sd=-0.1)
    with pytest.raises(ValidationError, match="seed"):
        GeneratorSpec(kind="swiss-roll", n=10, seed=-1)
    # counts and seeds must be integers
    with pytest.raises(ValidationError, match="n must"):
        GeneratorSpec(kind="swiss-roll", n=30.5)
    with pytest.raises(ValidationError, match="seed"):
        GeneratorSpec(kind="swiss-roll", n=10, seed=1.5)
    with pytest.raises(ValidationError, match="n_bins"):
        GeneratorSpec(kind="component-families", n=10, n_bins=4)
    with pytest.raises(ValidationError, match="n_families"):
        GeneratorSpec(kind="component-families", n=4, n_families=5)


def test_n_past_a_32_bit_point_index_rejected():
    assert GeneratorSpec(kind="line-chain", n=2**32).n == 2**32
    with pytest.raises(ValidationError, match=r"n must lie in \[2, 4294967296\], got 4294967297"):
        GeneratorSpec(kind="line-chain", n=2**32 + 1)


@pytest.mark.parametrize("field", ["noise_sd", "separation"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_shape_parameters_rejected(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be finite and nonnegative"):
        GeneratorSpec(kind="degenerate-components", n=10, **{field: value})


@pytest.mark.parametrize("kind", KINDS)
def test_noise_sd_that_overflows_the_values_is_named(kind):
    with pytest.raises(ValidationError, match=r"noise_sd=1e\+308 is too large"):
        generate(GeneratorSpec(kind=kind, n=30, noise_sd=1e308, seed=1))


def test_largest_separation_keeps_the_library_finite():
    lib = generate(GeneratorSpec(kind="degenerate-components", n=30, n_bins=41,
                                 separation=np.finfo(float).max))
    assert np.isfinite(lib.spectra).all()


_STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 11]


@pytest.mark.parametrize("seed", _STREAM_SEEDS)
def test_point_streams_are_default_rng_of_seed_and_index(seed):
    chunk = synthetic._STREAM_CHUNK
    n = 2 * chunk + 3
    checked = {0, 1, 2, n - 1, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk}
    for i, rng in enumerate(synthetic._point_rngs(seed, n)):
        if i in checked:
            want = np.random.default_rng([seed, i])
            assert rng.bit_generator.state == want.bit_generator.state
            assert rng.random() == want.random()
            assert rng.normal(size=3).tobytes() == want.normal(size=3).tobytes()
    assert i == n - 1


def test_point_streams_are_independent_generators():
    seed = 2**64 + 3
    n = synthetic._STREAM_CHUNK + 5   # two chunks
    rngs = list(synthetic._point_rngs(seed, n))
    for i in reversed(range(n)):
        want = np.random.default_rng([seed, i])
        assert rngs[i].normal(size=3).tobytes() == want.normal(size=3).tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_generators_draw_each_point_from_its_default_rng(kind, monkeypatch):
    spec = GeneratorSpec(kind=kind, n=40, noise_sd=0.1, seed=2**64 + 3)
    fast = generate(spec)
    monkeypatch.setattr(synthetic, "_point_rngs", lambda seed, n: (
        np.random.default_rng([seed, i]) for i in range(n)))
    reference = generate(spec)
    fields = (("points", "response") if kind in synthetic.DATASET_KINDS
              else ("spectra", "ages", "metallicities"))
    for field in fields:
        assert getattr(fast, field).tobytes() == getattr(reference, field).tobytes()
