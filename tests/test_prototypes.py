"""Diffusion K-means, the parameter-grid baseline, and mixture fitting."""

import hashlib
import itertools

import numpy as np
import pytest

from sca import kernels
from sca.errors import NumericalError, ValidationError
from sca.markov import default_epsilon
from sca.prototypes import (
    ComponentLibrary,
    PrototypeSet,
    diffusion_kmeans,
    fit_mixture,
    grid_prototypes,
    kkt_residual,
    project_to_simplex,
    quantization_benchmark,
)
from sca.synthetic import GeneratorSpec, generate


def _families_library(n=60, seed=5, n_families=3):
    return generate(GeneratorSpec(kind="component-families", n=n, seed=seed,
                                  n_families=n_families))


def _uniform_1d_library(n=10):
    """n components with log-uniform ages, constant metallicity, distinct curves."""
    spectra = np.ones((n, 8))
    spectra[:, 1:] = 1.0 + np.arange(n)[:, None] * np.linspace(0.1, 0.5, 7)[None, :]
    return ComponentLibrary.normalize(spectra, ages=np.exp(np.arange(float(n))),
                                      metallicities=np.full(n, 0.02))


def _doubled_families_library():
    """Six components in two families, every row stacked twice."""
    lib = generate(GeneratorSpec(kind="component-families", n=6, seed=1, n_families=2,
                                 n_bins=10))
    return ComponentLibrary(spectra=np.vstack([lib.spectra] * 2),
                            ages=np.concatenate([lib.ages] * 2),
                            metallicities=np.concatenate([lib.metallicities] * 2))


def _loose_protoset(vectors, log_ages=None, log_mets=None):
    k = vectors.shape[0]
    return PrototypeSet(
        prototypes=vectors,
        log_ages=np.linspace(0.0, 1.0, k) if log_ages is None else log_ages,
        log_metallicities=np.linspace(-1.0, 0.0, k) if log_mets is None else log_mets,
    )


# --- component library -------------------------------------------------------

def test_library_requires_normalization():
    with pytest.raises(ValidationError, match="normalized"):
        ComponentLibrary(spectra=np.full((2, 4), 2.0), ages=[1.0, 2.0],
                         metallicities=[0.1, 0.2])


def test_library_normalize_classmethod():
    lib = ComponentLibrary.normalize(np.full((2, 4), 2.0), [1.0, 2.0], [0.1, 0.2],
                                     ref_index=1)
    assert (lib.spectra[:, 1] == 1.0).all()


@pytest.mark.parametrize("ref_index", [4, 99, -1])
def test_library_normalize_rejects_out_of_range_ref_index(ref_index):
    with pytest.raises(ValidationError, match=rf"ref_index must lie in \[0, 3\], got {ref_index}"):
        ComponentLibrary.normalize(np.ones((2, 4)), [1.0, 2.0], [0.1, 0.2],
                                   ref_index=ref_index)


def test_library_rejects_nonpositive_parameters():
    spectra = np.ones((2, 3))
    with pytest.raises(ValidationError, match="ages"):
        ComponentLibrary(spectra=spectra, ages=[0.0, 1.0], metallicities=[0.1, 0.2])


def test_library_normalize_rejects_nonpositive_reference():
    spectra = np.ones((2, 3))
    spectra[0, 0] = 0.0
    with pytest.raises(ValidationError, match="reference"):
        ComponentLibrary.normalize(spectra, [1.0, 2.0], [0.1, 0.2])


# --- diffusion K-means -------------------------------------------------------

def test_kmeans_k_equals_n_is_a_permutation():
    lib = _families_library(n=12)
    proto = diffusion_kmeans(lib, 12, seed=3)
    assert sorted(proto.member_assignments.tolist()) == list(range(12))
    ordered = lib.spectra[np.argsort(proto.member_assignments)]
    np.testing.assert_allclose(np.sort(proto.prototypes, axis=0),
                               np.sort(ordered, axis=0), atol=1e-12)


def test_kmeans_k1_is_global_mean():
    lib = _families_library(n=15)
    proto = diffusion_kmeans(lib, 1, seed=0)
    assert (proto.member_assignments == 0).all()
    np.testing.assert_allclose(proto.prototypes[0], lib.spectra.mean(axis=0),
                               atol=1e-12)
    assert proto.log_ages[0] == pytest.approx(np.log(lib.ages).mean(), abs=1e-12)


def test_kmeans_recovers_well_separated_families():
    lib = _families_library(n=60, n_families=3)
    proto = diffusion_kmeans(lib, 3, seed=7)
    families = np.repeat([0, 1, 2], 20)
    # exact recovery: each family maps to exactly one distinct cluster
    mapping = {}
    for fam in range(3):
        labels = set(proto.member_assignments[families == fam].tolist())
        assert len(labels) == 1
        mapping[fam] = labels.pop()
    assert len(set(mapping.values())) == 3


def test_kmeans_k_too_large_rejected():
    lib = _families_library(n=10)
    with pytest.raises(ValidationError, match="k must lie"):
        diffusion_kmeans(lib, 11, seed=0)
    with pytest.raises(ValidationError, match=r"k must lie in \[1, 10\], got 3.0"):
        diffusion_kmeans(lib, 3.0, seed=0)


def test_kmeans_more_clusters_than_distinct_components_raises():
    # k-means++ runs out of distinct points to seed, and a duplicate's
    # cluster stays empty after the farthest-point repair
    with pytest.raises(NumericalError, match="k-means left 1 empty clusters"):
        diffusion_kmeans(_doubled_families_library(), 12, r=5, seed=0)


def test_kmeans_negative_seed_rejected():
    with pytest.raises(ValidationError, match="seed must be an integer >= 0, got -1"):
        diffusion_kmeans(_families_library(n=10), 2, seed=-1)


def test_kmeans_records_its_bandwidth():
    lib = _families_library(n=10)
    assert diffusion_kmeans(lib, 2, seed=0, epsilon=5.0).epsilon == 5.0
    dmat = kernels.pairwise_sq_dists(lib.spectra)
    assert diffusion_kmeans(lib, 2, seed=0).epsilon == default_epsilon(dmat)
    assert grid_prototypes(lib, 2).epsilon is None


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kmeans_wcss_monotone_nonincreasing(seed):
    lib = generate(GeneratorSpec(kind="degenerate-components", n=40, seed=seed,
                                 separation=0.02))
    proto = diffusion_kmeans(lib, 5, seed=seed)
    history = proto.wcss_history
    assert len(history) >= 1
    assert all(a >= b - 1e-12 for a, b in zip(history, history[1:]))


def test_kmeans_prototypes_are_member_means():
    lib = _families_library(n=30)
    proto = diffusion_kmeans(lib, 4, seed=2)
    for c in range(4):
        members = lib.spectra[proto.member_assignments == c]
        assert len(members) >= 1
        np.testing.assert_allclose(proto.prototypes[c], members.mean(axis=0),
                                   atol=1e-12)


def test_kmeans_permutation_invariance_given_seed():
    lib = _families_library(n=24)
    perm = np.random.default_rng(9).permutation(24)
    permuted = ComponentLibrary(spectra=lib.spectra[perm], ages=lib.ages[perm],
                                metallicities=lib.metallicities[perm],
                                ref_index=lib.ref_index)
    a = diffusion_kmeans(lib, 4, seed=11)
    b = diffusion_kmeans(permuted, 4, seed=11)
    order_a = np.lexsort(a.prototypes.T[::-1])
    order_b = np.lexsort(b.prototypes.T[::-1])
    np.testing.assert_allclose(a.prototypes[order_a], b.prototypes[order_b],
                               atol=1e-10)
    # labels permute with the rows
    relabeled = b.member_assignments
    assert sorted(np.bincount(a.member_assignments).tolist()) == \
        sorted(np.bincount(relabeled).tolist())


def test_kmeans_deterministic_given_seed():
    lib = _families_library(n=30)
    a = diffusion_kmeans(lib, 5, seed=13)
    b = diffusion_kmeans(lib, 5, seed=13)
    assert np.array_equal(a.prototypes, b.prototypes)
    assert np.array_equal(a.member_assignments, b.member_assignments)
    assert a.wcss_history == b.wcss_history


# --- grid baseline -----------------------------------------------------------

def test_grid_k_equals_n_selects_everything():
    lib = _families_library(n=9)
    proto = grid_prototypes(lib, 9)
    np.testing.assert_allclose(np.sort(proto.prototypes, axis=0),
                               np.sort(lib.spectra, axis=0), atol=1e-12)


@pytest.mark.parametrize("k", [0, 10, 3.5])
def test_grid_k_out_of_range_rejected(k):
    with pytest.raises(ValidationError, match=f"k must lie in \\[1, 9\\], got {k}"):
        grid_prototypes(_families_library(n=9), k)


def test_grid_1d_family_matches_bruteforce_oracle():
    lib = _uniform_1d_library(10)
    proto = grid_prototypes(lib, 5)
    # brute-force oracle: each of 5 cell-center nodes over the log-age range
    # claims its nearest unclaimed component
    la = np.log(lib.ages)
    unit = (la - la.min()) / (la.max() - la.min())
    taken = np.zeros(10, dtype=bool)
    expected = []
    for node in (np.arange(5) + 0.5) / 5:
        d2 = (unit - node) ** 2
        d2[taken] = np.inf
        pick = int(np.argmin(d2))
        taken[pick] = True
        expected.append(pick)
    selected = sorted(
        int(np.flatnonzero((lib.spectra == p).all(axis=1))[0])
        for p in proto.prototypes
    )
    assert selected == sorted(expected)
    assert selected == [1, 3, 4, 6, 8]  # every-other coverage of the 1-D family


def _four_branch_grid_oracle(lib, k):
    """Library rows each node of the explicit four-case grid claims, in node order."""
    params = []
    for vals in (np.log(lib.ages), np.log(lib.metallicities)):
        span = vals.max() - vals.min()
        params.append((vals - vals.min()) / span if span > 0 else np.zeros(vals.size))
    age, met = params

    def centers(count):
        return [(i + 0.5) / count for i in range(count)]

    if age.any() and met.any():
        k1 = int(np.ceil(np.sqrt(k)))
        nodes = [(a, z) for a in centers(k1) for z in centers(int(np.ceil(k / k1)))][:k]
    elif age.any():
        nodes = [(a, 0.0) for a in centers(k)]
    elif met.any():
        nodes = [(0.0, z) for z in centers(k)]
    else:
        nodes = [(0.0, 0.0)] * k
    claimed = []
    for a, z in nodes:
        free = [i for i in range(lib.n_components) if i not in claimed]
        claimed.append(min(free, key=lambda i: ((age[i] - a) ** 2 + (met[i] - z) ** 2, i)))
    return claimed


@pytest.mark.parametrize("varying", ["metallicity", "neither"])
@pytest.mark.parametrize("k", [1, 3, 5, 8])
def test_grid_with_a_constant_parameter_matches_bruteforce_oracle(varying, k):
    n = 8
    spectra = np.ones((n, 6))
    spectra[:, 1:] = 1.0 + np.arange(n)[:, None] * np.linspace(0.1, 0.5, 5)[None, :]
    mets = np.exp(np.arange(float(n))) if varying == "metallicity" else np.full(n, 0.02)
    lib = ComponentLibrary.normalize(spectra, ages=np.full(n, 3.0), metallicities=mets)
    proto = grid_prototypes(lib, k)
    expected = sorted(_four_branch_grid_oracle(lib, k))
    np.testing.assert_array_equal(proto.prototypes, lib.spectra[expected])
    np.testing.assert_array_equal(proto.log_metallicities, np.log(mets[expected]))
    assert proto.member_assignments[expected].tolist() == list(range(k))
    if varying == "neither":
        assert expected == list(range(k))  # all tied: lowest free index wins
    assert proto.centroids_diffusion is None and proto.member_coords_diffusion is None


def test_grid_k1_picks_parameter_midpoint():
    lib = _uniform_1d_library(10)
    proto = grid_prototypes(lib, 1)
    chosen = int(np.flatnonzero((lib.spectra == proto.prototypes[0]).all(axis=1))[0])
    # log-age midpoint is 4.5; the tie between components 4 and 5 breaks low
    assert chosen == 4


def test_grid_prototypes_keep_their_own_parameters():
    lib = _families_library(n=20)
    proto = grid_prototypes(lib, 6)
    for c in range(6):
        idx = int(np.flatnonzero((lib.spectra == proto.prototypes[c]).all(axis=1))[0])
        assert proto.log_ages[c] == pytest.approx(np.log(lib.ages[idx]), abs=1e-12)


def test_grid_assignments_cover_all_clusters():
    lib = _families_library(n=25)
    proto = grid_prototypes(lib, 7)
    assert set(proto.member_assignments.tolist()) == set(range(7))


@pytest.mark.parametrize("field", ["log_ages", "log_metallicities"])
def test_prototype_set_rejects_parameters_not_of_length_k(field):
    values = {"log_ages": np.zeros(3), "log_metallicities": np.zeros(3)}
    values[field] = np.zeros(2)
    with pytest.raises(ValidationError, match=rf"^{field} must have shape \(3,\), got \(2,\)"):
        PrototypeSet(prototypes=np.ones((3, 4)), **values)


def test_prototype_set_needs_only_vectors_and_parameters():
    proto = PrototypeSet(prototypes=np.ones((2, 4)), log_ages=[0.0, 1.0],
                         log_metallicities=[0.0, 0.0])
    assert proto.k == 2 and proto.wcss_history == () and proto.epsilon is None
    assert proto.member_assignments is None and proto.centroids_diffusion is None
    with pytest.raises(TypeError):
        PrototypeSet(prototypes=np.ones((2, 4)), log_ages=[0.0, 1.0],
                     log_metallicities=[0.0, 0.0], method="grid")


# --- simplex projection and mixture fitting ----------------------------------

def test_project_to_simplex_basics():
    out = project_to_simplex(np.array([0.2, 0.9, -0.4]))
    assert out.min() >= 0
    assert out.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(project_to_simplex(np.array([5.0, 0.0])), [1.0, 0.0])


def test_fit_mixture_vertex_exact():
    vectors = np.random.default_rng(0).normal(size=(5, 30))
    proto = _loose_protoset(vectors)
    result = fit_mixture(proto, vectors[2])
    np.testing.assert_array_equal(result.gamma, np.eye(5)[2])
    assert result.residual <= 1e-12


def test_fit_mixture_midpoint_exact():
    vectors = np.random.default_rng(1).normal(size=(4, 25))
    proto = _loose_protoset(vectors)
    result = fit_mixture(proto, 0.5 * vectors[0] + 0.5 * vectors[1])
    np.testing.assert_allclose(result.gamma, [0.5, 0.5, 0.0, 0.0], rtol=0, atol=1e-12)


def test_fit_mixture_noisy_recovery_l1():
    rng = np.random.default_rng(2)
    vectors = rng.normal(size=(5, 40))
    proto = _loose_protoset(vectors)
    gamma_true = rng.dirichlet(np.ones(5))
    signal = gamma_true @ vectors
    noise = 0.01 * np.linalg.norm(signal) / np.sqrt(40)
    y = signal + noise * rng.normal(size=40)
    result = fit_mixture(proto, y)
    assert np.abs(result.gamma - gamma_true).sum() <= 0.05


def test_fit_mixture_matches_simplex_grid_oracle_k3():
    rng = np.random.default_rng(3)
    vectors = rng.normal(size=(3, 20))
    proto = _loose_protoset(vectors)
    gamma_true = rng.dirichlet(np.ones(3))
    y = gamma_true @ vectors + 0.01 * rng.normal(size=20)
    result = fit_mixture(proto, y)
    # exhaustive search over the simplex at resolution 0.01
    best, best_gamma = np.inf, None
    for i in range(101):
        for j in range(101 - i):
            gamma = np.array([i, j, 100 - i - j]) / 100.0
            rss = float(np.sum((y - gamma @ vectors) ** 2))
            if rss < best:
                best, best_gamma = rss, gamma
    assert np.abs(result.gamma - best_gamma).sum() <= 0.02


def test_fit_mixture_satisfies_kkt():
    rng = np.random.default_rng(4)
    vectors = rng.normal(size=(6, 30))
    proto = _loose_protoset(vectors)
    y = rng.normal(size=30)
    result = fit_mixture(proto, y)
    gram = 2.0 * (vectors @ vectors.T)
    grad = gram @ result.gamma - 2.0 * (vectors @ y)
    mu = float(result.gamma @ grad)
    active = result.gamma > 1e-12
    assert np.abs(grad[active] - mu).max() <= 1e-6
    if (~active).any():
        assert (grad[~active] >= mu - 1e-6).all()
    assert kkt_residual(result.gamma, grad) <= 1e-6


def test_fit_mixture_gamma_on_simplex():
    rng = np.random.default_rng(5)
    vectors = rng.normal(size=(7, 15))
    proto = _loose_protoset(vectors)
    for trial in range(5):
        y = rng.normal(size=15)
        result = fit_mixture(proto, y)
        assert result.gamma.min() >= 0
        assert result.gamma.max() <= 1
        assert result.gamma.sum() == pytest.approx(1.0, abs=1e-9)


def test_fit_mixture_targets_are_weighted_parameter_means():
    vectors = np.random.default_rng(6).normal(size=(4, 20))
    log_ages = np.array([0.1, 0.7, 1.3, 2.0])
    log_mets = np.array([-4.0, -3.5, -3.0, -2.5])
    proto = _loose_protoset(vectors, log_ages, log_mets)
    result = fit_mixture(proto, vectors.mean(axis=0))
    assert result.mean_log_age == float(result.gamma @ log_ages)
    assert result.mean_log_met == float(result.gamma @ log_mets)


def test_fit_mixture_rejects_bad_inputs():
    vectors = np.random.default_rng(7).normal(size=(3, 10))
    proto = _loose_protoset(vectors)
    with pytest.raises(ValidationError, match="noise_sd"):
        fit_mixture(proto, vectors[0], noise_sd=0.0)
    with pytest.raises(ValidationError, match="non-finite"):
        fit_mixture(proto, np.full(10, np.nan))
    with pytest.raises(ValidationError, match=r"^observation must have shape \(10,\)"):
        fit_mixture(proto, np.zeros(9))


@pytest.mark.filterwarnings("error")  # the overflow is reported as an error, not a warning
def test_fit_mixture_refuses_an_observation_whose_residual_can_overflow():
    vectors = np.random.default_rng(7).normal(size=(3, 10))
    proto = _loose_protoset(vectors)
    with pytest.raises(ValidationError, match="^observation is too large: its squared "
                                              "residual can overflow"):
        fit_mixture(proto, 1e200 * vectors[0])
    # 1e150 squared is far inside the float range
    assert np.isfinite(fit_mixture(proto, 1e150 * vectors[0]).residual)


def test_fit_mixture_has_no_iteration_cap():
    vectors = np.random.default_rng(7).normal(size=(3, 10))
    with pytest.raises(TypeError):
        fit_mixture(_loose_protoset(vectors), vectors[0], max_iter=10)


def test_fit_mixture_single_prototype():
    result = fit_mixture(_loose_protoset(np.ones((1, 6))), np.arange(6.0))
    np.testing.assert_array_equal(result.gamma, [1.0])


def test_fit_mixture_identical_prototypes_give_simplex_point():
    vectors = np.tile(np.random.default_rng(8).normal(size=12), (4, 1))
    result = fit_mixture(_loose_protoset(vectors), np.zeros(12))
    assert result.gamma.min() >= 0
    assert result.gamma.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(result.gamma @ vectors, vectors[0], atol=1e-12)


def test_fit_mixture_bitwise_deterministic():
    lib = generate(GeneratorSpec(kind="degenerate-components", n=120, seed=11,
                                 separation=0.01))
    proto = grid_prototypes(lib, 10)
    y = np.random.default_rng(9).dirichlet(np.ones(120)) @ lib.spectra
    first, second = fit_mixture(proto, y), fit_mixture(proto, y)
    assert first.gamma.tobytes() == second.gamma.tobytes()


# sha256 of the inputs the six fits below see (the prototypes, 2PP' as this
# platform's BLAS computes it, and the observations) and of the fits' gamma
# bytes, recorded when every fit still recomputed 2PP' (numpy 2.4, OpenBLAS,
# x86-64).  Other CPUs and BLAS builds round differently (bytes are not
# promised across machines), so the gamma digest is held to wherever the
# inputs hash as recorded; a set that has served fits must equal a fresh one
# everywhere.
_CRITERION_7_SHA256 = {
    "diffusion": ("44ff71f188ca18302d48cfebb1918089554e12f0ceda2518349c298b6b6dae2a",
                  "fe9920e76977a157832f1243aa515e090694b2b72e13f4186f4e2c8c326777b5"),
    "grid": ("9f7112f12376805e4d0bd97ed4b3f08c133fa213bc97121748caf2d0121e43e6",
             "e5c527654567675ddf0df04dbb3fa02b1c55daac85da4c6798bd586a983f602d"),
}


def _sha256(arrays) -> str:
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


@pytest.mark.parametrize("method", sorted(_CRITERION_7_SHA256))
def test_fit_mixture_on_a_set_that_has_served_fits_is_bitwise_a_fresh_sets(method):
    lib = generate(GeneratorSpec(kind="degenerate-components", n=120, seed=11,
                                 separation=0.01))
    proto = (diffusion_kmeans(lib, 10, seed=42) if method == "diffusion"
             else grid_prototypes(lib, 10))
    observations = []
    for trial in range(6):
        rng = np.random.default_rng([42, trial])
        observations.append(rng.dirichlet(np.ones(lib.n_components)) @ lib.spectra
                            + 0.02 * rng.normal(size=lib.n_bins))
    fit_mixture(proto, observations[-1])
    gram = proto._gram
    served = [fit_mixture(proto, y) for y in observations]
    assert proto._gram is gram
    fresh = [fit_mixture(PrototypeSet(prototypes=proto.prototypes, log_ages=proto.log_ages,
                                      log_metallicities=proto.log_metallicities), y)
             for y in observations]
    for a, b in zip(served, fresh):
        assert a.gamma.tobytes() == b.gamma.tobytes()
        assert (a.residual, a.mean_log_age, a.mean_log_met) == \
            (b.residual, b.mean_log_age, b.mean_log_met)
    p = proto.prototypes
    inputs, gammas = _CRITERION_7_SHA256[method]
    if _sha256([p, 2.0 * (p @ p.T), *observations]) == inputs:
        assert _sha256(fit.gamma for fit in served) == gammas
        assert _sha256(fit.gamma for fit in fresh) == gammas


def _support_oracle(vectors, y):
    """Exact minimum of ||y - gamma @ P||^2 over the simplex, by enumeration.

    Every nonempty support gets its equality-constrained least squares
    solution; the feasible ones are kept and the smallest objective wins.
    Some optimal point has an affinely independent support, where that
    solution is unique, so the enumeration is exact even when P is
    rank-deficient.
    """
    k = vectors.shape[0]
    best = np.inf
    for size in range(1, k + 1):
        for support in itertools.combinations(range(k), size):
            sub = vectors[list(support)]
            system = np.ones((size + 1, size + 1))
            system[:size, :size] = sub @ sub.T
            system[size, size] = 0.0
            rhs = np.append(sub @ y, 1.0)
            gamma = np.linalg.lstsq(system, rhs, rcond=None)[0][:size]
            if gamma.min() >= -1e-12:
                best = min(best, float(np.sum((y - gamma @ sub) ** 2)))
    return best


def _assert_matches_oracle(vectors, y):
    result = fit_mixture(_loose_protoset(vectors), y)
    grad = 2.0 * (vectors @ vectors.T) @ result.gamma - 2.0 * (vectors @ y)
    assert kkt_residual(result.gamma, grad) <= 1e-10
    best = _support_oracle(vectors, y)
    assert abs(result.residual - best) <= 1e-10 * best


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_fit_mixture_matches_support_oracle_random(k):
    rng = np.random.default_rng([10, k])
    for _ in range(5):
        _assert_matches_oracle(rng.normal(size=(k, 12)), rng.normal(size=12))


@pytest.mark.parametrize("k", [2, 4, 6])
def test_fit_mixture_matches_support_oracle_duplicated_rows(k):
    rng = np.random.default_rng([11, k])
    for _ in range(5):
        vectors = rng.normal(size=(k, 12))
        vectors[-1] = vectors[0]
        _assert_matches_oracle(vectors, rng.normal(size=12))


@pytest.mark.parametrize("k", [3, 4, 6])
def test_fit_mixture_matches_support_oracle_collinear(k):
    rng = np.random.default_rng([12, k])
    for _ in range(5):
        vectors = rng.normal(size=(k, 12))
        vectors[2] = 0.3 * vectors[0] + 0.7 * vectors[1]
        # observations near the segment make the dependent face optimal
        y = rng.uniform() * vectors[0] + 0.1 * rng.normal(size=12)
        _assert_matches_oracle(vectors, y)


def test_fit_mixture_matches_support_oracle_rank_deficient_grid():
    lib = generate(GeneratorSpec(kind="degenerate-components", n=120, seed=11,
                                 separation=0.01))
    proto = grid_prototypes(lib, 10)
    assert np.linalg.matrix_rank(proto.prototypes) == 3
    for trial in range(3):
        rng = np.random.default_rng([13, trial])
        weights = rng.dirichlet(np.ones(lib.n_components))
        y = weights @ lib.spectra + 0.02 * rng.normal(size=lib.n_bins)
        _assert_matches_oracle(proto.prototypes, y)


# --- quantization benchmark ---------------------------------------------------

def test_benchmark_no_quantization_no_noise_is_exact():
    lib = _families_library(n=12)
    report = quantization_benchmark(lib, 12, 3, 0.0, seed=1)
    assert report.diffusion.rmse_log_age <= 1e-6
    assert report.grid.rmse_log_age <= 1e-6
    assert report.diffusion.rmse_log_met <= 1e-6
    assert report.grid.rmse_log_met <= 1e-6


@pytest.mark.parametrize("noise_sd", [1e200, 1e308])
def test_benchmark_noise_that_overflows_the_fit_is_named(noise_sd):
    # an observation whose squared norm overflows has no representable fit
    with pytest.raises(ValidationError, match="noise_sd=.* is too large"):
        quantization_benchmark(_families_library(n=12), 3, 1, noise_sd, seed=1)


def test_benchmark_degenerate_library_favors_diffusion_kmeans():
    lib = generate(GeneratorSpec(kind="degenerate-components", n=40, seed=11,
                                 separation=0.01))
    report = quantization_benchmark(lib, 6, 10, 0.02, seed=42)
    assert report.diffusion.rmse_log_age <= report.grid.rmse_log_age


def test_benchmark_single_trial_bookkeeping():
    lib = _families_library(n=10)
    report = quantization_benchmark(lib, 3, 1, 0.01, seed=2)
    assert len(report.diffusion.trials) == 1
    assert len(report.grid.trials) == 1
    payload = report.to_dict()
    assert len(payload["methods"]["diffusion"]["trials"]) == 1
    assert payload["k"] == 3


def test_benchmark_needs_a_trial():
    with pytest.raises(ValidationError, match="n_trials must be an integer >= 1, got 0"):
        quantization_benchmark(_families_library(n=10), 3, 0, 0.01, seed=2)
    with pytest.raises(ValidationError, match="n_trials must be an integer >= 1, got 1.5"):
        quantization_benchmark(_families_library(n=10), 3, 1.5, 0.01, seed=2)


def test_benchmark_deterministic_given_seed():
    lib = _families_library(n=12)
    a = quantization_benchmark(lib, 4, 2, 0.05, seed=9)
    b = quantization_benchmark(lib, 4, 2, 0.05, seed=9)
    assert a.to_dict() == b.to_dict()


def test_fit_mixture_rejects_empty_prototype_set():
    with pytest.raises(ValidationError, match="prototype set is empty"):
        fit_mixture(_loose_protoset(np.empty((0, 5))), np.ones(5))
