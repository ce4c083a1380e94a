"""Prototype selection over a component library and simplex mixture fitting.

Diffusion K-means embeds the library, clusters it in diffusion
coordinates, and represents each cluster by the observable-space mean of
its members; the parameter-grid baseline picks actual components nearest
a uniform grid over (log age, log metallicity).  Observations are then
modeled as convex mixtures of prototypes, and target parameters are the
mixture-weighted average log age and log metallicity.
"""

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import kernels
from .dataset import frozen_array, frozen_field, parse_table
from .errors import NumericalError, ValidationError, check_array, check_int, check_real
from .markov import transition_from_points
from .spectral import decompose, embed

KKT_TOL = 1e-8
_LLOYD_MAX_ITER = 500  # cap on the Lloyd iterations of diffusion_kmeans


@dataclass(frozen=True)
class ComponentLibrary:
    """Library of normalized component vectors with age/metallicity labels.

    Every spectrum equals 1 at the stored reference coordinate.
    """

    spectra: np.ndarray
    ages: np.ndarray
    metallicities: np.ndarray
    ref_index: int = 0

    def __post_init__(self):
        n, d = frozen_field(self, "spectra", (None, None)).shape
        if n < 1:
            raise ValidationError("spectra must be a nonempty N x d matrix")
        check_int(self.ref_index, 0, d - 1, "ref_index")
        if not np.allclose(self.spectra[:, self.ref_index], 1.0, rtol=0, atol=1e-9):
            raise ValidationError(f"spectra are not normalized to 1 at reference index "
                                  f"{self.ref_index}")
        for name in ("ages", "metallicities"):
            if (frozen_field(self, name, (n,)) <= 0).any():
                raise ValidationError(f"{name} must be strictly positive")

    @classmethod
    def normalize(cls, spectra, ages, metallicities, ref_index: int = 0):
        """Divide each spectrum by its value at the reference coordinate."""
        spectra = check_array(spectra, (None, None), "spectra")
        check_int(ref_index, 0, spectra.shape[1] - 1, "ref_index")
        ref = spectra[:, ref_index]
        if (ref <= 0).any():
            raise ValidationError("cannot normalize: some spectra are nonpositive at the "
                                  "reference index")
        return cls(spectra=spectra / ref[:, None], ages=ages,
                   metallicities=metallicities, ref_index=ref_index)

    @property
    def n_components(self) -> int:
        return self.spectra.shape[0]

    @property
    def n_bins(self) -> int:
        return self.spectra.shape[1]


@dataclass(frozen=True)
class PrototypeSet:
    """K prototype vectors with their log ages and log metallicities.

    Those three are all a mixture fit reads.  K-means prototypes are the
    observable-space means of their members, with the members' mean
    parameters, and K-means alone fills the diffusion blocks,
    ``wcss_history`` and its bandwidth ``epsilon``.  The grid baseline
    returns selected components verbatim, with their own parameters and
    member labels.  Fields that are not given stay None (or empty).
    Construction checks K >= 1 and finite vectors and parameters.
    """

    prototypes: np.ndarray            # (K, d)
    log_ages: np.ndarray              # (K,)
    log_metallicities: np.ndarray     # (K,)
    member_assignments: Optional[np.ndarray] = None    # (N,) cluster label per library row
    centroids_diffusion: Optional[np.ndarray] = None   # (K, r) centroids in diffusion space
    member_coords_diffusion: Optional[np.ndarray] = None  # (N, r), original row order
    wcss_history: tuple = ()          # per-assignment within-cluster sum of squares
    epsilon: Optional[float] = None

    def __post_init__(self):
        if frozen_field(self, "prototypes", (None, None)).shape[0] == 0:
            raise ValidationError("prototype set is empty; a mixture needs at least one prototype")
        frozen_field(self, "log_ages", (self.k,))
        frozen_field(self, "log_metallicities", (self.k,))
        for name, shape in (("centroids_diffusion", (self.k, None)),
                            ("member_coords_diffusion", (None, None))):
            if getattr(self, name) is not None:
                frozen_field(self, name, shape)
        if self.member_assignments is not None:
            try:
                labels = np.asarray(self.member_assignments)
            except ValueError:   # a ragged list
                labels = np.asarray(None)
            if labels.dtype.kind not in "iu" or labels.ndim != 1 or (
                    labels.size and not 0 <= labels.min() <= labels.max() < self.k):
                raise ValidationError(
                    f"member_assignments must be a 1-D array of integer labels in [0, {self.k})")
            object.__setattr__(self, "member_assignments", frozen_array(labels, dtype=np.int64))
        if self.epsilon is not None:
            object.__setattr__(self, "epsilon", check_real(self.epsilon, True, "epsilon"))
        object.__setattr__(self, "wcss_history", tuple(float(w) for w in self.wcss_history))

    @property
    def k(self) -> int:
        return self.prototypes.shape[0]


@dataclass(frozen=True)
class MixtureFit:
    """Simplex weights over prototypes with derived target parameters."""

    gamma: np.ndarray
    residual: float
    mean_log_age: float
    mean_log_met: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", frozen_array(self.gamma))


def _kmeans_pp_seed(coords: np.ndarray, k: int, rng) -> np.ndarray:
    n = coords.shape[0]
    centroids = np.empty((k, coords.shape[1]))
    chosen = np.zeros(n, dtype=bool)
    first = int(rng.integers(n))
    centroids[0] = coords[first]
    chosen[first] = True
    closest = np.sum((coords - centroids[0]) ** 2, axis=1)
    for c in range(1, k):
        total = closest.sum()
        if total > 0:
            idx = int(rng.choice(n, p=closest / total))
        else:
            idx = int(np.argmin(chosen))  # all remaining are duplicates
        centroids[c] = coords[idx]
        chosen[idx] = True
        closest = np.minimum(closest, np.sum((coords - coords[idx]) ** 2, axis=1))
    return centroids


def _cluster_means(values: np.ndarray, labels: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Set ``out[c]`` to the mean of the ``values`` rows labelled c, for each nonempty c."""
    # bincount, not np.unique: that imports numpy.ma, 0.6-1.2 MB more peak RSS
    for c in np.flatnonzero(np.bincount(labels, minlength=out.shape[0])):
        out[c] = values[labels == c].mean(axis=0)
    return out


def diffusion_kmeans(lib: ComponentLibrary, k: int, t: int = 1,
                     r: Optional[int] = None, seed: int = 0,
                     epsilon: Optional[float] = None) -> PrototypeSet:
    """Quantize the library by K-means in diffusion coordinates.

    Library rows are pre-sorted lexicographically by spectrum before the
    seeded k-means++ start, so the returned prototype set (as a multiset
    of vectors) does not depend on input row order.  Lloyd iterations run
    to an assignment fixed point or ``_LLOYD_MAX_ITER``; an empty cluster is
    repaired by reseeding its centroid at the point currently farthest
    from its own centroid; one still empty at the end raises NumericalError.
    """
    k = check_int(k, 1, lib.n_components, "k")
    seed = check_int(seed, 0, None, "seed")
    order = np.lexsort(lib.spectra.T[::-1])
    spectra = lib.spectra[order]
    log_age = np.log(lib.ages[order])
    log_met = np.log(lib.metallicities[order])

    transition = transition_from_points(spectra, epsilon=epsilon)
    decomposition = decompose(transition, r)
    coords = embed(decomposition, t, decomposition.eigenvalues.size).coords

    centroids = _kmeans_pp_seed(coords, k, np.random.default_rng(seed))
    labels_prev = None
    wcss_history = []
    for _ in range(_LLOYD_MAX_ITER):
        labels, d2 = kernels.assign_nearest(coords, centroids)
        wcss_history.append(float(d2.sum()))
        if labels_prev is not None and np.array_equal(labels, labels_prev):
            break
        labels_prev = labels
        _cluster_means(coords, labels, centroids)
        empties = np.flatnonzero(np.bincount(labels, minlength=k) == 0)
        if empties.size:
            centroids[empties] = coords[np.argsort(-d2, kind="stable")[:empties.size]]

    if empties.size:  # counted by the last Lloyd step, on the final labels
        raise NumericalError(
            f"k-means left {empties.size} empty clusters; "
            "k exceeds the number of distinguishable components"
        )
    # library row i is sorted row inverse[i]; stable, as the default int64
    # sort maps in 0.3 MB more of numpy's code and so of peak RSS
    inverse = np.argsort(order, kind="stable")
    return PrototypeSet(
        prototypes=_cluster_means(spectra, labels, np.empty((k, lib.n_bins))),
        log_ages=_cluster_means(log_age, labels, np.empty(k)),
        log_metallicities=_cluster_means(log_met, labels, np.empty(k)),
        member_assignments=labels[inverse],
        centroids_diffusion=centroids,
        member_coords_diffusion=coords[inverse],
        wcss_history=wcss_history,
        epsilon=transition.epsilon,
    )


def grid_prototypes(lib: ComponentLibrary, k: int) -> PrototypeSet:
    """Baseline: pick the K components nearest a uniform (log t, log Z) grid.

    Grid nodes are the product of cell centers over each parameter range
    scaled to [0, 1], with k1 = ceil(sqrt(K)) by ceil(K / k1) cells when
    both parameters vary and K cells along age otherwise (along
    metallicity when only it varies); the first K nodes in row-major
    order are kept, and a constant parameter holds its nodes at 0.  Each
    node claims its nearest unclaimed component.  Selected components are
    returned verbatim, ordered by library index.
    """
    n = lib.n_components
    k = check_int(k, 1, n, "k")
    log_age = np.log(lib.ages)
    log_met = np.log(lib.metallicities)
    cols, varies = [], []
    for vals in (log_age, log_met):
        lo, hi = float(vals.min()), float(vals.max())
        varies.append(hi > lo)
        cols.append((vals - lo) / (hi - lo) if hi > lo else np.zeros(n))
    params = np.column_stack(cols)

    k1 = math.ceil(math.sqrt(k)) if all(varies) else (1 if varies[1] else k)
    axes = [(np.arange(count) + 0.5) / count if vary else np.zeros(count)
            for count, vary in zip((k1, math.ceil(k / k1)), varies)]
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)[:k]

    taken = np.zeros(n, dtype=bool)
    for d2 in kernels.cross_sq_dists(nodes, params):
        d2[taken] = np.inf
        taken[np.argmin(d2)] = True
    sel = np.flatnonzero(taken)

    labels = kernels.assign_nearest(params, params[sel])[0]
    labels[sel] = np.arange(k)  # a selected component always owns itself
    return PrototypeSet(prototypes=lib.spectra[sel], log_ages=log_age[sel],
                        log_metallicities=log_met[sel], member_assignments=labels)


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    v = check_array(v, (None,), "v")
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, v.size + 1)
    rho = np.nonzero(u * ks > css - 1.0)[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def kkt_residual(gamma: np.ndarray, grad: np.ndarray) -> float:
    """Stationarity violation on the simplex: active gradients must agree,
    inactive gradients must not beat them."""
    mu = float(gamma @ grad)
    active = gamma > 1e-12
    viol = 0.0
    if active.any():
        viol = float(np.max(np.abs(grad[active] - mu)))
    if (~active).any():
        viol = max(viol, float(np.max(mu - grad[~active])))
    return max(viol, 0.0)


def _affine_minimizer(gram: np.ndarray, lin: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Minimize 0.5 z'Gz - lin'z over the affine hull sum(z) = 1 of ``support``.

    Solves the bordered system [G_SS 1; 1' 0] [z; nu] = [lin_S; 1] by least
    squares, since G_SS is singular when prototypes are affinely dependent.
    """
    m = support.size
    system = np.ones((m + 1, m + 1))
    system[:m, :m] = gram[np.ix_(support, support)]
    system[m, m] = 0.0
    rhs = np.append(lin[support], 1.0)
    return np.linalg.lstsq(system, rhs, rcond=None)[0][:m]


def fit_mixture(proto: PrototypeSet, y: np.ndarray, noise_sd: float = 1.0) -> MixtureFit:
    """Simplex-constrained least squares fit of y to the prototypes.

    Under iid Gaussian noise the maximum-likelihood mixture weights solve
    min ||y - gamma @ P||^2 over the simplex, independent of the noise
    scale; ``noise_sd`` is validated but does not move the optimum.

    Solved exactly by a primal active-set method (Lawson & Hanson's NNLS
    scheme carried from the nonnegative orthant to the simplex): start at
    the best vertex, admit the index with the most negative reduced
    gradient, minimize over the affine hull of the passive set, and step
    back to the boundary, dropping an index, whenever a passive weight
    would turn nonpositive.  A result whose KKT residual exceeds
    ``KKT_TOL`` raises ``NumericalError``.

    The fitted model gamma @ P is unique, but gamma itself need not be:
    when the prototypes are affinely dependent the optimum is a whole face
    of the simplex, and the solver returns the deterministic point it
    reaches from the best vertex.  The derived mean log age and log
    metallicity then depend on that choice.
    """
    check_real(noise_sd, True, "noise_sd")
    p = proto.prototypes
    y = check_array(y, (p.shape[1],), "observation")
    k = p.shape[0]
    gram = 2.0 * (p @ p.T)
    lin = 2.0 * (p @ y)
    # reduced gradients this close to zero are rounding, not descent
    tol = 1e-12 * max(float(np.abs(gram).max()), float(np.abs(lin).max()), 1.0)

    gamma = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    vertex = int(np.argmin(0.5 * np.diag(gram) - lin))
    gamma[vertex] = 1.0
    passive[vertex] = True
    for _ in range(3 * k):
        grad = gram @ gamma - lin
        reduced = grad - float(gamma @ grad)
        reduced[passive] = np.inf
        enter = int(np.argmin(reduced))
        if not reduced[enter] < -tol:
            break
        passive[enter] = True
        support = np.flatnonzero(passive)
        z = _affine_minimizer(gram, lin, support)
        if z[support == enter][0] <= 0:
            # exact arithmetic gives the entering weight a positive value;
            # losing that to rounding means no descent is left to take
            break
        while (z <= 0).any():
            current = gamma[support]
            blocked = z <= 0
            ratios = current[blocked] / (current[blocked] - z[blocked])
            alpha = float(ratios.min())
            gamma[support] = current + alpha * (z - current)
            drop = support[blocked][ratios <= alpha]
            gamma[drop] = 0.0
            passive[drop] = False
            support = np.flatnonzero(passive)
            z = _affine_minimizer(gram, lin, support)
        gamma[support] = z

    residual = kkt_residual(gamma, gram @ gamma - lin)
    if not residual <= KKT_TOL:
        raise NumericalError(
            f"simplex solver reached KKT residual {residual:.2e}, above {KKT_TOL}"
        )
    model = gamma @ p
    rss = float(np.sum((y - model) ** 2))
    return MixtureFit(
        gamma=gamma,
        residual=rss,
        mean_log_age=float(gamma @ proto.log_ages),
        mean_log_met=float(gamma @ proto.log_metallicities),
    )


@dataclass(frozen=True)
class TrialRecord:
    true_log_age: float
    est_log_age: float
    true_log_met: float
    est_log_met: float


@dataclass(frozen=True)
class MethodBenchmark:
    name: str
    rmse_log_age: float
    rmse_log_met: float
    trials: tuple


@dataclass(frozen=True)
class QuantizationReport:
    k: int
    n_trials: int
    noise_sd: float
    seed: int
    diffusion: MethodBenchmark
    grid: MethodBenchmark
    diffusion_set: PrototypeSet

    def to_dict(self):
        return {
            "k": self.k,
            "n_trials": self.n_trials,
            "noise_sd": self.noise_sd,
            "seed": self.seed,
            "methods": {
                "diffusion": asdict(self.diffusion),
                "grid": asdict(self.grid),
            },
            "kmeans_wcss": list(self.diffusion_set.wcss_history),
        }


def quantization_benchmark(lib: ComponentLibrary, k: int, n_trials: int,
                           noise_sd: float, seed: int, t: int = 1,
                           r: Optional[int] = None) -> QuantizationReport:
    """Compare target-parameter recovery of the two prototype selections.

    Each trial draws simplex weights over the full library, synthesizes a
    noisy observation, fits it against both prototype sets, and records
    estimated versus true mean log age / log metallicity.  Per-trial
    randomness is keyed by (seed, trial index).
    """
    check_int(n_trials, 1, None, "n_trials")
    noise_sd = check_real(noise_sd, False, "noise_sd")
    protos = {
        "diffusion": diffusion_kmeans(lib, k, t=t, r=r, seed=seed),
        "grid": grid_prototypes(lib, k),
    }
    log_age = np.log(lib.ages)
    log_met = np.log(lib.metallicities)
    records = {name: [] for name in protos}
    for trial in range(n_trials):
        rng = np.random.default_rng([seed, trial])
        weights = rng.dirichlet(np.ones(lib.n_components))
        with np.errstate(over="ignore"):
            observation = weights @ lib.spectra + noise_sd * rng.normal(size=lib.n_bins)
            if not np.isfinite(observation @ observation):
                raise ValidationError(f"noise_sd={noise_sd!r} is too large: the squared "
                                      "norm of a noisy observation overflows")
        true_la = float(weights @ log_age)
        true_lz = float(weights @ log_met)
        for name, proto in protos.items():
            fit = fit_mixture(proto, observation)
            records[name].append(TrialRecord(
                true_log_age=true_la,
                est_log_age=fit.mean_log_age,
                true_log_met=true_lz,
                est_log_met=fit.mean_log_met,
            ))

    def summarize(name):
        recs = records[name]
        err_la = np.array([tr.est_log_age - tr.true_log_age for tr in recs])
        err_lz = np.array([tr.est_log_met - tr.true_log_met for tr in recs])
        return MethodBenchmark(
            name=name,
            rmse_log_age=float(np.sqrt(np.mean(err_la ** 2))),
            rmse_log_met=float(np.sqrt(np.mean(err_lz ** 2))),
            trials=tuple(recs),
        )

    return QuantizationReport(
        k=k, n_trials=n_trials, noise_sd=noise_sd, seed=seed,
        diffusion=summarize("diffusion"), grid=summarize("grid"),
        diffusion_set=protos["diffusion"],
    )


def load_component_library(path, ref_index: int = 0) -> ComponentLibrary:
    """Read a library CSV: columns id (optional), age, met, then spectrum bins."""
    spectra, _, (ages, mets) = parse_table(path).split(labels=("age", "met"), role="library")
    return ComponentLibrary.normalize(spectra, ages, mets, ref_index=ref_index)
