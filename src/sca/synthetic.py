"""Deterministic generators for test manifolds and component libraries.

Each generator is a pure function of its spec.  Noise is drawn from a
generator keyed by (seed, point index), so per-point values do not
depend on generation order or on how many points follow.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dataset import DataSet
from .errors import ValidationError
from .prototypes import ComponentLibrary

KINDS = ("swiss-roll", "noisy-circle", "line-chain",
         "component-families", "degenerate-components")

DATASET_KINDS = ("swiss-roll", "noisy-circle", "line-chain")
LIBRARY_KINDS = ("component-families", "degenerate-components")

SWISS_ROLL_HEIGHT = 10.0   # swiss-roll width
LINE_CHAIN_LENGTH = 1.0    # line-chain extent


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    n: int
    noise_sd: float = 0.0
    seed: int = 0
    # kind-specific shape parameters
    n_families: int = 3        # component-families
    n_bins: int = 40           # library curve resolution
    separation: float = 0.05   # degenerate-components family offset

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown generator kind {self.kind!r}; expected {KINDS}")
        if self.n < 2:
            raise ValidationError(f"n must be >= 2, got {self.n}")
        if not 0 <= self.noise_sd < np.inf:
            raise ValidationError(f"noise_sd must be finite and nonnegative, got {self.noise_sd}")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        if self.kind == "component-families" and not 1 <= self.n_families <= self.n:
            raise ValidationError("n_families must lie in [1, n]")
        if self.kind in LIBRARY_KINDS and self.n_bins < 8:
            raise ValidationError("n_bins must be >= 8")
        if not 0 <= self.separation < np.inf:
            raise ValidationError(
                f"separation must be finite and nonnegative, got {self.separation}")


def _point_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _swiss_roll(spec: GeneratorSpec) -> DataSet:
    points = np.empty((spec.n, 3))
    response = np.empty(spec.n)
    for i in range(spec.n):
        rng = _point_rng(spec.seed, i)
        u = rng.random()
        v = rng.random()
        noise = rng.normal(size=3)
        theta = 1.5 * math.pi * (1.0 + 2.0 * u)
        points[i] = (
            theta * math.cos(theta),
            SWISS_ROLL_HEIGHT * v,
            theta * math.sin(theta),
        )
        points[i] += spec.noise_sd * noise
        # arc length of the spiral rho = theta from 0 to theta
        response[i] = 0.5 * (theta * math.hypot(1.0, theta) + math.asinh(theta))
    return DataSet(points=points, ids=tuple(str(i) for i in range(spec.n)),
                   response=response)


def _noisy_circle(spec: GeneratorSpec) -> DataSet:
    points = np.empty((spec.n, 2))
    response = np.empty(spec.n)
    for i in range(spec.n):
        rng = _point_rng(spec.seed, i)
        noise = rng.normal(size=2)
        angle = 2.0 * math.pi * i / spec.n
        points[i] = (math.cos(angle), math.sin(angle))
        points[i] += spec.noise_sd * noise
        response[i] = angle
    return DataSet(points=points, ids=tuple(str(i) for i in range(spec.n)),
                   response=response)


def _line_chain(spec: GeneratorSpec) -> DataSet:
    points = np.empty((spec.n, 1))
    response = np.empty(spec.n)
    for i in range(spec.n):
        rng = _point_rng(spec.seed, i)
        noise = rng.normal(size=1)
        position = LINE_CHAIN_LENGTH * i / (spec.n - 1)
        points[i, 0] = position + spec.noise_sd * noise[0]
        response[i] = position
    return DataSet(points=points, ids=tuple(str(i) for i in range(spec.n)),
                   response=response)


def _smooth_curve(grid: np.ndarray, slope: float, depth: float) -> np.ndarray:
    """Continuum with slope/curvature plus two absorption-like dips."""
    curve = 1.0 + slope * grid + 0.3 * (slope + 1.0) * grid ** 2
    curve = curve - depth * np.exp(-((grid - 0.35) ** 2) / (2.0 * 0.04 ** 2))
    curve = curve - 0.5 * depth * np.exp(-((grid - 0.7) ** 2) / (2.0 * 0.03 ** 2))
    return curve


def _component_families(spec: GeneratorSpec) -> ComponentLibrary:
    grid = np.linspace(0.0, 1.0, spec.n_bins)
    groups = np.array_split(np.arange(spec.n), spec.n_families)
    la_centers = np.linspace(math.log(0.5), math.log(10.0), spec.n_families)
    lz_centers = np.linspace(math.log(0.005), math.log(0.04), spec.n_families)
    spectra = np.empty((spec.n, spec.n_bins))
    log_age = np.empty(spec.n)
    log_met = np.empty(spec.n)
    for fam, members in enumerate(groups):
        count = len(members)
        for rank, i in enumerate(members):
            u = rank / (count - 1) if count > 1 else 0.5
            log_age[i] = la_centers[fam] + 0.2 * (u - 0.5)
            log_met[i] = lz_centers[fam] + 0.15 * (u - 0.5)
            slope = -1.0 + 2.0 * fam / max(spec.n_families - 1, 1) + 0.08 * (u - 0.5)
            depth = 0.15 + 0.3 * fam / max(spec.n_families - 1, 1) + 0.05 * (u - 0.5)
            rng = _point_rng(spec.seed, int(i))
            spectra[i] = _smooth_curve(grid, slope, depth)
            spectra[i] += spec.noise_sd * rng.normal(size=spec.n_bins)
    return ComponentLibrary.normalize(
        spectra, np.exp(log_age), np.exp(log_met), ref_index=0
    )


def _degenerate_components(spec: GeneratorSpec) -> ComponentLibrary:
    """Two families with disjoint parameters but near-identical curves.

    Matched members of the old family differ from the young family only
    by ``separation`` times a fixed bump, so the families collapse onto
    each other in observable space as separation -> 0 while log age
    stays far apart.
    """
    grid = np.linspace(0.0, 1.0, spec.n_bins)
    n_young = spec.n // 2
    bump = np.exp(-((grid - 0.55) ** 2) / (2.0 * 0.05 ** 2))
    spectra = np.empty((spec.n, spec.n_bins))
    log_age = np.empty(spec.n)
    log_met = np.empty(spec.n)
    for i in range(spec.n):
        young = i < n_young
        count = n_young if young else spec.n - n_young
        rank = i if young else i - n_young
        u = rank / (count - 1) if count > 1 else 0.5
        slope = -1.0 + 2.0 * u
        depth = 0.15 + 0.25 * u
        if young:
            log_age[i] = math.log(0.5) + u * (math.log(2.5) - math.log(0.5))
            log_met[i] = math.log(0.008) + u * (math.log(0.02) - math.log(0.008))
            offset = 0.0
        else:
            log_age[i] = math.log(6.0) + u * (math.log(25.0) - math.log(6.0))
            log_met[i] = math.log(0.01) + u * (math.log(0.03) - math.log(0.01))
            offset = spec.separation
        rng = _point_rng(spec.seed, i)
        spectra[i] = _smooth_curve(grid, slope, depth) + offset * bump
        spectra[i] += spec.noise_sd * rng.normal(size=spec.n_bins)
    return ComponentLibrary.normalize(
        spectra, np.exp(log_age), np.exp(log_met), ref_index=0
    )


_GENERATORS = {
    "swiss-roll": _swiss_roll,
    "noisy-circle": _noisy_circle,
    "line-chain": _line_chain,
    "component-families": _component_families,
    "degenerate-components": _degenerate_components,
}


def generate(spec: GeneratorSpec):
    """Produce the DataSet or ComponentLibrary described by ``spec``."""
    return _GENERATORS[spec.kind](spec)
