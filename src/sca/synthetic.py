"""Deterministic generators for test manifolds and component libraries.

Each generator is a pure function of its spec.  Point i draws from its
own stream, ``np.random.default_rng([seed, i])``, so per-point values do
not depend on generation order or on how many points follow.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .dataset import DataSet
from .errors import ValidationError, check_int, check_real
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
        # a point's index is one 32-bit word of its stream's seed
        check_int(self.n, 2, 2**32, "n")
        for name in ("noise_sd", "separation"):
            object.__setattr__(self, name, check_real(getattr(self, name), False, name))
        check_int(self.seed, 0, None, "seed")
        if self.kind == "component-families":
            check_int(self.n_families, 1, self.n, "n_families")
        if self.kind in LIBRARY_KINDS:
            check_int(self.n_bins, 8, None, "n_bins")


# numpy's SeedSequence hash with its 4-word pool
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = (1 << 32) - 1
_STREAM_CHUNK = 4096   # indices hashed per vectorized pass


def _hash_constants(init: int, mult: int):
    """The (xor, multiplier) pair of each successive hashmix call."""
    h = init
    while True:
        following = h * mult & _MASK32
        yield np.uint32(h), np.uint32(following)
        h = following


def _hashmix(value: np.ndarray, constants) -> np.ndarray:
    xor, mult = next(constants)
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _seed_words(seed: int, indices: np.ndarray) -> np.ndarray:
    """``SeedSequence([seed, i]).generate_state(4, np.uint64)`` for each
    uint32 index i, as the rows of an (m, 4) uint64 array.

    The entropy is seed's 32-bit words, low first ([0] for 0), then i's
    one word; pool words beyond it hash a zero, and words beyond the pool
    (seeds of 2**96 and up) get numpy's extra mixing pass.
    """
    entropy = []
    while True:
        entropy.append(np.full(indices.size, seed & _MASK32, np.uint32))
        seed >>= 32
        if not seed:
            break
    entropy.append(indices)
    zero = np.zeros(indices.size, np.uint32)
    with np.errstate(over="ignore"):
        constants = _hash_constants(_INIT_A, _MULT_A)
        pool = [_hashmix(entropy[j] if j < len(entropy) else zero, constants)
                for j in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants))
        for word in entropy[4:]:
            for dst in range(4):
                pool[dst] = _mix(pool[dst], _hashmix(word, constants))
        constants = _hash_constants(_INIT_B, _MULT_B)
        state = np.stack([_hashmix(pool[j % 4], constants) for j in range(8)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """A seed sequence whose PCG64 seed words are already hashed."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _point_rngs(seed: int, n: int):
    """Point i's stream, ``np.random.default_rng([seed, i])``, for i < n.

    The seed words come from a vectorized pass over a chunk of indices,
    and numpy's PCG64 seeds each point's own Generator from its row.  An
    index must fit one 32-bit word, as GeneratorSpec's bound on n ensures.
    """
    for start in range(0, n, _STREAM_CHUNK):
        indices = np.arange(start, min(start + _STREAM_CHUNK, n), dtype=np.uint32)
        for words in _seed_words(seed, indices):
            yield np.random.Generator(np.random.PCG64(_SeedWords(words)))


def _finite(values: np.ndarray, spec: GeneratorSpec) -> np.ndarray:
    """``values``, once checked finite: a noise_sd near the float range overflows
    them (separation >= 0 adds at most separation to curves near 1, and cannot)."""
    if not np.isfinite(values).all():
        raise ValidationError(f"noise_sd={spec.noise_sd!r} is too large: "
                              f"the {spec.kind} values overflow")
    return values


def _swiss_roll(spec: GeneratorSpec) -> DataSet:
    points = np.empty((spec.n, 3))
    response = np.empty(spec.n)
    sd = spec.noise_sd
    for i, rng in enumerate(_point_rngs(spec.seed, spec.n)):
        u = rng.random()
        v = rng.random()
        n0, n1, n2 = rng.normal(size=3).tolist()
        theta = 1.5 * math.pi * (1.0 + 2.0 * u)
        # one rounded product and sum per coordinate, as an array += would give
        points[i] = (
            theta * math.cos(theta) + sd * n0,
            SWISS_ROLL_HEIGHT * v + sd * n1,
            theta * math.sin(theta) + sd * n2,
        )
        # arc length of the spiral rho = theta from 0 to theta
        response[i] = 0.5 * (theta * math.hypot(1.0, theta) + math.asinh(theta))
    return DataSet(points=_finite(points, spec), ids=tuple(str(i) for i in range(spec.n)),
                   response=response)


def _noisy_circle(spec: GeneratorSpec) -> DataSet:
    points = np.empty((spec.n, 2))
    response = np.empty(spec.n)
    for i, rng in enumerate(_point_rngs(spec.seed, spec.n)):
        noise = rng.normal(size=2)
        angle = 2.0 * math.pi * i / spec.n
        points[i] = (math.cos(angle), math.sin(angle))
        points[i] += spec.noise_sd * noise
        response[i] = angle
    return DataSet(points=_finite(points, spec), ids=tuple(str(i) for i in range(spec.n)),
                   response=response)


def _line_chain(spec: GeneratorSpec) -> DataSet:
    points = np.empty((spec.n, 1))
    response = np.empty(spec.n)
    for i, rng in enumerate(_point_rngs(spec.seed, spec.n)):
        noise = rng.normal(size=1)
        position = LINE_CHAIN_LENGTH * i / (spec.n - 1)
        points[i, 0] = position + spec.noise_sd * noise[0]
        response[i] = position
    return DataSet(points=_finite(points, spec), ids=tuple(str(i) for i in range(spec.n)),
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
    streams = _point_rngs(spec.seed, spec.n)   # groups cover 0..n-1 in order
    for fam, members in enumerate(groups):
        count = len(members)
        for rank, i in enumerate(members):
            u = rank / (count - 1) if count > 1 else 0.5
            log_age[i] = la_centers[fam] + 0.2 * (u - 0.5)
            log_met[i] = lz_centers[fam] + 0.15 * (u - 0.5)
            slope = -1.0 + 2.0 * fam / max(spec.n_families - 1, 1) + 0.08 * (u - 0.5)
            depth = 0.15 + 0.3 * fam / max(spec.n_families - 1, 1) + 0.05 * (u - 0.5)
            rng = next(streams)
            spectra[i] = _smooth_curve(grid, slope, depth)
            spectra[i] += spec.noise_sd * rng.normal(size=spec.n_bins)
    return ComponentLibrary.normalize(
        _finite(spectra, spec), np.exp(log_age), np.exp(log_met), ref_index=0
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
    for i, rng in enumerate(_point_rngs(spec.seed, spec.n)):
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
        spectra[i] = _smooth_curve(grid, slope, depth) + offset * bump
        spectra[i] += spec.noise_sd * rng.normal(size=spec.n_bins)
    return ComponentLibrary.normalize(
        _finite(spectra, spec), np.exp(log_age), np.exp(log_met), ref_index=0
    )


_GENERATORS = {
    "swiss-roll": _swiss_roll,
    "noisy-circle": _noisy_circle,
    "line-chain": _line_chain,
    "component-families": _component_families,
    "degenerate-components": _degenerate_components,
}


def generate(spec: GeneratorSpec):
    """Produce the DataSet or ComponentLibrary described by ``spec``.

    Overflow is not warned about but checked: values that a huge noise_sd
    made infinite raise a ValidationError naming it.
    """
    with np.errstate(over="ignore"):
        return _GENERATORS[spec.kind](spec)
