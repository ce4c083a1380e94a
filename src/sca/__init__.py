"""Spectral connectivity analysis: diffusion maps, out-of-sample extension,
eigenbasis regression, and diffusion K-means prototype selection."""

from .dataset import DataSet, Dissimilarity, load_dataset, pairwise_dissimilarity
from .errors import NumericalError, ValidationError
from .markov import (
    StationaryDistribution,
    TransitionMatrix,
    build_transition,
    default_epsilon,
    stationary_distribution,
    transition_from_points,
)
from .nystrom import (
    ExtensionModel,
    build_extension,
    extend_eigenfunctions,
    extend_embedding,
)
from .prototypes import (
    ComponentLibrary,
    MixtureFit,
    PrototypeSet,
    QuantizationReport,
    diffusion_kmeans,
    fit_mixture,
    grid_prototypes,
    quantization_benchmark,
)
from .regression import EigenbasisRegression, fit, predict, risk_curve
from .spectral import (
    DiffusionEmbedding,
    SpectralDecomposition,
    decompose,
    embed,
)
from .synthetic import GeneratorSpec, generate

__version__ = "0.1.0"

__all__ = [
    "ComponentLibrary",
    "DataSet",
    "DiffusionEmbedding",
    "Dissimilarity",
    "EigenbasisRegression",
    "ExtensionModel",
    "GeneratorSpec",
    "MixtureFit",
    "NumericalError",
    "PrototypeSet",
    "QuantizationReport",
    "SpectralDecomposition",
    "StationaryDistribution",
    "TransitionMatrix",
    "ValidationError",
    "build_extension",
    "build_transition",
    "decompose",
    "default_epsilon",
    "diffusion_kmeans",
    "embed",
    "extend_eigenfunctions",
    "extend_embedding",
    "fit",
    "fit_mixture",
    "generate",
    "grid_prototypes",
    "load_dataset",
    "pairwise_dissimilarity",
    "predict",
    "quantization_benchmark",
    "risk_curve",
    "stationary_distribution",
    "transition_from_points",
]
