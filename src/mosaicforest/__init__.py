"""Layered tree forests on regular {p,q} tilings.

Builds {p,q} mosaics belt by belt as combinatorial maps, grows the layered
tree forest on them, and cross-validates three independent routes to the
same numbers: direct enumeration on the mosaic, the exact integer level
recursion, and eigen-decomposed closed forms over a quadratic field.
"""

from .errors import (
    DegenerateForestError,
    RepeatedEigenvalueError,
    SizeLimitError,
    SphericalSymbolError,
    StructureError,
    UnsupportedSymbolError,
)
from .forest import Forest, VertexClass, grow
from .mosaic import Mosaic, ValidationReport, build, validate
from .probability import (
    DistributionErrorReport,
    DistributionKind,
    RootDistribution,
    asymptotic_distribution,
    distribution_error_report,
    exact_distribution,
)
from .quadratic import QuadraticNumber, order_of_magnitude
from .recurrence import (
    Geometry,
    LayerCounts,
    SchlafliSymbol,
    Series,
    SpectralConstants,
    closed_form_count,
    cumulative_root_limit,
    cumulative_root_ratio,
    euclidean_counts,
    growth_ratio,
    growth_ratio_error,
    layer_counts,
    spectral_constants,
)
from .verify import cross_check

__version__ = "0.1.0"

__all__ = [
    "DegenerateForestError",
    "DistributionErrorReport",
    "DistributionKind",
    "Forest",
    "Geometry",
    "LayerCounts",
    "Mosaic",
    "QuadraticNumber",
    "RepeatedEigenvalueError",
    "RootDistribution",
    "SchlafliSymbol",
    "Series",
    "SizeLimitError",
    "SpectralConstants",
    "SphericalSymbolError",
    "StructureError",
    "UnsupportedSymbolError",
    "ValidationReport",
    "VertexClass",
    "asymptotic_distribution",
    "build",
    "closed_form_count",
    "cross_check",
    "cumulative_root_limit",
    "cumulative_root_ratio",
    "distribution_error_report",
    "euclidean_counts",
    "exact_distribution",
    "grow",
    "growth_ratio",
    "growth_ratio_error",
    "layer_counts",
    "order_of_magnitude",
    "spectral_constants",
    "validate",
]
