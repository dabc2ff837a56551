"""solenoidlab: numerics for triangular solenoid attractors.

The package computes the pressure-equation dimension prediction for
parametric solenoid families, builds attractor point clouds and
box-counting fits, and probes unstable-lamination transversality,
holonomy regularity, and measure-density behavior at desk scale.
"""

from .errors import (CapExceededError, ConfigError, ResolutionError,
                     SolenoidError, SpecInvalidError, WordTooShortError)
from .geometry import (DimensionFit, PointCloud, attractor_cloud,
                       box_dimension, local_density_stats,
                       overlap_multiplicity, project_cloud, slice_cloud)
from .lamination import (HolonomyReport, IntersectionRecord,
                         build_gamma_pool, holonomy_lipschitz_scan,
                         leaf_intersections, min_transversal_angle,
                         strong_lipschitz_test)
from .maps import (SolenoidSpec, ValidationReport, benchmark_a, benchmark_b,
                   benchmark_c, validate_spec)
from .thermo import (GibbsModel, PressureBracket, RegimeFlags,
                     build_gibbs_model, classify_regime, deviation_decay,
                     nl_dimension_bound, pressure_bracket, solve_bowen)

__version__ = "0.1.0"

__all__ = [
    "SolenoidSpec", "ValidationReport", "validate_spec",
    "PressureBracket", "GibbsModel", "RegimeFlags",
    "pressure_bracket", "solve_bowen", "build_gibbs_model",
    "classify_regime", "nl_dimension_bound", "deviation_decay",
    "PointCloud", "DimensionFit", "slice_cloud", "attractor_cloud",
    "project_cloud", "box_dimension", "local_density_stats",
    "overlap_multiplicity",
    "IntersectionRecord", "HolonomyReport", "leaf_intersections",
    "min_transversal_angle", "holonomy_lipschitz_scan",
    "strong_lipschitz_test", "build_gamma_pool",
    "benchmark_a", "benchmark_b", "benchmark_c",
    "SolenoidError", "SpecInvalidError", "CapExceededError",
    "WordTooShortError", "ResolutionError", "ConfigError",
    "__version__",
]
