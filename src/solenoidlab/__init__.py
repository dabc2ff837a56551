"""solenoidlab: numerics for triangular solenoid attractors.

The package computes the pressure-equation dimension prediction for
parametric solenoid families, builds attractor point clouds and
box-counting fits, and probes unstable-lamination transversality,
holonomy regularity, and measure-density behavior at desk scale.
"""

from .coding import (Word, LeafPointResult, base_itinerary,
                     cylinder_base_interval, enumerate_cylinders,
                     point_from_backward_word)
from .errors import (CapExceededError, ConfigError, ResolutionError,
                     SolenoidError, SpecInvalidError, WordTooShortError)
from .geometry import (DimensionFit, PointCloud, attractor_cloud,
                       box_dimension, local_density_stats,
                       overlap_multiplicity, project_cloud, slice_cloud)
from .lamination import (HolonomyReport, IntersectionRecord, UnstableLeaf,
                         build_gamma_pool, holonomy_lipschitz_scan,
                         holonomy_map, leaf_intersections,
                         min_transversal_angle, strong_lipschitz_test,
                         unstable_leaf)
from .maps import (MapJet, Point3, SolenoidSpec, ValidationReport, apply_map,
                   benchmark_a, benchmark_b, benchmark_c, inverse_base,
                   iterate, validate_spec)
from .thermo import (GibbsModel, PressureBracket, RegimeFlags,
                     build_gibbs_model, classify_regime, deviation_decay,
                     lyapunov_exponents, nl_dimension_bound,
                     pressure_bracket, rate_function, solve_bowen)

__version__ = "0.1.0"

__all__ = [
    "SolenoidSpec", "Point3", "MapJet", "ValidationReport",
    "validate_spec", "apply_map", "inverse_base", "iterate",
    "Word", "LeafPointResult", "point_from_backward_word", "base_itinerary",
    "enumerate_cylinders", "cylinder_base_interval",
    "PressureBracket", "GibbsModel", "RegimeFlags",
    "pressure_bracket", "solve_bowen", "lyapunov_exponents",
    "build_gibbs_model", "classify_regime", "rate_function",
    "nl_dimension_bound", "deviation_decay",
    "PointCloud", "DimensionFit", "slice_cloud", "attractor_cloud",
    "project_cloud", "box_dimension", "local_density_stats",
    "overlap_multiplicity",
    "UnstableLeaf", "IntersectionRecord", "HolonomyReport", "unstable_leaf",
    "leaf_intersections", "min_transversal_angle", "holonomy_map",
    "holonomy_lipschitz_scan", "strong_lipschitz_test", "build_gamma_pool",
    "benchmark_a", "benchmark_b", "benchmark_c",
    "SolenoidError", "SpecInvalidError", "CapExceededError",
    "WordTooShortError", "ResolutionError", "ConfigError",
    "__version__",
]
