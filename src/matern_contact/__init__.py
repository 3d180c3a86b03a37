"""Contact-distance distributions for Matern type-II hard-core point
processes: closed-form CDFs, seeded simulation, and comparison tooling.

The package exports what the README example, reading back the command line's
pattern dumps and handling its errors need, and the simulation stages a
benchmark times one by one. The building blocks live in the submodules
``geometry``, ``analytic``, ``simulate`` and ``estimate``."""

from .analytic import (
    ContactCase,
    ProcessParams,
    QuadratureError,
    RetentionFunction,
    contact_cdf,
    default_r_grid,
)
from .estimate import (
    ExperimentConfig,
    InsufficientDataError,
    nn_distances_cross,
    nn_distances_within,
    run_experiment,
)
from .geometry import DomainError
from .simulate import (
    CapacityError,
    MarkedPattern,
    PointLabel,
    Window,
    WindowFloorError,
    load_pattern,
    sample_ppp,
    thin_mhc_type2,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ContactCase",
    "DomainError",
    "ExperimentConfig",
    "InsufficientDataError",
    "MarkedPattern",
    "PointLabel",
    "ProcessParams",
    "QuadratureError",
    "RetentionFunction",
    "Window",
    "WindowFloorError",
    "contact_cdf",
    "default_r_grid",
    "load_pattern",
    "nn_distances_cross",
    "nn_distances_within",
    "run_experiment",
    "sample_ppp",
    "thin_mhc_type2",
]
