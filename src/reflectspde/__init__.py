"""Penalized simulation and verification suite for SPDEs reflected in the
closed unit ball of a Hilbert space.

The pieces: coefficient-space geometry (`hilbert`), concrete drift/noise
models (`models`, `tamednse`), structural-hypothesis audits (`hypotheses`),
the penalized stepping scheme (`penalize`), reflection-term bookkeeping
(`localtime`), ensemble studies (`montecarlo`), and the `reflectspde` CLI.
"""

from .errors import (
    BlowUpError,
    ConfigurationError,
    DimensionMismatchError,
    ModelEvaluationError,
    ReflectSPDEError,
    UnsupportedParameterError,
)
from .hilbert import (
    SpaceSpec,
    inner_h,
    norm_h,
    norm_v,
    penalty_gap,
    project_ball,
)
from .hypotheses import AuditReport, FieldSampler, constant_stability, run_all_audits
from .localtime import (
    boundary_leak,
    inequality_study,
    make_test_paths,
    total_variation,
    variational_gap,
)
from .models import (
    ModelBundle,
    ModelSpec,
    NoiseSpec,
    REGISTRY,
    build_model,
    make_allen_cahn,
    make_oracle_1d,
    make_p_laplacian,
)
from .montecarlo import (
    Report,
    UniquenessReport,
    cauchy_study,
    oracle_compare_1d,
    run_estimates,
    uniqueness_check,
)
from .penalize import (
    PathRecord,
    SchemeConfig,
    brownian_increments,
    simulate_path,
    step_penalized,
)
from .tamednse import TamedSpec, build_lattice, make_tamed_nse, taming_g

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "BlowUpError",
    "ConfigurationError",
    "DimensionMismatchError",
    "FieldSampler",
    "ModelBundle",
    "ModelEvaluationError",
    "ModelSpec",
    "NoiseSpec",
    "PathRecord",
    "REGISTRY",
    "ReflectSPDEError",
    "Report",
    "SchemeConfig",
    "SpaceSpec",
    "TamedSpec",
    "UniquenessReport",
    "UnsupportedParameterError",
    "boundary_leak",
    "brownian_increments",
    "build_lattice",
    "build_model",
    "cauchy_study",
    "constant_stability",
    "inequality_study",
    "inner_h",
    "make_allen_cahn",
    "make_oracle_1d",
    "make_p_laplacian",
    "make_tamed_nse",
    "make_test_paths",
    "norm_h",
    "norm_v",
    "oracle_compare_1d",
    "penalty_gap",
    "project_ball",
    "run_all_audits",
    "run_estimates",
    "simulate_path",
    "step_penalized",
    "taming_g",
    "total_variation",
    "uniqueness_check",
    "variational_gap",
    "__version__",
]
