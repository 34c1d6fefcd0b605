"""Persistence and extinction analysis for stochastic Kolmogorov population systems."""

__version__ = "0.1.0"

from .errors import StokolmoError
from .model import KolmogorovModel, cholesky_factor, load_model, parse_model, restrict_to_face
from .engine import (
    EnsembleStats,
    OccupationHistogram,
    SimConfig,
    Trajectory,
    simulate_ensemble,
    simulate_path,
)
from .measures import (
    AnalysisBudget,
    ErgodicMeasure,
    InvasionRateTable,
    StationaryDensity1D,
    discover_boundary,
    lv_face_equilibrium,
    stationary_density_1d,
)
from .classify import (
    MeasurePartition,
    PersistenceCertificate,
    PersistenceRefusal,
    Verdict,
    check_persistence,
    classify,
    maximin_weights,
    partition_measures,
)
from .assumptions import AssumptionReport, run_assumption_checks
from .foodchain import (
    FoodChainParams,
    FoodChainVerdict,
    classify_food_chain,
    foodchain_to_model,
    load_food_chain,
)
from .verify import (
    EnsembleReport,
    detect_blowup_signature,
    estimate_basin_probabilities,
    tv_distance,
    verify_verdict,
)
from .report import RunReport, canonical_json, write_report

__all__ = [
    "StokolmoError",
    "KolmogorovModel",
    "cholesky_factor",
    "load_model",
    "parse_model",
    "restrict_to_face",
    "SimConfig",
    "Trajectory",
    "OccupationHistogram",
    "EnsembleStats",
    "simulate_path",
    "simulate_ensemble",
    "AnalysisBudget",
    "ErgodicMeasure",
    "InvasionRateTable",
    "StationaryDensity1D",
    "discover_boundary",
    "lv_face_equilibrium",
    "stationary_density_1d",
    "Verdict",
    "PersistenceCertificate",
    "PersistenceRefusal",
    "MeasurePartition",
    "maximin_weights",
    "check_persistence",
    "partition_measures",
    "classify",
    "AssumptionReport",
    "run_assumption_checks",
    "FoodChainParams",
    "FoodChainVerdict",
    "classify_food_chain",
    "foodchain_to_model",
    "load_food_chain",
    "EnsembleReport",
    "verify_verdict",
    "estimate_basin_probabilities",
    "detect_blowup_signature",
    "tv_distance",
    "RunReport",
    "canonical_json",
    "write_report",
    "__version__",
]
