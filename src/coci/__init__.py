"""Pure exploration for separable combinatorial rewards.

Identify the reward-maximizing combinatorial decision over unknown per-arm
parameters (means or variances) from as few samples as possible, using
confidence boxes and a consistency-of-the-optimum stopping rule. Ships
exact offline oracles for best-arm / top-k selection, water-resource
allocation, and integral sample allocation, plus hardness diagnostics and a
seeded Monte Carlo experiment harness.
"""

from .condition import arm_is_candidate
from .core import (
    ConfidenceBox,
    OracleSpec,
    ParameterVector,
    ProblemInstance,
    brute_force_maximizer,
    reward,
)
from .engine import CociState, RunResult, audit_xi, dump_trace, run_coci, run_uniform
from .errors import (
    CapacityError,
    CociError,
    ConfigError,
    DegenerateInstanceError,
    DomainError,
    UsageError,
)
from .estimators import EstimatorKind, clamp_box, confidence_radius, estimate
from .hardness import (
    HardnessReport,
    LambdaEstimate,
    WIDTH_TOP_K,
    compute_lambda,
    compute_reward_gaps,
    h_from_lambda,
    h_uniform_from_lambda,
    hardness_report,
    sample_complexity_bound,
)
from .oracles import (
    LinearCost,
    PowerCost,
    QuadraticCost,
    WaterSpec,
    make_best_arm_oracle,
    make_top_k_oracle,
    make_water_oracle,
    water_bi_monotone,
    water_maximizer,
)
from .osa import (
    GreedyOsaScratch,
    OsaSpec,
    greedy_osa,
    greedy_osa_detailed,
    greedy_scratch,
    make_osa_oracle,
)
from .sim import (
    ArmModel,
    Bernoulli,
    DiscreteSupport,
    PointMass,
    ScaledBeta,
    arm_for_variance,
    build_instance,
    default_models,
    sample,
)

__version__ = "0.1.0"

__all__ = [
    "ArmModel",
    "Bernoulli",
    "CapacityError",
    "CociError",
    "CociState",
    "ConfidenceBox",
    "ConfigError",
    "DegenerateInstanceError",
    "DiscreteSupport",
    "DomainError",
    "EstimatorKind",
    "GreedyOsaScratch",
    "HardnessReport",
    "LambdaEstimate",
    "LinearCost",
    "OracleSpec",
    "OsaSpec",
    "ParameterVector",
    "PointMass",
    "PowerCost",
    "ProblemInstance",
    "QuadraticCost",
    "RunResult",
    "ScaledBeta",
    "UsageError",
    "WIDTH_TOP_K",
    "WaterSpec",
    "arm_for_variance",
    "arm_is_candidate",
    "audit_xi",
    "brute_force_maximizer",
    "build_instance",
    "clamp_box",
    "compute_lambda",
    "compute_reward_gaps",
    "confidence_radius",
    "default_models",
    "dump_trace",
    "estimate",
    "greedy_osa",
    "greedy_osa_detailed",
    "greedy_scratch",
    "h_from_lambda",
    "h_uniform_from_lambda",
    "hardness_report",
    "make_best_arm_oracle",
    "make_osa_oracle",
    "make_top_k_oracle",
    "make_water_oracle",
    "reward",
    "run_coci",
    "run_uniform",
    "sample",
    "sample_complexity_bound",
    "water_bi_monotone",
    "water_maximizer",
]
