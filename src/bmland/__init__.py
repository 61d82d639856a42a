"""Landscape analysis toolkit for factorized low-rank matrix completion.

Builds block-structured measurement patterns, recovers uniquely completable
instances exactly by block propagation, and studies the nonconvex factorized
objective: derivatives, critical-point censuses, success-rate experiments,
and an ambiguity-distance estimator for the measurement operator.
"""

from .errors import BmlandError
from .graphs import (
    BlockSparsityGraph,
    GraphAnalysis,
    MeasurementSet,
    analyze_graph,
    build_erdos_renyi,
    build_named_pattern,
    full_measurement_set,
    induce_measurement_set,
)
from .instances import (
    McInstance,
    MembershipReport,
    assemble_instance,
    build_canonical_ground_truth,
    check_class_membership,
    compute_incoherence,
    perturb,
    random_block_factor,
)
from .completion import CompletionResult, solve_by_propagation
from .landscape import (
    LossSpec,
    canonicalize,
    dense_hessian,
    gradient,
    masked_residual,
    min_hessian_eigen,
    objective,
    restriction_map,
    value_and_gradient,
)
from .optimize import (
    Classification,
    GdConfig,
    Status,
    classify_critical_point,
    is_success,
    newton_refine,
    run_batch_chunked,
    sample_radial_init,
)
from .census import (
    CensusReport,
    CriticalPointRecord,
    EqualProbabilityReport,
    SuccessRateSpec,
    SuccessRateTable,
    check_lower_bound,
    equal_probability_test,
    known_global_minima,
    make_gamma_grid,
    multistart_census,
    success_rate_experiment,
    wilson_interval,
)
from .metric import MetricBudget, MetricEstimate, estimate_complexity_metric

__version__ = "0.1.0"

__all__ = [
    "BmlandError",
    "BlockSparsityGraph",
    "GraphAnalysis",
    "MeasurementSet",
    "analyze_graph",
    "build_erdos_renyi",
    "build_named_pattern",
    "full_measurement_set",
    "induce_measurement_set",
    "McInstance",
    "MembershipReport",
    "assemble_instance",
    "build_canonical_ground_truth",
    "check_class_membership",
    "compute_incoherence",
    "perturb",
    "random_block_factor",
    "CompletionResult",
    "solve_by_propagation",
    "LossSpec",
    "canonicalize",
    "dense_hessian",
    "gradient",
    "masked_residual",
    "min_hessian_eigen",
    "objective",
    "restriction_map",
    "value_and_gradient",
    "Classification",
    "GdConfig",
    "Status",
    "classify_critical_point",
    "is_success",
    "newton_refine",
    "run_batch_chunked",
    "sample_radial_init",
    "CensusReport",
    "CriticalPointRecord",
    "EqualProbabilityReport",
    "SuccessRateSpec",
    "SuccessRateTable",
    "check_lower_bound",
    "equal_probability_test",
    "known_global_minima",
    "make_gamma_grid",
    "multistart_census",
    "success_rate_experiment",
    "wilson_interval",
    "MetricBudget",
    "MetricEstimate",
    "estimate_complexity_metric",
]
