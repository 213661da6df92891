"""Design-space exploration: sweeps, parallel engine and pareto analysis.

The paper argues the space of designs, policies and power-failure
scenarios "exponentially expands" and demands "an efficient, precise,
automated design tool" (Section I); this package is that tool's
exploration machinery, with harvest scenarios as a first-class axis.
"""

from repro.dse.aggregate import GroupAggregate, SweepAggregator
from repro.dse.engine import (
    SweepEngine,
    SweepFailure,
    SweepResult,
    SweepSpec,
    SweepStats,
)
from repro.dse.explorer import (
    DesignPoint,
    ExplorationRecord,
    SynthesisCache,
    evaluate_point,
    expand_points,
)
from repro.dse.faults import FaultPlan, FaultSpec
from repro.dse.pareto import hypervolume_2d, pareto_front, record_front
from repro.dse.request import (
    SweepRequest,
    dump_config,
    load_config_file,
    merge_config,
    request_from_config,
    request_to_config,
)
from repro.dse.resilience import (
    PoolSupervisor,
    ResilienceConfig,
    RetryPolicy,
    TransientEvalError,
    WorkerCrashError,
)
from repro.dse.scoring import best_pdp_by_group, pdp_degradation
from repro.dse.sqlite_store import SqliteResultStore
from repro.dse.store import (
    STORE_SCHEMA_VERSION,
    JsonlResultStore,
    ResultStore,
    detect_backend,
    migrate_store,
    open_store,
    record_from_dict,
    record_key_from_dict,
    record_to_dict,
)
from repro.dse.strategies import (
    STRATEGIES,
    DesignSpace,
    EvalOutcome,
    GridStrategy,
    ParetoEvolutionStrategy,
    Proposal,
    RandomStrategy,
    Range,
    SearchStrategy,
    SuccessiveHalvingStrategy,
    make_strategy,
)
from repro.dse.threshold_opt import (
    MarginOutcome,
    best_margin,
    sweep_safe_margin,
)

__all__ = [
    "STORE_SCHEMA_VERSION",
    "STRATEGIES",
    "DesignPoint",
    "DesignSpace",
    "EvalOutcome",
    "ExplorationRecord",
    "FaultPlan",
    "FaultSpec",
    "GridStrategy",
    "GroupAggregate",
    "JsonlResultStore",
    "MarginOutcome",
    "ParetoEvolutionStrategy",
    "PoolSupervisor",
    "Proposal",
    "RandomStrategy",
    "Range",
    "ResilienceConfig",
    "ResultStore",
    "RetryPolicy",
    "SearchStrategy",
    "SqliteResultStore",
    "SuccessiveHalvingStrategy",
    "SweepAggregator",
    "SweepEngine",
    "SweepFailure",
    "SweepRequest",
    "SweepResult",
    "SweepSpec",
    "SweepStats",
    "SynthesisCache",
    "TransientEvalError",
    "WorkerCrashError",
    "best_margin",
    "best_pdp_by_group",
    "detect_backend",
    "dump_config",
    "evaluate_point",
    "expand_points",
    "hypervolume_2d",
    "load_config_file",
    "make_strategy",
    "merge_config",
    "migrate_store",
    "open_store",
    "pareto_front",
    "pdp_degradation",
    "record_front",
    "record_from_dict",
    "record_key_from_dict",
    "record_to_dict",
    "request_from_config",
    "request_to_config",
    "sweep_safe_margin",
]
