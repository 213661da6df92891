"""The parallel, cached, resumable sweep engine.

The paper frames DIAC as a design-exploration methodology whose space
"exponentially expands" with designs, policies and power-failure
scenarios.  This engine is the infrastructure that makes that expansion
tractable:

* **batching** — evaluation tasks are grouped by synthesis-stage key
  (circuit x policy), so every batch shares one
  characterization/tree/policy run via
  :class:`~repro.dse.explorer.SynthesisCache`;
* **parallelism** — batches fan out over a
  :class:`concurrent.futures.ProcessPoolExecutor` with a configurable
  worker count; point evaluation is pure, so parallel results are
  identical to the serial path, order included;
* **streaming + resume** — records stream to any
  :class:`~repro.dse.store.ResultStore` backend (JSONL or SQLite/WAL)
  as batches complete; a re-run against a partial store skips every
  point already on disk via the store's indexed ``keys()`` — resume
  never materializes the full record set;
* **one submission API** — :meth:`SweepEngine.submit` consumes a
  :class:`~repro.dse.request.SweepRequest`: a ``grid`` request walks
  its full-factorial :class:`SweepSpec`, any other strategy drives a
  :class:`~repro.dse.strategies.SearchStrategy` generation by
  generation, with unchanged store keys so adaptive searches resume
  exactly like grids;
* **one driver, three executors** — :func:`run_request` owns the grid
  walk and the ask/tell loop (dedup, resume, pruning, full-fidelity
  filtering, ordering, aggregation) and hands each batch of tasks to a
  :class:`TaskExecutor`: in-process, a supervised process pool, or the
  :mod:`repro.service` lease queue — so all three return the same
  result by construction;
* **fault tolerance** — execution is supervised by
  :class:`~repro.dse.resilience.ResilienceConfig`: transient failures
  (worker crashes, broken pools, injected chaos) retry with seeded
  backoff, overdue batches resubmit to fresh workers, dead pools are
  rebuilt, and after ``max_pool_deaths`` consecutive deaths the run
  degrades to serial in-process execution instead of thrashing.
  Deterministic evaluation errors fail fast into a single
  :class:`SweepFailure`; *any* other exception becomes a recorded
  failure too, never a destroyed sweep (see ``docs/robustness.md``).
"""

from __future__ import annotations

import time
import warnings
from collections import deque
from collections.abc import Iterable
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

from repro.circuits.netlist import Netlist
from repro.core.diac import DiacConfig
from repro.core.replacement import PlanMemo, ReplacementCriteria
from repro.dse.batch import batch_routing_enabled, evaluate_jobs_batched
from repro.dse.explorer import (
    DesignPoint,
    ExplorationRecord,
    SynthesisCache,
    evaluate_point,
    expand_points,
)
from repro.dse.faults import FaultPlan, key_text
from repro.dse.pareto import record_front
from repro.dse.resilience import (
    TRANSIENT,
    PoolSupervisor,
    ResilienceConfig,
    classify,
    describe_error,
)
from repro.dse.aggregate import SweepAggregator
from repro.dse.store import (
    ResultStore,
    config_fingerprint,
    value_fingerprint,
)
from repro.dse.strategies import EvalOutcome
from repro.energy.scenarios import ScenarioSpec
from repro.suite.registry import load_circuit
from repro.tech.nvm import MRAM, NvmTechnology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dse.request import SweepRequest

#: A task key: ``(circuit, *scenario.identity(), *point.identity())`` —
#: the exact-precision identity resume, dedup and failure bookkeeping
#: share.
_TaskKey = tuple

#: One evaluation task: ``(key, circuit, scenario, point)``.
_Task = tuple[_TaskKey, str, ScenarioSpec, DesignPoint]


#: Failure ``kind`` for points the static analysis proved infeasible
#: and the engine therefore never simulated (``analysis_prune=True``).
PRUNED = "pruned"


def _task_key(
    circuit: str, scenario: ScenarioSpec, point: DesignPoint
) -> _TaskKey:
    return (circuit, *scenario.identity(), *point.identity())


def _spec_axes(spec: "SweepSpec") -> dict:
    """JSON-representable axes payload for the spec fingerprint."""
    return {
        "circuits": list(spec.circuits),
        "policies": list(spec.policies),
        "budget_scales": list(spec.budget_scales),
        "technologies": [t.name for t in spec.technologies],
        "criteria_sets": [
            [c.level_weight, c.power_weight, c.fanio_weight]
            for c in spec.criteria_sets
        ],
        "safe_zones": list(spec.safe_zones),
        "threshold_scales": list(spec.threshold_scales),
        "safe_margin_scales": list(spec.safe_margin_scales),
        "scenarios": [list(s.identity()) for s in spec.scenarios],
    }


def expand_tasks(spec: "SweepSpec") -> list[_Task]:
    """The spec's deduplicated evaluation tasks, in spec order.

    Repeated axis values (e.g. the same circuit listed twice) collapse
    to one task, so every consumer — the in-process engine and the
    :mod:`repro.service` coordinator alike — sees one evaluation, one
    record and consistent stats per distinct point.
    """
    tasks: list[_Task] = []
    seen: set[_TaskKey] = set()
    for circuit, scenario, point in spec.points():
        key = _task_key(circuit, scenario, point)
        if key not in seen:
            seen.add(key)
            tasks.append((key, circuit, scenario, point))
    return tasks


def sync_store_metadata(
    store: ResultStore | None,
    base_config: DiacConfig | None,
    axes: object,
    resume: bool,
) -> None:
    """Stamp the run's spec fingerprint; warn before mixing configs.

    Resume keys cover the circuit, scenario and exact design point but
    NOT ``base_config`` — two stores written under different base
    configurations hold records that are not comparable, and nothing in
    the records themselves says so.  The store metadata therefore
    carries a two-part fingerprint: the base-config hash (mismatch =
    the silent-mixing hazard, warned about loudly) and the axes hash
    (provenance only — growing a spec and resuming is a supported
    workflow, not a mistake).
    """
    if store is None:
        return
    current = {
        "base_config": config_fingerprint(base_config),
        "axes": value_fingerprint(axes),
    }
    stored = store.get_metadata().get("spec_fingerprint")
    if (
        isinstance(stored, dict)
        and stored.get("base_config") not in (None, current["base_config"])
    ):
        verb = "resuming" if resume else "appending"
        warnings.warn(
            f"{getattr(store, 'path', store)}: store was "
            f"written under base configuration "
            f"{stored['base_config']} but this run uses "
            f"{current['base_config']}; {verb} mixes records that "
            "are not comparable — keep one store per base "
            "configuration",
            stacklevel=5,
        )
    store.set_metadata(spec_fingerprint=current)


def prune_tasks(
    pending: list[_Task],
    netlists: dict[str, Netlist],
    base_config: DiacConfig | None = None,
) -> tuple[list[_Task], dict[_TaskKey, "SweepFailure"]]:
    """Split pending tasks into (simulate, provably-infeasible).

    Uses only the ``INFEASIBLE`` verdict — ``DOMINATED`` points can
    still run, and pruning them would break record parity with a clean
    sweep.  Analysis errors downgrade to ``UNKNOWN`` inside
    :func:`~repro.analysis.assess_point`, so a point that cannot even
    be analysed still flows through the simulation path and fails with
    its canonical error.
    """
    from repro.analysis.feasibility import Verdict, assess_point

    caches: dict[str, SynthesisCache] = {}
    plans: PlanMemo = {}
    remaining: list[_Task] = []
    pruned: dict[_TaskKey, SweepFailure] = {}
    for key, circuit, scenario, point in pending:
        report = assess_point(
            netlists[circuit],
            point,
            base_config=base_config,
            cache=caches.setdefault(circuit, SynthesisCache()),
            scenario=scenario,
            plans=plans,
        )
        if report.verdict is Verdict.INFEASIBLE:
            pruned[key] = SweepFailure(
                circuit=circuit,
                label=point.label(),
                error=report.reason,
                scenario=scenario.label(),
                kind=PRUNED,
                attempts=0,
            )
        else:
            remaining.append((key, circuit, scenario, point))
    return remaining, pruned


@dataclass(frozen=True)
class SweepSpec:
    """Full-factorial description of one exploration run.

    Attributes:
        circuits: roster names (or keys of the ``netlists`` mapping given
            to :meth:`SweepEngine.submit`) to explore in one run.
        policies: task-granularity policies.
        budget_scales: barrier-budget multipliers.
        technologies: NVM technologies.
        criteria_sets: replacement criteria weightings.
        safe_zones: safe-zone runtime on/off.
        threshold_scales: uniform threshold-set scalings.
        safe_margin_scales: safe-zone width multipliers (``None`` keeps
            the derived default width).
        scenarios: harvest environments to evaluate every point under
            (see :mod:`repro.energy.scenarios`).
    """

    circuits: tuple[str, ...] = ("s27",)
    policies: tuple[int, ...] = (1, 2, 3)
    budget_scales: tuple[float, ...] = (0.5, 1.0, 2.0)
    technologies: tuple[NvmTechnology, ...] = (MRAM,)
    criteria_sets: tuple[ReplacementCriteria, ...] = (
        ReplacementCriteria(),
    )
    safe_zones: tuple[bool, ...] = (True, False)
    threshold_scales: tuple[float, ...] = (1.0,)
    safe_margin_scales: tuple[float | None, ...] = (None,)
    scenarios: tuple[ScenarioSpec, ...] = (ScenarioSpec(),)

    def __post_init__(self) -> None:
        for name in (
            "circuits",
            "policies",
            "budget_scales",
            "technologies",
            "criteria_sets",
            "safe_zones",
            "threshold_scales",
            "safe_margin_scales",
            "scenarios",
        ):
            if not getattr(self, name):
                raise ValueError(f"sweep axis {name!r} must be non-empty")
        # Reject invalid axis values up front, not minutes into a sweep.
        for policy in self.policies:
            if policy not in (1, 2, 3):
                raise ValueError(f"policy must be 1, 2 or 3, got {policy!r}")
        for axis, values in (
            ("budget_scales", self.budget_scales),
            ("threshold_scales", self.threshold_scales),
        ):
            if any(value <= 0 for value in values):
                raise ValueError(f"{axis} values must be positive")
        if any(
            scale is not None and scale <= 0
            for scale in self.safe_margin_scales
        ):
            raise ValueError("safe_margin_scales values must be positive")

    def points(self) -> list[tuple[str, ScenarioSpec, DesignPoint]]:
        """The full-factorial (circuit, scenario, point) list, in axis order."""
        expanded = expand_points(
            self.policies,
            self.budget_scales,
            self.technologies,
            self.criteria_sets,
            self.safe_zones,
            self.threshold_scales,
            self.safe_margin_scales,
        )
        return [
            (circuit, scenario, point)
            for circuit in self.circuits
            for scenario in self.scenarios
            for point in expanded
        ]

    def __len__(self) -> int:
        lengths = (
            len(self.circuits),
            len(self.policies),
            len(self.budget_scales),
            len(self.technologies),
            len(self.criteria_sets),
            len(self.safe_zones),
            len(self.threshold_scales),
            len(self.safe_margin_scales),
            len(self.scenarios),
        )
        total = 1
        for n in lengths:
            total *= n
        return total


@dataclass(frozen=True)
class SweepFailure:
    """One design point that could not be evaluated.

    Attributes:
        circuit: the sweep's name for the circuit.
        label: the failed point's display label.
        error: the exception message.
        scenario: display label of the environment the point failed
            under (a point may fail under one scenario and succeed
            under another — e.g. a trace too weak for its thresholds).
        kind: failure taxonomy bucket — ``terminal`` (deterministic
            evaluation error, failed fast exactly once), ``transient``
            (retryable error that exhausted its retry budget),
            ``unexpected`` (anything else; recorded instead of
            destroying the sweep), or ``pruned`` (the static analysis
            proved the simulator would raise; never evaluated, 0
            attempts).
        attempts: evaluation attempts this task consumed.
    """

    circuit: str
    label: str
    error: str
    scenario: str = ScenarioSpec().label()
    kind: str = "terminal"
    attempts: int = 1


@dataclass
class SweepStats:
    """Bookkeeping of one engine run.

    Attributes:
        n_points: distinct evaluation tasks requested (spec points for
            a grid, unique proposed (circuit, scenario, point) keys for
            a search).
        n_evaluated: points evaluated this run.
        n_resumed: points skipped because the store already had them.
        n_failed: points that raised instead of producing a record
            (searches count screening-fidelity evaluations too; the
            result's ``failures`` list covers only requested
            scenarios).
        n_batches: synthesis-stage groups fanned out.
        n_generations: strategy generations driven (0 for a grid).
        synthesize_calls: actual circuit characterizations performed.
        plan_builds: real NVM barrier walks (``insert_nvm`` plan-memo
            misses), summed over the batch-local plan memos of the
            serial and pool executors.  Like ``synthesize_calls``, the
            queue executor does not collect its workers' counts, so a
            coordinator run reports 0.
        workers: process count used (1 == serial in-process).
        wall_s: wall-clock duration of the run.
        n_pruned: points the static analysis proved infeasible and
            skipped without simulating (``analysis_prune=True`` only;
            each appears in ``failures`` with ``kind="pruned"``).
        n_retries: task re-evaluations scheduled after transient
            failures (each retry of one task counts once).
        n_timeouts: batches that overran their deadline and were
            resubmitted to fresh workers.
        n_pool_rebuilds: worker pools rebuilt after a death or
            deadline overrun.
        degraded_to_serial: whether consecutive pool deaths forced the
            rest of the run onto the serial in-process path.
    """

    n_points: int = 0
    n_evaluated: int = 0
    n_resumed: int = 0
    n_failed: int = 0
    n_pruned: int = 0
    n_batches: int = 0
    n_generations: int = 0
    synthesize_calls: int = 0
    plan_builds: int = 0
    workers: int = 1
    wall_s: float = 0.0
    n_retries: int = 0
    n_timeouts: int = 0
    n_pool_rebuilds: int = 0
    degraded_to_serial: bool = False

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of synthesis-stage groups served without synthesizing.

        Each of the run's ``n_batches`` (circuit, policy) groups needs one
        characterization when cold; every one the caches absorbed beyond
        the actual ``synthesize_calls`` was a hit.  0.0 on a fully cold
        run, approaching 1.0 when a long-lived cache (a generational
        search) serves every stage.
        """
        if self.n_batches <= 0:
            return 0.0
        return max(0.0, 1.0 - self.synthesize_calls / self.n_batches)

    @property
    def evals_per_s(self) -> float:
        """Fresh evaluations per wall-clock second (0.0 before timing)."""
        if self.wall_s <= 0.0:
            return 0.0
        return self.n_evaluated / self.wall_s


@dataclass
class SweepResult:
    """Records plus run statistics.

    ``records`` contains every successful record of the run — freshly
    evaluated and resumed-from-store alike — in the spec's point order
    (grids) or first-proposal task order (searches), whichever executor
    ran them; ``failures`` lists the points that raised (an infeasible
    safe-margin, a trace too weak for the configuration, or a scenario
    that no longer resolves — e.g. a moved power-log file) so one bad
    point never aborts the sweep.

    ``aggregate`` carries the per-(scenario, circuit) aggregates,
    folded in ``records`` order.  A result can also be a pure
    **store-backed view** (:meth:`from_store`): no ``records`` at all,
    every aggregate answered from the streamed accumulators — the
    memory-light way to inspect a store far larger than the process
    should hold.
    """

    records: list[ExplorationRecord] = field(default_factory=list)
    stats: SweepStats = field(default_factory=SweepStats)
    failures: list[SweepFailure] = field(default_factory=list)
    aggregate: SweepAggregator | None = None

    @classmethod
    def from_store(cls, store: ResultStore) -> "SweepResult":
        """A store-backed view: aggregates without the record list.

        ``best``/``front``/``fronts_by_scenario``/``best_by_scenario``/
        ``robustness`` all work; :meth:`by_scenario` (which by
        definition returns every record) stays empty.
        """
        return cls(aggregate=SweepAggregator.from_store(store))

    def _require_single_scenario(
        self,
        what: str,
        instead: str,
        groups: set[tuple[str, str]] | None = None,
    ) -> None:
        """Guard the cross-record aggregates against mixed groups.

        PDP values are only comparable inside one (scenario, circuit)
        pair — a stingy environment inflates every point's PDP, and a
        bigger circuit simply costs more — so aggregating records that
        mix scenarios *or* circuits would crown whichever record ran
        under the most generous scenario on the smallest circuit.
        """
        if groups is None:
            groups = {(r.scenario.label(), r.circuit) for r in self.records}
        if len(groups) > 1:
            names = ", ".join(
                f"{scenario}/{circuit}"
                for scenario, circuit in sorted(groups)
            )
            raise ValueError(
                f"{what}() is not meaningful across (scenario, circuit) "
                f"groups ({names}); use {instead}() or "
                "metrics.robustness_report()"
            )

    def best(self) -> ExplorationRecord:
        """The PDP-optimal record of a single-(scenario, circuit) sweep.

        Raises:
            ValueError: when the result holds no records, or records
                from more than one (scenario, circuit) group (use
                :meth:`best_by_scenario` /
                :func:`repro.metrics.robustness_report` instead).
        """
        if not self.records and self.aggregate is not None:
            candidates = self.aggregate.best()
            if not candidates:
                raise ValueError("no records to choose from")
            self._require_single_scenario(
                "best", "best_by_scenario", set(candidates)
            )
            return next(iter(candidates.values()))
        if not self.records:
            raise ValueError("no records to choose from")
        self._require_single_scenario("best", "best_by_scenario")
        return min(self.records, key=lambda r: r.pdp_js)

    def front(self) -> list[ExplorationRecord]:
        """The Pareto front of a single-(scenario, circuit) sweep.

        Raises:
            ValueError: on records from more than one (scenario,
                circuit) group (use :meth:`fronts_by_scenario` instead).
        """
        if not self.records and self.aggregate is not None:
            fronts = self.aggregate.fronts()
            self._require_single_scenario(
                "front", "fronts_by_scenario", set(fronts)
            )
            return next(iter(fronts.values()), [])
        self._require_single_scenario("front", "fronts_by_scenario")
        return record_front(self.records)

    def by_scenario(self) -> dict[tuple[str, str], list[ExplorationRecord]]:
        """Records grouped by (scenario label, circuit), first-seen order.

        PDP values are only comparable inside one (scenario, circuit)
        pair — a stingy scenario inflates every point's PDP, and a
        larger circuit's PDP dwarfs a smaller one's regardless of
        design quality — so this pair is the unit Pareto fronts and
        "best design" claims live at.
        """
        groups: dict[tuple[str, str], list[ExplorationRecord]] = {}
        for record in self.records:
            key = (record.scenario.label(), record.circuit)
            groups.setdefault(key, []).append(record)
        return groups

    def fronts_by_scenario(
        self,
    ) -> dict[tuple[str, str], list[ExplorationRecord]]:
        """Per-(scenario, circuit) efficiency/resiliency Pareto fronts.

        Computed from ``records`` (deterministic spec order) when they
        are present; a store-backed view answers from the streamed
        aggregates instead — same membership, aggregation order.
        """
        if not self.records and self.aggregate is not None:
            return self.aggregate.fronts()
        return {
            key: record_front(records)
            for key, records in self.by_scenario().items()
        }

    def best_by_scenario(self) -> dict[tuple[str, str], ExplorationRecord]:
        """The PDP-optimal record of each (scenario, circuit) group."""
        if not self.records and self.aggregate is not None:
            return self.aggregate.best()
        return {
            key: min(records, key=lambda r: r.pdp_js)
            for key, records in self.by_scenario().items()
        }

    def robustness(self) -> list:
        """Cross-scenario robustness entries, most robust first.

        :func:`repro.metrics.robustness.robustness_report` over the
        records, or the streamed equivalent for a store-backed view.
        """
        if not self.records and self.aggregate is not None:
            return self.aggregate.robustness()
        from repro.metrics.robustness import robustness_report

        return robustness_report(self.records)


#: Worker-process-global synthesis caches, keyed like the serial path's
#: per-circuit caches.  Only used when a generational search keeps its
#: worker pool alive across generations (``persistent_cache=True``) so
#: a (circuit, policy) stage synthesized in generation 1 is still warm
#: in generation N.
_PROCESS_CACHES: dict[str, SynthesisCache] = {}


def _evaluate_batch(
    circuit: str,
    netlist: Netlist,
    jobs: list[tuple[_TaskKey, ScenarioSpec, DesignPoint]],
    base_config: DiacConfig | None,
    persistent_cache: bool = False,
    fault_plan: FaultPlan | None = None,
) -> tuple[
    list[tuple[_TaskKey, ExplorationRecord]],
    int,
    int,
    list[tuple[_TaskKey, SweepFailure]],
]:
    """Evaluate one synthesis-stage group with a batch-local cache.

    Module-level so :class:`ProcessPoolExecutor` can pickle it; returns
    keyed records, the number of ``synthesize`` calls the batch cost
    (exactly one when the grouping works — scenarios share the stage,
    since the environment never changes the synthesized design), the
    number of real barrier walks (the batch's plan memo size: one per
    distinct budget/technology/criteria), and any keyed per-job
    failures.  The plan memo lives exactly as long as this call, even
    when ``persistent_cache`` keeps the synthesis stages.  ``circuit`` is the sweep's name for the
    netlist, which wins over ``netlist.name`` so resume keys stay stable
    for file-loaded circuits.  ``persistent_cache`` switches to the
    process-global cache so repeated batches in one worker (a
    generational search with a long-lived pool) share stages.

    Every per-job exception — deterministic, transient, or a genuine
    bug — becomes a classified :class:`SweepFailure` so one bad point
    never destroys its batch; the parent decides which kinds retry.
    ``fault_plan`` injects deterministic chaos just before each job
    (crash faults kill this worker process outright).
    """
    if persistent_cache:
        cache = _PROCESS_CACHES.setdefault(circuit, SynthesisCache())
    else:
        cache = SynthesisCache()
    calls_before = cache.synthesize_calls
    plans: PlanMemo = {}
    if fault_plan is None and len(jobs) > 1 and batch_routing_enabled():
        # Vector fast path: synthesis per job through the shared cache,
        # then one lockstep kernel run over every lane of the batch.
        # Results are bit-identical to the loop below (the batch module's
        # differential tests pin this), and per-job failures classify
        # exactly the same way.  Fault injection needs the per-job loop.
        keyed, errors = evaluate_jobs_batched(
            netlist, jobs, base_config=base_config, cache=cache, plans=plans
        )
        records = []
        for key, record in keyed:
            record.circuit = circuit
            records.append((key, record))
        meta = {key: (scenario, point) for key, scenario, point in jobs}
        failures = []
        for key, error in errors:
            scenario, point = meta[key]
            failures.append(
                (
                    key,
                    SweepFailure(
                        circuit=circuit,
                        label=point.label(),
                        error=describe_error(error),
                        scenario=scenario.label(),
                        kind=classify(error),
                    ),
                )
            )
        return (
            records, cache.synthesize_calls - calls_before, len(plans),
            failures,
        )
    records = []
    failures = []
    for key, scenario, point in jobs:
        try:
            if fault_plan is not None:
                fault_plan.fire(key_text(key))
            record = evaluate_point(
                netlist,
                point,
                base_config=base_config,
                cache=cache,
                scenario=scenario,
                plans=plans,
            )
        except Exception as error:
            failures.append(
                (
                    key,
                    SweepFailure(
                        circuit=circuit,
                        label=point.label(),
                        error=describe_error(error),
                        scenario=scenario.label(),
                        kind=classify(error),
                    ),
                )
            )
            continue
        record.circuit = circuit
        records.append((key, record))
    return (
        records, cache.synthesize_calls - calls_before, len(plans), failures
    )


def _stage_groups(
    tasks: list[_Task],
) -> dict[tuple[str, int], list[tuple[_TaskKey, ScenarioSpec, DesignPoint]]]:
    """Tasks grouped by synthesis stage (circuit x policy), in task order.

    Each group shares one characterization/tree/policy run; scenarios
    ride in the same group because they never change the synthesized
    design.
    """
    groups: dict[
        tuple[str, int], list[tuple[_TaskKey, ScenarioSpec, DesignPoint]]
    ] = {}
    for key, circuit, scenario, point in tasks:
        groups.setdefault((circuit, point.policy), []).append(
            (key, scenario, point)
        )
    return groups


def _persist(
    store: ResultStore | None, records: list[ExplorationRecord]
) -> None:
    """Stream produced records to the store as soon as they exist."""
    if store is None or not records:
        return
    if len(records) == 1:
        store.append(records[0])
    else:
        store.extend(records)


def fetch_records(
    store: ResultStore | None, tasks: Iterable[_Task]
) -> dict[_TaskKey, ExplorationRecord]:
    """The stored records of ``tasks``, keyed by task.

    One indexed ``iter_records(scenario=, circuit=)`` query per
    (scenario label, circuit) group, so resume never materializes the
    whole store.  When a key appears more than once on disk (a torn
    write healed by re-evaluation), the last record wins — the same
    rule as store compaction.  Tasks with no stored record are simply
    absent from the result.
    """
    fetched: dict[_TaskKey, ExplorationRecord] = {}
    if store is None:
        return fetched
    by_group: dict[tuple[str, str], set[_TaskKey]] = {}
    for key, circuit, scenario, _point in tasks:
        by_group.setdefault((scenario.label(), circuit), set()).add(key)
    for (label, circuit), keys in by_group.items():
        for record in store.iter_records(scenario=label, circuit=circuit):
            key = record.key()
            if key in keys:
                fetched[key] = record
    return fetched


def with_circuits(
    netlists: dict[str, Netlist] | None, circuits: Iterable[str]
) -> dict[str, Netlist]:
    """A copy of ``netlists`` with every roster circuit it lacks loaded.

    Raises:
        KeyError: for a circuit neither given nor on the roster.
    """
    loaded = dict(netlists or {})
    for name in circuits:
        if name not in loaded:
            loaded[name] = load_circuit(name)
    return loaded


#: What an executor returns for one batch: (records, failures), each
#: keyed by task.
_Evaluated = tuple[
    dict[_TaskKey, ExplorationRecord], dict[_TaskKey, SweepFailure]
]


class TaskExecutor(Protocol):
    """Where the sweep drivers send each batch of pending tasks.

    :func:`run_request` owns everything that decides *what* runs —
    dedup, resume, pruning, full-fidelity filtering, ordering and
    aggregation — and hands each batch to an executor that decides
    *where* it runs: in-process (:class:`_SerialExecutor`), on a
    supervised process pool (:class:`_PoolExecutor`), or through the
    :mod:`repro.service` lease queue.  An executor streams every record
    to the store as it is produced and adds what it did to ``stats``.
    """

    def evaluate(self, tasks: list[_Task], stats: SweepStats) -> _Evaluated:
        """Evaluate ``tasks``; return (records, failures) keyed by task."""
        ...  # pragma: no cover - protocol


class _SerialExecutor:
    """In-process evaluation with per-task retry on transients.

    The per-circuit synthesis caches live as long as the executor, so a
    generational search shares stages across generations.  Also the
    drain path after pool execution degrades: fault plans fire with
    ``allow_exit=False``, so an injected crash surfaces as a retryable
    exception instead of killing the sweep.
    """

    def __init__(
        self,
        netlists: dict[str, Netlist],
        base_config: DiacConfig | None,
        store: ResultStore | None,
        resilience: ResilienceConfig,
    ) -> None:
        self.netlists = netlists
        self.base_config = base_config
        self.store = store
        self.resilience = resilience
        # One cache per circuit key: the stage memo is keyed on
        # netlist.name, and two file-loaded circuits may share a name.
        self.caches: dict[str, SynthesisCache] = {}

    def close(self) -> None:
        """Nothing to release: the caches die with the executor."""

    def evaluate(self, tasks: list[_Task], stats: SweepStats) -> _Evaluated:
        fresh: dict[_TaskKey, ExplorationRecord] = {}
        failures: dict[_TaskKey, SweepFailure] = {}
        self.evaluate_into(tasks, stats, fresh, failures)
        # Serial "batches" mirror the pool's grouping for stats.
        stats.n_batches += len(_stage_groups(tasks))
        stats.n_evaluated += len(fresh)
        stats.n_failed += len(failures)
        return fresh, failures

    def evaluate_into(
        self,
        tasks: list[_Task],
        stats: SweepStats,
        fresh: dict[_TaskKey, ExplorationRecord],
        failures: dict[_TaskKey, SweepFailure],
    ) -> None:
        """Evaluate ``tasks`` into ``fresh``/``failures``.

        One plan memo serves the whole call (batched and per-task
        routes alike) and is dropped when it returns.
        """
        cfg = self.resilience
        policy = cfg.retry
        retry_enabled = policy.max_attempts > 1
        caches = self.caches
        for circuit in self.netlists:
            caches.setdefault(circuit, SynthesisCache())
        before = sum(c.synthesize_calls for c in caches.values())
        plans: PlanMemo = {}
        remaining = tasks
        if (
            cfg.fault_plan is None
            and len(tasks) > 1
            and batch_routing_enabled()
        ):
            remaining = self._run_batched(
                tasks, stats, fresh, failures, plans,
                retry_enabled=retry_enabled,
            )
        for key, circuit, scenario, point in remaining:
            attempts = 0
            while True:
                attempts += 1
                try:
                    if cfg.fault_plan is not None:
                        cfg.fault_plan.fire(key_text(key), allow_exit=False)
                    record = evaluate_point(
                        self.netlists[circuit],
                        point,
                        base_config=self.base_config,
                        cache=caches[circuit],
                        scenario=scenario,
                        plans=plans,
                    )
                except Exception as error:
                    kind = classify(error)
                    if (
                        kind == TRANSIENT
                        and retry_enabled
                        and attempts < policy.max_attempts
                    ):
                        stats.n_retries += 1
                        time.sleep(policy.delay_s(attempts, key_text(key)))
                        continue
                    failures[key] = SweepFailure(
                        circuit=circuit,
                        label=point.label(),
                        error=describe_error(error),
                        scenario=scenario.label(),
                        kind=kind,
                        attempts=attempts,
                    )
                    break
                fresh[key] = record
                _persist(self.store, [record])
                break
        stats.synthesize_calls += (
            sum(c.synthesize_calls for c in caches.values()) - before
        )
        stats.plan_builds += len(plans)

    def _run_batched(
        self,
        tasks: list[_Task],
        stats: SweepStats,
        fresh: dict[_TaskKey, ExplorationRecord],
        failures: dict[_TaskKey, SweepFailure],
        plans: PlanMemo,
        retry_enabled: bool,
    ) -> list[_Task]:
        """Serial fast path: one vector-kernel run per circuit group.

        Synthesis still happens per point through the shared per-circuit
        cache; only the executor runs are pooled, so the committed
        records are bit-identical to the per-task loop's.  Returns the
        tasks that still need that loop: transient failures when
        retrying is on (their first, batched attempt counts as a retry).
        Deterministic failures are recorded here with ``attempts=1``.
        """
        by_circuit: dict[str, list[_Task]] = {}
        for task in tasks:
            by_circuit.setdefault(task[1], []).append(task)
        leftovers: list[_Task] = []
        for circuit, group in by_circuit.items():
            records, errors = evaluate_jobs_batched(
                self.netlists[circuit],
                [(key, scenario, point) for key, _c, scenario, point in group],
                base_config=self.base_config,
                cache=self.caches[circuit],
                plans=plans,
            )
            for key, record in records:
                fresh[key] = record
                _persist(self.store, [record])
            if not errors:
                continue
            meta = {
                key: (scenario, point) for key, _c, scenario, point in group
            }
            for key, error in errors:
                kind = classify(error)
                scenario, point = meta[key]
                if kind == TRANSIENT and retry_enabled:
                    stats.n_retries += 1
                    leftovers.append((key, circuit, scenario, point))
                    continue
                failures[key] = SweepFailure(
                    circuit=circuit,
                    label=point.label(),
                    error=describe_error(error),
                    scenario=scenario.label(),
                    kind=kind,
                    attempts=1,
                )
        return leftovers


class _PoolExecutor:
    """Stage-group batches on a supervised process pool.

    One :class:`PoolSupervisor` serves every :meth:`evaluate` call.  A
    generational search passes ``persistent=True``: worker processes
    then keep process-global synthesis caches, so a (circuit, policy)
    stage synthesized in generation 1 is still warm in generation N,
    and a pool that died mid-generation is already rebuilt when the
    next one lands.  A grid evaluates once, with batch-local caches.
    """

    def __init__(
        self,
        workers: int,
        netlists: dict[str, Netlist],
        base_config: DiacConfig | None,
        store: ResultStore | None,
        resilience: ResilienceConfig,
        persistent: bool,
    ) -> None:
        self.netlists = netlists
        self.base_config = base_config
        self.store = store
        self.resilience = resilience
        self.supervisor = PoolSupervisor(workers, persistent=persistent)

    def close(self) -> None:
        """Shut the pool down."""
        self.supervisor.shutdown()

    def evaluate(self, tasks: list[_Task], stats: SweepStats) -> _Evaluated:
        groups = _stage_groups(tasks)
        stats.n_batches += len(groups)
        fresh: dict[_TaskKey, ExplorationRecord] = {}
        failures: dict[_TaskKey, SweepFailure] = {}
        self._supervise(groups, stats, fresh, failures)
        stats.n_evaluated += len(fresh)
        stats.n_failed += len(failures)
        return fresh, failures

    @staticmethod
    def _fail_batch(
        circuit: str,
        jobs: list[tuple[_TaskKey, ScenarioSpec, DesignPoint]],
        failures: dict[_TaskKey, SweepFailure],
        error: BaseException | None = None,
        message: str | None = None,
        kind: str | None = None,
        attempts: int = 1,
    ) -> None:
        """Record one failure per job of a batch that died as a whole."""
        if error is not None:
            message = describe_error(error)
            kind = classify(error)
        for key, scenario, point in jobs:
            failures[key] = SweepFailure(
                circuit=circuit,
                label=point.label(),
                error=message or "batch failed",
                scenario=scenario.label(),
                kind=kind or TRANSIENT,
                attempts=attempts,
            )

    def _supervise(
        self,
        groups: dict[
            tuple[str, int],
            list[tuple[_TaskKey, ScenarioSpec, DesignPoint]],
        ],
        stats: SweepStats,
        fresh: dict[_TaskKey, ExplorationRecord],
        failures: dict[_TaskKey, SweepFailure],
    ) -> None:
        """Supervised fan-out: deadlines, retries, rebuilds, degradation.

        The event loop keeps three collections: ``ready`` batches to
        submit, ``delayed`` single-task retry batches waiting out their
        backoff, and ``in_flight`` futures with optional deadlines.
        Worker-reported transient failures reschedule the *task* (with
        backoff); a broken pool or an overdue batch reschedules the
        *batch* onto a rebuilt pool; ``max_pool_deaths`` consecutive
        deaths drain everything left through the serial path instead.
        """
        cfg = self.resilience
        policy = cfg.retry
        supervisor = self.supervisor
        # (group key, jobs, batch attempt) triples ready to submit.
        ready: deque = deque(
            (gk, jobs, 1) for gk, jobs in groups.items()
        )
        # (not-before monotonic time, group key, jobs, attempt).
        delayed: list[tuple[float, tuple[str, int], list, int]] = []
        in_flight: dict = {}
        task_failures: dict[_TaskKey, int] = {}

        def submit(gk: tuple[str, int], jobs: list, attempt: int) -> None:
            circuit = gk[0]
            future = supervisor.pool.submit(
                _evaluate_batch, circuit, self.netlists[circuit],
                jobs, self.base_config,
                supervisor.persistent,
                cfg.fault_plan,
            )
            deadline = (
                time.monotonic() + cfg.batch_timeout_s
                if cfg.batch_timeout_s is not None
                else None
            )
            in_flight[future] = (gk, jobs, attempt, deadline)

        def handle_success(gk, jobs, batch) -> None:
            records, synth_calls, plan_builds, batch_failures = batch
            stats.synthesize_calls += synth_calls
            stats.plan_builds += plan_builds
            for key, record in records:
                fresh[key] = record
            # Persist batches as they finish, not in submission order,
            # so a kill mid-run loses at most the in-flight batches.
            _persist(self.store, [record for _key, record in records])
            now = time.monotonic()
            for key, failure in batch_failures:
                seen = task_failures.get(key, 0) + 1
                task_failures[key] = seen
                if failure.kind == TRANSIENT and seen < policy.max_attempts:
                    # Retry just this task, after its seeded backoff,
                    # as a single-job batch in the same stage group.
                    stats.n_retries += 1
                    job = next(j for j in jobs if j[0] == key)
                    delayed.append((
                        now + policy.delay_s(seen, key_text(key)),
                        gk, [job], seen + 1,
                    ))
                    continue
                failures[key] = SweepFailure(
                    circuit=failure.circuit,
                    label=failure.label,
                    error=failure.error,
                    scenario=failure.scenario,
                    kind=failure.kind,
                    attempts=seen,
                )

        def requeue_or_fail(gk, jobs, attempt, message) -> None:
            if attempt >= policy.max_attempts:
                self._fail_batch(
                    gk[0], jobs, failures,
                    message=message, kind=TRANSIENT, attempts=attempt,
                )
            else:
                ready.append((gk, jobs, attempt + 1))

        while ready or delayed or in_flight:
            now = time.monotonic()
            if delayed:
                due = [item for item in delayed if item[0] <= now]
                delayed = [item for item in delayed if item[0] > now]
                for _t, gk, jobs, attempt in due:
                    ready.append((gk, jobs, attempt))
            pool_died = False
            while ready and not pool_died:
                gk, jobs, attempt = ready.popleft()
                try:
                    submit(gk, jobs, attempt)
                except BrokenExecutor:
                    # The pool died between batches; put the work back
                    # and fall through to the shared death handling.
                    ready.appendleft((gk, jobs, attempt))
                    pool_died = True
            if in_flight and not pool_died:
                timeout = self._wait_timeout(in_flight, delayed)
                done, _pending = wait(
                    set(in_flight), timeout=timeout,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    gk, jobs, attempt, _deadline = in_flight.pop(future)
                    try:
                        batch = future.result()
                    except BrokenExecutor:
                        pool_died = True
                        requeue_or_fail(
                            gk, jobs, attempt,
                            "worker process died evaluating this batch",
                        )
                    except Exception as error:
                        # The batch runner itself blew up: classify and
                        # record, never propagate.
                        self._fail_batch(
                            gk[0], jobs, failures,
                            error=error, attempts=attempt,
                        )
                    else:
                        supervisor.note_success()
                        handle_success(gk, jobs, batch)
                # Straggler sweep: any batch past its deadline is
                # resubmitted to fresh workers (the hung worker still
                # occupies a slot, so the pool must be rebuilt).
                now = time.monotonic()
                overdue = [
                    future
                    for future, (_gk, _j, _a, deadline) in in_flight.items()
                    if deadline is not None and deadline <= now
                ]
                for future in overdue:
                    gk, jobs, attempt, _deadline = in_flight.pop(future)
                    stats.n_timeouts += 1
                    pool_died = True
                    requeue_or_fail(
                        gk, jobs, attempt,
                        f"batch exceeded its {cfg.batch_timeout_s:g}s "
                        "deadline",
                    )
            elif not in_flight and delayed:
                # Nothing running, nothing ready: sleep out the nearest
                # backoff window.
                time.sleep(
                    max(0.0, min(t for t, *_rest in delayed) - now)
                )
            if pool_died:
                supervisor.note_death()
                # Whatever else was in flight rode the same pool;
                # requeue it at the same attempt (it did not fail on
                # its own merits).
                for gk, jobs, attempt, _deadline in in_flight.values():
                    ready.append((gk, jobs, attempt))
                in_flight.clear()
                if supervisor.should_degrade(cfg.max_pool_deaths):
                    stats.degraded_to_serial = True
                    break
                supervisor.rebuild()
                stats.n_pool_rebuilds += 1

        if stats.degraded_to_serial:
            # The parallel ladder is exhausted; drain the remainder
            # serially in-process (fresh caches), where injected crash
            # faults raise instead of exiting.  Batches were already
            # counted.
            leftovers: list[_Task] = []
            for gk, jobs, _attempt in list(ready):
                for key, scenario, point in jobs:
                    leftovers.append((key, gk[0], scenario, point))
            for _t, gk, jobs, _attempt in delayed:
                for key, scenario, point in jobs:
                    leftovers.append((key, gk[0], scenario, point))
            _SerialExecutor(
                self.netlists, self.base_config, self.store, cfg
            ).evaluate_into(leftovers, stats, fresh, failures)

    @staticmethod
    def _wait_timeout(in_flight: dict, delayed: list) -> float | None:
        """How long the event loop may block in ``wait``.

        Bounded by the nearest batch deadline and the nearest retry
        wake-up; ``None`` (block until a batch finishes) when neither
        exists.
        """
        now = time.monotonic()
        bounds = [
            deadline - now
            for _gk, _jobs, _attempt, deadline in in_flight.values()
            if deadline is not None
        ]
        bounds.extend(t - now for t, *_rest in delayed)
        if not bounds:
            return None
        return max(0.0, min(bounds))


# ---------------------------------------------------------------------------
# The drivers: one grid walk, one ask/tell loop, for every executor.
# ---------------------------------------------------------------------------


def run_request(
    request: "SweepRequest",
    executor: TaskExecutor,
    store: ResultStore | None,
    base_config: DiacConfig | None = None,
    netlists: dict[str, Netlist] | None = None,
    workers: int = 1,
) -> SweepResult:
    """Drive one request through ``executor`` and assemble its result.

    :meth:`SweepEngine.submit` and
    :meth:`repro.service.SweepCoordinator.submit` differ only in the
    executor they pass, so records, failures, stats and aggregates
    agree across serial, pool and queue execution by construction.
    ``netlists`` need only hold what the coordinator-side work (static
    pruning, search screeners) cannot load from the roster itself.

    Records come back in spec order for a grid and in first-proposal
    task order for a search; failures follow the same order (pruned
    points first for a grid).  The aggregates fold the records in that
    order, so ``aggregate.best()`` keeps the same winner on ties as
    :meth:`SweepResult.best`.
    """
    start = time.perf_counter()
    stats = SweepStats(workers=workers)
    if request.strategy_name == "grid":
        records, failures = _drive_grid(
            request, executor, store, stats, base_config, netlists
        )
    else:
        records, failures = _drive_search(
            request, executor, store, stats, base_config, netlists
        )
    aggregate = SweepAggregator()
    aggregate.add_many(records)
    stats.wall_s = time.perf_counter() - start
    return SweepResult(
        records=records, stats=stats, failures=failures, aggregate=aggregate
    )


def _drive_grid(
    request: "SweepRequest",
    executor: TaskExecutor,
    store: ResultStore | None,
    stats: SweepStats,
    base_config: DiacConfig | None,
    netlists: dict[str, Netlist] | None,
) -> tuple[list[ExplorationRecord], list[SweepFailure]]:
    """The full-factorial walk: resume, prune, evaluate once.

    Resume consults the store's indexed ``keys()`` and fetches only the
    records the spec needs.  Resume keys cover the circuit, scenario
    and exact design point but NOT ``base_config``; the store metadata
    fingerprints the base configuration instead (see
    :func:`sync_store_metadata`).  With ``analysis_prune`` every
    pending point is statically analysed first and those proven
    ``INFEASIBLE`` become ``kind="pruned"`` failures (0 attempts)
    instead of simulations — every record the run does produce stays
    bit-identical to a clean sweep's.
    """
    spec = request.spec
    tasks = expand_tasks(spec)
    stats.n_points = len(tasks)
    sync_store_metadata(store, base_config, _spec_axes(spec), request.resume)

    resumed: dict[_TaskKey, ExplorationRecord] = {}
    if request.resume and store is not None:
        on_disk = store.keys()
        resumed = fetch_records(
            store, [task for task in tasks if task[0] in on_disk]
        )
    pending = [task for task in tasks if task[0] not in resumed]
    stats.n_resumed = len(tasks) - len(pending)

    pruned: dict[_TaskKey, SweepFailure] = {}
    if request.analysis_prune:
        pending, pruned = prune_tasks(
            pending, with_circuits(netlists, spec.circuits), base_config
        )
        stats.n_pruned = len(pruned)

    fresh, failed = executor.evaluate(pending, stats) if pending else ({}, {})
    records = []
    failures = list(pruned.values())
    for key, *_rest in tasks:
        record = resumed.get(key, fresh.get(key))
        if record is not None:
            records.append(record)
        elif key in failed:
            failures.append(failed[key])
    return records, failures


def _drive_search(
    request: "SweepRequest",
    executor: TaskExecutor,
    store: ResultStore | None,
    stats: SweepStats,
    base_config: DiacConfig | None,
    netlists: dict[str, Netlist] | None,
) -> tuple[list[ExplorationRecord], list[SweepFailure]]:
    """The ask/evaluate/tell generations of a search strategy.

    Each generation the strategy proposes a batch of
    :class:`~repro.dse.strategies.Proposal` s; every proposal is
    crossed with ``spec.circuits`` x ``spec.scenarios``, deduplicated
    against everything already evaluated (previous generations and —
    with ``resume`` — the store, whose keys are identical to a grid's),
    evaluated, and handed back via ``tell``.

    Screening proposals (``scenario_scale != 1``) run under scaled
    scenarios; their records stream to the store and count in the
    stats, but the result's records, failures and aggregates only cover
    the requested scenarios — a point that failed only during screening
    shows up again (and gets reported) when promoted to full fidelity.
    """
    spec = request.spec
    circuits, scenarios = spec.circuits, spec.scenarios
    strategy = request.build_strategy(with_circuits(netlists, circuits))
    sync_store_metadata(
        store,
        base_config,
        {
            "search": type(strategy).__name__,
            "circuits": list(circuits),
            "scenarios": [list(s.identity()) for s in scenarios],
        },
        request.resume,
    )
    # Resume consults only the store's indexed keys; each generation
    # fetches just the resumed records its proposals hit.
    store_keys = (
        store.keys() if request.resume and store is not None else set()
    )
    requested = {scenario.identity() for scenario in scenarios}
    evaluated: dict[_TaskKey, ExplorationRecord] = {}
    failed: dict[_TaskKey, SweepFailure] = {}
    # Every task key in first-proposal order (a dict as ordered set).
    order: dict[_TaskKey, None] = {}
    # Keys whose effective scenario is one the caller requested.
    full_keys: set[_TaskKey] = set()

    for _generation in range(request.effective_max_generations()):
        proposals = strategy.ask()
        if not proposals:
            break
        stats.n_generations += 1

        proposal_keys: list[tuple[object, list[_TaskKey]]] = []
        queued: set[_TaskKey] = set()
        pending: list[_Task] = []
        resumable: list[_Task] = []
        for proposal in proposals:
            keys = []
            for circuit in circuits:
                for base_scenario in scenarios:
                    scenario = proposal.scenario_for(base_scenario)
                    key = _task_key(circuit, scenario, proposal.point)
                    keys.append(key)
                    if scenario.identity() in requested:
                        full_keys.add(key)
                    if key in evaluated or key in failed or key in queued:
                        continue
                    queued.add(key)
                    order.setdefault(key)
                    stats.n_points += 1
                    task = (key, circuit, scenario, proposal.point)
                    if key in store_keys:
                        resumable.append(task)
                        stats.n_resumed += 1
                    else:
                        pending.append(task)
            proposal_keys.append((proposal, keys))

        if resumable:
            fetched = fetch_records(store, resumable)
            evaluated.update(fetched)
            # Anything keys() promised but iter_records could not
            # deliver (a store modified underneath a live search) is
            # re-evaluated instead of silently dropped.
            pending.extend(t for t in resumable if t[0] not in fetched)
        if pending:
            fresh, failures = executor.evaluate(pending, stats)
            evaluated.update(fresh)
            failed.update(failures)

        strategy.tell([
            EvalOutcome(
                proposal=proposal,
                records=[evaluated[key] for key in keys if key in evaluated],
                failures=[failed[key] for key in keys if key in failed],
            )
            for proposal, keys in proposal_keys
        ])

    wanted = [key for key in order if key in full_keys]
    return (
        [evaluated[key] for key in wanted if key in evaluated],
        [failed[key] for key in wanted if key in failed],
    )


class SweepEngine:
    """Runs sweeps serially or across worker processes.

    Args:
        workers: process count; 1 (default) evaluates in-process with a
            single shared synthesis cache, >1 fans batches out over a
            process pool.
        base_config: synthesis defaults shared by every point.
        store: optional streaming result store (any
            :class:`~repro.dse.store.ResultStore` backend); when given,
            records are appended as they are produced and
            ``resume=True`` skips points the store already holds — via
            the store's indexed ``keys()``, never a full ``load()``.
        resilience: retry/timeout/pool-supervision configuration
            (default: the default
            :class:`~repro.dse.resilience.RetryPolicy`).
    """

    def __init__(
        self,
        workers: int = 1,
        base_config: DiacConfig | None = None,
        store: ResultStore | None = None,
        resilience: ResilienceConfig | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.base_config = base_config
        self.store = store
        self.resilience = (
            resilience if resilience is not None else ResilienceConfig()
        )

    def submit(
        self,
        request: "SweepRequest",
        netlists: dict[str, Netlist] | None = None,
    ) -> SweepResult:
        """Execute one :class:`~repro.dse.request.SweepRequest`.

        The single submission entry point: a ``grid`` request walks its
        spec full-factorially; any other strategy — named or instance —
        is materialized via
        :meth:`~repro.dse.request.SweepRequest.build_strategy` and
        driven ask/tell over ``spec.circuits`` x ``spec.scenarios``
        (see :func:`run_request`).  The distributed
        :class:`repro.service.SweepCoordinator` runs the same drivers
        over a queue, so switching between in-process and queue-backed
        execution never changes what is described, only where it runs.

        Args:
            request: what to explore and how.
            netlists: circuit name -> netlist mapping; roster names are
                loaded automatically when omitted.

        Returns:
            A :class:`SweepResult`; see :meth:`SweepRequest
            <repro.dse.request.SweepRequest>` for how the strategy
            shapes its records.

        Raises:
            KeyError: for a circuit neither in ``netlists`` nor on the
                benchmark roster.
        """
        netlists = with_circuits(netlists, request.spec.circuits)
        executor: _SerialExecutor | _PoolExecutor
        if self.workers == 1:
            executor = _SerialExecutor(
                netlists, self.base_config, self.store, self.resilience
            )
        else:
            executor = _PoolExecutor(
                self.workers, netlists, self.base_config, self.store,
                self.resilience,
                persistent=request.strategy_name != "grid",
            )
        try:
            return run_request(
                request, executor, self.store,
                base_config=self.base_config,
                netlists=netlists,
                workers=self.workers,
            )
        finally:
            executor.close()
