"""Design-space exploration: points, records and pure point evaluation.

The paper motivates DIAC as a *design exploration* methodology:
"Incorporating tree-based representations, different designs, and power
failure scenarios will exponentially expand the design space.  This will
necessitate an efficient, precise, automated design tool."  This module
defines the design-space vocabulary — :class:`DesignPoint`,
:class:`ExplorationRecord` — and a *pure* evaluation function,
:func:`evaluate_point`, that maps (netlist, point) to a record without
mutating any shared state.  The parallel sweep machinery lives in
:mod:`repro.dse.engine`.

Evaluating a point runs the full DIAC pipeline, but its front half —
synthesis characterization, tree generation, policy shaping — depends only
on ``(netlist, policy, granularity, activity, split/merge bounds)``, not on
the budget/criteria/safe-zone/threshold knobs.  :class:`SynthesisCache`
memoizes that stage so the N budget/criteria variants of one policy share a
single :class:`~repro.tech.synthesis.SynthesisReport` and shaped task graph
instead of re-synthesizing the circuit N times.

The next layer — NVM barrier insertion, code generation and the
round-trip check — depends on that shaped graph plus ``(budget,
technology, criteria)`` only; the scenario, safe-zone and threshold axes
never change it.  A caller-owned plan memo
(:data:`~repro.core.replacement.PlanMemo`, the ``plans`` argument of
:func:`prepare_point` / :func:`evaluate_point`) lets the points of one
batch share a single plan, its generated code (cached on the plan) and
one round-trip parse.  Unlike the synthesis cache, a plan memo never
outlives its batch; :func:`~repro.core.replacement.plan_memo_disabled`
switches it off for A/B measurement.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import cast

from repro.baselines.schemes import profile_diac
from repro.circuits.netlist import Netlist
from repro.core.codegen import GeneratedCode, generate_code
from repro.core.diac import DiacConfig, DiacDesign, DiacSynthesizer
from repro.core.policies import PolicyConfig, apply_policy, config_for_graph
from repro.core.replacement import (
    NvmPlan,
    PlanMemo,
    ReplacementCriteria,
    insert_nvm,
)
from repro.core.tree import TaskGraph
from repro.core.tree_generator import build_task_graph
from repro.energy.scenarios import ScenarioSpec
from repro.evaluation import Environment, build_environment, evaluate_design
from repro.sim.intermittent import ExecutionResult, SchemeProfile
from repro.tech.nvm import MRAM, NvmTechnology
from repro.tech.synthesis import SynthesisReport, synthesize


@dataclass(frozen=True)
class DesignPoint:
    """One configuration in the sweep.

    Attributes:
        policy: task-granularity policy (1, 2 or 3).
        budget_scale: barrier budget relative to the derived default.
        technology: NVM technology of the backup path.
        criteria: replacement criteria weights.
        use_safe_zone: optimized-DIAC runtime when True.
        threshold_scale: uniform scaling of the evaluation threshold set
            (applied via :meth:`~repro.energy.thresholds.ThresholdSet.scaled`).
        safe_margin_scale: safe-zone width relative to the derived
            default margin (``None`` keeps the default width; applied via
            :meth:`~repro.energy.thresholds.ThresholdSet.with_safe_margin`).
    """

    policy: int = 3
    budget_scale: float = 1.0
    technology: NvmTechnology = MRAM
    criteria: ReplacementCriteria = field(default_factory=ReplacementCriteria)
    use_safe_zone: bool = True
    threshold_scale: float = 1.0
    safe_margin_scale: float | None = None

    def identity(self) -> tuple:
        """Exact-value identity of this configuration.

        Unlike :meth:`label`, which rounds floats for display, this
        tuple preserves full precision — it is the key resume and
        deduplication rely on.
        """
        c = self.criteria
        return (
            self.policy,
            self.budget_scale,
            self.technology.name,
            c.level_weight,
            c.power_weight,
            c.fanio_weight,
            self.use_safe_zone,
            self.threshold_scale,
            self.safe_margin_scale,
        )

    def label(self) -> str:
        """Compact human-readable identifier (rounded for display)."""
        c = self.criteria
        parts = [
            f"P{self.policy}",
            f"b{self.budget_scale:g}",
            self.technology.name,
            "safe" if self.use_safe_zone else "nosafe",
            f"c{c.level_weight:g},{c.power_weight:g},{c.fanio_weight:g}",
        ]
        if self.threshold_scale != 1.0:
            parts.append(f"t{self.threshold_scale:g}")
        if self.safe_margin_scale is not None:
            parts.append(f"m{self.safe_margin_scale:g}")
        return "/".join(parts)


@dataclass
class ExplorationRecord:
    """Evaluation outcome of one design point in one environment.

    Attributes:
        point: the configuration.
        pdp_js: absolute PDP of the DIAC scheme at this point.
        energy_j: total energy.
        active_time_s: busy time.
        n_backups: commits performed (efficiency proxy).
        reexec_energy_j: re-executed work (resiliency proxy — lower means
            less progress is ever at risk).
        n_barriers: barriers the replacement step placed.
        circuit: name of the evaluated circuit.
        scenario: the harvest environment the point was evaluated under.
    """

    point: DesignPoint
    pdp_js: float
    energy_j: float
    active_time_s: float
    n_backups: int
    reexec_energy_j: float
    n_barriers: int
    circuit: str = ""
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)

    def key(self) -> tuple:
        """Identity inside a sweep: circuit + scenario + exact point.

        Built on :meth:`DesignPoint.identity` and
        :meth:`~repro.energy.scenarios.ScenarioSpec.identity` (full float
        precision), not the display labels, so near-identical axis values
        never collide.
        """
        return (
            self.circuit,
            *self.scenario.identity(),
            *self.point.identity(),
        )


#: Cached front half of the pipeline: characterization report, shaped task
#: graph, derived policy bounds.
_Stage = tuple[SynthesisReport, TaskGraph, PolicyConfig]


class SynthesisCache:
    """Memoizes the synthesis stage of point evaluation.

    Keyed on ``(netlist name, policy, granularity, activity, split/merge
    fractions)`` — everything the front half of the pipeline depends on.
    ``insert_nvm`` clones the graph it is given, so one cached shaped graph
    is safely shared by every downstream replacement run.  The shaped
    graph object is also the identity a batch's plan memo keys on: one
    stage plus one ``(budget, technology, criteria)`` is one plan.  The
    memo itself lives with the batch, not here, so a long-lived cache
    (a worker's process-global one) never pins plans.
    """

    def __init__(self) -> None:
        self._stages: dict[tuple, _Stage] = {}
        #: Number of cache misses == actual ``synthesize`` invocations.
        self.synthesize_calls = 0

    def __len__(self) -> int:
        return len(self._stages)

    @staticmethod
    def stage_key(netlist: Netlist, config: DiacConfig) -> tuple:
        """The memoization key for one (netlist, config) combination."""
        return (
            netlist.name,
            config.policy,
            config.granularity,
            config.activity,
            config.split_fraction,
            config.merge_fraction,
        )

    def stage_for(self, netlist: Netlist, config: DiacConfig) -> _Stage:
        """Return the cached front-half stage, computing it on a miss."""
        key = self.stage_key(netlist, config)
        stage = self._stages.get(key)
        if stage is None:
            self.synthesize_calls += 1
            report = synthesize(netlist, activity=config.activity)
            graph = build_task_graph(
                netlist, report=report, granularity=config.granularity
            )
            policy_config = config_for_graph(
                graph,
                split_fraction=config.split_fraction,
                merge_fraction=config.merge_fraction,
            )
            shaped = apply_policy(graph, config.policy, policy_config)
            stage = (report, shaped, policy_config)
            self._stages[key] = stage
        return stage


def _point_config(base: DiacConfig, point: DesignPoint) -> DiacConfig:
    """The synthesis configuration a point resolves to."""
    return replace(
        base,
        policy=point.policy,
        technology=point.technology,
        criteria=point.criteria,
        use_safe_zone=point.use_safe_zone,
    )


@dataclass(frozen=True)
class PreparedPoint:
    """The synthesis front half of one point evaluation, ready to run.

    Everything :func:`evaluate_point` computes before dispatching the
    intermittent executor: the synthesized design, the (possibly
    threshold-scaled) environment, the single scheme profile the record
    reads, and the macro-task work target.  Splitting here lets
    :func:`repro.dse.batch.evaluate_jobs_batched` prepare many points,
    execute all their runs in one vector kernel, and finish each record
    with :func:`finish_point`.
    """

    point: DesignPoint
    scenario: ScenarioSpec
    design: DiacDesign
    environment: Environment
    profile: SchemeProfile
    work_target_j: float


def prepare_point(
    netlist: Netlist,
    point: DesignPoint,
    base_config: DiacConfig | None = None,
    cache: SynthesisCache | None = None,
    scenario: ScenarioSpec | None = None,
    plans: PlanMemo | None = None,
) -> PreparedPoint:
    """Run the synthesis front half of :func:`evaluate_point`.

    Same contract (side-effect-free, cache-shared, seed-deterministic),
    stopping just short of executing the macro task.  The returned
    :class:`PreparedPoint` carries exactly what the executor dispatch
    needs, so ``finish_point(prepare_point(...), result)`` with the
    scalar executor's result reproduces :func:`evaluate_point` verbatim.
    ``plans`` is the batch's plan memo (see :func:`evaluate_point`).
    """
    return prepare_front_half(
        netlist, point, base_config, cache, scenario, plans,
        place_barriers=insert_nvm, with_code=True,
    )


def prepare_front_half(
    netlist: Netlist,
    point: DesignPoint,
    base_config: DiacConfig | None,
    cache: SynthesisCache | None,
    scenario: ScenarioSpec | None,
    plans: PlanMemo | None,
    place_barriers: Callable[..., NvmPlan],
    with_code: bool,
) -> PreparedPoint:
    """The one front half behind the simulation and static-analysis paths.

    Budget derivation, the (memoized) replacement plan, the threshold
    knobs and the Th_Cp check live only here, so
    :func:`repro.analysis.intervals.prepare_static` bounds exactly the
    run :func:`prepare_point` prepares.  ``place_barriers`` is the
    caller's own binding of :func:`~repro.core.replacement.insert_nvm`,
    which keeps call sites attributable per module.  ``with_code=False``
    skips HDL generation and the round-trip check (the static path never
    reads them) and leaves ``design.code`` unset.
    """
    base = base_config or DiacConfig()
    scenario = scenario or ScenarioSpec()
    config = _point_config(base, point)
    if cache is None:  # NB: an empty cache is falsy (it has __len__).
        cache = SynthesisCache()
    report, shaped, policy_config = cache.stage_for(netlist, config)

    budget = point.budget_scale * DiacSynthesizer(config).derive_budget_j(
        netlist
    )
    config = replace(config, budget_j=budget)
    plan = place_barriers(
        shaped,
        budget,
        technology=config.technology,
        criteria=config.criteria,
        plans=plans,
    )
    code = cast(GeneratedCode, None)
    if with_code:
        code = generate_code(plan, target_period_s=config.target_period_s)
        if config.validate:
            code.roundtrip_check()
    design = DiacDesign(
        netlist=netlist,
        report=report,
        graph=plan.graph,
        plan=plan,
        code=code,
        config=config,
        policy_config=policy_config,
    )

    env = build_environment(design, scenario=scenario)
    thresholds = env.thresholds
    # Knob semantics: ``safe_margin_scale`` is relative to the derived
    # default margin of whatever set it is applied to, and ``scaled``
    # multiplies every threshold (including that margin and the cascade
    # gap) uniformly.  Both operations are linear in energy, so the two
    # knobs compose commutatively — margin-then-scale and
    # scale-then-margin yield the same set (to float rounding); the
    # final margin is ``safe_margin_scale x default x threshold_scale``
    # either way, which is the intended meaning of "a relative width
    # under a uniformly rescaled threshold set".  Pinned by the
    # commutativity property test in tests/test_properties.py.
    if point.safe_margin_scale is not None:
        thresholds = thresholds.with_safe_margin(
            point.safe_margin_scale * thresholds.safe_zone_margin_j
        )
    if point.threshold_scale != 1.0:
        thresholds = thresholds.scaled(point.threshold_scale)
    if thresholds.compute_j > env.e_max_j:
        # The capacitor cannot reach Th_Cp: the executor would either
        # conjure energy past capacity or spin to a spurious trace
        # failure.  Reject the point instead.
        raise ValueError(
            f"threshold_scale {point.threshold_scale:g} puts Th_Cp "
            f"({thresholds.compute_j:.3e} J) above the capacitor "
            f"capacity ({env.e_max_j:.3e} J)"
        )
    if thresholds is not env.thresholds:
        env = replace(env, thresholds=thresholds)

    # Simulate only the scheme this record reads — the four-scheme
    # comparison is the evaluation harness's job, not the sweep's.
    profile = profile_diac(design, optimized=point.use_safe_zone)
    return PreparedPoint(
        point=point,
        scenario=scenario,
        design=design,
        environment=env,
        profile=profile,
        work_target_j=env.n_passes * profile.pass_energy_j,
    )


def finish_point(
    prepared: PreparedPoint, result: ExecutionResult
) -> ExplorationRecord:
    """Assemble the exploration record from an executed prepared point."""
    return ExplorationRecord(
        point=prepared.point,
        pdp_js=result.pdp_js,
        energy_j=result.total_energy_j,
        active_time_s=result.active_time_s,
        n_backups=result.n_backups,
        reexec_energy_j=result.reexec_energy_j,
        n_barriers=prepared.design.plan.n_barriers,
        circuit=prepared.design.netlist.name,
        scenario=prepared.scenario,
    )


def evaluate_point(
    netlist: Netlist,
    point: DesignPoint,
    base_config: DiacConfig | None = None,
    cache: SynthesisCache | None = None,
    scenario: ScenarioSpec | None = None,
    plans: PlanMemo | None = None,
) -> ExplorationRecord:
    """Synthesize and execute one design point — side-effect-free.

    Neither ``netlist``, ``base_config`` nor any shared synthesizer state
    is mutated; repeated calls with the same arguments return identical
    records, which is what lets the sweep engine fan evaluations out over
    worker processes and compare serial and parallel runs bit-for-bit.
    Stochastic scenarios are seed-deterministic, so this holds across the
    scenario axis too.

    Args:
        netlist: the design under exploration.
        point: the configuration to evaluate.
        base_config: defaults shared by all points of a sweep.
        cache: optional synthesis-stage memo shared across points.
        scenario: harvest environment to evaluate under (the paper's
            Fig. 5 trace when omitted).  The scenario only changes the
            evaluation environment, never the synthesized design, so all
            scenarios of one policy share a cached synthesis stage.
        plans: optional plan memo (:data:`~repro.core.replacement.PlanMemo`)
            owned by the caller's batch: points that differ only in
            scenario, safe zone or threshold knobs then share one
            replacement plan, one code bundle and one round-trip parse.
            Never keep one past the batch that created it.

    Returns:
        The :class:`ExplorationRecord` for ``(netlist, scenario, point)``.
    """
    prepared = prepare_point(
        netlist,
        point,
        base_config=base_config,
        cache=cache,
        scenario=scenario,
        plans=plans,
    )
    evaluation = evaluate_design(
        prepared.design,
        environment=prepared.environment,
        profiles=[prepared.profile],
    )
    return finish_point(
        prepared, evaluation.results[prepared.profile.name]
    )


def expand_points(
    policies: tuple[int, ...],
    budget_scales: tuple[float, ...],
    technologies: tuple[NvmTechnology, ...],
    criteria_sets: tuple[ReplacementCriteria, ...],
    safe_zones: tuple[bool, ...],
    threshold_scales: tuple[float, ...],
    safe_margin_scales: tuple[float | None, ...],
) -> list[DesignPoint]:
    """Full-factorial expansion of the design-point axes, in canonical order.

    The single expansion behind :meth:`repro.dse.engine.SweepSpec.points`
    (and so behind every grid sweep), so a new design axis only ever
    needs threading through one product.  Environment axes (circuits,
    scenarios) are not design-point fields; the engine crosses them with
    this product itself.
    """
    return [
        DesignPoint(
            policy=policy,
            budget_scale=scale,
            technology=tech,
            criteria=crit,
            use_safe_zone=safe,
            threshold_scale=th_scale,
            safe_margin_scale=margin,
        )
        for policy, scale, tech, crit, safe, th_scale, margin in (
            itertools.product(
                policies,
                budget_scales,
                technologies,
                criteria_sets,
                safe_zones,
                threshold_scales,
                safe_margin_scales,
            )
        )
    ]
