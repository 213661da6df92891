"""Replacement procedure — NVM insertion (paper Fig. 1, steps 4–5).

"Given the modified tree, power budget, and NVM features, prioritizing
nodes and finding replacement points efficiently requires weighing
efficiency and resiliency."  Three criteria define the replacement policy:

* **(I)** nodes in the upper level (closer to the outputs) are preferred;
* **(II)** nodes or cones with higher power consumption are preferred;
* **(III)** nodes with higher fanin+fanout are preferred, since the write
  count shrinks by ``1/(fanin + fanout)`` — i.e. the criterion's intent is
  *write minimization*, which we implement exactly by scoring candidate
  positions with the live cut width of the execution schedule.

The traversal follows the paper: leaves upward (level by level, "in
parallel for all nodes at the same level"), accumulating ``P_total`` — the
energy consumed since the last barrier.  When the accumulation exceeds the
budget, a barrier is placed at the best-scoring node of the open window;
the barrier's dictionary is updated with ``P_total + P_n`` and the
accumulation restarts after it.

A note on fidelity: the paper's literal recurrence ("the summation of all
the previous nodes' power consumption") double-counts reconvergent fanout
— on a DAG it grows exponentially with depth.  We therefore accumulate
along the *levelized execution schedule* (each node counted exactly once),
which is the quantity the energy budget physically constrains: the work a
burst must fit between two commit opportunities.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.tree import TaskGraph, TaskNode
from repro.tech.cacti import MemoryArrayModel, backup_array_for
from repro.tech.nvm import MRAM, NvmTechnology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.codegen import GeneratedCode

#: Bits of FSM bookkeeping (the Reg_Flag) committed alongside every barrier.
REG_FLAG_BITS = 3

#: A caller-owned plan memo for :func:`insert_nvm`: one entry per real
#: barrier walk, keyed on ``(graph, budget_j, technology, criteria)``.
#: The key holds the shaped graph itself (hashed by identity), so an
#: entry can never match a different graph that reuses a freed ``id``.
#: A memo belongs to one batch of point evaluations and dies with it.
PlanMemo = dict[tuple, "NvmPlan"]

#: Module switch for the plan memo; see :func:`plan_memo_disabled`.
_MEMOIZE_PLANS = True


@contextmanager
def plan_memo_disabled() -> Iterator[None]:
    """Temporarily make every :func:`insert_nvm` memo lookup miss.

    Used by ``repro.perf`` to time the unmemoized path and by the
    equivalence tests.  Each call still records its walk in the memo
    under a fresh key, so ``len(plans)`` keeps counting real barrier
    walks; records are identical either way.
    """
    global _MEMOIZE_PLANS
    previous = _MEMOIZE_PLANS
    _MEMOIZE_PLANS = False
    try:
        yield
    finally:
        _MEMOIZE_PLANS = previous


@dataclass(frozen=True)
class ReplacementCriteria:
    """Weights for the three replacement criteria.

    Setting a weight to zero disables that criterion (used by the
    criteria-ablation bench).

    Attributes:
        level_weight: criterion I — prefer nodes closer to the outputs.
        power_weight: criterion II — prefer high-accumulated-power cones.
        fanio_weight: criterion III — prefer positions that minimize the
            number of NVM writes (narrow live cuts / high-fanio nodes).
    """

    level_weight: float = 1.0
    power_weight: float = 1.0
    fanio_weight: float = 1.0

    def __post_init__(self) -> None:
        if min(self.level_weight, self.power_weight, self.fanio_weight) < 0:
            raise ValueError("criteria weights must be non-negative")
        if self.level_weight + self.power_weight + self.fanio_weight == 0:
            raise ValueError("at least one criterion must be enabled")


@dataclass
class Partition:
    """A run of task nodes between two consecutive NVM barriers.

    Attributes:
        node_ids: nodes executed in this partition, in schedule order.
        energy_j: total evaluation energy of the partition.
        delay_s: summed node delays along the schedule (the partition is
            executed as one atomic burst).
        commit_bits: bits written to NVM when the partition commits (the
            live schedule cut at the barrier plus the Reg_Flag).
    """

    node_ids: tuple[str, ...]
    energy_j: float
    delay_s: float
    commit_bits: int


def schedule_order(graph: TaskGraph) -> list[TaskNode]:
    """Deterministic execution order: by (level, node id).

    Sorting by level is a valid topological order because every edge
    strictly increases the level.  Requires fresh features
    (``graph.recompute_features()``).
    """
    return sorted(
        graph.nodes.values(), key=lambda n: (n.feature.level, n.node_id)
    )


def live_cut_profile(
    graph: TaskGraph, order: list[TaskNode]
) -> dict[str, int]:
    """Live values crossing the schedule cut *after* each node executes.

    A computed net is live while it still has unexecuted combinational
    consumers, feeds a flip-flop (pending next state), or is a primary
    output.  This is the number of bits a commit placed after that node
    must write (excluding the Reg_Flag).
    """
    netlist = graph.netlist
    fanout = netlist.fanout_map()
    outputs = set(netlist.outputs)
    remaining: dict[str, int] = {}
    persistent: set[str] = set()
    for net, consumers in fanout.items():
        remaining[net] = sum(
            1 for c in consumers if netlist.gates[c].is_combinational
        )
        if net in outputs or any(
            netlist.gates[c].is_sequential for c in consumers
        ):
            persistent.add(net)
    live = 0
    profile: dict[str, int] = {}
    for node in order:
        for gate in node.gates:
            if remaining[gate] > 0 or gate in persistent:
                live += 1
            for src in netlist.gates[gate].inputs:
                if not netlist.gates[src].is_combinational:
                    continue
                remaining[src] -= 1
                if remaining[src] == 0 and src not in persistent:
                    live -= 1
        profile[node.node_id] = live
    return profile


@dataclass
class NvmPlan:
    """Result of the replacement procedure.

    Attributes:
        graph: the NV-enhanced task graph (barrier flags set).
        budget_j: the per-burst energy budget used.
        technology: NVM technology of the backup arrays.
        barriers: barrier node ids in schedule order.
        infeasible: nodes whose own energy exceeds the budget (the policy
            stage should have split them; they are reported, not hidden).
        criteria: the criteria weights used.
    """

    graph: TaskGraph
    budget_j: float
    technology: NvmTechnology
    barriers: list[str]
    infeasible: list[str]
    criteria: ReplacementCriteria
    _partitions: list[Partition] | None = field(default=None, repr=False)
    #: ``generate_code`` output per ``(target_period_s, ff_delay_overhead)``.
    _codes: dict[tuple, GeneratedCode] = field(
        default_factory=dict, repr=False, compare=False
    )

    # -- derived views --------------------------------------------------------

    @property
    def n_barriers(self) -> int:
        """Number of NVM commit points inserted."""
        return len(self.barriers)

    @property
    def total_barrier_bits(self) -> int:
        """Total bits across all barrier commits (one pass writes this)."""
        return sum(self.graph.nodes[b].barrier_bits for b in self.barriers)

    @property
    def max_commit_bits(self) -> int:
        """Largest single commit (sizes the backup array)."""
        return max((p.commit_bits for p in self.schedule()), default=REG_FLAG_BITS)

    def backup_array(self) -> MemoryArrayModel:
        """The CACTI-modelled backup array sized for the worst commit."""
        return backup_array_for(self.max_commit_bits, technology=self.technology)

    def schedule(self) -> list[Partition]:
        """Execution schedule: partitions between barriers.

        Nodes run in (level, id) order; a partition closes at every
        barrier.  The final partition's cut degenerates to flip-flop state
        + primary outputs — the architectural snapshot needed to resume
        across reruns (Section IV-C assumption (1)).
        """
        if self._partitions is not None:
            return self._partitions
        order = schedule_order(self.graph)
        live = live_cut_profile(self.graph, order)
        partitions: list[Partition] = []
        current: list[TaskNode] = []
        energy = 0.0
        delay = 0.0
        for node in order:
            current.append(node)
            energy += node.feature.energy_j
            delay += node.feature.delay_s
            if node.nvm_barrier:
                partitions.append(
                    Partition(
                        node_ids=tuple(n.node_id for n in current),
                        energy_j=energy,
                        delay_s=delay,
                        commit_bits=live[node.node_id] + REG_FLAG_BITS,
                    )
                )
                current, energy, delay = [], 0.0, 0.0
        if current or not partitions:
            final_live = live[order[-1].node_id] if order else 0
            partitions.append(
                Partition(
                    node_ids=tuple(n.node_id for n in current),
                    energy_j=energy,
                    delay_s=delay,
                    commit_bits=final_live + REG_FLAG_BITS,
                )
            )
        self._partitions = partitions
        return partitions

    def summary(self) -> dict[str, float]:
        """Headline plan numbers for reports."""
        partitions = self.schedule()
        return {
            "barriers": float(self.n_barriers),
            "partitions": float(len(partitions)),
            "total_bits": float(self.total_barrier_bits),
            "max_commit_bits": float(self.max_commit_bits),
            "mean_partition_energy_j": (
                sum(p.energy_j for p in partitions) / len(partitions)
            ),
            "infeasible_nodes": float(len(self.infeasible)),
        }


def insert_nvm(
    graph: TaskGraph,
    budget_j: float,
    technology: NvmTechnology = MRAM,
    criteria: ReplacementCriteria | None = None,
    plans: PlanMemo | None = None,
) -> NvmPlan:
    """Run the replacement procedure on ``graph``.

    Walks the levelized schedule accumulating energy; whenever the open
    window exceeds ``budget_j``, a barrier is placed at the window node
    that maximizes the criteria score, and accumulation restarts after it.

    Args:
        graph: task graph after policy application (a clone is modified).
        budget_j: per-burst energy budget — the work that must fit
            between two consecutive commit opportunities.
        technology: NVM technology for the backup arrays.
        criteria: criteria weights (defaults to all three enabled).
        plans: optional caller-owned :data:`PlanMemo`.  A hit returns
            the plan an earlier call built for the same graph object,
            budget, technology and criteria — shared by reference, so
            no consumer may modify it.

    Returns:
        An :class:`NvmPlan` over an NV-enhanced clone of ``graph``.

    Raises:
        ValueError: if the budget is not positive.
    """
    if budget_j <= 0:
        raise ValueError("budget_j must be positive")
    if criteria is None:
        criteria = ReplacementCriteria()
    if plans is None:
        return _place_barriers(graph, budget_j, technology, criteria)
    key: tuple = (graph, budget_j, technology, criteria)
    if _MEMOIZE_PLANS:
        plan = plans.get(key)
        if plan is not None:
            return plan
    else:
        key = (*key, len(plans))  # never hits, still counts the walk
    plan = _place_barriers(graph, budget_j, technology, criteria)
    plans[key] = plan
    return plan


def _place_barriers(
    graph: TaskGraph,
    budget_j: float,
    technology: NvmTechnology,
    criteria: ReplacementCriteria,
) -> NvmPlan:
    """The barrier walk behind :func:`insert_nvm` (always builds anew)."""
    work = graph.clone()
    work.recompute_features()
    order = schedule_order(work)
    live = live_cut_profile(work, order)
    depth = max(work.depth, 1)
    barriers: list[str] = []
    infeasible: list[str] = []

    window: list[TaskNode] = []
    running = 0.0

    def place_barrier() -> None:
        """Choose the best node of the open window and commit there."""
        nonlocal window, running
        min_live = min(live[n.node_id] for n in window)
        cum = 0.0
        best: TaskNode | None = None
        best_score = -1.0
        cum_at_best = 0.0
        cum_so_far = 0.0
        for node in window:
            cum_so_far += node.feature.energy_j
            s_level = criteria.level_weight * (node.feature.level / depth)
            s_power = criteria.power_weight * (cum_so_far / running)
            width = live[node.node_id]
            s_fanio = criteria.fanio_weight * (
                (min_live + 1.0) / (width + 1.0)
            )
            score = s_level + s_power + s_fanio
            if score > best_score:
                best, best_score, cum_at_best = node, score, cum_so_far
        assert best is not None
        best.nvm_barrier = True
        best.barrier_bits = live[best.node_id] + REG_FLAG_BITS
        # Paper: "the node's Dict. is updated with the new power
        # consumption = Ptotal + Pn".
        best.feature.accumulated_j = cum_at_best
        barriers.append(best.node_id)
        # Nodes after the barrier open the next window.
        idx = window.index(best)
        window = window[idx + 1 :]
        running = sum(n.feature.energy_j for n in window)

    for node in order:
        if node.feature.energy_j > budget_j:
            infeasible.append(node.node_id)
        window.append(node)
        running += node.feature.energy_j
        while running > budget_j and len(window) > 1:
            place_barrier()
        if running > budget_j and len(window) == 1:
            # A single node exceeds the budget: commit right at it.
            place_barrier()
    return NvmPlan(
        graph=work,
        budget_j=budget_j,
        technology=technology,
        barriers=barriers,
        infeasible=infeasible,
        criteria=criteria,
    )
