"""The DIAC task tree (a levelized DAG of function nodes).

Paper Fig. 1, step 3 produces "a feature dictionary (Dict.) and a
tree-based illustration" of the design: nodes are functions (cones of
gates) annotated with power, edges are dataflow.  Despite the paper's
"tree" vocabulary the structure is a DAG — reconvergent fanout is normal
in netlists — and this module implements it as such.

A :class:`TaskGraph` always satisfies two invariants, enforced by
:meth:`TaskGraph.check`:

* **partition** — every combinational gate of the underlying netlist
  belongs to exactly one node;
* **acyclicity** — the node-level dataflow graph has no cycles, so nodes
  can execute as atomic operations in level order.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core.feature import FeatureDict
from repro.circuits.netlist import Netlist
from repro.tech.synthesis import SynthesisReport

#: Graph-derivation switch; see :func:`graph_caches_disabled`.
_CACHE_TOPOLOGY = True

#: Work counters (graph constructions, intrinsic-feature builds) read
#: through :func:`graph_work`.  Plain integers, so they pin no graph;
#: unlocked, so they are exact for work done on one thread (the perf
#: suites and tests measure that way).
_WORK = {"graphs_built": 0, "feature_builds": 0}


@contextmanager
def graph_caches_disabled() -> Iterator[None]:
    """Temporarily build every task graph from scratch (the oracle).

    Inside the block every graph rebuilds its adjacency from the gate
    inputs, every node's features are recomputed per graph, and the
    policies' first-fit bin packing is the linear scan.  Used by
    ``repro.perf`` to time the from-scratch path and by the
    differential tests, which pin it identical to the derived path.
    """
    global _CACHE_TOPOLOGY
    previous = _CACHE_TOPOLOGY
    _CACHE_TOPOLOGY = False
    try:
        yield
    finally:
        _CACHE_TOPOLOGY = previous


def graph_caches_enabled() -> bool:
    """Whether graphs are derived from their parents (the default)."""
    return _CACHE_TOPOLOGY


def graph_work() -> dict[str, int]:
    """Snapshot of the process-wide graph work counters.

    ``graphs_built`` counts :class:`TaskGraph` constructions and
    ``feature_builds`` counts nodes whose intrinsic features were
    computed; callers diff two snapshots around the work they measure.
    """
    return dict(_WORK)


class TreeError(ValueError):
    """Raised when a task graph violates its invariants."""


@dataclass
class TaskNode:
    """One function node: an atomic unit of forward progress.

    Attributes:
        node_id: unique identifier within the graph.
        gates: names of the combinational gates folded into this node.
        feature: the node's feature dictionary.
        nvm_barrier: whether the replacement step placed an NVM commit
            point at this node's outputs.
        barrier_bits: state bits a commit at this node must write.
        costed_gates: the gate tuple ``feature``'s intrinsic fields
            (fan-in/out, energy, delay, gate count) were computed for,
            or None before costing.  A node whose ``gates`` is not this
            very tuple is re-costed by the next
            :meth:`TaskGraph.recompute_features`.
    """

    node_id: str
    gates: tuple[str, ...]
    feature: FeatureDict = field(default_factory=FeatureDict)
    nvm_barrier: bool = False
    barrier_bits: int = 0
    costed_gates: tuple[str, ...] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.gates:
            raise TreeError(f"node {self.node_id!r} contains no gates")

    def carried(self) -> "TaskNode":
        """This node for a derived graph: same id and gates.

        Its feature dictionary is a *copy* (the derived graph then sets
        its own level; accumulation and barrier fields start fresh),
        so writes to either node never reach the other.
        """
        f = self.feature
        return TaskNode(
            self.node_id,
            self.gates,
            FeatureDict(
                f.fan_in, f.fan_out, f.level, f.energy_j, f.delay_s,
                f.n_gates,
            ),
            costed_gates=self.costed_gates,
        )


class TaskGraph:
    """A levelized DAG of :class:`TaskNode` over a synthesized netlist.

    Node membership is fixed when a graph is built: its adjacency,
    topological order and levels come from one pass over the partition
    the constructor saw, and a policy that changes membership derives a
    new graph (:meth:`contract`) instead of editing this one.  Features
    follow gate sets: the intrinsic fields of a node are computed once
    for its gate tuple and carried, as copies, into every derived graph
    that keeps the node; only ``level`` is per graph.

    Args:
        netlist: the underlying circuit.
        report: its synthesis characterization.
        nodes: the function nodes (a partition of the combinational gates).
    """

    def __init__(
        self,
        netlist: Netlist,
        report: SynthesisReport,
        nodes: Iterable[TaskNode],
    ) -> None:
        self.netlist = netlist
        self.report = report
        self.nodes: dict[str, TaskNode] = {}
        for node in nodes:
            if node.node_id in self.nodes:
                raise TreeError(f"duplicate node id {node.node_id!r}")
            self.nodes[node.node_id] = node
        self._owner: dict[str, str] = {}
        for node in self.nodes.values():
            for gate in node.gates:
                if gate in self._owner:
                    raise TreeError(
                        f"gate {gate!r} owned by both {self._owner[gate]!r} "
                        f"and {node.node_id!r}"
                    )
                self._owner[gate] = node.node_id
        self._edges: dict[str, set[str]] | None = None
        self._redges: dict[str, set[str]] | None = None
        self._fanout: Mapping[str, tuple[str, ...]] | None = None
        self._outputs: set[str] | None = None
        self._topo_ids: list[str] | None = None
        self._levels: dict[str, int] | None = None
        _WORK["graphs_built"] += 1

    # -- construction helpers -------------------------------------------------

    def owner_of(self, gate: str) -> str | None:
        """Node id owning ``gate``, or None for sources/FFs outside nodes."""
        return self._owner.get(gate)

    def _build_edges(self) -> None:
        edges: dict[str, set[str]] = {nid: set() for nid in self.nodes}
        redges: dict[str, set[str]] = {nid: set() for nid in self.nodes}
        for node in self.nodes.values():
            for gate in node.gates:
                for src in self.netlist.gates[gate].inputs:
                    src_owner = self._owner.get(src)
                    if src_owner is not None and src_owner != node.node_id:
                        edges[src_owner].add(node.node_id)
                        redges[node.node_id].add(src_owner)
        self._edges, self._redges = edges, redges

    def _adopt(self, parent: "TaskGraph") -> None:
        """Take the parent's netlist views, adjacency, order and levels.

        Only for a graph with the parent's exact membership; none of
        these structures is ever mutated, so sharing them is safe.
        """
        self._fanout, self._outputs = parent._fanout, parent._outputs
        self._edges, self._redges = parent._edges, parent._redges
        self._topo_ids, self._levels = parent._topo_ids, parent._levels

    def contract(self, groups: Mapping[str, Sequence[str]]) -> "TaskGraph":
        """The graph whose node ``host`` owns the gates of ``groups[host]``.

        ``groups`` partitions this graph's node ids; its order is the new
        node order and each member list's order is the merged gate
        order.  A single-member group keeps its node (a carried copy);
        only merged nodes get new gate sets to cost.  The edges are this
        graph's edges mapped through member -> host (a merged node's
        dataflow is exactly its members' dataflow minus the internal
        edges), so no gate input is re-walked; when nothing merges, the
        adjacency, order and levels carry over unchanged.  Under
        :func:`graph_caches_disabled` the result is built from scratch.

        Returns:
            The derived graph, unchecked and without fresh features —
            callers run :meth:`check` and :meth:`recompute_features`.
        """
        nodes: list[TaskNode] = []
        merged = False
        for host, members in groups.items():
            if len(members) == 1 and members[0] == host:
                nodes.append(self.nodes[host].carried())
            else:
                merged = True
                nodes.append(
                    TaskNode(
                        node_id=host,
                        gates=tuple(
                            g for m in members for g in self.nodes[m].gates
                        ),
                    )
                )
        child = TaskGraph(self.netlist, self.report, nodes)
        if not _CACHE_TOPOLOGY:
            return child
        if not merged:
            self._walk_once()
            child._adopt(self)
            return child
        child._fanout, child._outputs = self._fanout, self._outputs
        edges = self.edges
        host_of = {m: host for host, members in groups.items() for m in members}
        new_edges: dict[str, set[str]] = {host: set() for host in groups}
        new_redges: dict[str, set[str]] = {host: set() for host in groups}
        for src, succs in edges.items():
            src_host = host_of[src]
            out = new_edges[src_host]
            for dst in succs:
                dst_host = host_of[dst]
                if dst_host != src_host:
                    out.add(dst_host)
                    new_redges[dst_host].add(src_host)
        child._edges, child._redges = new_edges, new_redges
        return child

    @property
    def edges(self) -> dict[str, set[str]]:
        """Adjacency map: node id -> successor node ids."""
        if self._edges is None:
            self._build_edges()
        assert self._edges is not None
        return self._edges

    def successors(self, node_id: str) -> set[str]:
        """Successor node ids of ``node_id``."""
        return self.edges[node_id]

    def predecessors(self, node_id: str) -> set[str]:
        """Predecessor node ids of ``node_id``."""
        if self._redges is None:
            self._build_edges()
        assert self._redges is not None
        return self._redges[node_id]

    def invalidate(self) -> None:
        """Drop the adjacency, order and levels (rebuilt on next use)."""
        self._edges = None
        self._redges = None
        self._topo_ids = None
        self._levels = None

    def _netlist_fanout(self) -> Mapping[str, tuple[str, ...]]:
        """Cached netlist fanout map (the netlist is never mutated)."""
        if self._fanout is None:
            self._fanout = self.netlist.fanout_map()
        return self._fanout

    def _netlist_outputs(self) -> set[str]:
        """Cached primary-output set (the netlist is never mutated)."""
        if self._outputs is None:
            self._outputs = set(self.netlist.outputs)
        return self._outputs

    # -- invariants -----------------------------------------------------------

    def check(self) -> None:
        """Verify the partition and acyclicity invariants.

        Raises:
            TreeError: on any violation.
        """
        comb = self.netlist.logic_gate_names()
        owned = self._owner.keys()
        if len(owned) != len(comb) or not comb.issuperset(owned):
            missing = comb.difference(owned)
            extra = owned - comb
            if missing:
                raise TreeError(
                    f"gates not covered by any node: {sorted(missing)[:8]}"
                )
            raise TreeError(
                f"nodes own non-combinational gates: {sorted(extra)[:8]}"
            )
        self.topological_nodes()  # raises on cycles

    def _walk(self) -> None:
        """One Kahn pass: the topological order, the levels, the cycle check.

        Ties break deterministically: the ready set is a stack seeded
        with the sorted sources, and each node pushes its newly ready
        successors in sorted order.  A node's level (sources at 1, as in
        the paper's figures) is final when it is popped, since all its
        predecessors were popped before it.

        Raises:
            TreeError: if the node graph is cyclic.
        """
        edges = self.edges
        assert self._redges is not None
        indeg = {nid: len(self._redges[nid]) for nid in self.nodes}
        levels = dict.fromkeys(self.nodes, 1)
        ready = sorted(nid for nid, d in indeg.items() if d == 0)
        order: list[str] = []
        while ready:
            nid = ready.pop()
            order.append(nid)
            below = levels[nid] + 1
            succs = edges[nid]
            for succ in sorted(succs) if len(succs) > 1 else succs:
                if levels[succ] < below:
                    levels[succ] = below
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self.nodes):
            stuck = sorted(nid for nid, d in indeg.items() if d > 0)[:8]
            raise TreeError(f"cycle among task nodes: {stuck}")
        self._topo_ids, self._levels = order, levels

    def _walk_once(self) -> None:
        """Run :meth:`_walk` unless a current result is cached.

        A node count that no longer matches the cached order (nodes
        added or removed after construction) walks again; under
        :func:`graph_caches_disabled` every call walks.
        """
        if (
            not _CACHE_TOPOLOGY
            or self._topo_ids is None
            or len(self._topo_ids) != len(self.nodes)
        ):
            self._walk()

    def topological_nodes(self) -> list[TaskNode]:
        """Nodes in dependency order.

        Raises:
            TreeError: if the node graph is cyclic.
        """
        self._walk_once()
        assert self._topo_ids is not None
        return [self.nodes[nid] for nid in self._topo_ids]

    # -- annotations ------------------------------------------------------------

    def recompute_features(self) -> None:
        """Bring every node's feature dictionary up to date.

        Levels follow the node DAG (sources at 1); energy and delay come
        from the synthesis report's analytic model.  Only nodes whose
        gate tuple has not been costed yet get their intrinsic fields
        computed; every other node keeps them and just takes this
        graph's level (its accumulation is reset, as a fresh dictionary
        would be).  Under :func:`graph_caches_disabled` every feature is
        recomputed from scratch, levels by a separate predecessor walk.
        """
        if not _CACHE_TOPOLOGY:
            self._recompute_from_scratch()
            return
        self._walk_once()
        levels = self._levels
        assert levels is not None
        for nid, node in self.nodes.items():
            if node.costed_gates is node.gates:
                feature = node.feature
                feature.accumulated_j = 0.0
            else:
                feature = node.feature = self._intrinsic_features(node)
                node.costed_gates = node.gates
            feature.level = levels[nid]

    def _intrinsic_features(self, node: TaskNode) -> FeatureDict:
        """Cost one gate set: everything but the level."""
        _WORK["feature_builds"] += 1
        gates_of = self.netlist.gates
        fanout = self._netlist_fanout()
        outputs = self._netlist_outputs()
        inside = set(node.gates)
        external: set[str] = set()
        outs = 0
        for gate in node.gates:
            for src in gates_of[gate].inputs:
                if src not in inside:
                    external.add(src)
            if gate in outputs or any(
                c not in inside for c in fanout.get(gate, ())
            ):
                outs += 1
        return FeatureDict(
            fan_in=len(external),
            fan_out=outs,
            energy_j=self.report.block_energy_j(node.gates),
            delay_s=self.report.block_critical_path_s(node.gates),
            n_gates=len(node.gates),
        )

    def _recompute_from_scratch(self) -> None:
        """The oracle path: fresh adjacency, order, levels and features."""
        self.invalidate()
        order = self.topological_nodes()
        levels: dict[str, int] = {}
        for node in order:
            preds = self.predecessors(node.node_id)
            levels[node.node_id] = (
                1 if not preds else 1 + max(levels[p] for p in preds)
            )
        for node in order:
            _WORK["feature_builds"] += 1
            node.feature = FeatureDict(
                fan_in=self._external_fanin(node),
                fan_out=self._external_fanout(node),
                level=levels[node.node_id],
                energy_j=self.report.block_energy_j(node.gates),
                delay_s=self.report.block_critical_path_s(node.gates),
                n_gates=len(node.gates),
            )
            node.costed_gates = node.gates

    def _external_fanin(self, node: TaskNode) -> int:
        """Distinct nets entering the node from outside it."""
        inside = set(node.gates)
        seen: set[str] = set()
        for gate in node.gates:
            for src in self.netlist.gates[gate].inputs:
                if src not in inside:
                    seen.add(src)
        return len(seen)

    def _external_fanout(self, node: TaskNode) -> int:
        """Distinct nets leaving the node (consumed outside or POs)."""
        return len(self.output_nets(node))

    def output_nets(self, node: TaskNode) -> set[str]:
        """Nets driven inside ``node`` that are observable outside it.

        These are the bits an NVM barrier at this node has to commit.
        """
        inside = set(node.gates)
        fanout = self._netlist_fanout()
        outs: set[str] = set()
        outputs = self._netlist_outputs()
        for gate in node.gates:
            consumers = fanout.get(gate, [])
            if any(c not in inside for c in consumers):
                outs.add(gate)
            elif gate in outputs:
                outs.add(gate)
        return outs

    # -- aggregate views ---------------------------------------------------------

    @property
    def depth(self) -> int:
        """Maximum node level."""
        return max((n.feature.level for n in self.nodes.values()), default=0)

    def level_nodes(self, level: int) -> list[TaskNode]:
        """Nodes at ``level``, sorted by id for determinism."""
        return sorted(
            (n for n in self.nodes.values() if n.feature.level == level),
            key=lambda n: n.node_id,
        )

    @property
    def total_energy_j(self) -> float:
        """Sum of node energies per full evaluation pass."""
        return sum(n.feature.energy_j for n in self.nodes.values())

    @property
    def barriers(self) -> list[TaskNode]:
        """Nodes carrying an NVM barrier, in topological order."""
        return [n for n in self.topological_nodes() if n.nvm_barrier]

    def energy_histogram(self) -> dict[str, float]:
        """Node-id -> energy map (for reports and plots)."""
        return {nid: n.feature.energy_j for nid, n in self.nodes.items()}

    def clone(self) -> "TaskGraph":
        """Deep copy (nodes are re-created; netlist/report are shared).

        Every node field is copied, barrier flags included, and the
        copies stay costed.  Membership is identical, so the adjacency,
        order and levels transfer verbatim (they are never mutated).
        """
        nodes = [
            TaskNode(
                node_id=n.node_id,
                gates=n.gates,
                feature=FeatureDict(**vars(n.feature)),
                nvm_barrier=n.nvm_barrier,
                barrier_bits=n.barrier_bits,
                costed_gates=n.costed_gates,
            )
            for n in self.nodes.values()
        ]
        copy = TaskGraph(self.netlist, self.report, nodes)
        if _CACHE_TOPOLOGY:
            copy._adopt(self)
        return copy

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TaskGraph({self.netlist.name!r}, nodes={len(self.nodes)}, "
            f"depth={self.depth}, barriers={sum(n.nvm_barrier for n in self.nodes.values())})"
        )
