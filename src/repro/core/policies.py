"""Task-granularity policies — paper Section III-A and Fig. 2.

The tree generator emits an un-optimized tree; three policies reshape its
granularity against the harvester's characteristics:

* **Policy 1** — "Large components (functions) will be broken into smaller
  tasks with lower power to meet avg(F_power) < V_th << V_peak".  Best
  resiliency (small atomic units), worst performance (more boundaries).
* **Policy 2** — "Small components will be merged into larger components
  with a higher power to meet max(F_power) << V_th and
  min(F_power) = n% · Max".  Best performance, lowest resiliency.
* **Policy 3** — the hybrid: split everything above an upper energy bound,
  merge everything below a lower bound (the paper's worked example uses
  25 mJ / 20 mJ per operand).

All transforms preserve the two :class:`~repro.core.tree.TaskGraph`
invariants.  Safety arguments, used instead of expensive cycle checks:

* splitting one node into chunks that are contiguous in a global
  topological order can never create a cycle (any post-split cycle would
  collapse to a pre-split cycle);
* contracting an edge ``u → v`` is safe when ``u`` is ``v``'s only
  predecessor or ``v`` is ``u``'s only successor (no alternate path can
  exist);
* merging nodes of the *same level* is always safe, because every edge
  strictly increases the level, so no directed path connects two
  same-level nodes.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.tree import TaskGraph, TaskNode, TreeError, graph_caches_enabled


@dataclass(frozen=True)
class PolicyConfig:
    """Energy bounds steering the three policies.

    Attributes:
        split_threshold_j: upper bound; nodes above it are split
            (derived from V_th / the per-burst energy budget).
        merge_threshold_j: lower bound; nodes below it are merge
            candidates.
        merge_cap_j: ceiling for a merged node ("max(F_power) << V_th").
        min_fraction: the paper's "min(F_power) = n% · Max" — merging
            continues while the smallest node is below this fraction of the
            largest.
        max_passes: safety limit on merge iterations.
    """

    split_threshold_j: float
    merge_threshold_j: float
    merge_cap_j: float | None = None
    min_fraction: float = 0.2
    max_passes: int = 50

    def __post_init__(self) -> None:
        if self.split_threshold_j <= 0:
            raise ValueError("split_threshold_j must be positive")
        if self.merge_threshold_j < 0:
            raise ValueError("merge_threshold_j must be >= 0")
        if self.merge_threshold_j > self.split_threshold_j:
            raise ValueError("merge threshold must not exceed split threshold")

    @property
    def effective_cap_j(self) -> float:
        """Merged-node ceiling; defaults to the split threshold."""
        return self.merge_cap_j if self.merge_cap_j is not None else self.split_threshold_j


def config_for_graph(
    graph: TaskGraph,
    split_fraction: float = 1.25,
    merge_fraction: float = 1.0,
) -> PolicyConfig:
    """Derive a :class:`PolicyConfig` from a graph's energy distribution.

    Bounds are expressed relative to the mean node energy, mirroring the
    paper's worked example where the upper/lower bounds bracket the typical
    operand cost (25 mJ / 20 mJ around ~22 mJ operands).
    """
    if not graph.nodes:
        raise TreeError("cannot derive a policy config for an empty graph")
    mean = graph.total_energy_j / len(graph.nodes)
    return PolicyConfig(
        split_threshold_j=split_fraction * mean,
        merge_threshold_j=merge_fraction * mean,
    )


# ---------------------------------------------------------------------------
# Policy 1 — split.
# ---------------------------------------------------------------------------


def apply_policy1(graph: TaskGraph, config: PolicyConfig) -> TaskGraph:
    """Split every node whose energy exceeds the split threshold.

    Chunks are contiguous runs of the node's gates in global topological
    order, greedily packed so each chunk stays at or under the threshold
    (single gates above the threshold become singleton chunks — gates are
    our atomic unit).  A pass that splits nothing (always the case at
    ``gate`` granularity) derives the result from ``graph`` with its
    adjacency, order and levels unchanged.

    Returns:
        A new checked graph; the input graph is not modified.
    """
    order = graph.topological_nodes()
    chunked: dict[str, list[list[str]]] = {}
    topo_index: dict[str, int] | None = None
    for node in order:
        if node.feature.energy_j <= config.split_threshold_j or len(node.gates) == 1:
            continue
        if topo_index is None:
            topo_index = {
                g.name: i
                for i, g in enumerate(graph.netlist.topological_order())
            }
        chunks: list[list[str]] = [[]]
        acc = 0.0
        for gate in sorted(node.gates, key=topo_index.__getitem__):
            cost = graph.report.block_energy_j((gate,))
            if chunks[-1] and acc + cost > config.split_threshold_j:
                chunks.append([])
                acc = 0.0
            chunks[-1].append(gate)
            acc += cost
        chunked[node.node_id] = chunks
    if not chunked:
        result = graph.contract({node.node_id: (node.node_id,) for node in order})
    else:
        new_nodes: list[TaskNode] = []
        for node in order:
            pieces = chunked.get(node.node_id)
            if pieces is None:
                new_nodes.append(node.carried())
                continue
            new_nodes.extend(
                TaskNode(node_id=f"{node.node_id}.s{i}", gates=tuple(chunk))
                for i, chunk in enumerate(pieces)
            )
        result = TaskGraph(graph.netlist, graph.report, new_nodes)
    result.check()
    result.recompute_features()
    return result


# ---------------------------------------------------------------------------
# Policy 2 — merge.
# ---------------------------------------------------------------------------


def _chain_merge_pass(
    graph: TaskGraph, threshold_j: float, cap_j: float
) -> tuple[dict[str, list[str]], bool]:
    """One pass of safe edge contractions; returns (host groups, changed)."""
    merged_into: dict[str, str] = {}
    used: set[str] = set()
    energies = {nid: n.feature.energy_j for nid, n in graph.nodes.items()}
    order = sorted(graph.nodes, key=lambda nid: energies[nid])
    for nid in order:
        if nid in used or energies[nid] >= threshold_j:
            continue
        partner: str | None = None
        # Prefer contracting with the single predecessor or single successor.
        preds = graph.predecessors(nid)
        succs = graph.successors(nid)
        # Safe contractions: the single predecessor (no alternate path can
        # re-enter this node) or the single successor (no alternate path
        # can leave this node).
        candidates: list[str] = []
        if len(preds) == 1:
            candidates.append(next(iter(preds)))
        if len(succs) == 1:
            candidates.append(next(iter(succs)))
        for cand in candidates:
            if cand in used or cand == nid:
                continue
            if energies[nid] + energies[cand] <= cap_j:
                partner = cand
                break
        if partner is None:
            continue
        used.add(nid)
        used.add(partner)
        merged_into[partner] = nid
    if not merged_into:
        return {}, False
    groups = {nid: [nid] for nid in graph.nodes if nid not in merged_into}
    for absorbed, host in merged_into.items():
        groups[host].append(absorbed)
    return groups, True


def first_fit_linear(sizes: Sequence[float], cap: float) -> list[list[int]]:
    """First-fit bin packing by a linear scan over the open bins.

    Item ``i`` joins the leftmost bin whose total plus ``sizes[i]`` is
    at most ``cap``, else opens a new bin (which takes it even above
    ``cap``).  Returns each bin's item indices; the reference for
    :func:`first_fit`.
    """
    bins: list[list[int]] = []
    totals: list[float] = []
    for index, size in enumerate(sizes):
        for slot, total in enumerate(totals):
            if total + size <= cap:
                bins[slot].append(index)
                totals[slot] = total + size
                break
        else:
            bins.append([index])
            totals.append(size)
    return bins


def first_fit(sizes: Sequence[float], cap: float) -> list[list[int]]:
    """:func:`first_fit_linear` in O(log bins) per item.

    A min-tree over the bin totals (empty slots hold +inf) is descended
    to the leftmost bin with ``total + size <= cap``.  Float addition is
    monotone, so ``min + size <= cap`` decides exactly whether any bin
    below a tree node fits; the chosen bin, and every accumulated
    total, equal the linear scan's.
    """
    bins: list[list[int]] = []
    width = 1
    tree = [math.inf, math.inf]  # tree[width + slot] is bin slot's total
    for index, size in enumerate(sizes):
        if bins and tree[1] + size <= cap:
            pos = 1
            while pos < width:
                pos *= 2
                if not tree[pos] + size <= cap:
                    pos += 1
            slot = pos - width
            bins[slot].append(index)
            total = tree[pos] + size
        else:
            slot = len(bins)
            bins.append([index])
            total = size
            if slot == width:
                leaves = tree[width:]
                width *= 2
                tree = [math.inf] * (2 * width)
                tree[width : width + len(leaves)] = leaves
                for pos in range(width - 1, 0, -1):
                    tree[pos] = min(tree[2 * pos], tree[2 * pos + 1])
        pos = width + slot
        tree[pos] = total
        while pos > 1:
            left = tree[pos & ~1]
            right = tree[pos | 1]
            pos >>= 1
            tree[pos] = left if left <= right else right
    return bins


def _level_pack_pass(
    graph: TaskGraph, threshold_j: float, cap_j: float
) -> tuple[dict[str, list[str]], bool]:
    """Bin-pack small same-level nodes together; returns (host groups, changed)."""
    pack = first_fit if graph_caches_enabled() else first_fit_linear
    changed = False
    groups: dict[str, list[str]] = {}
    by_level: dict[int, list[TaskNode]] = {}
    for node in graph.nodes.values():
        by_level.setdefault(node.feature.level, []).append(node)
    for level in range(1, max(by_level, default=0) + 1):
        members = sorted(
            by_level.get(level, ()), key=lambda n: n.node_id
        )
        small = [n for n in members if n.feature.energy_j < threshold_j]
        for n in members:
            if n.feature.energy_j >= threshold_j:
                groups[n.node_id] = [n.node_id]
        small.sort(key=lambda n: n.feature.energy_j, reverse=True)
        for slots in pack([n.feature.energy_j for n in small], cap_j):
            if len(slots) > 1:
                changed = True
            ids = [small[i].node_id for i in slots]
            groups[ids[0]] = ids
    return groups, changed


def _derive(parent: TaskGraph, groups: dict[str, list[str]]) -> TaskGraph:
    """The checked, featured graph contracting ``parent`` by ``groups``."""
    child = parent.contract(groups)
    child.check()
    child.recompute_features()
    return child


def apply_policy2(graph: TaskGraph, config: PolicyConfig) -> TaskGraph:
    """Merge small nodes into larger ones (paper Policy 2).

    Alternates same-level bin-packing with chain contractions until the
    smallest node reaches ``min_fraction`` of the largest, nothing below
    the merge threshold remains, or no safe merge exists.  Each merge
    pass derives its graph from the previous one
    (:meth:`~repro.core.tree.TaskGraph.contract`): only merged nodes
    are costed, and edges are contracted rather than rebuilt.
    """
    current = graph.clone()
    current.recompute_features()
    return _merge_passes(current, config)


def _merge_passes(current: TaskGraph, config: PolicyConfig) -> TaskGraph:
    """Policy 2's merge loop over a featured graph the caller owns."""
    if not current.nodes:
        return current
    cap = config.effective_cap_j
    for _pass in range(config.max_passes):
        energies = [n.feature.energy_j for n in current.nodes.values()]
        floor = max(
            config.merge_threshold_j, config.min_fraction * max(energies)
        )
        groups, changed_pack = _level_pack_pass(current, floor, cap)
        if changed_pack:
            current = _derive(current, groups)
        groups, changed_chain = _chain_merge_pass(current, floor, cap)
        if changed_chain:
            current = _derive(current, groups)
        if not changed_pack and not changed_chain:
            break
    return current


# ---------------------------------------------------------------------------
# Policy 3 — hybrid.
# ---------------------------------------------------------------------------


def apply_policy3(graph: TaskGraph, config: PolicyConfig) -> TaskGraph:
    """Split above the upper bound, then merge below the lower bound.

    This is the paper's recommended operating point ("Policy3 ...
    simultaneously provides acceptable resiliency and efficiency", used for
    all Section IV results).
    """
    # The split graph is fresh and featured, with no barriers, so the
    # merge loop takes it as is instead of a clone of it.
    return _merge_passes(apply_policy1(graph, config), config)


def apply_policy(graph: TaskGraph, policy: int, config: PolicyConfig) -> TaskGraph:
    """Dispatch on policy number (1, 2 or 3)."""
    if policy == 1:
        return apply_policy1(graph, config)
    if policy == 2:
        return apply_policy2(graph, config)
    if policy == 3:
        return apply_policy3(graph, config)
    raise ValueError(f"unknown policy {policy!r}; expected 1, 2 or 3")
