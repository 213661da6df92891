"""The unoptimized-baseline switch for speedup measurement.

The hot-path optimizations are pure caches or derivations — memoized
block costing, task graphs derived from their parents, netlist
topological-order caching, the batch-local NVM plan memo —
each individually toggleable and each pinned bit-identical to its
uncached path by the equivalence tests.  This module composes the
toggles so the ``suite-eval`` perf suites can measure the *same code* in
its cached and uncached configurations back to back in one process,
which cancels host / load variance out of the recorded
``speedup_vs_unmemoized`` ratio (comparing two separate checkouts on a
busy machine measures the machine, not the code).
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

from repro.circuits.netlist import topo_order_cache_disabled
from repro.core.replacement import plan_memo_disabled
from repro.core.tree import graph_caches_disabled
from repro.dse.batch import batch_kernel_disabled
from repro.sim.bitparallel import bitparallel_disabled
from repro.tech.synthesis import block_cost_memo_disabled


@contextmanager
def hot_path_caches_disabled() -> Iterator[None]:
    """Disable every *toggleable* hot-path cache for the block.

    Covers the block-cost memo, the derived task-graph path (every graph
    rebuilt from scratch, every feature recomputed, linear first-fit),
    the netlist topological-order/fanout caches and the batch-local NVM
    plan memo (so every point builds, emits and round-trips its own
    plan).
    Three PR-5 optimizations have no off switch (the ``Gate.is_*``
    cached properties, the trace fast path, the executor-locals
    rewrite), so a ratio measured over this baseline *understates* the
    cache contribution relative to the true pre-PR checkout — the
    checkout A/B recorded in CHANGES.md bounds the whole PR.  Numbers
    produced inside the block are bit-identical to numbers produced
    outside it; only the wall clock differs.
    """
    with (
        block_cost_memo_disabled(),
        graph_caches_disabled(),
        topo_order_cache_disabled(),
        plan_memo_disabled(),
    ):
        yield


@contextmanager
def vectorized_kernels_disabled() -> Iterator[None]:
    """Disable both PR-8 vector kernels for the block.

    Routes activity estimation through the scalar
    :class:`~repro.sim.logic_sim.LogicSimulator` (one run per lane) and
    batched intermittent execution through the scalar
    :class:`~repro.sim.intermittent.IntermittentExecutor` (one run per
    lane).  Kept separate from :func:`hot_path_caches_disabled` — the
    ``logic-sim-bitparallel`` and ``executor-batch`` suites A/B the
    kernels against today's scalar paths with the PR-5 caches still on,
    so the recorded ratio isolates the kernels' contribution.  Outputs
    are bit-identical either way (pinned by the differential tests).
    """
    with bitparallel_disabled(), batch_kernel_disabled():
        yield
