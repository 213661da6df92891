"""The sweep-service worker loop behind ``repro worker``.

Workers are the far end of the coordinator's queue executor: the
coordinator runs the engine's drivers (grid walk or ask/tell loop) and
enqueues each batch of pending tasks; workers evaluate them.  A worker
is a plain process pointed at two paths — the lease queue and the
SQLite result store (often the same file).  It claims one stage-batch
lease at a time, evaluates it through *exactly* the engine's pool-batch
function (:func:`repro.dse.engine._evaluate_batch`, with the
process-global synthesis cache so repeated leases of one stage stay
warm — across a search's generations too), upserts the records into
the store, and only then resolves the lease — so a crash between the
store write and the completion mark costs a redundant re-evaluation,
never a lost or duplicated record, and the coordinator can read every
completed task's record back from the store.

Failure semantics are the queue's (see :mod:`repro.service.queue`):
per-job exceptions arrive pre-classified by the engine's taxonomy and
are reported via :meth:`~repro.service.queue.LeaseQueue.fail`; a
worker death mid-lease is caught by lease expiry instead.  An idle
worker heartbeats and exits once the queue is drained *and* closed
(or after ``idle_timeout_s``, or immediately in ``drain`` mode).
"""

from __future__ import annotations

import os
import socket
import time
from pathlib import Path

from repro.circuits.netlist import Netlist
from repro.core.diac import DiacConfig
from repro.dse.engine import _evaluate_batch
from repro.dse.faults import FaultPlan
from repro.dse.sqlite_store import SqliteResultStore
from repro.dse.store import open_store
from repro.service.queue import LeaseQueue
from repro.suite.registry import load_circuit


def _load_netlist(circuit: str, source: str | None) -> Netlist:
    """Resolve one lease's netlist: explicit file path, else roster."""
    if source is not None:
        suffix = Path(source).suffix.lower()
        if suffix == ".bench":
            from repro.circuits.bench_parser import load_bench

            return load_bench(source)
        if suffix in (".blif", ".mcnc"):
            from repro.circuits.blif_parser import load_blif

            return load_blif(source)
        raise ValueError(
            f"cannot load netlist {source!r}: expected .bench or .blif"
        )
    return load_circuit(circuit)


def run_worker(
    queue_path: str | Path,
    store_path: str | Path,
    worker_id: str | None = None,
    lease_size: int = 8,
    poll_s: float = 0.2,
    drain: bool = False,
    idle_timeout_s: float | None = None,
    base_config: DiacConfig | None = None,
    fault_plan: FaultPlan | None = None,
    store_backend: str = "auto",
    fsync_every: int = 0,
) -> dict:
    """Claim, evaluate and resolve leases until the queue winds down.

    Args:
        queue_path: the :class:`~repro.service.queue.LeaseQueue` file.
        store_path: the shared result store; must resolve to the SQLite
            backend (concurrent writers need WAL + upserts).
        worker_id: queue-visible identity; default ``host-pid``.
        lease_size: max tasks per claim (one synthesis stage each).
        poll_s: idle sleep between empty claims.
        drain: exit as soon as nothing is left to resolve, even while
            the queue is still ``open`` (one-shot helpers and tests).
        idle_timeout_s: give up after this much continuous idleness
            (``None`` = wait for the queue to close).
        base_config: synthesis defaults, identical to the engine's.
        fault_plan: deterministic chaos (``repro worker
            --inject-faults``); crash faults kill this process outright,
            exercising the lease-expiry path for real.
        store_backend: forwarded to :func:`~repro.dse.store.open_store`.
        fsync_every: forwarded to :func:`~repro.dse.store.open_store`.

    Returns:
        ``{"worker", "n_done", "n_failed", "n_leases"}`` totals.

    Raises:
        ValueError: when ``store_path`` does not resolve to SQLite.
    """
    store = open_store(
        store_path, backend=store_backend, fsync_every=fsync_every
    )
    if not isinstance(store, SqliteResultStore):
        raise ValueError(
            f"service workers require the SQLite store backend; "
            f"{store_path} resolved to {type(store).__name__}"
        )
    queue = LeaseQueue(queue_path)
    worker = worker_id or f"{socket.gethostname()}-{os.getpid()}"
    queue.register_worker(worker, os.getpid())
    netlists: dict[str, Netlist] = {}
    n_done = n_failed = n_leases = 0
    idle_since: float | None = None
    try:
        while True:
            queue.reclaim_expired()
            lease = queue.claim(worker, limit=lease_size)
            if lease:
                idle_since = None
                n_leases += 1
                circuit = lease[0].circuit
                if circuit not in netlists:
                    netlists[circuit] = _load_netlist(
                        circuit, lease[0].source
                    )
                jobs = [
                    (task.key, task.scenario, task.point)
                    for task in lease
                ]
                # A crash fault inside the batch exits the process here,
                # leaving the lease to expire — the real death path.
                records, _calls, _plans, failures = _evaluate_batch(
                    circuit,
                    netlists[circuit],
                    jobs,
                    base_config,
                    persistent_cache=True,
                    fault_plan=fault_plan,
                )
                # Store first, then resolve: a death in between re-runs
                # the point, and the store upsert absorbs the duplicate.
                store.extend([record for _key, record in records])
                for key, _record in records:
                    queue.complete(worker, key)
                for key, failure in failures:
                    queue.fail(worker, key, failure.error, failure.kind)
                n_done += len(records)
                n_failed += len(failures)
                queue.heartbeat(worker)
                continue
            queue.heartbeat(worker)
            # Drain mode still waits out backoff delays and foreign
            # leases — "drained" means resolved, not merely unclaimable.
            if queue.unfinished() == 0 and (
                drain or queue.state() == "closed"
            ):
                break
            now = time.time()
            if idle_since is None:
                idle_since = now
            if (
                idle_timeout_s is not None
                and now - idle_since >= idle_timeout_s
            ):
                break
            time.sleep(poll_s)
    finally:
        queue.worker_exited(worker)
        queue.close()
        store.close()
    return {
        "worker": worker,
        "n_done": n_done,
        "n_failed": n_failed,
        "n_leases": n_leases,
    }
