"""The coordinator that shards one SweepRequest across worker processes.

:class:`SweepCoordinator` is the distributed twin of
:meth:`repro.dse.engine.SweepEngine.submit` — same
:class:`~repro.dse.request.SweepRequest` in, same
:class:`~repro.dse.engine.SweepResult` out, but evaluation happens in
plain worker processes (``repro worker``) pulling stage-batch leases
from a :class:`~repro.service.queue.LeaseQueue` and upserting into the
shared SQLite store.

The coordinator runs the engine's own drivers
(:func:`~repro.dse.engine.run_request`) with a queue-backed executor.
A grid enqueues the spec's pending tasks once (after the driver's
resume filtering and static pruning); a named search strategy runs its
ask/tell loop *in* the coordinator, each generation's evaluations
fanned through the queue while the workers (and their process-global
synthesis caches) stay alive across generations.

The coordinator also supervises: expired leases are reclaimed, dead
worker processes are respawned up to a budget, and when no worker is
left the remaining tasks are failed instead of polling forever.
Determinism carries through: point evaluation is pure, stores upsert
on the engine's resume keys, and lease retries reuse the engine's
taxonomy/backoff — so the final record set is bit-identical to a
single-process run of the same request, however leases interleave or
workers die (the service tests pin this).
"""

from __future__ import annotations

import subprocess
import sys
import time
from collections.abc import Callable
from pathlib import Path

from repro.circuits.netlist import Netlist
from repro.core.diac import DiacConfig
from repro.dse.engine import (
    SweepFailure,
    SweepResult,
    SweepStats,
    _Evaluated,
    _Task,
    fetch_records,
    run_request,
)
from repro.dse.request import SweepRequest
from repro.dse.resilience import ResilienceConfig
from repro.dse.sqlite_store import SqliteResultStore
from repro.dse.store import open_store
from repro.service.queue import LeaseQueue


class SweepCoordinator:
    """Shards :class:`SweepRequest` s over queue-fed worker processes.

    Args:
        store_path: the shared result store; must resolve to the SQLite
            backend (WAL + upserts admit the concurrent writers).
        queue_path: the lease-queue database.  Defaults to
            ``store_path`` — the queue tables are ``svc_``-prefixed, so
            store and queue colocate in one file and a whole
            distributed sweep shares a single path.
        workers: worker processes to spawn (``repro worker``
            subprocesses).  0 spawns none — external workers pointed at
            the same queue/store do the evaluating (multi-host mode,
            and what the in-process service tests use).
        lease_size: max tasks per worker claim.
        lease_timeout_s: lease lifetime; must exceed the worst-case
            wall time of one lease, since workers heartbeat *between*
            leases (see docs/service.md).
        poll_s: coordinator supervision interval.
        max_respawns: replacement workers allowed after deaths.
        resilience: retry policy source (``resilience.retry`` is
            persisted into the queue) and fault plan forwarded to
            spawned workers via ``--inject-faults``/``--fault-dir``.
        base_config: synthesis defaults, identical to the engine's.
        store_backend: forwarded to :func:`~repro.dse.store.open_store`.
        fsync_every: forwarded to :func:`~repro.dse.store.open_store`.
        http_port: when not ``None``, serve the read-only
            :class:`~repro.service.view.SweepViewServer` on this port
            for the duration of :meth:`submit` (0 = ephemeral port).
    """

    def __init__(
        self,
        store_path: str | Path,
        queue_path: str | Path | None = None,
        workers: int = 2,
        lease_size: int = 8,
        lease_timeout_s: float = 60.0,
        poll_s: float = 0.2,
        max_respawns: int = 4,
        resilience: ResilienceConfig | None = None,
        base_config: DiacConfig | None = None,
        store_backend: str = "auto",
        fsync_every: int = 0,
        http_port: int | None = None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if lease_size < 1:
            raise ValueError("lease_size must be >= 1")
        if lease_timeout_s <= 0:
            raise ValueError("lease_timeout_s must be positive")
        self.store_path = Path(store_path)
        self.queue_path = (
            Path(queue_path) if queue_path is not None else self.store_path
        )
        self.workers = workers
        self.lease_size = lease_size
        self.lease_timeout_s = lease_timeout_s
        self.poll_s = poll_s
        self.max_respawns = max_respawns
        self.resilience = (
            resilience if resilience is not None else ResilienceConfig()
        )
        self.base_config = base_config
        self.store_backend = store_backend
        self.fsync_every = fsync_every
        self.http_port = http_port
        self._procs: list[subprocess.Popen] = []
        self._respawns_left = max_respawns

    # -- worker process management --------------------------------------

    def _worker_argv(self) -> list[str]:
        argv = [
            sys.executable, "-m", "repro", "worker",
            "--queue", str(self.queue_path),
            "--results", str(self.store_path),
            "--store-backend", self.store_backend,
            "--lease-size", str(self.lease_size),
            "--poll", str(self.poll_s),
            "--fsync-every", str(self.fsync_every),
        ]
        plan = self.resilience.fault_plan
        if plan is not None:
            # describe() round-trips through FaultPlan.parse, and the
            # shared state dir keeps trip markers global to the fleet —
            # a crash fault fires once per run, not once per worker.
            argv += [
                "--inject-faults", plan.describe(),
                "--fault-dir", str(plan.state_dir),
            ]
        return argv

    def _spawn_worker(self) -> None:
        import os

        import repro

        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self._procs.append(
            subprocess.Popen(self._worker_argv(), env=env)
        )

    def _supervise_workers(self, queue: LeaseQueue) -> bool:
        """Reap dead workers, respawn within budget; False = none left.

        A worker that exited *cleanly* (code 0) is not replaced — clean
        exits only happen when the queue told it to stop.  Spawning no
        workers at all (``workers=0``) always returns True: liveness is
        someone else's job then.
        """
        if self.workers == 0:
            return True
        for proc in list(self._procs):
            code = proc.poll()
            if code is not None and code != 0 and self._respawns_left > 0:
                self._respawns_left -= 1
                queue.reclaim_expired()
                self._spawn_worker()
        self._procs = [p for p in self._procs if p.poll() is None]
        return bool(self._procs)

    def _shutdown_workers(self, timeout_s: float = 30.0) -> None:
        deadline = time.time() + timeout_s
        for proc in self._procs:
            remaining = max(0.1, deadline - time.time())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        self._procs = []

    # -- submission -----------------------------------------------------

    def submit(
        self,
        request: SweepRequest,
        netlists: dict[str, Netlist] | None = None,
        sources: dict[str, str] | None = None,
    ) -> SweepResult:
        """Execute one request across the worker fleet.

        Runs the same drivers as :meth:`SweepEngine.submit
        <repro.dse.engine.SweepEngine.submit>` with the queue as the
        executor, so the result matches the engine's — records in spec
        order for grids and first-proposal task order for searches —
        but its records are read back from the shared store.

        Args:
            request: what to explore and how.  Strategy *instances* are
                rejected — only named strategies describe work that can
                cross a process boundary.
            netlists: circuit name -> netlist mapping used by the
                coordinator itself (static pruning, search screeners);
                workers load their own copies.
            sources: circuit name -> netlist file path for non-roster
                circuits, forwarded through the queue payloads so
                workers can load them (roster names need no entry).

        Returns:
            A :class:`~repro.dse.engine.SweepResult` over the shared
            store's records.

        Raises:
            ValueError: for a strategy instance, or a store path that
                does not resolve to the SQLite backend.
        """
        if request.strategy_name is None:
            raise ValueError(
                "the coordinator needs a named strategy; strategy "
                "instances cannot cross process boundaries"
            )
        store = open_store(
            self.store_path,
            backend=self.store_backend,
            fsync_every=self.fsync_every,
        )
        if not isinstance(store, SqliteResultStore):
            raise ValueError(
                f"the sweep service requires the SQLite store backend; "
                f"{self.store_path} resolved to {type(store).__name__}"
            )
        queue = LeaseQueue(
            self.queue_path,
            retry=self.resilience.retry,
            lease_timeout_s=self.lease_timeout_s,
        )
        view = None
        try:
            queue.configure(
                retry=self.resilience.retry,
                lease_timeout_s=self.lease_timeout_s,
            )
            if self.http_port is not None:
                from repro.service.view import SweepViewServer

                view = SweepViewServer(
                    self.store_path,
                    queue_path=self.queue_path,
                    port=self.http_port,
                )
                view.start_background()
            queue.clear_tasks()
            queue.set_state("open")
            for _ in range(self.workers):
                self._spawn_worker()
            return run_request(
                request,
                _QueueExecutor(queue, store, sources, self._await_queue),
                store,
                base_config=self.base_config,
                netlists=netlists,
                workers=self.workers,
            )
        finally:
            if view is not None:
                view.shutdown()
            queue.set_state("closed")
            self._shutdown_workers()
            queue.close()
            store.close()

    def _await_queue(self, queue: LeaseQueue, keys: list[tuple]) -> None:
        """Poll until every given key is resolved (or nobody can).

        The supervision loop: reclaim expired leases, respawn dead
        workers within budget, and — when the fleet is gone for good —
        fail the stragglers rather than wait forever.
        """
        while keys:
            queue.reclaim_expired()
            statuses = queue.statuses(keys)
            if all(
                statuses.get(key) in ("done", "failed") for key in keys
            ):
                return
            if not self._supervise_workers(queue):
                queue.reclaim_expired()
                queue.fail_unfinished(
                    "no live workers remain and the respawn budget "
                    f"({self.max_respawns}) is spent"
                )
                return
            time.sleep(self.poll_s)


class _QueueExecutor:
    """The engine drivers' executor for queue-fed worker processes.

    Each batch is enqueued, awaited under the coordinator's supervision
    and read back: the fresh records from the shared store (workers
    write the store before they resolve a lease), the failures from
    the queue's failed rows.  Failed keys are never read from the
    store, so a stale record from an earlier run of a reused store
    cannot stand in for a point this run failed.
    """

    def __init__(
        self,
        queue: LeaseQueue,
        store: SqliteResultStore,
        sources: dict[str, str] | None,
        await_queue: Callable[[LeaseQueue, list[tuple]], None],
    ) -> None:
        self.queue = queue
        self.store = store
        self.sources = sources
        self.await_queue = await_queue

    def evaluate(self, tasks: list[_Task], stats: SweepStats) -> _Evaluated:
        keys = [key for key, *_rest in tasks]
        self.queue.enqueue(tasks, sources=self.sources)
        self.await_queue(self.queue, keys)
        wanted = set(keys)
        failures = {
            key: SweepFailure(
                circuit=entry["circuit"],
                label=entry["label"],
                error=entry["error"],
                scenario=entry["scenario"],
                kind=entry["kind"],
                attempts=entry["attempts"],
            )
            for entry in self.queue.failures()
            if (key := tuple(entry["key"])) in wanted
        }
        fresh = fetch_records(
            self.store, [task for task in tasks if task[0] not in failures]
        )
        counts = self.queue.counts_for(keys)
        stats.n_evaluated += counts["n_done"]
        stats.n_failed += counts["n_failed"]
        stats.n_retries += counts["n_retries"]
        return fresh, failures
