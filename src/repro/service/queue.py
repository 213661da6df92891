"""The SQLite-backed lease queue behind the sweep service.

One queue = one SQLite file (WAL) holding three ``svc_``-prefixed
tables, so it can *colocate with the SQLite result store in the same
database* — a distributed sweep then needs exactly one shared path:

* ``svc_tasks`` — one row per evaluation task, keyed by the engine's
  resume key.  Lifecycle: ``pending`` -> ``leased`` (claimed by a
  worker, deadline attached) -> ``done`` | ``failed``, with two ways
  back to ``pending``: a *transient* failure inside its retry budget
  (rescheduled after the deterministic
  :meth:`~repro.dse.resilience.RetryPolicy.delay_s` backoff) and a
  *lease expiry* (the worker died or hung past its deadline —
  :meth:`LeaseQueue.reclaim_expired` hands the task to the next
  claimer).  ``attempts`` counts claims, so a task crashing its worker
  repeatedly still exhausts the same budget a retrying error would.
* ``svc_workers`` — registration + heartbeats, feeding the
  ``/workers`` view and dead-worker detection.
* ``svc_meta`` — queue schema version, the run's retry policy and
  lease timeout (persisted by the coordinator so every worker applies
  identical semantics), and the ``open``/``closed`` queue state that
  tells idle workers whether more work may still arrive.

Claims batch by *stage* (circuit x policy) — the synthesis-sharing
group of :func:`repro.dse.engine._evaluate_batch` — so a lease is one
warm-cache batch, not a grab-bag of unrelated synthesis runs.

Completion is idempotent by construction: the result store upserts on
the same key, and :meth:`LeaseQueue.complete` marks ``done`` whatever
state the row is in — a reclaimed task finished twice lands on one
record and one ``done`` row.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.dse.explorer import DesignPoint
from repro.dse.faults import key_text
from repro.dse.resilience import TRANSIENT, RetryPolicy
from repro.dse.sqlite_store import connect_wal, decode_key, encode_key
from repro.dse.store import (
    point_from_dict,
    point_to_dict,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.energy.scenarios import ScenarioSpec

#: Queue layout version, independent of the record-store schema; a
#: newer-versioned queue is refused rather than misread.
QUEUE_SCHEMA_VERSION = 1

#: How many keys one SQL ``IN (...)`` clause carries (SQLite's default
#: variable limit is 999).
_CHUNK = 500

_SCHEMA = """
CREATE TABLE IF NOT EXISTS svc_meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS svc_tasks (
    task_key TEXT PRIMARY KEY,
    stage TEXT NOT NULL,
    payload TEXT NOT NULL,
    status TEXT NOT NULL DEFAULT 'pending',
    attempts INTEGER NOT NULL DEFAULT 0,
    not_before REAL NOT NULL DEFAULT 0,
    worker TEXT,
    lease_deadline REAL,
    error TEXT,
    kind TEXT
);
CREATE INDEX IF NOT EXISTS idx_svc_tasks_claim
    ON svc_tasks (status, stage, not_before);
CREATE INDEX IF NOT EXISTS idx_svc_tasks_lease
    ON svc_tasks (status, lease_deadline);
CREATE TABLE IF NOT EXISTS svc_workers (
    worker TEXT PRIMARY KEY,
    pid INTEGER,
    started REAL NOT NULL,
    last_seen REAL NOT NULL,
    n_done INTEGER NOT NULL DEFAULT 0,
    n_failed INTEGER NOT NULL DEFAULT 0,
    status TEXT NOT NULL DEFAULT 'active'
);
"""


@dataclass(frozen=True)
class LeaseTask:
    """One claimed evaluation task, decoded back to engine objects.

    Attributes:
        key: the engine's resume/task key.
        circuit: the sweep's name for the circuit.
        scenario: harvest environment to evaluate under.
        point: the design point.
        source: optional netlist file path for non-roster circuits.
        attempts: claims this task has consumed, this one included.
    """

    key: tuple
    circuit: str
    scenario: ScenarioSpec
    point: DesignPoint
    source: str | None
    attempts: int


class LeaseQueue:
    """Durable lease queue over one SQLite file (see module docs).

    Args:
        path: queue database; shares a file with
            :class:`~repro.dse.sqlite_store.SqliteResultStore` cleanly
            (all tables here are ``svc_``-prefixed).
        retry: fallback retry policy when the coordinator has not
            persisted one into the queue metadata.
        lease_timeout_s: fallback lease lifetime, same rule.
        busy_timeout_s: how long concurrent openers wait on a locked
            database before erroring.

    Raises:
        ValueError: for a queue written under a newer layout version.
    """

    def __init__(
        self,
        path: str | Path,
        retry: RetryPolicy | None = None,
        lease_timeout_s: float = 60.0,
        busy_timeout_s: float = 5.0,
    ) -> None:
        self.path = Path(path)
        self._retry = retry if retry is not None else RetryPolicy()
        self._lease_timeout_s = lease_timeout_s
        self._conn = connect_wal(self.path, _SCHEMA, busy_timeout_s)
        # Explicit BEGIN IMMEDIATE transactions (claims must serialize
        # across processes), so autocommit between them.
        self._conn.isolation_level = None
        stored = self._meta_get("queue_schema_version")
        if stored is None:
            self._meta_set("queue_schema_version", QUEUE_SCHEMA_VERSION)
        elif stored > QUEUE_SCHEMA_VERSION:
            raise ValueError(
                f"{self.path} was written under queue schema {stored}; "
                f"this build reads up to {QUEUE_SCHEMA_VERSION}"
            )

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        self._conn.close()

    # -- metadata -------------------------------------------------------

    def _meta_get(self, key: str) -> object:
        row = self._conn.execute(
            "SELECT value FROM svc_meta WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else json.loads(row[0])

    def _meta_set(self, key: str, value: object) -> None:
        self._conn.execute(
            "INSERT INTO svc_meta (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (key, json.dumps(value, sort_keys=True)),
        )

    def configure(
        self,
        retry: RetryPolicy | None = None,
        lease_timeout_s: float | None = None,
    ) -> None:
        """Persist run-wide lease semantics into the queue metadata.

        The coordinator calls this once; every worker that opens the
        queue afterwards applies the *same* retry budget, backoff seed
        and lease lifetime, however its own constructor was defaulted —
        lease semantics are a property of the run, not of whoever
        happens to claim.
        """
        if retry is not None:
            self._meta_set("retry_policy", asdict(retry))
        if lease_timeout_s is not None:
            self._meta_set("lease_timeout_s", lease_timeout_s)

    @property
    def retry(self) -> RetryPolicy:
        """The effective retry policy (persisted, else the fallback)."""
        stored = self._meta_get("retry_policy")
        if isinstance(stored, dict):
            return RetryPolicy(**stored)
        return self._retry

    @property
    def lease_timeout_s(self) -> float:
        """The effective lease lifetime (persisted, else the fallback)."""
        stored = self._meta_get("lease_timeout_s")
        if isinstance(stored, (int, float)):
            return float(stored)
        return self._lease_timeout_s

    def state(self) -> str:
        """``open`` (more work may arrive) or ``closed``."""
        stored = self._meta_get("queue_state")
        return stored if isinstance(stored, str) else "open"

    def set_state(self, state: str) -> None:
        """Flip the queue state idle workers key their exit off.

        Raises:
            ValueError: for anything but ``open``/``closed``.
        """
        if state not in ("open", "closed"):
            raise ValueError(f"queue state must be open or closed, got {state!r}")
        self._meta_set("queue_state", state)

    # -- producing ------------------------------------------------------

    def clear_tasks(self) -> None:
        """Drop every task row (a fresh submission owns the queue)."""
        self._conn.execute("DELETE FROM svc_tasks")

    def enqueue(
        self,
        tasks: list[tuple[tuple, str, ScenarioSpec, DesignPoint]],
        sources: dict[str, str] | None = None,
    ) -> int:
        """Insert evaluation tasks as ``pending`` rows.

        ``tasks`` are the engine's ``(key, circuit, scenario, point)``
        tuples (see :func:`repro.dse.engine.expand_tasks`); ``sources``
        optionally maps non-roster circuit names to netlist file paths
        workers can load.  Re-enqueueing an existing key resets it to
        ``pending`` with a fresh attempt budget — the coordinator
        pre-filters resumed keys, so an enqueue always means "run
        this".  Returns the number of rows written.
        """
        sources = sources or {}
        rows = []
        for key, circuit, scenario, point in tasks:
            payload = {
                "circuit": circuit,
                "scenario": scenario_to_dict(scenario),
                "point": point_to_dict(point),
            }
            if circuit in sources:
                payload["source"] = sources[circuit]
            rows.append(
                (
                    encode_key(key),
                    f"{circuit}|{point.policy}",
                    json.dumps(payload, sort_keys=True),
                )
            )
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            self._conn.executemany(
                "INSERT INTO svc_tasks (task_key, stage, payload) "
                "VALUES (?, ?, ?) "
                "ON CONFLICT(task_key) DO UPDATE SET "
                "stage = excluded.stage, payload = excluded.payload, "
                "status = 'pending', attempts = 0, not_before = 0, "
                "worker = NULL, lease_deadline = NULL, "
                "error = NULL, kind = NULL",
                rows,
            )
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        return len(rows)

    # -- claiming and resolving -----------------------------------------

    def _decode_task(self, key_text: str, payload_text: str,
                     attempts: int) -> LeaseTask:
        payload = json.loads(payload_text)
        return LeaseTask(
            key=decode_key(key_text),
            circuit=payload["circuit"],
            scenario=scenario_from_dict(payload["scenario"]),
            point=point_from_dict(payload["point"]),
            source=payload.get("source"),
            attempts=attempts,
        )

    def claim(self, worker: str, limit: int = 8) -> list[LeaseTask]:
        """Lease up to ``limit`` tasks of one stage to ``worker``.

        One ``BEGIN IMMEDIATE`` transaction picks the oldest eligible
        stage and leases its oldest eligible tasks together, so a lease
        shares one synthesis run exactly like an engine batch.  Eligible
        means ``pending`` with its backoff (``not_before``) elapsed.
        Returns ``[]`` when nothing is claimable right now.
        """
        if limit < 1:
            raise ValueError("limit must be >= 1")
        now = time.time()
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            row = self._conn.execute(
                "SELECT stage FROM svc_tasks "
                "WHERE status = 'pending' AND not_before <= ? "
                "ORDER BY rowid LIMIT 1",
                (now,),
            ).fetchone()
            if row is None:
                self._conn.execute("COMMIT")
                return []
            stage = row[0]
            rows = self._conn.execute(
                "SELECT task_key, payload, attempts FROM svc_tasks "
                "WHERE status = 'pending' AND not_before <= ? "
                "AND stage = ? ORDER BY rowid LIMIT ?",
                (now, stage, limit),
            ).fetchall()
            deadline = now + self.lease_timeout_s
            self._conn.executemany(
                "UPDATE svc_tasks SET status = 'leased', worker = ?, "
                "lease_deadline = ?, attempts = attempts + 1 "
                "WHERE task_key = ?",
                [(worker, deadline, key) for key, _p, _a in rows],
            )
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        return [
            self._decode_task(key, payload, attempts + 1)
            for key, payload, attempts in rows
        ]

    def complete(self, worker: str, key: tuple) -> None:
        """Mark one task ``done`` — idempotently, whoever holds it now.

        The record already landed in the result store (an upsert on the
        same key), so a double completion after a lease reclaim is
        harmless: last writer wins on an identical record, and the task
        row converges on ``done``.
        """
        cursor = self._conn.execute(
            "UPDATE svc_tasks SET status = 'done', worker = ?, "
            "lease_deadline = NULL, error = NULL, kind = NULL "
            "WHERE task_key = ? AND status != 'done'",
            (worker, encode_key(key)),
        )
        if cursor.rowcount:
            self._conn.execute(
                "UPDATE svc_workers SET n_done = n_done + 1 "
                "WHERE worker = ?",
                (worker,),
            )

    def fail(self, worker: str, key: tuple, error: str, kind: str) -> None:
        """Resolve one *leased* task as failed, honoring the taxonomy.

        ``transient`` failures inside the retry budget go back to
        ``pending`` with the deterministic backoff delay; everything
        else (terminal, unexpected, or an exhausted budget) lands in
        ``failed``.  Only the lease holder's report counts: a stale
        worker failing a task that was already reclaimed (or completed)
        is a no-op.
        """
        encoded = encode_key(key)
        row = self._conn.execute(
            "SELECT attempts FROM svc_tasks "
            "WHERE task_key = ? AND status = 'leased' AND worker = ?",
            (encoded, worker),
        ).fetchone()
        if row is None:
            return
        attempts = row[0]
        retry = self.retry
        if kind == TRANSIENT and attempts < retry.max_attempts:
            delay = retry.delay_s(attempts, token=key_text(key))
            self._conn.execute(
                "UPDATE svc_tasks SET status = 'pending', "
                "not_before = ?, worker = NULL, lease_deadline = NULL, "
                "error = ?, kind = ? WHERE task_key = ?",
                (time.time() + delay, error, kind, encoded),
            )
        else:
            self._conn.execute(
                "UPDATE svc_tasks SET status = 'failed', "
                "lease_deadline = NULL, error = ?, kind = ? "
                "WHERE task_key = ?",
                (error, kind, encoded),
            )
            self._conn.execute(
                "UPDATE svc_workers SET n_failed = n_failed + 1 "
                "WHERE worker = ?",
                (worker,),
            )

    def reclaim_expired(self) -> int:
        """Recover leases whose worker died or hung past its deadline.

        Expired leases inside the retry budget return to ``pending``
        (with the same deterministic backoff a transient error gets —
        a crash IS a transient failure in the taxonomy); budget-
        exhausted ones land in ``failed`` so a task that kills every
        worker it touches cannot loop forever.  Workers whose
        heartbeat went stale are marked ``dead``.  Returns the number
        of leases recovered either way.
        """
        now = time.time()
        retry = self.retry
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            rows = self._conn.execute(
                "SELECT task_key, attempts, worker FROM svc_tasks "
                "WHERE status = 'leased' AND lease_deadline < ?",
                (now,),
            ).fetchall()
            for encoded, attempts, worker in rows:
                error = (
                    f"lease expired after {attempts} attempt(s); worker "
                    f"{worker or '?'} presumed dead"
                )
                if attempts < retry.max_attempts:
                    delay = retry.delay_s(
                        attempts, token=key_text(decode_key(encoded))
                    )
                    self._conn.execute(
                        "UPDATE svc_tasks SET status = 'pending', "
                        "not_before = ?, worker = NULL, "
                        "lease_deadline = NULL, error = ?, kind = ? "
                        "WHERE task_key = ?",
                        (now + delay, error, TRANSIENT, encoded),
                    )
                else:
                    self._conn.execute(
                        "UPDATE svc_tasks SET status = 'failed', "
                        "lease_deadline = NULL, error = ?, kind = ? "
                        "WHERE task_key = ?",
                        (error, TRANSIENT, encoded),
                    )
            self._conn.execute(
                "UPDATE svc_workers SET status = 'dead' "
                "WHERE status = 'active' AND last_seen < ?",
                (now - self.lease_timeout_s,),
            )
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        return len(rows)

    # -- workers --------------------------------------------------------

    def register_worker(self, worker: str, pid: int) -> None:
        """Register (or re-register) one worker as active."""
        now = time.time()
        self._conn.execute(
            "INSERT INTO svc_workers (worker, pid, started, last_seen) "
            "VALUES (?, ?, ?, ?) "
            "ON CONFLICT(worker) DO UPDATE SET pid = excluded.pid, "
            "last_seen = excluded.last_seen, status = 'active'",
            (worker, pid, now, now),
        )

    def heartbeat(self, worker: str) -> None:
        """Refresh ``worker``'s liveness and extend its lease deadlines.

        Workers heartbeat between leases, so ``lease_timeout_s`` must
        cover the worst-case wall time of one lease — the deadline is
        the detector for a worker that died *inside* a batch.
        """
        now = time.time()
        self._conn.execute(
            "UPDATE svc_workers SET last_seen = ?, status = 'active' "
            "WHERE worker = ?",
            (now, worker),
        )
        self._conn.execute(
            "UPDATE svc_tasks SET lease_deadline = ? "
            "WHERE status = 'leased' AND worker = ?",
            (now + self.lease_timeout_s, worker),
        )

    def worker_exited(self, worker: str) -> None:
        """Record a clean worker exit."""
        self._conn.execute(
            "UPDATE svc_workers SET status = 'exited', last_seen = ? "
            "WHERE worker = ?",
            (time.time(), worker),
        )

    def workers(self) -> list[dict]:
        """Every registered worker as a JSON-friendly dict."""
        rows = self._conn.execute(
            "SELECT worker, pid, started, last_seen, n_done, n_failed, "
            "status FROM svc_workers ORDER BY started"
        ).fetchall()
        names = (
            "worker", "pid", "started", "last_seen", "n_done",
            "n_failed", "status",
        )
        return [dict(zip(names, row)) for row in rows]

    # -- introspection --------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Task counts by status (absent statuses count 0)."""
        counts = {"pending": 0, "leased": 0, "done": 0, "failed": 0}
        for status, count in self._conn.execute(
            "SELECT status, COUNT(*) FROM svc_tasks GROUP BY status"
        ):
            counts[status] = count
        counts["total"] = sum(counts.values())
        return counts

    def unfinished(self) -> int:
        """Tasks not yet resolved (``pending`` + ``leased``)."""
        return self._conn.execute(
            "SELECT COUNT(*) FROM svc_tasks "
            "WHERE status IN ('pending', 'leased')"
        ).fetchone()[0]

    def statuses(self, keys: list[tuple]) -> dict[tuple, str]:
        """Current status of each given key (missing keys omitted)."""
        out: dict[tuple, str] = {}
        encoded = [encode_key(key) for key in keys]
        for start in range(0, len(encoded), _CHUNK):
            chunk = encoded[start:start + _CHUNK]
            marks = ",".join("?" * len(chunk))
            for key_text, status in self._conn.execute(
                f"SELECT task_key, status FROM svc_tasks "
                f"WHERE task_key IN ({marks})",
                chunk,
            ):
                out[decode_key(key_text)] = status
        return out

    def counts_for(self, keys: list[tuple]) -> dict[str, int]:
        """Aggregate outcome counters over the given keys.

        Returns ``n_done``, ``n_failed`` and ``n_retries`` (total
        claims beyond each task's first — the queue analogue of the
        engine's retry counter).
        """
        totals = {"n_done": 0, "n_failed": 0, "n_retries": 0}
        encoded = [encode_key(key) for key in keys]
        for start in range(0, len(encoded), _CHUNK):
            chunk = encoded[start:start + _CHUNK]
            marks = ",".join("?" * len(chunk))
            row = self._conn.execute(
                f"SELECT "
                f"SUM(status = 'done'), SUM(status = 'failed'), "
                f"SUM(MAX(attempts - 1, 0)) "
                f"FROM svc_tasks WHERE task_key IN ({marks})",
                chunk,
            ).fetchone()
            totals["n_done"] += row[0] or 0
            totals["n_failed"] += row[1] or 0
            totals["n_retries"] += row[2] or 0
        return totals

    def failures(self) -> list[dict]:
        """Every ``failed`` task as a JSON-friendly dict.

        Each entry carries the task key (as a list — JSON-friendly),
        circuit, scenario label, point label, error text, taxonomy kind
        and attempts — the fields a
        :class:`~repro.dse.engine.SweepFailure` needs, with labels
        rebuilt from the task payload.
        """
        out = []
        for key_text_, payload_text, error, kind, attempts in (
            self._conn.execute(
                "SELECT task_key, payload, error, kind, attempts "
                "FROM svc_tasks WHERE status = 'failed' ORDER BY rowid"
            )
        ):
            payload = json.loads(payload_text)
            out.append(
                {
                    "key": list(decode_key(key_text_)),
                    "circuit": payload["circuit"],
                    "scenario": scenario_from_dict(
                        payload["scenario"]
                    ).label(),
                    "label": point_from_dict(payload["point"]).label(),
                    "error": error or "",
                    "kind": kind or "unexpected",
                    "attempts": attempts,
                }
            )
        return out

    def fail_unfinished(self, error: str, kind: str = "unexpected") -> int:
        """Force every unresolved task to ``failed`` (coordinator bailout).

        The last resort when no worker is left to run them and the
        respawn budget is spent — the alternative is a coordinator that
        polls forever.  Returns the number of tasks failed.
        """
        cursor = self._conn.execute(
            "UPDATE svc_tasks SET status = 'failed', "
            "lease_deadline = NULL, error = ?, kind = ? "
            "WHERE status IN ('pending', 'leased')",
            (error, kind),
        )
        return cursor.rowcount
