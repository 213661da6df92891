"""SQLite/WAL result store: the indexed backend for large sweeps.

Same :class:`~repro.dse.store.ResultStore` contract as the JSONL
reference backend, different scaling behavior: resume keys, counts,
point lookups and per-(scenario, circuit) group queries are index
reads instead of full-file scans, and a batch append is one
transaction instead of N line writes.

Durability parity with the JSONL torn-tail guarantees (docs/store.md
has the full matrix):

* the database runs in **WAL mode** — a SIGKILL mid-append rolls the
  tail of the write-ahead log back to the last committed transaction,
  the structural analogue of JSONL's "torn final line is skipped";
* ``fsync_every>=1`` maps to ``synchronous=FULL`` (every commit is
  fsynced before ``append``/``extend`` returns); the default 0 maps to
  ``synchronous=NORMAL``, WAL's standard setting, where a power cut may
  lose the most recent commits but never corrupts the database;
* appends are **idempotent upserts** keyed on the resume key, so the
  re-evaluation a crash forces overwrites rather than duplicates — the
  equivalent of JSONL's "last record per key wins" compaction rule,
  enforced at write time;
* a ``busy_timeout`` makes concurrent openers (a `repro store stats`
  against a live sweep) wait instead of failing.

The schema is versioned via :data:`~repro.dse.store.STORE_SCHEMA_VERSION`;
opening a database written by a newer layout raises instead of
misreading it.
"""

from __future__ import annotations

import json
import sqlite3
import time
from collections.abc import Iterator
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dse.faults import FaultPlan

from repro.dse.explorer import ExplorationRecord
from repro.dse.store import (
    STORE_SCHEMA_VERSION,
    StoreQueryMixin,
    record_from_dict,
    record_to_dict,
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS records (
    point_key TEXT PRIMARY KEY,
    scenario TEXT NOT NULL,
    circuit TEXT NOT NULL,
    pdp_js REAL NOT NULL,
    reexec_energy_j REAL NOT NULL,
    data TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_records_group
    ON records (scenario, circuit, point_key);
"""

_UPSERT = """
INSERT INTO records (point_key, scenario, circuit, pdp_js, reexec_energy_j, data)
VALUES (?, ?, ?, ?, ?, ?)
ON CONFLICT(point_key) DO UPDATE SET
    scenario = excluded.scenario,
    circuit = excluded.circuit,
    pdp_js = excluded.pdp_js,
    reexec_energy_j = excluded.reexec_energy_j,
    data = excluded.data
"""


def connect_wal(
    path: Path, schema: str, busy_timeout_s: float
) -> sqlite3.Connection:
    """Open ``path`` in WAL mode and create ``schema``'s tables.

    Safe against concurrent openers of one fresh file (a coordinator
    and its workers).  Switching to WAL needs an exclusive lock, and
    SQLite reports "database is locked" at once, without waiting in the
    busy handler, when two connections race for it; the switch is
    retried until ``busy_timeout_s`` runs out.  The schema script runs
    under ``BEGIN IMMEDIATE``, so racing creators queue on the write
    lock instead of failing on a stale read.
    """
    conn = sqlite3.connect(
        path, timeout=busy_timeout_s, check_same_thread=False
    )
    deadline = time.monotonic() + busy_timeout_s
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            break
        except sqlite3.OperationalError as error:
            if "locked" not in str(error) or time.monotonic() > deadline:
                conn.close()
                raise
            time.sleep(0.005)
    conn.execute(f"PRAGMA busy_timeout={int(busy_timeout_s * 1000)}")
    conn.executescript(f"BEGIN IMMEDIATE;{schema}COMMIT;")
    return conn


def encode_key(key: tuple) -> str:
    """Resume key -> canonical JSON text (floats round-trip via repr)."""
    return json.dumps(list(key))


def decode_key(text: str) -> tuple:
    """Inverse of :func:`encode_key`."""
    return tuple(json.loads(text))


class SqliteResultStore(StoreQueryMixin):
    """Indexed, transactional result store on a single SQLite file.

    Args:
        path: database file (created, with schema, on open).
        fsync_every: 0 (default) runs ``synchronous=NORMAL`` — commits
            may be lost to a power cut until the next WAL sync; any
            value >= 1 runs ``synchronous=FULL`` so every append is
            durable when it returns.  The same knob as the JSONL
            backend, collapsed to SQLite's two meaningful positions.
        fault_plan: optional chaos plan; a matching ``corrupt`` fault
            drops that record's write before commit, simulating a power
            cut whose transaction never landed (the WAL analogue of a
            torn JSONL line — resume re-evaluates exactly that point).
        busy_timeout_s: how long concurrent openers wait on a locked
            database before erroring.

    Raises:
        ValueError: for a negative ``fsync_every`` or a database
            written under a newer schema version.
    """

    def __init__(
        self,
        path: str | Path,
        fsync_every: int = 0,
        fault_plan: "FaultPlan | None" = None,
        busy_timeout_s: float = 5.0,
    ) -> None:
        if fsync_every < 0:
            raise ValueError("fsync_every must be >= 0")
        self.path = Path(path)
        self.fsync_every = fsync_every
        self.fault_plan = fault_plan
        #: Kept for interface symmetry with the JSONL store; SQLite
        #: refuses to read a damaged database rather than skip lines.
        self.last_load_skipped = 0
        self._conn = connect_wal(self.path, _SCHEMA, busy_timeout_s)
        self._conn.execute(
            "PRAGMA synchronous="
            + ("FULL" if fsync_every >= 1 else "NORMAL")
        )
        with self._conn:
            self._conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", json.dumps(STORE_SCHEMA_VERSION)),
            )
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if json.loads(row[0]) > STORE_SCHEMA_VERSION:
                raise ValueError(
                    f"{self.path} was written under store schema "
                    f"{json.loads(row[0])}; this build reads up to "
                    f"{STORE_SCHEMA_VERSION}"
                )

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        self._conn.close()

    # -- writes ---------------------------------------------------------

    def _row(self, record: ExplorationRecord) -> tuple | None:
        """Upsert parameters for one record, or None if a fault eats it."""
        key = record.key()
        if self.fault_plan is not None:
            from repro.dse.faults import key_text

            if self.fault_plan.corrupt_append(key_text(key)):
                # Simulated power cut: this record's transaction never
                # commits.  WAL recovery discards it wholesale, so —
                # unlike a torn JSONL line — there is nothing to skip
                # on reload; resume just re-evaluates the point.
                return None
        return (
            encode_key(key),
            record.scenario.label(),
            record.circuit,
            record.pdp_js,
            record.reexec_energy_j,
            json.dumps(record_to_dict(record), sort_keys=True),
        )

    def append(self, record: ExplorationRecord) -> None:
        """Upsert one record in its own transaction."""
        self.extend([record])

    def extend(self, records: list[ExplorationRecord]) -> None:
        """Upsert a batch of records in a single transaction."""
        rows = [row for row in map(self._row, records) if row is not None]
        if not rows:
            return
        with self._conn:
            self._conn.executemany(_UPSERT, rows)

    def rewrite(self, records: list[ExplorationRecord]) -> None:
        """Replace the whole record set in one transaction.

        Bypasses fault injection, like the JSONL backend's atomic
        rewrite: a rewrite models compaction/migration, not the
        crash-prone streaming append path.
        """
        rows = [
            (
                encode_key(r.key()),
                r.scenario.label(),
                r.circuit,
                r.pdp_js,
                r.reexec_energy_j,
                json.dumps(record_to_dict(r), sort_keys=True),
            )
            for r in records
        ]
        with self._conn:
            self._conn.execute("DELETE FROM records")
            self._conn.executemany(_UPSERT, rows)

    def compact(self) -> int:
        """Checkpoint the WAL back into the main database file.

        Upserts keep the record set duplicate-free at write time, so
        unlike JSONL compaction there are never stale rows to drop —
        this reclaims the write-ahead log instead.  Returns 0.
        """
        self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        return 0

    # -- reads ----------------------------------------------------------

    def load(self) -> list[ExplorationRecord]:
        """Every record, in first-insert order."""
        return [
            record_from_dict(json.loads(row[0]))
            for row in self._conn.execute(
                "SELECT data FROM records ORDER BY rowid"
            )
        ]

    def keys(self) -> set[tuple]:
        """Resume keys via an index-only scan — no record JSON touched."""
        return {
            decode_key(row[0])
            for row in self._conn.execute("SELECT point_key FROM records")
        }

    def count(self) -> int:
        """Number of records (SQL count, no rows materialized)."""
        return self._conn.execute(
            "SELECT COUNT(*) FROM records"
        ).fetchone()[0]

    def get(self, key: tuple) -> ExplorationRecord | None:
        """Primary-key lookup of one record."""
        row = self._conn.execute(
            "SELECT data FROM records WHERE point_key = ?",
            (encode_key(key),),
        ).fetchone()
        return None if row is None else record_from_dict(json.loads(row[0]))

    def iter_records(
        self, scenario: str | None = None, circuit: str | None = None
    ) -> Iterator[ExplorationRecord]:
        """Stream records matching the indexed group filters."""
        clauses, params = [], []
        if scenario is not None:
            clauses.append("scenario = ?")
            params.append(scenario)
        if circuit is not None:
            clauses.append("circuit = ?")
            params.append(circuit)
        query = "SELECT data FROM records"
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY rowid"
        for row in self._conn.execute(query, params):
            yield record_from_dict(json.loads(row[0]))

    # -- metadata -------------------------------------------------------

    def get_metadata(self) -> dict:
        """The meta table as a dict (JSON-decoded values)."""
        return {
            row[0]: json.loads(row[1])
            for row in self._conn.execute("SELECT key, value FROM meta")
        }

    def set_metadata(self, **entries: object) -> None:
        """Merge ``entries`` into the meta table in one transaction."""
        with self._conn:
            self._conn.executemany(
                "INSERT INTO meta (key, value) VALUES (?, ?) "
                "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
                [(k, json.dumps(v, sort_keys=True)) for k, v in entries.items()],
            )
