"""Pluggable result stores for design-space sweeps.

The paper's "exponentially expanding" design space (Section I) makes
sweeps long-running, so losing one to a crash is expensive — and big
enough that re-reading every record to resume is its own scaling
ceiling.  This module defines the storage contract the sweep engine
depends on and the JSON-lines reference backend:

* :class:`ResultStore` — the protocol every backend implements:
  streaming appends (``append``/``extend``), bulk access
  (``load``/``rewrite``/``compact``), **indexed access** (``keys`` for
  resume, ``get``/``iter_records``/``front``/``count`` for queries),
  and a small metadata map (``get_metadata``/``set_metadata``) holding
  the schema version and the sweep's spec fingerprint;
* :class:`JsonlResultStore` — append-only JSON lines, the default
  backend and the crash-safety reference (torn-tail semantics below);
* :func:`open_store` — backend factory (explicit, or auto-detected
  from the file's magic bytes / extension);
* :func:`migrate_store` — record-exact migration between backends.

The SQLite/WAL backend for large stores lives in
:mod:`repro.dse.sqlite_store`; durability parity between the two is
documented in ``docs/store.md``.

JSONL durability guarantees (see ``docs/robustness.md``):

* every append is a **single ``os.write`` of whole lines** to an
  ``O_APPEND`` descriptor — a SIGKILL between appends never leaves a
  torn line, and concurrent appenders never interleave mid-line;
* the ``fsync_every=N`` knob bounds post-SIGKILL loss to the last N
  records (0 leaves flushing to the OS, the historical behavior);
* an append onto a file whose last byte is not ``\\n`` (the tail a
  crash *mid-write* leaves behind) first writes a newline, so the torn
  tail can never merge with a fresh record — the loader then skips the
  torn line alone and resume re-evaluates exactly that point;
* :meth:`JsonlResultStore.rewrite` (and :meth:`compact` on top of it)
  replaces the file via tempfile + ``os.replace``, so any rewrite is
  all-or-nothing.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import warnings
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path
from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.diac import DiacConfig
    from repro.dse.faults import FaultPlan

from repro.core.replacement import ReplacementCriteria
from repro.dse.explorer import DesignPoint, ExplorationRecord
from repro.dse.pareto import record_front
from repro.energy.scenarios import ScenarioSpec
from repro.tech.nvm import get_technology

#: Version of the on-disk record layout, shared by every backend.  Bump
#: when :func:`record_to_dict` output or the SQLite schema changes shape;
#: stores written under a *newer* version are refused instead of being
#: silently misread.
STORE_SCHEMA_VERSION = 1

#: File extensions :func:`open_store` maps to the SQLite backend when no
#: existing file settles the question.
SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")

#: First bytes of every SQLite database file.
_SQLITE_MAGIC = b"SQLite format 3\x00"


def scenario_to_dict(scenario: ScenarioSpec) -> dict:
    """Serialize one scenario spec to a JSON-compatible dict."""
    return {
        "name": scenario.name,
        "seed": scenario.seed,
        "scale": scenario.scale,
    }


def point_to_dict(point: DesignPoint) -> dict:
    """Serialize one design point to a JSON-compatible dict.

    The canonical wire shape for design points — shared by the record
    stores and the :mod:`repro.service` queue payloads, so a point that
    crosses a process boundary always deserializes to the exact resume
    key it was keyed under.
    """
    criteria = point.criteria
    return {
        "policy": point.policy,
        "budget_scale": point.budget_scale,
        "technology": point.technology.name,
        "criteria": {
            "level_weight": criteria.level_weight,
            "power_weight": criteria.power_weight,
            "fanio_weight": criteria.fanio_weight,
        },
        "use_safe_zone": point.use_safe_zone,
        "threshold_scale": point.threshold_scale,
        "safe_margin_scale": point.safe_margin_scale,
    }


def record_to_dict(record: ExplorationRecord) -> dict:
    """Serialize one record to a JSON-compatible dict."""
    return {
        "circuit": record.circuit,
        "scenario": scenario_to_dict(record.scenario),
        "point": point_to_dict(record.point),
        "pdp_js": record.pdp_js,
        "energy_j": record.energy_j,
        "active_time_s": record.active_time_s,
        "n_backups": record.n_backups,
        "reexec_energy_j": record.reexec_energy_j,
        "n_barriers": record.n_barriers,
    }


def scenario_from_dict(data: dict | None) -> ScenarioSpec:
    """The record dict's scenario spec (missing entry = paper default)."""
    if not data:
        # Stores written before the scenario axis existed were evaluated
        # under exactly the default paper-fig5 environment.
        return ScenarioSpec()
    return ScenarioSpec(
        name=data["name"],
        seed=data["seed"],
        scale=data["scale"],
    )


def _scenario_from_dict(data: dict) -> ScenarioSpec:
    """The scenario of one *record* dict (which may predate the axis)."""
    return scenario_from_dict(data.get("scenario"))


def point_from_dict(data: dict) -> DesignPoint:
    """Inverse of :func:`point_to_dict`.

    Raises:
        KeyError: on a malformed dict or unknown technology name.
    """
    return DesignPoint(
        policy=data["policy"],
        budget_scale=data["budget_scale"],
        technology=get_technology(data["technology"]),
        criteria=ReplacementCriteria(**data["criteria"]),
        use_safe_zone=data["use_safe_zone"],
        threshold_scale=data["threshold_scale"],
        safe_margin_scale=data["safe_margin_scale"],
    )


def record_from_dict(data: dict) -> ExplorationRecord:
    """Rebuild a record from :func:`record_to_dict` output.

    Raises:
        KeyError: on a malformed dict or unknown technology name.
    """
    scenario = _scenario_from_dict(data)
    point = point_from_dict(data["point"])
    return ExplorationRecord(
        point=point,
        pdp_js=data["pdp_js"],
        energy_j=data["energy_j"],
        active_time_s=data["active_time_s"],
        n_backups=data["n_backups"],
        reexec_energy_j=data["reexec_energy_j"],
        n_barriers=data["n_barriers"],
        circuit=data["circuit"],
        scenario=scenario,
    )


def record_key_from_dict(data: dict) -> tuple:
    """The record's resume key, straight from its dict.

    Exactly :meth:`ExplorationRecord.key` (circuit, scenario identity,
    full-precision point identity) without paying for record
    construction or technology lookup — the cheap path behind
    :meth:`JsonlResultStore.keys`.

    Raises:
        KeyError: on a dict missing record fields.
        TypeError: on a dict whose fields have the wrong shape.
    """
    point = data["point"]
    criteria = point["criteria"]
    return (
        data["circuit"],
        *_scenario_from_dict(data).identity(),
        point["policy"],
        point["budget_scale"],
        point["technology"],
        criteria["level_weight"],
        criteria["power_weight"],
        criteria["fanio_weight"],
        point["use_safe_zone"],
        point["threshold_scale"],
        point["safe_margin_scale"],
    )


def scenario_label_of_key(key: tuple) -> str:
    """Display label of the scenario baked into a resume key."""
    return ScenarioSpec(name=key[1], seed=key[2], scale=key[3]).label()


def value_fingerprint(payload: object) -> str:
    """Short stable hash of any JSON-representable payload."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def config_fingerprint(config: "DiacConfig | None") -> str:
    """Fingerprint of a sweep's base synthesis configuration.

    ``None`` (engine default) hashes identically to an explicit default
    :class:`~repro.core.diac.DiacConfig`, since they evaluate alike.
    Stored in the result store's metadata so a resume against a store
    written under a *different* base configuration can warn instead of
    silently mixing incomparable records (see
    :func:`repro.dse.engine.sync_store_metadata`).
    """
    from dataclasses import asdict

    from repro.core.diac import DiacConfig

    return value_fingerprint(asdict(config if config is not None else DiacConfig()))


@runtime_checkable
class ResultStore(Protocol):
    """The storage contract :class:`~repro.dse.engine.SweepEngine` uses.

    Streaming writes, bulk access, indexed queries and a metadata map —
    every backend (:class:`JsonlResultStore`,
    :class:`repro.dse.sqlite_store.SqliteResultStore`) implements this
    set; the engine, CLI and aggregation layer depend on nothing else.
    """

    def append(self, record: ExplorationRecord) -> None:
        """Durably add one record."""
        ...  # pragma: no cover - protocol

    def extend(self, records: list[ExplorationRecord]) -> None:
        """Durably add many records in one batch."""
        ...  # pragma: no cover - protocol

    def load(self) -> list[ExplorationRecord]:
        """Every record on disk, in append order."""
        ...  # pragma: no cover - protocol

    def rewrite(self, records: list[ExplorationRecord]) -> None:
        """Atomically replace the contents with ``records``."""
        ...  # pragma: no cover - protocol

    def compact(self) -> int:
        """Drop damaged/stale entries; return how many were dropped."""
        ...  # pragma: no cover - protocol

    def keys(self) -> set[tuple]:
        """Resume keys of every record, without materializing records."""
        ...  # pragma: no cover - protocol

    def count(self) -> int:
        """Number of readable records."""
        ...  # pragma: no cover - protocol

    def get(self, key: tuple) -> ExplorationRecord | None:
        """The record stored under one resume key, or ``None``."""
        ...  # pragma: no cover - protocol

    def iter_records(
        self, scenario: str | None = None, circuit: str | None = None
    ) -> Iterable[ExplorationRecord]:
        """Records filtered by scenario label and/or circuit."""
        ...  # pragma: no cover - protocol

    def front(self, scenario: str, circuit: str) -> list[ExplorationRecord]:
        """Pareto front of one (scenario label, circuit) group."""
        ...  # pragma: no cover - protocol

    def get_metadata(self) -> dict:
        """The store's metadata map (empty when never written)."""
        ...  # pragma: no cover - protocol

    def set_metadata(self, **entries: object) -> None:
        """Merge ``entries`` into the metadata map."""
        ...  # pragma: no cover - protocol


class StoreQueryMixin:
    """Derived queries shared by backends, built on the primitives.

    A backend with a cheaper native path (SQLite's indexed ``get``,
    ``count``) overrides the relevant method.
    """

    def count(self) -> int:
        """Number of readable records."""
        return len(self.keys())

    def get(self, key: tuple) -> ExplorationRecord | None:
        """Scan the key's (scenario, circuit) group for an exact match."""
        found = None
        for record in self.iter_records(
            scenario=scenario_label_of_key(key), circuit=key[0]
        ):
            if record.key() == key:
                found = record  # last occurrence wins, like resume
        return found

    def front(self, scenario: str, circuit: str) -> list[ExplorationRecord]:
        """Pareto front (PDP x re-execution) of one group's records."""
        return record_front(
            list(self.iter_records(scenario=scenario, circuit=circuit))
        )


class JsonlResultStore(StoreQueryMixin):
    """Append-only JSON-lines store for exploration records.

    The default backend: humanly greppable, trivially concatenable, and
    crash-safe at single-record granularity (module docstring).  Every
    query walks the file, so resume and aggregation cost O(file) — the
    SQLite backend is the indexed alternative for large stores.

    Args:
        path: file to stream records to (created on first append).
        fsync_every: fsync after every N appended records; 0 (default)
            never fsyncs explicitly, so durability after SIGKILL is up
            to the OS.  1 makes every record durable before the append
            returns.
        fault_plan: optional chaos plan whose ``corrupt`` faults tear
            matching record writes in half (testing only).
    """

    def __init__(
        self,
        path: str | Path,
        fsync_every: int = 0,
        fault_plan: "FaultPlan | None" = None,
    ) -> None:
        if fsync_every < 0:
            raise ValueError("fsync_every must be >= 0")
        self.path = Path(path)
        self.fsync_every = fsync_every
        self.fault_plan = fault_plan
        #: Malformed lines skipped by the most recent scan (load/keys/
        #: iter_records).
        self.last_load_skipped = 0
        self._unsynced = 0
        # None = unknown (inspect the file on first append); afterwards
        # tracks whether the last byte we know of is a newline.
        self._tail_clean: bool | None = None

    # -- writes ---------------------------------------------------------

    def _encode(self, record: ExplorationRecord) -> bytes:
        data = (
            json.dumps(record_to_dict(record), sort_keys=True) + "\n"
        ).encode("utf-8")
        if self.fault_plan is not None:
            from repro.dse.faults import key_text

            if self.fault_plan.corrupt_append(key_text(record.key())):
                # Simulate SIGKILL mid-write: half a line, no newline.
                data = data[: max(1, len(data) // 2)]
        return data

    def _tail_needs_newline(self, fd: int) -> bool:
        """Whether the existing file ends mid-line (torn crash tail)."""
        if self._tail_clean is not None:
            return not self._tail_clean
        try:
            size = os.fstat(fd).st_size
            if size == 0:
                return False
            return os.pread(fd, 1, size - 1) != b"\n"
        except OSError:  # pragma: no cover - non-seekable target
            return False

    def _append_bytes(self, data: bytes, n_records: int) -> None:
        """One O_APPEND write of whole lines, with batched fsync."""
        # O_RDWR, not O_WRONLY: tail inspection preads the last byte,
        # which a write-only descriptor refuses (EBADF).
        fd = os.open(
            self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644
        )
        try:
            if self._tail_needs_newline(fd):
                # Seal a torn tail (ours via an injected corrupt fault,
                # or a predecessor's crash) so it can never concatenate
                # with — and thereby also destroy — the next record.
                data = b"\n" + data
            os.write(fd, data)
            self._tail_clean = data.endswith(b"\n")
            self._unsynced += n_records
            if self.fsync_every and self._unsynced >= self.fsync_every:
                os.fsync(fd)
                self._unsynced = 0
        finally:
            os.close(fd)

    def append(self, record: ExplorationRecord) -> None:
        """Append one record as a single whole-line write."""
        self._append_bytes(self._encode(record), 1)

    def extend(self, records: list[ExplorationRecord]) -> None:
        """Append many records in one write."""
        if not records:
            return
        self._append_bytes(
            b"".join(self._encode(r) for r in records), len(records)
        )

    def rewrite(self, records: list[ExplorationRecord]) -> None:
        """Atomically replace the file's contents with ``records``.

        The new contents are written to a sibling tempfile, fsynced,
        and swapped in via ``os.replace`` — a crash at any instant
        leaves either the old complete file or the new complete file,
        never a half-rewritten store.
        """
        tmp = self.path.with_name(self.path.name + ".rewrite.tmp")
        data = b"".join(
            (json.dumps(record_to_dict(r), sort_keys=True) + "\n").encode(
                "utf-8"
            )
            for r in records
        )
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            os.write(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, self.path)
        self._tail_clean = True
        self._unsynced = 0

    def compact(self) -> int:
        """Drop malformed lines and stale duplicate keys, atomically.

        Keeps the *last* record per task key (a re-evaluation after a
        torn write supersedes the original), rewrites via
        :meth:`rewrite`, and returns the number of lines dropped.
        """
        if not self.path.exists():
            return 0
        n_lines = sum(
            1 for line in self.path.read_text("utf-8").splitlines()
            if line.strip()
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            by_key = {r.key(): r for r in self.load()}
        kept = list(by_key.values())
        self.rewrite(kept)
        return n_lines - len(kept)

    # -- reads ----------------------------------------------------------

    def _scan(self, build: Callable[[dict], object]) -> list:
        """Build one value per readable line; shared damage bookkeeping.

        A truncated *final* line (the expected artifact of a crash
        mid-append) is skipped silently.  Any other malformed line —
        mid-file corruption, a final line that parses as JSON but lacks
        record fields — is also skipped so a resume still proceeds, but
        with a :class:`UserWarning` naming the file and the damaged line
        numbers: silently shrinking the store would make the engine
        quietly re-evaluate points it already paid for.  The skipped
        count of the most recent scan is kept on ``last_load_skipped``.
        ``build`` may return ``None`` to filter a valid line out.
        """
        if not self.path.exists():
            self.last_load_skipped = 0
            return []
        built = []
        bad: list[int] = []
        final_bad_is_truncation = False
        last_content_lineno = 0
        with self.path.open("r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                last_content_lineno = lineno
                try:
                    data = json.loads(line)
                except json.JSONDecodeError:
                    bad.append(lineno)
                    final_bad_is_truncation = True
                    continue
                try:
                    value = build(data)
                except (AttributeError, KeyError, TypeError, ValueError):
                    # Valid JSON that is not a record dict: 'null', a
                    # list, wrong/extra fields, an unknown technology...
                    bad.append(lineno)
                    final_bad_is_truncation = False
                    continue
                if value is not None:
                    built.append(value)
        self.last_load_skipped = len(bad)
        tolerated_tail = (
            bad == [last_content_lineno] and final_bad_is_truncation
        )
        if bad and not tolerated_tail:
            shown = ", ".join(str(n) for n in bad[:5])
            if len(bad) > 5:
                shown += ", ..."
            warnings.warn(
                f"{self.path}: skipped {len(bad)} malformed line(s) "
                f"(line {shown}); only a truncated final line is an "
                "expected crash artifact — anything else silently "
                "shrinks resume and forces re-evaluation",
                stacklevel=3,
            )
        return built

    def load(self) -> list[ExplorationRecord]:
        """All records currently on disk (empty list if the file is new)."""
        return self._scan(record_from_dict)

    def keys(self) -> set[tuple]:
        """Resume keys of every readable record.

        Parses each line's identity fields only — no record objects, no
        technology lookups — which is what makes resume on a large
        store cheaper than :meth:`load`.
        """
        return set(self._scan(record_key_from_dict))

    def iter_records(
        self, scenario: str | None = None, circuit: str | None = None
    ) -> Iterator[ExplorationRecord]:
        """Records filtered by scenario label and/or circuit.

        Filters on the parsed dict before building record objects, so a
        narrow query over a wide store skips the expensive part of
        every non-matching line.  (The file is still read end to end —
        indexed group queries are the SQLite backend's job.)
        """

        def build(data: dict) -> ExplorationRecord | None:
            if circuit is not None and data["circuit"] != circuit:
                return None
            if (
                scenario is not None
                and _scenario_from_dict(data).label() != scenario
            ):
                return None
            return record_from_dict(data)

        return iter(self._scan(build))

    # -- metadata -------------------------------------------------------

    @property
    def metadata_path(self) -> Path:
        """Sidecar JSON file holding the store's metadata map."""
        return self.path.with_name(self.path.name + ".meta.json")

    def get_metadata(self) -> dict:
        """The sidecar metadata map ({} when absent or unreadable)."""
        try:
            data = json.loads(self.metadata_path.read_text("utf-8"))
        except (OSError, json.JSONDecodeError):
            return {}
        return data if isinstance(data, dict) else {}

    def set_metadata(self, **entries: object) -> None:
        """Merge ``entries`` into the sidecar, atomically.

        The schema version is stamped alongside, so any store with
        metadata also declares the record layout it was written under.
        """
        meta = self.get_metadata()
        meta.update(entries)
        meta.setdefault("schema_version", STORE_SCHEMA_VERSION)
        tmp = self.metadata_path.with_name(self.metadata_path.name + ".tmp")
        tmp.write_text(json.dumps(meta, sort_keys=True, indent=1), "utf-8")
        os.replace(tmp, self.metadata_path)


def detect_backend(path: str | Path) -> str:
    """Which backend a path belongs to: ``jsonl`` or ``sqlite``.

    An existing file answers authoritatively via its magic bytes (a
    store renamed to the "wrong" extension still opens correctly);
    otherwise the extension decides, with JSONL the default.
    """
    path = Path(path)
    if path.is_file():
        # Unreadable files fall through to the extension heuristic.
        with contextlib.suppress(OSError):  # pragma: no cover
            with path.open("rb") as handle:
                if handle.read(len(_SQLITE_MAGIC)) == _SQLITE_MAGIC:
                    return "sqlite"
                return "jsonl"
    return "sqlite" if path.suffix in SQLITE_SUFFIXES else "jsonl"


def open_store(
    path: str | Path,
    backend: str = "auto",
    fsync_every: int = 0,
    fault_plan: "FaultPlan | None" = None,
) -> ResultStore:
    """Open a result store, picking the backend when asked to.

    Args:
        path: store file (JSON lines or SQLite database).
        backend: ``jsonl``, ``sqlite``, or ``auto`` (default) to decide
            via :func:`detect_backend`.
        fsync_every: durability knob, passed to the backend (see
            :class:`JsonlResultStore`).
        fault_plan: chaos plan for ``corrupt`` fault injection.

    Raises:
        ValueError: for an unknown backend name.
    """
    if backend == "auto":
        backend = detect_backend(path)
    if backend == "jsonl":
        return JsonlResultStore(
            path, fsync_every=fsync_every, fault_plan=fault_plan
        )
    if backend == "sqlite":
        from repro.dse.sqlite_store import SqliteResultStore

        return SqliteResultStore(
            path, fsync_every=fsync_every, fault_plan=fault_plan
        )
    raise ValueError(
        f"unknown store backend {backend!r}; expected jsonl, sqlite or auto"
    )


def migrate_store(source: ResultStore, dest: ResultStore) -> int:
    """Copy every record (and the spec fingerprint) between backends.

    The destination is rewritten — migration is all-or-nothing, and a
    JSONL -> SQLite -> JSONL round trip reproduces the record dicts
    exactly (pinned by the migration tests).

    Returns:
        The number of records migrated.
    """
    records = source.load()
    dest.rewrite(records)
    fingerprint = source.get_metadata().get("spec_fingerprint")
    if fingerprint is not None:
        dest.set_metadata(spec_fingerprint=fingerprint)
    return len(records)
