"""Tests for the sweep service: request API, queue, workers, view.

The load-bearing guarantee is *bit-identical distribution*: a sweep
sharded across worker processes through the
:class:`~repro.service.queue.LeaseQueue` — including one whose worker
is killed mid-lease — produces exactly the records a single-process
:meth:`~repro.dse.engine.SweepEngine.submit` of the same request
would.  Everything else (lease lifecycle, retry taxonomy, the HTTP
view) exists to make that guarantee operable.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.dse import (
    SweepEngine,
    SweepRequest,
    SweepSpec,
    dump_config,
    load_config_file,
    merge_config,
    open_store,
    record_to_dict,
    request_from_config,
    request_to_config,
)
from repro.dse.engine import expand_tasks
from repro.dse.faults import FaultPlan
from repro.dse.resilience import (
    TERMINAL,
    TRANSIENT,
    ResilienceConfig,
    RetryPolicy,
)
from repro.dse.strategies import RandomStrategy
from repro.service import LeaseQueue, SweepCoordinator, run_worker
from repro.service.view import SweepViewServer

SPEC = SweepSpec(
    circuits=("s27",),
    policies=(1, 2, 3),
    budget_scales=(0.5, 1.0),
    safe_zones=(True,),
)

FAST_RETRY = RetryPolicy(
    max_attempts=2, backoff_base_s=0.01, backoff_max_s=0.02
)


def fingerprints(records):
    return sorted(
        json.dumps(record_to_dict(r), sort_keys=True) for r in records
    )


@pytest.fixture(scope="module")
def reference():
    """The single-process ground truth every service run must match."""
    return SweepEngine(workers=1).submit(SweepRequest(spec=SPEC))


# ---------------------------------------------------------------------------
# SweepRequest: the one submission API.
# ---------------------------------------------------------------------------


class TestSweepRequest:
    def test_defaults_are_grid(self):
        request = SweepRequest()
        assert request.strategy_name == "grid"
        assert not request.resume and not request.analysis_prune

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            SweepRequest(strategy="annealing")

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            SweepRequest(samples=0)
        with pytest.raises(ValueError, match="generations"):
            SweepRequest(generations=0)

    def test_analysis_prune_gated_to_prunable_strategies(self):
        SweepRequest(strategy="halving", analysis_prune=True)
        with pytest.raises(ValueError, match="analysis_prune"):
            SweepRequest(strategy="random", analysis_prune=True)

    def test_instance_max_generations_is_exact(self):
        space_request = SweepRequest(
            strategy=RandomStrategy.__new__(RandomStrategy),
            max_generations=3,
        )
        assert space_request.effective_max_generations() == 3
        named = SweepRequest(strategy="evolution", generations=70)
        assert named.effective_max_generations() == 70


# ---------------------------------------------------------------------------
# Config round-trip: TOML file <-> SweepRequest.
# ---------------------------------------------------------------------------


class TestSweepConfig:
    def test_round_trip(self, tmp_path):
        request = SweepRequest(
            spec=SPEC, strategy="halving", samples=8, generations=2
        )
        path = tmp_path / "sweep.toml"
        path.write_text(dump_config(request_to_config(request)))
        merged = merge_config(load_config_file(path), {})
        assert request_from_config(merged) == request

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "sweep.toml"
        path.write_text(dump_config(request_to_config(SweepRequest(spec=SPEC))))
        merged = merge_config(
            load_config_file(path),
            {"space": {"policies": [3]}, "search": {"strategy": "random"}},
        )
        request = request_from_config(merged)
        assert request.spec.policies == (3,)
        assert request.strategy_name == "random"
        assert request.spec.budget_scales == SPEC.budget_scales  # from file

    def test_unknown_keys_fail_loudly(self):
        with pytest.raises(ValueError, match="unknown config section"):
            merge_config({"spaces": {}}, {})
        with pytest.raises(ValueError, match="unknown config key"):
            merge_config({"space": {"polices": [1]}}, {})

    def test_strategy_instance_has_no_file_form(self):
        request = SweepRequest(
            strategy=RandomStrategy.__new__(RandomStrategy)
        )
        with pytest.raises(ValueError, match="instance"):
            request_to_config(request)


# ---------------------------------------------------------------------------
# LeaseQueue lifecycle.
# ---------------------------------------------------------------------------


class TestLeaseQueue:
    def make_queue(self, tmp_path, **kwargs):
        kwargs.setdefault("retry", FAST_RETRY)
        return LeaseQueue(tmp_path / "queue.sqlite", **kwargs)

    def test_claims_batch_by_stage(self, tmp_path):
        queue = self.make_queue(tmp_path)
        queue.enqueue(expand_tasks(SPEC))
        lease = queue.claim("w1", limit=8)
        # 6 tasks over 3 stages (policy groups): one claim = one stage.
        assert len(lease) == 2
        assert {t.point.policy for t in lease} == {lease[0].point.policy}
        other = queue.claim("w2", limit=8)
        assert {t.key for t in other}.isdisjoint({t.key for t in lease})
        queue.close()

    def test_complete_is_idempotent(self, tmp_path):
        queue = self.make_queue(tmp_path)
        queue.enqueue(expand_tasks(SPEC))
        task = queue.claim("w1", limit=1)[0]
        queue.complete("w1", task.key)
        queue.complete("w1", task.key)  # reclaimed-then-finished twice
        assert queue.stats()["done"] == 1
        assert queue.counts_for([task.key])["n_done"] == 1
        queue.close()

    def test_transient_failures_retry_then_exhaust(self, tmp_path):
        queue = self.make_queue(tmp_path)
        queue.enqueue(expand_tasks(SPEC)[:1])
        task = queue.claim("w1", limit=1)[0]
        queue.fail("w1", task.key, "flaky", TRANSIENT)
        assert queue.stats()["pending"] == 1  # rescheduled with backoff
        time.sleep(0.05)
        retried = queue.claim("w1", limit=1)[0]
        assert retried.attempts == 2
        queue.fail("w1", retried.key, "flaky", TRANSIENT)
        assert queue.stats()["failed"] == 1  # budget (2 attempts) spent
        assert queue.counts_for([task.key])["n_retries"] == 1
        queue.close()

    def test_concurrent_openers_of_a_fresh_file(self, tmp_path):
        """A coordinator and its workers open one new file at once.

        SQLite answers a racing switch to WAL with an immediate
        "database is locked", bypassing the busy timeout, and two
        stores can race on the schema-version insert.  Every opener
        must wait its turn instead of failing.
        """
        errors: list[Exception] = []

        def open_close(factory, path):
            try:
                factory(path).close()
            except Exception as error:  # reported by the final assert
                errors.append(error)

        def store(path):
            return open_store(path, backend="sqlite")

        for round_ in range(150):
            path = tmp_path / f"fresh{round_}.sqlite"
            threads = [
                threading.Thread(target=open_close, args=(factory, path))
                for factory in (store, LeaseQueue, store, LeaseQueue)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_terminal_failure_never_retries(self, tmp_path):
        queue = self.make_queue(tmp_path)
        queue.enqueue(expand_tasks(SPEC)[:1])
        task = queue.claim("w1", limit=1)[0]
        queue.fail("w1", task.key, "infeasible margin", TERMINAL)
        (entry,) = queue.failures()
        assert entry["kind"] == TERMINAL
        assert entry["circuit"] == "s27"
        queue.close()

    def test_expired_lease_reclaimed_for_next_claimer(self, tmp_path):
        queue = self.make_queue(tmp_path, lease_timeout_s=0.05)
        queue.enqueue(expand_tasks(SPEC)[:1])
        task = queue.claim("dying-worker", limit=1)[0]
        assert queue.claim("w2", limit=1) == []  # still leased
        time.sleep(0.1)
        assert queue.reclaim_expired() == 1
        time.sleep(0.05)  # ride out the deterministic backoff
        retried = queue.claim("w2", limit=1)[0]
        assert retried.key == task.key
        assert retried.attempts == 2
        queue.close()

    def test_configure_persists_run_semantics(self, tmp_path):
        queue = self.make_queue(tmp_path)
        queue.configure(retry=FAST_RETRY, lease_timeout_s=7.5)
        queue.close()
        reopened = LeaseQueue(tmp_path / "queue.sqlite")
        assert reopened.retry == FAST_RETRY
        assert reopened.lease_timeout_s == 7.5
        assert reopened.state() == "open"
        reopened.set_state("closed")
        assert reopened.state() == "closed"
        reopened.close()

    def test_newer_schema_version_refused(self, tmp_path):
        import sqlite3

        queue = self.make_queue(tmp_path)
        queue.close()
        conn = sqlite3.connect(tmp_path / "queue.sqlite")
        conn.execute(
            "UPDATE svc_meta SET value = '99' "
            "WHERE key = 'queue_schema_version'"
        )
        conn.commit()
        conn.close()
        with pytest.raises(ValueError, match="queue schema 99"):
            LeaseQueue(tmp_path / "queue.sqlite")


# ---------------------------------------------------------------------------
# Worker + coordinator: distribution must be invisible in the records.
# ---------------------------------------------------------------------------


class TestWorkerParity:
    def test_drain_worker_matches_engine(self, tmp_path, reference):
        path = tmp_path / "svc.sqlite"
        queue = LeaseQueue(path, retry=FAST_RETRY)
        queue.enqueue(expand_tasks(SPEC))
        queue.close()
        summary = run_worker(path, path, drain=True, poll_s=0.01)
        assert summary["n_done"] == 6
        store = open_store(path)
        assert fingerprints(store.iter_records()) == fingerprints(
            reference.records
        )
        store.close()

    def test_worker_requires_sqlite_store(self, tmp_path):
        with pytest.raises(ValueError, match="SQLite"):
            run_worker(
                tmp_path / "queue.sqlite",
                tmp_path / "results.jsonl",
                drain=True,
            )


class TestCoordinator:
    def coordinator(self, tmp_path, workers=0, **kwargs):
        kwargs.setdefault("poll_s", 0.02)
        kwargs.setdefault("store_backend", "sqlite")
        kwargs.setdefault("resilience", ResilienceConfig(retry=FAST_RETRY))
        return SweepCoordinator(
            tmp_path / "svc.sqlite", workers=workers, **kwargs
        )

    def run_with_thread_worker(self, coordinator, request, path):
        """workers=0 + an in-process worker thread: fast and portable."""
        worker = threading.Thread(
            target=run_worker,
            args=(path, path),
            kwargs={"poll_s": 0.01, "store_backend": "sqlite"},
            daemon=True,
        )
        worker.start()
        try:
            return coordinator.submit(request)
        finally:
            worker.join(timeout=30)

    def test_grid_parity_in_process(self, tmp_path, reference):
        coordinator = self.coordinator(tmp_path)
        result = self.run_with_thread_worker(
            coordinator, SweepRequest(spec=SPEC), tmp_path / "svc.sqlite"
        )
        assert not result.failures
        assert result.stats.n_evaluated == 6
        assert fingerprints(result.records) == fingerprints(
            reference.records
        )
        assert result.aggregate.n_records == 6

    def test_search_parity_in_process(self, tmp_path):
        request = SweepRequest(
            spec=SweepSpec(circuits=("s27",)),
            strategy="random",
            samples=5,
            search_seed=3,
        )
        single = SweepEngine(workers=1).submit(request)
        coordinator = self.coordinator(tmp_path)
        result = self.run_with_thread_worker(
            coordinator, request, tmp_path / "svc.sqlite"
        )
        assert fingerprints(result.records) == fingerprints(single.records)
        assert result.stats.n_generations == single.stats.n_generations

    def test_search_record_order_matches_across_executors(self, tmp_path):
        """Serial, pool and queue runs list a search's records in one
        order (first proposal, then circuit) and agree on the best."""
        request = SweepRequest(
            spec=SweepSpec(circuits=("s27", "s298")),
            strategy="random",
            samples=4,
            search_seed=3,
        )
        results = [
            SweepEngine(workers=1).submit(request),
            SweepEngine(workers=2).submit(request),
            self.run_with_thread_worker(
                self.coordinator(tmp_path), request, tmp_path / "svc.sqlite"
            ),
        ]
        orders = [
            [(r.circuit, r.point.label()) for r in result.records]
            for result in results
        ]
        bests = [
            {
                group: record_to_dict(record)
                for group, record in result.aggregate.best().items()
            }
            for result in results
        ]
        assert len(orders[0]) == 8
        assert orders[1] == orders[0]
        assert orders[2] == orders[0]
        assert bests[1] == bests[0]
        assert bests[2] == bests[0]

    def test_grid_parity_across_worker_processes(self, tmp_path, reference):
        coordinator = self.coordinator(tmp_path, workers=2, lease_size=2)
        result = coordinator.submit(SweepRequest(spec=SPEC))
        assert not result.failures
        assert fingerprints(result.records) == fingerprints(
            reference.records
        )

    def test_worker_killed_mid_lease_is_reclaimed(self, tmp_path, reference):
        """A crash fault exits a worker with the lease unresolved."""
        plan = FaultPlan.parse("crash", tmp_path / "faults")
        coordinator = self.coordinator(
            tmp_path,
            workers=2,
            lease_size=1,
            lease_timeout_s=2.0,
            resilience=ResilienceConfig(retry=FAST_RETRY, fault_plan=plan),
        )
        result = coordinator.submit(SweepRequest(spec=SPEC))
        assert not result.failures
        assert result.stats.n_retries >= 1  # the reclaimed lease
        assert fingerprints(result.records) == fingerprints(
            reference.records
        )

    def test_resume_skips_on_disk_records(self, tmp_path, reference):
        path = tmp_path / "svc.sqlite"
        first = self.run_with_thread_worker(
            self.coordinator(tmp_path), SweepRequest(spec=SPEC), path
        )
        assert first.stats.n_evaluated == 6
        again = self.run_with_thread_worker(
            self.coordinator(tmp_path),
            SweepRequest(spec=SPEC, resume=True),
            path,
        )
        assert again.stats.n_resumed == 6
        assert again.stats.n_evaluated == 0
        assert fingerprints(again.records) == fingerprints(
            reference.records
        )

    def test_strategy_instances_rejected(self, tmp_path):
        coordinator = self.coordinator(tmp_path)
        request = SweepRequest(
            strategy=RandomStrategy.__new__(RandomStrategy)
        )
        with pytest.raises(ValueError, match="named strategy"):
            coordinator.submit(request)

    def test_jsonl_store_rejected(self, tmp_path):
        coordinator = SweepCoordinator(tmp_path / "svc.jsonl", workers=0)
        with pytest.raises(ValueError, match="SQLite"):
            coordinator.submit(SweepRequest(spec=SPEC))


# ---------------------------------------------------------------------------
# The read-only HTTP view.
# ---------------------------------------------------------------------------


class TestSweepView:
    @pytest.fixture()
    def store_path(self, tmp_path, reference):
        path = tmp_path / "view.sqlite"
        store = open_store(path, backend="sqlite")
        store.extend(reference.records)
        store.close()
        return path

    def get(self, port, endpoint):
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{endpoint}", timeout=10
        ) as response:
            return response.status, json.loads(response.read())

    def test_endpoints_agree_with_store(self, store_path, reference):
        server = SweepViewServer(store_path)
        server.start_background()
        try:
            status, stats = self.get(server.port, "/stats")
            assert status == 200
            assert stats["n_records"] == len(reference.records)
            assert stats["groups"] == [
                {"scenario": "paper-fig5", "circuit": "s27", "count": 6}
            ]

            _status, fronts = self.get(server.port, "/fronts")
            (group,) = fronts["groups"]
            expected = reference.fronts_by_scenario()[("paper-fig5", "s27")]
            assert sorted(
                json.dumps(r, sort_keys=True) for r in group["front"]
            ) == sorted(
                json.dumps(record_to_dict(r), sort_keys=True)
                for r in expected
            )
            best = min(reference.records, key=lambda r: r.pdp_js)
            assert group["best"] == record_to_dict(best)

            _status, failures = self.get(server.port, "/failures")
            assert failures == {"failures": []}
            _status, workers = self.get(server.port, "/workers")
            assert workers == {"workers": []}
        finally:
            server.shutdown()

    def test_unknown_endpoint_404s(self, store_path):
        server = SweepViewServer(store_path)
        server.start_background()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self.get(server.port, "/nope")
            assert excinfo.value.code == 404
        finally:
            server.shutdown()

    def test_queue_tables_surface(self, tmp_path, store_path):
        queue_path = tmp_path / "queue.sqlite"
        queue = LeaseQueue(queue_path, retry=FAST_RETRY)
        queue.enqueue(expand_tasks(SPEC)[:2])
        queue.register_worker("w1", 4242)
        task = queue.claim("w1", limit=1)[0]
        queue.fail("w1", task.key, "boom", TERMINAL)
        queue.close()
        server = SweepViewServer(store_path, queue_path=queue_path)
        server.start_background()
        try:
            _status, stats = self.get(server.port, "/stats")
            assert stats["queue"]["tasks"]["failed"] == 1
            assert stats["queue"]["state"] == "open"
            _status, failures = self.get(server.port, "/failures")
            assert failures["failures"][0]["error"] == "boom"
            _status, workers = self.get(server.port, "/workers")
            assert workers["workers"][0]["worker"] == "w1"
        finally:
            server.shutdown()
