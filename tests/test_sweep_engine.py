"""Tests for the parallel, cached, resumable sweep engine."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core.replacement import ReplacementCriteria
from repro.dse import (
    DesignPoint,
    evaluate_point,
    JsonlResultStore,
    open_store,
    record_from_dict,
    record_to_dict,
    SweepEngine,
    SweepRequest,
    SweepSpec,
    SynthesisCache,
)
from repro.energy.scenarios import ScenarioSpec
from repro.suite import load_circuit
from repro.tech import MRAM, RERAM

#: Both result-store backends; backend-neutral tests run against each.
BACKENDS = ("jsonl", "sqlite")


def make_store(tmp_path, backend, **kwargs):
    return open_store(
        tmp_path / f"results.{backend}", backend=backend, **kwargs
    )


def record_fingerprint(record):
    return (
        record.circuit,
        record.point.label(),
        record.pdp_js,
        record.energy_j,
        record.active_time_s,
        record.n_backups,
        record.reexec_energy_j,
        record.n_barriers,
    )


@pytest.fixture(scope="module")
def multi_circuit_spec() -> SweepSpec:
    """A 36-point spec spanning two circuits and every policy."""
    return SweepSpec(
        circuits=("s27", "b02"),
        policies=(1, 2, 3),
        budget_scales=(0.5, 1.0, 2.0),
        technologies=(MRAM,),
        safe_zones=(True, False),
    )


@pytest.fixture(scope="module")
def serial_result(multi_circuit_spec):
    return SweepEngine(workers=1).submit(SweepRequest(spec=multi_circuit_spec))


class TestSweepSpec:
    def test_full_factorial_count(self, multi_circuit_spec):
        assert len(multi_circuit_spec) == 36
        assert len(multi_circuit_spec.points()) == 36

    def test_points_unique(self, multi_circuit_spec):
        keys = {
            (c, s.label(), p.label())
            for c, s, p in multi_circuit_spec.points()
        }
        assert len(keys) == 36

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            SweepSpec(policies=())

    def test_invalid_axis_values_rejected_up_front(self):
        with pytest.raises(ValueError, match="policy"):
            SweepSpec(policies=(4,))
        with pytest.raises(ValueError, match="budget_scales"):
            SweepSpec(budget_scales=(0.0,))
        with pytest.raises(ValueError, match="threshold_scales"):
            SweepSpec(threshold_scales=(-1.0,))
        with pytest.raises(ValueError, match="safe_margin_scales"):
            SweepSpec(safe_margin_scales=(0.0,))

    def test_duplicate_axis_values_deduped(self):
        spec = SweepSpec(
            circuits=("s27", "s27"), policies=(3,), budget_scales=(1.0, 1.0),
            safe_zones=(True,),
        )
        result = SweepEngine(workers=1).submit(SweepRequest(spec=spec))
        assert result.stats.n_points == 1
        assert result.stats.n_evaluated == 1
        assert len(result.records) == 1

    def test_cli_rejects_invalid_axis_value(self):
        with pytest.raises(SystemExit, match="positive"):
            main(["sweep", "s27", "--budget-scales", "0"])

    def test_extended_axes_multiply(self):
        spec = SweepSpec(
            circuits=("s27",),
            policies=(3,),
            budget_scales=(1.0,),
            safe_zones=(True,),
            criteria_sets=(
                ReplacementCriteria(),
                ReplacementCriteria(fanio_weight=0.0),
            ),
            threshold_scales=(0.9, 1.0),
            safe_margin_scales=(None, 0.5),
        )
        assert len(spec) == 8


class TestParallelParity:
    def test_parallel_matches_serial(self, multi_circuit_spec, serial_result):
        parallel = SweepEngine(workers=4).submit(
            SweepRequest(spec=multi_circuit_spec)
        )
        assert parallel.stats.n_evaluated == 36
        assert sorted(map(record_fingerprint, parallel.records)) == sorted(
            map(record_fingerprint, serial_result.records)
        )

    def test_records_in_spec_order(self, multi_circuit_spec, serial_result):
        expected = [
            (c, p.label()) for c, _s, p in multi_circuit_spec.points()
        ]
        assert [
            (r.circuit, r.point.label()) for r in serial_result.records
        ] == expected

    def test_synthesis_cache_one_call_per_group(
        self, multi_circuit_spec, serial_result
    ):
        # 2 circuits x 3 policies = 6 synthesis-stage groups for 36 points.
        assert serial_result.stats.n_points == 36
        assert serial_result.stats.synthesize_calls == 6
        parallel = SweepEngine(workers=4).submit(
            SweepRequest(spec=multi_circuit_spec)
        )
        assert parallel.stats.synthesize_calls == 6
        assert parallel.stats.n_batches == 6

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            SweepEngine(workers=0)


class TestPureEvaluation:
    def test_evaluate_point_does_not_mutate_inputs(self):
        netlist = load_circuit("s27")
        point = DesignPoint(budget_scale=0.5)
        cache = SynthesisCache()
        first = evaluate_point(netlist, point, cache=cache)
        second = evaluate_point(netlist, point, cache=cache)
        assert record_fingerprint(first) == record_fingerprint(second)
        assert cache.synthesize_calls == 1

    def test_label_includes_criteria(self):
        point = DesignPoint(
            criteria=ReplacementCriteria(power_weight=2.0, fanio_weight=0.0)
        )
        assert "c1,2,0" in point.label()

    def test_label_distinguishes_new_axes(self):
        base = DesignPoint()
        assert base.label() != DesignPoint(threshold_scale=0.9).label()
        assert base.label() != DesignPoint(safe_margin_scale=2.0).label()

    def test_threshold_scale_changes_outcome(self):
        netlist = load_circuit("s27")
        cache = SynthesisCache()
        base = evaluate_point(netlist, DesignPoint(), cache=cache)
        scaled = evaluate_point(
            netlist, DesignPoint(threshold_scale=1.2), cache=cache
        )
        assert cache.synthesize_calls == 1  # same synthesis group
        assert record_fingerprint(base) != record_fingerprint(scaled)

    def test_safe_margin_scale_changes_outcome(self):
        netlist = load_circuit("s27")
        cache = SynthesisCache()
        narrow = evaluate_point(
            netlist, DesignPoint(safe_margin_scale=0.25), cache=cache
        )
        wide = evaluate_point(
            netlist, DesignPoint(safe_margin_scale=2.0), cache=cache
        )
        assert narrow.pdp_js != wide.pdp_js


class TestFailureCapture:
    INFEASIBLE_MARGIN = 15.0  # > max admissible for the derived thresholds

    def test_bad_point_does_not_abort_sweep_serial(self):
        spec = SweepSpec(
            circuits=("s27",), policies=(3,), budget_scales=(1.0,),
            safe_zones=(True,),
            safe_margin_scales=(None, self.INFEASIBLE_MARGIN),
        )
        result = SweepEngine(workers=1).submit(SweepRequest(spec=spec))
        assert len(result.records) == 1
        assert result.stats.n_failed == 1
        assert "margin" in result.failures[0].error

    def test_bad_point_does_not_abort_sweep_parallel(self):
        spec = SweepSpec(
            circuits=("s27",), policies=(2, 3), budget_scales=(1.0,),
            safe_zones=(True,),
            safe_margin_scales=(None, self.INFEASIBLE_MARGIN),
        )
        result = SweepEngine(workers=2).submit(SweepRequest(spec=spec))
        assert len(result.records) == 2
        assert result.stats.n_failed == 2

    def test_overscaled_thresholds_fail_cleanly(self):
        # Th_Cp scaled past the capacitor capacity must be a recorded
        # failure, not an unphysical record or a spurious trace error.
        spec = SweepSpec(
            circuits=("s27",), policies=(3,), budget_scales=(1.0,),
            safe_zones=(True,), threshold_scales=(4.0,),
        )
        result = SweepEngine(workers=1).submit(SweepRequest(spec=spec))
        assert result.stats.n_failed == 1
        assert "capacitor" in result.failures[0].error

    def test_resume_after_failures_completes(self, tmp_path):
        path = tmp_path / "results.jsonl"
        spec = SweepSpec(
            circuits=("s27",), policies=(3,), budget_scales=(1.0,),
            safe_zones=(True,),
            safe_margin_scales=(None, self.INFEASIBLE_MARGIN),
        )
        store = JsonlResultStore(path)
        SweepEngine(workers=1, store=store).submit(SweepRequest(spec=spec))
        again = SweepEngine(workers=1, store=store).submit(
            SweepRequest(spec=spec, resume=True)
        )
        assert again.stats.n_resumed == 1
        assert again.stats.n_failed == 1  # retried, still infeasible
        assert len(again.records) == 1

    def test_identity_distinguishes_near_identical_floats(self):
        # The display label rounds to 6 significant digits; resume and
        # dedup must not.
        a = DesignPoint(budget_scale=1.0)
        b = DesignPoint(budget_scale=1.0 + 1e-9)
        assert a.label() == b.label()
        assert a.identity() != b.identity()
        spec = SweepSpec(
            circuits=("s27",), policies=(3,),
            budget_scales=(1.0, 1.0 + 1e-9), safe_zones=(True,),
        )
        result = SweepEngine(workers=1).submit(SweepRequest(spec=spec))
        assert result.stats.n_evaluated == 2
        assert len(result.records) == 2


class TestResultStore:
    def test_record_roundtrip(self, serial_result):
        for record in serial_result.records[:4]:
            rebuilt = record_from_dict(record_to_dict(record))
            assert record_fingerprint(rebuilt) == record_fingerprint(record)

    def test_technology_survives_roundtrip(self):
        netlist = load_circuit("s27")
        record = evaluate_point(netlist, DesignPoint(technology=RERAM))
        rebuilt = record_from_dict(record_to_dict(record))
        assert rebuilt.point.technology is RERAM

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_streaming_and_resume(self, tmp_path, backend):
        small = SweepSpec(
            circuits=("s27",), policies=(3,), budget_scales=(0.5, 1.0),
            safe_zones=(True,),
        )
        first = SweepEngine(
            workers=1, store=make_store(tmp_path, backend)
        ).submit(SweepRequest(spec=small))
        assert first.stats.n_evaluated == 2
        assert make_store(tmp_path, backend).count() == 2

        grown = SweepSpec(
            circuits=("s27",), policies=(3,),
            budget_scales=(0.5, 1.0, 2.0), safe_zones=(True,),
        )
        second = SweepEngine(
            workers=1, store=make_store(tmp_path, backend)
        ).submit(SweepRequest(spec=grown, resume=True))
        assert second.stats.n_resumed == 2
        assert second.stats.n_evaluated == 1
        assert len(second.records) == 3
        assert make_store(tmp_path, backend).count() == 3

    def test_resume_tolerates_truncated_line(self, tmp_path, recwarn):
        path = tmp_path / "results.jsonl"
        small = SweepSpec(
            circuits=("s27",), policies=(3,), budget_scales=(1.0,),
            safe_zones=(True,),
        )
        SweepEngine(workers=1, store=JsonlResultStore(path)).submit(
            SweepRequest(spec=small)
        )
        with path.open("a") as handle:
            handle.write('{"circuit": "s27", "point": {"pol')  # crash artifact
        store = JsonlResultStore(path)
        # The expected crash artifact — a truncated FINAL line — loads
        # silently.
        assert len(store.load()) == 1
        assert store.last_load_skipped == 1
        assert len(recwarn) == 0

    def test_mid_file_corruption_warns(self, tmp_path):
        path = tmp_path / "results.jsonl"
        spec = SweepSpec(
            circuits=("s27",), policies=(3,), budget_scales=(0.5, 1.0, 2.0),
            safe_zones=(True,),
        )
        SweepEngine(workers=1, store=JsonlResultStore(path)).submit(
            SweepRequest(spec=spec)
        )
        lines = path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # corrupt a MIDDLE line
        path.write_text("\n".join(lines) + "\n")
        store = JsonlResultStore(path)
        with pytest.warns(UserWarning, match="skipped 1 malformed"):
            records = store.load()
        # The docstring used to promise only trailing truncation was
        # tolerated while the code silently dropped corruption anywhere,
        # quietly shrinking resume; now the damage is loud.
        assert len(records) == 2
        assert store.last_load_skipped == 1

    def test_non_record_json_lines_warn_instead_of_crashing(self, tmp_path):
        path = tmp_path / "results.jsonl"
        small = SweepSpec(
            circuits=("s27",), policies=(3,), budget_scales=(1.0,),
            safe_zones=(True,),
        )
        SweepEngine(workers=1, store=JsonlResultStore(path)).submit(
            SweepRequest(spec=small)
        )
        good = path.read_text()
        # Valid JSON that is not a record dict, in the middle and at
        # the end — every shape must skip+warn, never raise.
        path.write_text("null\n" + good + '{"point": [1, 2]}\n42\n')
        store = JsonlResultStore(path)
        with pytest.warns(UserWarning, match="skipped 3 malformed"):
            records = store.load()
        assert len(records) == 1
        assert store.last_load_skipped == 3

    def test_well_formed_final_line_missing_fields_warns(self, tmp_path):
        path = tmp_path / "results.jsonl"
        small = SweepSpec(
            circuits=("s27",), policies=(3,), budget_scales=(1.0,),
            safe_zones=(True,),
        )
        SweepEngine(workers=1, store=JsonlResultStore(path)).submit(
            SweepRequest(spec=small)
        )
        with path.open("a") as handle:
            handle.write('{"circuit": "s27"}\n')  # parses, but no record
        store = JsonlResultStore(path)
        with pytest.warns(UserWarning, match="malformed"):
            assert len(store.load()) == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_parallel_streaming(self, tmp_path, backend):
        spec = SweepSpec(
            circuits=("s27",), policies=(2, 3), budget_scales=(1.0,),
            safe_zones=(True, False),
        )
        result = SweepEngine(
            workers=2, store=make_store(tmp_path, backend)
        ).submit(SweepRequest(spec=spec))
        assert len(result.records) == 4
        on_disk = make_store(tmp_path, backend).load()
        assert sorted(map(record_fingerprint, on_disk)) == sorted(
            map(record_fingerprint, result.records)
        )


class TestReporting:
    def test_best_is_min_pdp_single_circuit(self, serial_result):
        from repro.dse import SweepResult

        s27_only = SweepResult(
            records=[r for r in serial_result.records if r.circuit == "s27"]
        )
        best = s27_only.best()
        assert best.pdp_js == min(r.pdp_js for r in s27_only.records)

    def test_front_is_nondominated(self, serial_result):
        from repro.dse import SweepResult

        s27_only = SweepResult(
            records=[r for r in serial_result.records if r.circuit == "s27"]
        )
        front = s27_only.front()
        assert front
        for record in front:
            dominated = any(
                other.pdp_js <= record.pdp_js
                and other.reexec_energy_j <= record.reexec_energy_j
                and (
                    other.pdp_js < record.pdp_js
                    or other.reexec_energy_j < record.reexec_energy_j
                )
                for other in s27_only.records
            )
            assert not dominated

    def test_cross_circuit_aggregates_rejected(self, serial_result):
        # Regression for the cross-circuit PDP comparability hole: the
        # sweep spans s27 and b02, and raw PDP is not comparable across
        # circuits (the smaller circuit always "wins"), so the
        # single-group aggregates must refuse to crown anything.
        with pytest.raises(ValueError, match="best_by_scenario"):
            serial_result.best()
        with pytest.raises(ValueError, match="fronts_by_scenario"):
            serial_result.front()

    def test_best_by_scenario_groups_by_circuit(self, serial_result):
        # The old label-only grouping collapsed both circuits into one
        # "paper-fig5" bucket and took min over raw PDP, crowning
        # whichever circuit was smaller.  Each (scenario, circuit) pair
        # must get its own winner, drawn from its own circuit.
        winners = serial_result.best_by_scenario()
        assert set(winners) == {("paper-fig5", "s27"), ("paper-fig5", "b02")}
        for (_scenario, circuit), record in winners.items():
            assert record.circuit == circuit
            group = [
                r for r in serial_result.records if r.circuit == circuit
            ]
            assert record.pdp_js == min(r.pdp_js for r in group)
        # The old behavior: one global min across circuits.  Both
        # winners must be present, not just the cheaper circuit's.
        global_min = min(r.pdp_js for r in serial_result.records)
        assert sorted(
            r.pdp_js for r in winners.values()
        ) != [global_min, global_min]

    def test_fronts_by_scenario_stay_within_circuit(self, serial_result):
        for (_scenario, circuit), front in (
            serial_result.fronts_by_scenario().items()
        ):
            assert front
            assert {r.circuit for r in front} == {circuit}


class TestSweepCli:
    def test_cli_sweep_runs(self, capsys, tmp_path):
        path = tmp_path / "cli.jsonl"
        code = main([
            "sweep", "s27", "--policies", "3", "--budget-scales", "1.0",
            "--workers", "2", "--results", str(path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "pareto front" in out
        assert "best:" in out
        assert path.exists()

    def test_cli_sweep_criteria_axis(self, capsys):
        code = main([
            "sweep", "s27", "--policies", "3", "--budget-scales", "1.0",
            "--safe-zone", "on", "--criteria", "1,1,1", "1,2,0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "c1,2,0" in out

    def test_cli_sweep_rejects_bad_criteria(self):
        with pytest.raises(SystemExit):
            main(["sweep", "s27", "--criteria", "1,2"])

    def test_cli_resume_requires_results(self):
        with pytest.raises(SystemExit, match="--resume requires"):
            main(["sweep", "s27", "--resume"])

    def test_cli_sweep_resume(self, capsys, tmp_path):
        path = tmp_path / "cli.jsonl"
        args = [
            "sweep", "s27", "--policies", "3", "--budget-scales", "1.0",
            "--safe-zone", "on", "--results", str(path),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--resume"]) == 0
        assert "(1 resumed, 0 failed)" in capsys.readouterr().out


class TestPlanMemo:
    """The batch-local NVM plan memo shares plans without leaking them."""

    #: Budgets small enough that every plan places barriers (s27 gets
    #: none at the derived default budget).
    SPEC = SweepSpec(
        circuits=("s27",),
        policies=(1, 3),
        budget_scales=(0.0001, 0.001),
        safe_zones=(True, False),
        threshold_scales=(1.0, 1.25),
        scenarios=(ScenarioSpec(), ScenarioSpec(name="rf-markov", seed=7)),
    )

    def test_shared_plans_match_fresh_builds(self, s27):
        """No consumer writes to a memoized plan or its code bundle.

        Runs the grid through the batched lanes and the per-task path
        on one memo (so every environment build, profile, lane and
        record assembly has read the shared plans), then compares each
        shared plan with a fresh, unmemoized build of the same point.
        """
        import hashlib

        from repro.dse.batch import evaluate_jobs_batched
        from repro.dse.explorer import prepare_point

        tasks = [
            (index, scenario, point)
            for index, (_c, scenario, point) in enumerate(self.SPEC.points())
        ]
        cache = SynthesisCache()
        plans: dict = {}
        records, errors = evaluate_jobs_batched(
            s27, tasks, cache=cache, plans=plans
        )
        assert not errors and len(records) == 32
        for _key, scenario, point in tasks:
            evaluate_point(
                s27, point, cache=cache, scenario=scenario, plans=plans
            )
        assert len(plans) == 4  # policy x budget
        assert all(plan.barriers for plan in plans.values())

        def digest(prepared):
            plan = prepared.design.plan
            return (
                plan.barriers,
                [p.commit_bits for p in plan.schedule()],
                {
                    node_id: (node.nvm_barrier, node.barrier_bits)
                    for node_id, node in plan.graph.nodes.items()
                },
                hashlib.sha256(
                    prepared.design.code.verilog.encode()
                ).hexdigest(),
            )

        for _key, scenario, point in tasks:
            shared = prepare_point(
                s27, point, cache=cache, scenario=scenario, plans=plans
            )
            assert any(shared.design.plan is p for p in plans.values())
            fresh = prepare_point(s27, point, scenario=scenario)
            assert digest(shared) == digest(fresh), point.label()
        assert len(plans) == 4

    def test_equal_graph_copy_misses(self, s27):
        from repro.core.diac import DiacConfig, DiacSynthesizer
        from repro.core.replacement import insert_nvm

        _report, shaped, _config = SynthesisCache().stage_for(
            s27, DiacConfig()
        )
        budget = DiacSynthesizer().derive_budget_j(s27)
        plans: dict = {}
        first = insert_nvm(shaped, budget, plans=plans)
        assert insert_nvm(shaped, budget, plans=plans) is first
        twin = shaped.clone()
        other = insert_nvm(twin, budget, plans=plans)
        assert other is not first and len(plans) == 2
        assert other.barriers == first.barriers
        assert insert_nvm(shaped, budget / 2, plans=plans) is not first

    def test_no_memo_survives_a_request(self, monkeypatch):
        import repro.core.replacement as replacement

        walks = []
        real = replacement._place_barriers

        def counting(*args):
            walks.append(args)
            return real(*args)

        monkeypatch.setattr(replacement, "_place_barriers", counting)
        engine = SweepEngine(workers=1)
        request = SweepRequest(spec=self.SPEC)
        first = engine.submit(request)
        n_first = len(walks)
        second = engine.submit(request)
        assert n_first == 4
        assert len(walks) == 2 * n_first
        assert first.stats.plan_builds == second.stats.plan_builds == 4
        assert [record_fingerprint(r) for r in first.records] == [
            record_fingerprint(r) for r in second.records
        ]
