"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

The repository's tier-1 run collects ``tests/`` only, so these run
when named explicitly.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checkout import use_checkout_source  # noqa: E402

use_checkout_source()

import workloads  # noqa: E402
from layers import PASS_ROOT, layer_metrics, self_times  # noqa: E402
from run import DEFAULT_SEED  # noqa: E402
from spans import Tracer, install  # noqa: E402


def _digest(result) -> str:
    from repro.api import record_to_dict

    return workloads.digest_of([record_to_dict(r) for r in result.records])


def test_self_times_subtract_direct_children():
    spans = [
        ["a", 0.0, 10.0, None, 1, None],
        ["b", 1.0, 4.0, 0, 1, None],
        ["c", 2.0, 3.0, 1, 1, None],
        ["d", 5.0, 6.0, 0, 1, None],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_install_wraps_every_binding_and_uninstall_restores():
    import repro.analysis.intervals as intervals
    import repro.core.diac as diac
    import repro.core.replacement as replacement
    import repro.dse.explorer as explorer

    modules = (replacement, diac, explorer, intervals)
    original = replacement.insert_nvm
    tracer = Tracer()
    install(tracer)
    try:
        assert all(m.insert_nvm is not original for m in modules)
    finally:
        tracer.uninstall()
    assert all(m.insert_nvm is original for m in modules)


def test_traced_sweep_matches_untraced_and_counts_plans():
    from repro.api import SweepEngine, SweepRequest, SweepSpec

    request = SweepRequest(spec=SweepSpec(
        circuits=("s27",), policies=(1, 3), budget_scales=(1.0,),
        scenarios=workloads.scenarios(3),
    ))
    tracer = Tracer()
    install(tracer)
    try:
        traced = tracer.span(PASS_ROOT, SweepEngine().submit, request)
    finally:
        tracer.uninstall()
    plain = SweepEngine().submit(request)
    assert _digest(traced) == _digest(plain)
    metrics = layer_metrics(tracer.spans, tracer.pid, {})
    points = len(plain.records)
    assert points == 12
    assert metrics["core.insert_nvm.calls"] == points
    # Two policies x one budget: two distinct plans.
    assert metrics["core.plan_reuse"] == 1 - 2 / points
    assert metrics["dse.stage_for.hit_ratio"] == 1 - 2 / points
    assert 0 < metrics["trace.layer_self_frac"] <= 1


def test_service_search_matches_in_process_engine(tmp_path):
    from repro.api import SweepEngine

    request = workloads.search_request(DEFAULT_SEED)
    service = workloads.search_pass(request, tmp_path)
    assert service.problems == []
    assert service.digest == _digest(SweepEngine().submit(request))
