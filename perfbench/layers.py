"""Per-layer metrics computed from the spans of one traced pass.

A layer's self time is its spans' duration minus the part covered by
their child spans.  Spans nest strictly inside one process, so the
children of a span never overlap and their durations simply add up.
Every metric is defined for every workload; a layer a workload never
calls reports zero calls and zero time.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from spans import ATTRS, END, NAME, PARENT, PID, START

#: Layers reported as ``<layer>.calls`` and ``<layer>.self_s``.
TIMED_LAYERS = (
    "suite.load_circuit",
    "tech.synthesize",
    "core.build_task_graph",
    "core.apply_policy",
    "core.insert_nvm",
    "core.generate_code",
    "core.roundtrip_check",
    "evaluation.build_environment",
    "dse.strategy",
    "analysis.screen",
    "analysis.bounds_for_point",
    "analysis.insert_nvm",
)

#: Root spans: one benchmark pass, one worker process's lifetime.
PASS_ROOT = "bench.pass"
WORKER_ROOT = "service.worker.run"


def merge(processes: list[list[list]]) -> list[list]:
    """Concatenate per-process span lists, rebasing parent indices."""
    merged: list[list] = []
    for spans in processes:
        offset = len(merged)
        for span in spans:
            row = list(span)
            if row[PARENT] is not None:
                row[PARENT] += offset
            merged.append(row)
    return merged


def total_of(span: list) -> float:
    """Duration of one span."""
    return span[END] - span[START]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus its direct children's durations."""
    own = [total_of(span) for span in spans]
    for span in spans:
        if span[PARENT] is not None:
            own[span[PARENT]] -= total_of(span)
    return own


def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: list[list], main_pid: int, spawned_at: dict[int, float]
) -> dict[str, float]:
    """Every per-layer metric of one traced pass.

    Args:
        spans: the pass's merged spans, benchmark process and workers.
        main_pid: pid of the benchmark process.
        spawned_at: worker pid -> clock reading just before its spawn.
    """
    own = self_times(spans)
    calls: Counter[str] = Counter()
    self_s: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    attr_sum: dict[str, float] = defaultdict(float)
    for span, seconds in zip(spans, own):
        name = span[NAME]
        calls[name] += 1
        self_s[name] += seconds
        total[name] += total_of(span)
        if span[ATTRS] and "n" in span[ATTRS]:
            attr_sum[name] += span[ATTRS]["n"]

    metrics: dict[str, float] = {}
    for layer in TIMED_LAYERS:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_s"] = self_s[layer]

    plans = [s[ATTRS]["plan"] for s in spans if s[NAME] == "core.insert_nvm"]
    metrics["core.plan_reuse"] = 1.0 - _share(len(set(plans)), len(plans))

    missed = {s[PARENT] for s in spans if s[NAME] == "tech.synthesize"}
    stages = [i for i, s in enumerate(spans) if s[NAME] == "dse.stage_for"]
    metrics["dse.stage_for.calls"] = len(stages)
    metrics["dse.stage_for.hit_ratio"] = _share(
        sum(i not in missed for i in stages), len(stages)
    )

    metrics["dse.run_batch.calls"] = calls["dse.run_batch"]
    metrics["dse.run_batch.lanes"] = attr_sum["dse.run_batch"]
    metrics["dse.run_batch.self_s"] = self_s["dse.run_batch"]
    metrics["dse.run_batch.lanes_per_s"] = _share(
        attr_sum["dse.run_batch"], total["dse.run_batch"]
    )

    # A store method calling another (append -> extend) is one call.
    store = [s for s in spans if s[NAME] == "dse.store" and (
        s[PARENT] is None or spans[s[PARENT]][NAME] != "dse.store")]
    metrics["dse.store.calls"] = len(store)
    metrics["dse.store.rows"] = sum(s[ATTRS]["n"] for s in store)
    metrics["dse.store.self_s"] = self_s["dse.store"]

    screened_in = sum(s[ATTRS]["in"] for s in spans
                      if s[NAME] == "analysis.screen")
    screened_out = sum(s[ATTRS]["out"] for s in spans
                       if s[NAME] == "analysis.screen")
    metrics["analysis.screen.keep_frac"] = _share(screened_out, screened_in)

    claims = [s for s in spans if s[NAME] == "service.queue.claim"]
    leases = [s for s in claims if s[ATTRS]["n"]]
    metrics["service.queue.claim_calls"] = len(claims)
    metrics["service.queue.claim_empty_frac"] = _share(
        len(claims) - len(leases), len(claims)
    )
    metrics["service.queue.complete_calls"] = calls["service.queue.complete"]
    metrics["service.queue.fail_calls"] = calls["service.queue.fail"]
    metrics["service.queue.reclaimed"] = attr_sum["service.queue.reclaim"]
    metrics["service.queue.self_s"] = sum(
        seconds for name, seconds in self_s.items()
        if name.startswith("service.queue.")
    )

    metrics.update(_worker_metrics(spans, leases, spawned_at))
    metrics["service.coordinator.idle_s"] = self_s["service.coordinator.submit"]

    main = [i for i, s in enumerate(spans) if s[PID] == main_pid]
    wall = sum(total_of(spans[i]) for i in main if spans[i][NAME] == PASS_ROOT)
    metrics["trace.layer_self_frac"] = _share(
        sum(own[i] for i in main if spans[i][NAME] != PASS_ROOT), wall
    )
    return metrics


def _worker_metrics(
    spans: list[list], leases: list[list], spawned_at: dict[int, float]
) -> dict[str, float]:
    """Lease counts, lease-holding share and start-up time of the workers.

    A worker is busy from a claim that returned a lease until its next
    claim (or its exit); start-up runs from its spawn to its first claim.
    """
    runs = {s[PID]: s for s in spans if s[NAME] == WORKER_ROOT}
    claims_by_pid: dict[int, list[list]] = defaultdict(list)
    for span in spans:
        if span[NAME] == "service.queue.claim" and span[PID] in runs:
            claims_by_pid[span[PID]].append(span)
    busy = 0.0
    startups = []
    for pid, claims in claims_by_pid.items():
        claims.sort(key=lambda s: s[START])
        ends = [s[START] for s in claims[1:]] + [runs[pid][END]]
        busy += sum(end - s[START] for s, end in zip(claims, ends)
                    if s[ATTRS]["n"])
        if pid in spawned_at:
            startups.append(claims[0][START] - spawned_at[pid])
    lifetime = sum(total_of(run) for run in runs.values())
    tasks = sum(s[ATTRS]["n"] for s in leases)
    return {
        "service.worker.leases": len(leases),
        "service.worker.tasks_per_lease": _share(tasks, len(leases)),
        "service.worker.busy_frac": _share(busy, lifetime),
        "service.worker.startup_s": (
            statistics.median(startups) if startups else 0.0
        ),
    }


def time_shares(spans: list[list]) -> list[tuple[str, float, float]]:
    """(layer, self seconds, share of process time), largest first.

    Process time is the summed duration of the root spans: the pass in
    the benchmark process plus each worker's lifetime.
    """
    own = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    for span, seconds in zip(spans, own):
        by_name[span[NAME]] += seconds
    process_s = sum(total_of(s) for s in spans
                    if s[NAME] in (PASS_ROOT, WORKER_ROOT))
    return sorted(
        ((name, seconds, _share(seconds, process_s))
         for name, seconds in by_name.items()),
        key=lambda row: -row[1],
    )
