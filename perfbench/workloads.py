"""The three benchmark workloads, driven through the public API only.

Each workload is closed-loop with one client: the benchmark submits one
request, waits for its result, checks it, and submits the next.  Why
each workload exists, which layer it loads and which metrics it is
predicted not to move is written down in ``perfbench/README.md``.

A pass returns a :class:`PassResult`.  Its ``digest`` is the sha256 of
the pass's sorted, JSON-serialized records, so two passes (or a traced
and an untraced pass) that simulated the same thing print the same
digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

#: The Fig. 5 roster's four schemes, best first (the expected PDP order).
SCHEME_ORDER = ("Optimized DIAC", "DIAC", "NV-clustering", "NV-based")

#: Number of grid points of ``dse-grid``: 2 circuits x 3 policies x
#: 2 budget scales x safe zone on/off x 2 threshold scales x 3 scenarios.
GRID_POINTS = 144

#: Worker processes of ``service-search`` (the reference host has two cores).
SERVICE_WORKERS = 2


@dataclass
class PassResult:
    """What one workload pass produced and what its checks found."""

    digest: str
    attempted: int
    failed: int
    evals: int
    model: dict[str, float]
    problems: list[str] = field(default_factory=list)


def scenarios(seed: int):
    """The multi-scenario axis; ``seed`` drives both stochastic traces."""
    from repro.api import ScenarioSpec

    return (
        ScenarioSpec(),
        ScenarioSpec(name="rf-markov", seed=seed),
        ScenarioSpec(name="solar-cloudy", seed=seed),
    )


def digest_of(rows: list[dict]) -> str:
    """sha256 over the sorted canonical JSON of ``rows``."""
    lines = sorted(json.dumps(row, sort_keys=True) for row in rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def normalized_hv(groups: dict[tuple, list[tuple[float, float]]]) -> float:
    """Mean over (scenario, circuit) groups of a (PDP, re-exec) front's
    hypervolume share.

    Each circuit's reference corner is 1.05 x its worst value on each
    axis over all of its groups, and a group's hypervolume is divided by
    that reference box, so circuits of any energy scale weigh the same.
    Circuits whose points never re-execute (a zero-height box) are
    skipped.
    """
    from repro.dse.pareto import hypervolume_2d

    corners: dict[str, tuple[float, float]] = {}
    for (_scenario, circuit), points in groups.items():
        x, y = corners.get(circuit, (0.0, 0.0))
        corners[circuit] = (max([x] + [1.05 * p[0] for p in points]),
                            max([y] + [1.05 * p[1] for p in points]))
    shares = []
    for (_scenario, circuit), points in groups.items():
        reference = corners[circuit]
        if reference[0] > 0 and reference[1] > 0:
            area = hypervolume_2d(points, reference)
            shares.append(area / (reference[0] * reference[1]))
    return sum(shares) / len(shares) if shares else 0.0


def record_groups(records) -> dict[tuple, list[tuple[float, float]]]:
    """Exploration records grouped by (scenario, circuit)."""
    groups: dict[tuple, list[tuple[float, float]]] = {}
    for record in records:
        groups.setdefault((record.scenario.label(), record.circuit), []).append(
            (record.pdp_js, record.reexec_energy_j)
        )
    return groups


# -- fig5-roster ---------------------------------------------------------


def fig5_request(seed: int) -> list[str]:
    """All 24 roster circuits.  ``paper-fig5`` is deterministic, so the
    seed is unused: every run evaluates exactly the same inputs."""
    from repro.suite import ROSTER

    return [info.name for info in ROSTER]


def fig5_pass(names: list[str], workdir: Path) -> PassResult:
    """``evaluate_suite`` over the roster x the four schemes."""
    from repro.evaluation import evaluate_suite
    from repro.metrics import paper_vs_measured, suite_improvements

    evaluations = evaluate_suite(names)
    problems = []
    rows = []
    groups = {}
    for evaluation in evaluations:
        missing = set(SCHEME_ORDER) - set(evaluation.results)
        if missing:
            problems.append(f"{evaluation.name} lacks {sorted(missing)}")
        points = groups.setdefault(("paper-fig5", evaluation.name), [])
        for result in evaluation.results.values():
            rows.append({"circuit": evaluation.name, "suite": evaluation.suite,
                         **dataclasses.asdict(result)})
            points.append((result.pdp_js, result.reexec_energy_j))
    if len(evaluations) != len(names):
        problems.append(f"{len(evaluations)} evaluations for {len(names)} circuits")
    by_suite: dict[str, list] = {}
    for evaluation in evaluations:
        by_suite.setdefault(evaluation.suite, []).append(evaluation)
    for suite, members in sorted(by_suite.items()):
        means = [
            sum(e.normalized_pdp()[scheme] for e in members) / len(members)
            for scheme in SCHEME_ORDER
        ]
        if not all(a < b for a, b in zip(means, means[1:])):
            problems.append(f"{suite}: mean normalized PDP out of order {means}")
    claims = paper_vs_measured(evaluations)
    mae = sum(abs(row["paper_pct"] - row["measured_pct"]) for row in claims)
    return PassResult(
        digest=digest_of(rows),
        attempted=len(names) * len(SCHEME_ORDER),
        failed=sum(not row["completed"] for row in rows),
        evals=len(rows),
        model={
            "paper_mae_pp": mae / len(claims),
            "opt_diac_gain_mcnc_pct": suite_improvements(
                evaluations, "Optimized DIAC", "NV-based"
            )["mcnc"],
            "front_hv": normalized_hv(groups),
        },
        problems=problems,
    )


# -- dse-grid -------------------------------------------------------------


def grid_request(seed: int):
    """The 144-point serial grid over s1423 and b12."""
    from repro.api import SweepRequest, SweepSpec

    return SweepRequest(
        spec=SweepSpec(
            circuits=("s1423", "b12"),
            policies=(1, 2, 3),
            budget_scales=(0.5, 1.0),
            safe_zones=(True, False),
            threshold_scales=(1.0, 1.25),
            scenarios=scenarios(seed),
        )
    )


def grid_pass(request, workdir: Path) -> PassResult:
    """In-process ``SweepEngine.submit`` streamed into a fresh SQLite store."""
    from repro.api import SweepEngine, open_store, record_to_dict

    store = open_store(workdir / "grid.sqlite", backend="sqlite")
    try:
        result = SweepEngine(workers=1, store=store).submit(request)
        stored = store.count()
    finally:
        store.close()
    problems = []
    resolved = len(result.records) + len(result.failures)
    if resolved != GRID_POINTS:
        problems.append(f"records + failures = {resolved}, expected {GRID_POINTS}")
    if stored != len(result.records):
        problems.append(f"store holds {stored} of {len(result.records)} records")
    return PassResult(
        digest=digest_of([record_to_dict(r) for r in result.records]),
        attempted=result.stats.n_points,
        failed=len(result.failures),
        evals=result.stats.n_evaluated,
        model={"front_hv": normalized_hv(record_groups(result.records))},
        problems=problems,
    )


# -- service-search --------------------------------------------------------


def search_request(seed: int):
    """Screened successive halving over three circuits and four scenarios.

    The fourth scenario is ``paper-fig5`` at 2% power, a weak
    environment the static screen bounds every candidate under too.
    """
    from repro.api import ScenarioSpec, SweepRequest, SweepSpec

    return SweepRequest(
        spec=SweepSpec(
            circuits=("s1423", "b12", "s838"),
            scenarios=scenarios(seed) + (ScenarioSpec(scale=0.02),),
        ),
        strategy="halving",
        samples=32,
        generations=3,
        search_seed=seed,
        analysis_prune=True,
    )


def search_result(result, store_path: Path) -> PassResult:
    """Check a finished search and summarize it."""
    from repro.api import LeaseQueue, record_to_dict

    queue = LeaseQueue(store_path)
    try:
        counts = queue.stats()
    finally:
        queue.close()
    problems = []
    if counts["pending"] or counts["leased"]:
        problems.append(f"unresolved leases left in the queue: {counts}")
    return PassResult(
        digest=digest_of([record_to_dict(r) for r in result.records]),
        attempted=result.stats.n_points,
        failed=result.stats.n_failed,
        evals=result.stats.n_evaluated,
        model={"front_hv": normalized_hv(record_groups(result.records))},
        problems=problems,
    )


def search_pass(request, workdir: Path) -> PassResult:
    """``SweepCoordinator.submit`` with two spawned ``repro worker`` s."""
    from repro.api import SweepCoordinator

    path = workdir / "service.sqlite"
    result = SweepCoordinator(path, workers=SERVICE_WORKERS).submit(request)
    return search_result(result, path)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how to build its request and run a pass."""

    name: str
    build: Callable[[int], object]
    run: Callable[[object, Path], PassResult]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("fig5-roster", fig5_request, fig5_pass),
        Workload("dse-grid", grid_request, grid_pass),
        Workload("service-search", search_request, search_pass),
    )
}
