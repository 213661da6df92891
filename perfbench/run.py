"""The repository's benchmark: three workloads, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload dse-grid --seed 11 --seconds 38 --trace 0

``--trace 0`` runs untraced passes of one workload for ``--seconds``
seconds and reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, the model
outputs and the tracing overhead.  Both print a human-readable report,
then one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
Every pass's outputs are checked; the command exits 1 when a check
fails.  Results and spans are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from checkout import OUT, child_env, use_checkout_source
from layers import PASS_ROOT, layer_metrics, merge, time_shares
from spans import END, NAME, START, Tracer, install

HERE = Path(__file__).resolve().parent

#: Default workload seed; any other seed serves as a held-out seed.
DEFAULT_SEED = 11
#: Fresh interpreters started per run to time set-up.
SETUP_PROBES = 7
#: Worker exit wait after the coordinator closed the queue.
WORKER_EXIT_TIMEOUT_S = 60.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "evals_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

#: Layer call counts that must repeat exactly between traced passes.
#: In ``service-search`` the stages a worker synthesizes depend on
#: which worker won which lease, so only per-task layers are exact.
SERVICE_EXACT = (
    "core.insert_nvm", "core.generate_code", "core.roundtrip_check",
    "evaluation.build_environment", "analysis.screen",
    "analysis.bounds_for_point", "analysis.insert_nvm", "dse.strategy",
)


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", "_calls", ".lanes", ".rows", ".leases",
                      ".reclaimed", "tasks_per_lease")):
        return "count"
    return "ratio"


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def host_facts() -> dict:
    """The host properties every result is recorded with."""
    from repro.dse.batch import batch_kernel_enabled

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "batch_kernel": batch_kernel_enabled(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "machine": platform.machine(),
    }


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter to the first call."""
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        probe = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed)],
            env=child_env(), capture_output=True, text=True, timeout=60,
            check=True,
        )
        samples.append(float(probe.stdout.split()[-1]) - started)
    return samples


def traced_search(request, workdir: Path, tracer) -> tuple:
    """One traced ``service-search`` pass with externally started workers.

    The coordinator runs with ``workers=0``; two ``traced_worker.py``
    processes serve its queue with the same wrappers installed.  A
    watchdog fails the queue's open tasks if a worker dies, since a
    coordinator without its own workers would otherwise wait forever.
    """
    from repro.api import LeaseQueue, SweepCoordinator, open_store
    from workloads import SERVICE_WORKERS, search_result

    path = workdir / "service.sqlite"
    open_store(path, backend="sqlite").close()
    LeaseQueue(path).close()
    coordinator = SweepCoordinator(path, workers=0)
    procs: list[subprocess.Popen] = []
    spawned: dict[int, float] = {}
    outputs = [workdir / f"worker{i}.spans.json"
               for i in range(SERVICE_WORKERS)]
    stop = threading.Event()

    def watchdog() -> None:
        while not stop.wait(0.5):
            if any(proc.poll() not in (None, 0) for proc in procs):
                queue = LeaseQueue(path)
                try:
                    queue.fail_unfinished("a traced worker exited early")
                finally:
                    queue.close()

    def spawn_and_submit():
        for output in outputs:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "traced_worker.py"), str(path),
                 str(output), str(coordinator.lease_size),
                 str(coordinator.poll_s)],
                env=child_env(),
            )
            spawned[proc.pid] = started
            procs.append(proc)
        watcher.start()
        return coordinator.submit(request)

    watcher = threading.Thread(target=watchdog, daemon=True)
    try:
        result = tracer.span(PASS_ROOT, spawn_and_submit)
    finally:
        stop.set()
        for proc in procs:
            try:
                proc.wait(timeout=WORKER_EXIT_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if watcher.is_alive():
            watcher.join()
    summary = search_result(result, path)
    for proc in procs:
        if proc.returncode != 0:
            summary.problems.append(f"traced worker exited {proc.returncode}")
    worker_spans = [json.loads(o.read_text()) for o in outputs if o.exists()]
    return summary, worker_spans, spawned


def run_pass(workload, request, trace: bool) -> dict:
    """One pass in a fresh working directory; traced when ``trace``."""
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="pass-", dir=OUT))
    # The previous pass's garbage is collected here, not inside this one.
    gc.collect()
    try:
        if not trace:
            cpu_before = cpu_seconds()
            started = time.perf_counter()
            result = workload.run(request, workdir)
            wall = time.perf_counter() - started
            return {"result": result, "wall_s": wall,
                    "cpu_s": cpu_seconds() - cpu_before}
        tracer = Tracer()
        install(tracer)
        try:
            if workload.name == "service-search":
                result, worker_spans, spawned = traced_search(
                    request, workdir, tracer
                )
            else:
                result = tracer.span(PASS_ROOT, workload.run, request,
                                     workdir)
                worker_spans, spawned = [], {}
        finally:
            tracer.uninstall()
        root = next(s for s in tracer.spans if s[NAME] == PASS_ROOT)
        spans = merge([tracer.spans] + worker_spans)
        return {"result": result, "wall_s": root[END] - root[START],
                "spans": spans,
                "layers": layer_metrics(spans, tracer.pid, spawned)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_passes(workload, request, seconds: float, trace: bool) -> list[dict]:
    """Passes until the next one would end more than half a pass past
    ``seconds``, so that on average a run measures for ``seconds``.

    Untraced runs repeat one untraced pass; traced runs repeat an
    (untraced, traced) pair.  At least one pass or pair always runs.
    """
    deadline = time.perf_counter() + seconds
    passes: list[dict] = []
    while True:
        step = [run_pass(workload, request, trace=False)]
        if trace:
            step.append(run_pass(workload, request, trace=True))
        passes += step
        if time.perf_counter() + sum(p["wall_s"] for p in step) / 2 > deadline:
            return passes


def median_of(passes: list[dict], key) -> float:
    """Median of ``key(pass)`` over ``passes``."""
    return statistics.median(key(p) for p in passes)


def check_passes(workload: str, passes: list[dict]) -> list[str]:
    """Checks across passes: identical digests and exact call counts."""
    problems = []
    for number, entry in enumerate(passes):
        problems += [f"pass {number}: {p}" for p in entry["result"].problems]
    digests = {entry["result"].digest for entry in passes}
    if len(digests) != 1:
        problems.append(f"record digests differ between passes: {digests}")
    traced = [entry["layers"] for entry in passes if "layers" in entry]
    if not traced:
        return problems
    exact = [name for name in traced[0] if name.endswith(".calls")]
    if workload == "service-search":
        exact = [f"{layer}.calls" for layer in SERVICE_EXACT]
    for name in exact:
        counts = {layers[name] for layers in traced}
        if len(counts) != 1:
            problems.append(f"{name} differs between traced passes: {counts}")
    return problems


def report(args, facts, setup, passes) -> dict:
    """Print the human-readable report; return the JSON metrics."""
    untraced = [p for p in passes if "layers" not in p]
    traced = [p for p in passes if "layers" in p]
    first = passes[0]["result"]
    attempted = sum(p["result"].attempted for p in passes)
    failed = sum(p["result"].failed for p in passes)
    walls = [p["wall_s"] for p in untraced]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds}")
    print("host: " + json.dumps(facts, sort_keys=True))
    print(f"digest: {first.digest} ({len(passes)} passes)")
    # Pass times are averaged over the whole run, not reduced to their
    # median: on a shared host single passes vary by about 12%
    # (coefficient of variation) and a run holds only 3-8 passes, so
    # total time over total work is steadier than the median pass
    # (see README.md).
    total_wall = sum(walls)
    end_to_end = {
        "setup_s": statistics.median(setup),
        "wall_s": total_wall / len(walls),
        "evals_per_s": sum(p["result"].evals for p in untraced) / total_wall,
        "cpu_s": sum(p["cpu_s"] for p in untraced) / len(untraced),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "wall_s": f"mean of {len(walls)} passes, median "
                  f"{statistics.median(walls):.4f} min {min(walls):.4f} "
                  f"max {max(walls):.4f}",
        "evals_per_s": f"{first.evals} executions per pass, over the run",
        "cpu_s": "this process and its children, mean per pass",
        "peak_rss_mb": "this process or any child",
    }
    for name, value in end_to_end.items():
        print(f"  {name:24s} {value:12.6g} {END_TO_END_UNITS[name]:5s}"
              f" ({notes[name]})")
    print(f"  {'failed_frac':24s} {failed / attempted:12.6g} ratio"
          f" ({failed} of {attempted} attempted points failed)")
    for name, unit in (("paper_mae_pp", "pp"),
                       ("opt_diac_gain_mcnc_pct", "%"),
                       ("front_hv", "ratio")):
        value = first.model.get(name)
        shown = f"{value:12.6g}" if value is not None else f"{'n/a':>12s}"
        print(f"  {name:24s} {shown} {unit:5s} (model output)")
    if not args.trace:
        return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                for name, value in end_to_end.items()}

    layers = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in traced[0]["layers"]
    }
    layers["model.front_hv"] = first.model["front_hv"]
    layers["trace.overhead"] = (
        median_of(traced, lambda p: p["wall_s"]) / statistics.median(walls)
    )
    print(f"traced: {len(traced)} passes, overhead "
          f"{layers['trace.overhead']:.4f}x untraced wall; self time by layer"
          " (share of process time):")
    for name, seconds, share in time_shares(traced[-1]["spans"])[:12]:
        print(f"  {name:32s} {seconds:10.4f} s {100 * share:6.2f} %")
    for name, value in layers.items():
        print(f"  {name:40s} {value:12.6g} {per_layer_unit(name)}")
    return {name: {"value": value, "unit": per_layer_unit(name)}
            for name, value in layers.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig5-roster", "dse-grid", "service-search"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_source()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    facts = host_facts()
    setup = measure_setup(args.workload, args.seed)
    request = workload.build(args.seed)
    passes = run_passes(workload, request, args.seconds, bool(args.trace))
    problems = check_passes(args.workload, passes)
    metrics = report(args, facts, setup, passes)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    stem = f"{args.workload}-seed{args.seed}"
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": facts, "setup_s": setup,
        "walls_s": [p["wall_s"] for p in passes],
        "traced": ["layers" in p for p in passes],
        "digest": passes[0]["result"].digest,
        "model": passes[0]["result"].model,
        "problems": problems, "metrics": metrics,
    }
    (OUT / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    if args.trace:
        traced = [p for p in passes if "layers" in p][-1]
        (OUT / f"{stem}.spans.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "wall_s": traced["wall_s"], "spans": traced["spans"]}
        ))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p["result"].attempted for p in passes),
        "failed": sum(p["result"].failed for p in passes),
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
