"""Span tracing for the benchmark's traced run, installed from outside.

The program under test carries no instrumentation of its own, so the
traced run wraps each layer's public functions where the program calls
them: every ``repro.*`` module attribute bound to a function is replaced
by a timing wrapper (``insert_nvm`` alone is bound in three modules),
and methods are wrapped on their class.  Imports made inside a function
resolve at call time against the source module, which is wrapped too.

A span records name, start, end, parent and pid, plus a few per-call
attributes (lane counts, rows, plan keys).  Spans stay in memory and
are written out when the benchmark ends; spans from worker processes
merge onto the same ``time.perf_counter`` timeline, which on Linux is
the system-wide monotonic clock.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
import time

#: Column order of one span row.
NAME, START, END, PARENT, PID, ATTRS = range(6)


class Tracer:
    """Collects spans of one process; installs and removes the wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.pid = os.getpid()

    # -- spans ----------------------------------------------------------

    def wrap(self, name, func, attrs=None, materialize=False):
        """A wrapper timing every call of ``func`` as span ``name``.

        ``attrs(args, kwargs, result)`` returns the span's attributes.
        ``materialize`` drains a returned iterator inside the span, so a
        streaming read is timed where its rows are produced.
        """
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    tracer._stack[-1] if tracer._stack else None,
                    tracer.pid, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = func(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                span[END] = time.perf_counter()
                tracer._stack.pop()
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, result)
            return result

        return wrapper

    def span(self, name, func, *args, **kwargs):
        """Run ``func(*args, **kwargs)`` inside one span ``name``."""
        return self.wrap(name, func)(*args, **kwargs)

    # -- installation ---------------------------------------------------

    def patch_function(self, func, name, attrs=None, names_by_module=None):
        """Wrap every ``repro.*`` module attribute bound to ``func``.

        ``names_by_module`` gives the bindings of some modules their own
        span name, so calls are told apart by the module they come from.
        """
        wrappers: dict[str, object] = {}
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is not func:
                    continue
                span_name = (names_by_module or {}).get(module_name, name)
                if span_name not in wrappers:
                    wrappers[span_name] = self.wrap(span_name, func, attrs)
                setattr(module, attr, wrappers[span_name])
                self._patches.append((module, attr, func))
        if not wrappers:
            raise RuntimeError(f"no module binds {func.__qualname__}")

    def patch_method(self, cls, attr, name, attrs=None, materialize=False):
        """Wrap one method on the class that defines it."""
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, attrs, materialize))
        self._patches.append((cls, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def plan_key(graph, budget_j, technology=None, criteria=None) -> str:
    """Key of one ``insert_nvm`` input: equal keys, equal plans.

    Two calls repeat a plan when they pass the same shaped-graph object
    (a synthesis-stage cache hands one graph to every point of a stage)
    with the same budget, technology and criteria.  The graph's content
    hash and the pid keep a recycled object id, or another process's
    graph, from matching.
    """
    digest = hashlib.sha256(f"{os.getpid()}:{id(graph)}:".encode())
    digest.update(graph.netlist.name.encode())
    for node_id, node in graph.nodes.items():
        digest.update(node_id.encode())
        digest.update("\0".join(node.gates).encode())
    digest.update(repr((budget_j, getattr(technology, "name", technology),
                        criteria)).encode())
    return digest.hexdigest()[:16]


def install(tracer: Tracer) -> None:
    """Wrap the layer functions the benchmark attributes time to.

    Imports every module that binds them first, so the module scan in
    :meth:`Tracer.patch_function` finds all bindings.
    """
    import repro.analysis.intervals as intervals
    import repro.analysis.screen as screen
    import repro.api  # noqa: F401 - binds the facade's re-exports
    import repro.core.codegen as codegen
    import repro.core.policies as policies
    import repro.core.replacement as replacement
    import repro.core.tree_generator as tree_generator
    import repro.dse.batch as batch
    import repro.dse.explorer as explorer
    import repro.dse.sqlite_store as sqlite_store
    import repro.dse.strategies as strategies
    import repro.evaluation as evaluation
    import repro.service.coordinator as coordinator
    import repro.service.queue as queue
    import repro.service.worker  # noqa: F401 - binds load_circuit
    import repro.suite.registry as registry
    import repro.tech.synthesis as synthesis

    def nvm_attrs(args, kwargs, _result):
        budget = args[1] if len(args) > 1 else kwargs["budget_j"]
        return {"plan": plan_key(args[0], budget, kwargs.get("technology"),
                                 kwargs.get("criteria"))}

    def count_records(args, _kwargs, _result):
        return {"n": len(args[1])}

    def count_result(_args, _kwargs, result):
        return {"n": len(result)}

    def screen_attrs(args, _kwargs, result):
        return {"in": len(args[1]), "out": len(result)}

    tracer.patch_function(registry.load_circuit, "suite.load_circuit")
    tracer.patch_function(synthesis.synthesize, "tech.synthesize")
    tracer.patch_function(tree_generator.build_task_graph,
                          "core.build_task_graph")
    tracer.patch_function(policies.apply_policy, "core.apply_policy")
    tracer.patch_function(
        replacement.insert_nvm, "core.insert_nvm", nvm_attrs,
        names_by_module={intervals.__name__: "analysis.insert_nvm"},
    )
    tracer.patch_function(codegen.generate_code, "core.generate_code")
    tracer.patch_method(codegen.GeneratedCode, "roundtrip_check",
                        "core.roundtrip_check")
    tracer.patch_function(evaluation.build_environment,
                          "evaluation.build_environment")
    tracer.patch_method(explorer.SynthesisCache, "stage_for",
                        "dse.stage_for")
    tracer.patch_function(batch.run_batch, "dse.run_batch", count_result)
    store = sqlite_store.SqliteResultStore
    # append() delegates to extend(); layers.py counts outermost spans.
    tracer.patch_method(store, "append", "dse.store", lambda a, k, r: {"n": 1})
    tracer.patch_method(store, "extend", "dse.store", count_records)
    tracer.patch_method(store, "get", "dse.store",
                        lambda a, k, r: {"n": int(r is not None)})
    tracer.patch_method(store, "keys", "dse.store", count_result)
    tracer.patch_method(store, "iter_records", "dse.store", count_result,
                        materialize=True)
    for cls in (strategies.RandomStrategy,
                strategies.SuccessiveHalvingStrategy,
                strategies.ParetoEvolutionStrategy):
        tracer.patch_method(cls, "ask", "dse.strategy")
        tracer.patch_method(cls, "tell", "dse.strategy")
    tracer.patch_method(screen.StaticScreener, "screen", "analysis.screen",
                        screen_attrs)
    tracer.patch_function(intervals.bounds_for_point,
                          "analysis.bounds_for_point")
    lease_queue = queue.LeaseQueue
    tracer.patch_method(lease_queue, "claim", "service.queue.claim",
                        count_result)
    tracer.patch_method(lease_queue, "reclaim_expired",
                        "service.queue.reclaim",
                        lambda a, k, r: {"n": r})
    for method in ("complete", "fail", "enqueue", "heartbeat", "statuses",
                   "unfinished", "state", "counts_for", "failures"):
        tracer.patch_method(lease_queue, method, f"service.queue.{method}")
    tracer.patch_method(coordinator.SweepCoordinator, "submit",
                        "service.coordinator.submit")
