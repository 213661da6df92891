"""Property-based tests (hypothesis) on the core invariants.

These cover the properties DESIGN.md's validation strategy calls out:
energy conservation in the capacitor ledger, structural invariants of
generated circuits and task graphs, round-trip stability of the parsers,
and budget/partition laws of the replacement procedure.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.circuits import (
    CircuitSpec,
    generate_circuit,
    parse_bench,
    write_bench,
)
from repro.core import build_task_graph, config_for_graph, apply_policy, insert_nvm
from repro.core.policies import first_fit, first_fit_linear
from repro.core.tree import graph_caches_disabled
from repro.energy import EnergyStorage, HarvestSegment, HarvestTrace, ThresholdSet

# ---------------------------------------------------------------------------
# Strategies.
# ---------------------------------------------------------------------------

spec_strategy = st.builds(
    CircuitSpec,
    name=st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
        min_size=1,
        max_size=8,
    ),
    n_gates=st.integers(min_value=1, max_value=120),
    ff_fraction=st.floats(min_value=0.0, max_value=0.5),
    style=st.sampled_from(["logic", "pld", "datapath", "fsm"]),
)

storage_ops = st.lists(
    st.tuples(
        st.sampled_from(["deposit", "drain"]),
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    ),
    max_size=60,
)


# ---------------------------------------------------------------------------
# Circuit generation invariants.
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(spec=spec_strategy)
def test_generated_circuits_always_validate(spec: CircuitSpec):
    netlist = generate_circuit(spec)
    netlist.validate()
    assert netlist.num_gates == spec.n_gates
    assert netlist.num_ffs == int(round(spec.n_gates * spec.ff_fraction))
    assert netlist.outputs


@settings(max_examples=25, deadline=None)
@given(spec=spec_strategy)
def test_bench_roundtrip_is_stable(spec: CircuitSpec):
    netlist = generate_circuit(spec)
    once = write_bench(netlist)
    again = write_bench(parse_bench(once, name=netlist.name))
    assert once == again


# ---------------------------------------------------------------------------
# Capacitor ledger conservation.
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(ops=storage_ops)
def test_storage_ledger_always_balances(ops):
    store = EnergyStorage(e_max_j=10.0)
    for kind, amount in ops:
        if kind == "deposit":
            store.deposit(amount)
        else:
            store.drain(amount)
        assert 0.0 <= store.energy_j <= store.e_max_j + 1e-12
    assert abs(store.ledger_residual_j()) < 1e-9


# ---------------------------------------------------------------------------
# Threshold scaling.
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(e_max=st.floats(min_value=1e-12, max_value=1e3))
def test_threshold_proportions_scale(e_max: float):
    th = ThresholdSet.from_e_max(e_max)
    reference = ThresholdSet.from_e_max(1.0)
    assert th.backup_j / th.e_max_j == pytest.approx(reference.backup_j)
    assert th.off_j < th.backup_j < th.safe_j < th.compute_j


# ---------------------------------------------------------------------------
# Harvest trace integral consistency.
# ---------------------------------------------------------------------------

segments_strategy = st.lists(
    st.builds(
        HarvestSegment,
        duration_s=st.floats(min_value=0.1, max_value=5.0),
        power_w=st.floats(min_value=0.0, max_value=1e-3),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=50, deadline=None)
@given(segments=segments_strategy, t0=st.floats(min_value=0.0, max_value=10.0),
       span=st.floats(min_value=0.0, max_value=10.0))
def test_energy_between_is_additive(segments, t0, span):
    trace = HarvestTrace(segments)
    mid = t0 + span / 2.0
    end = t0 + span
    whole = trace.energy_between(t0, end)
    split = trace.energy_between(t0, mid) + trace.energy_between(mid, end)
    assert abs(whole - split) <= 1e-9 * max(whole, 1.0)


@settings(max_examples=30, deadline=None)
@given(segments=segments_strategy)
def test_cycle_energy_matches_integral(segments):
    trace = HarvestTrace(segments)
    assert trace.energy_between(0.0, trace.period_s) <= trace.cycle_energy_j * (
        1 + 1e-9
    ) + 1e-18


# ---------------------------------------------------------------------------
# Policies and replacement preserve the partition invariant.
# ---------------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    spec=st.builds(
        CircuitSpec,
        name=st.sampled_from(["pa", "pb", "pc", "pd"]),
        n_gates=st.integers(min_value=10, max_value=90),
        ff_fraction=st.floats(min_value=0.0, max_value=0.3),
        style=st.sampled_from(["logic", "fsm"]),
    ),
    policy=st.sampled_from([1, 2, 3]),
    split_fraction=st.floats(min_value=1.1, max_value=6.0),
)
def test_policies_preserve_partition(spec, policy, split_fraction):
    netlist = generate_circuit(spec)
    graph = build_task_graph(netlist)
    cfg = config_for_graph(
        graph, split_fraction=split_fraction, merge_fraction=split_fraction / 2
    )
    result = apply_policy(graph, policy, cfg)
    result.check()  # partition + acyclicity
    before = {g for n in graph.nodes.values() for g in n.gates}
    after = {g for n in result.nodes.values() for g in n.gates}
    assert before == after


@settings(max_examples=15, deadline=None)
@given(
    spec=st.builds(
        CircuitSpec,
        name=st.sampled_from(["ra", "rb", "rc"]),
        n_gates=st.integers(min_value=10, max_value=90),
        ff_fraction=st.floats(min_value=0.0, max_value=0.3),
    ),
    divisor=st.floats(min_value=1.5, max_value=20.0),
)
def test_replacement_schedule_covers_everything(spec, divisor):
    netlist = generate_circuit(spec)
    graph = build_task_graph(netlist)
    plan = insert_nvm(graph, graph.total_energy_j / divisor)
    scheduled = [nid for p in plan.schedule() for nid in p.node_ids]
    assert sorted(scheduled) == sorted(graph.nodes)
    assert all(p.commit_bits >= 3 for p in plan.schedule())
    total = sum(p.energy_j for p in plan.schedule())
    assert total <= graph.total_energy_j * (1 + 1e-9)


# ---------------------------------------------------------------------------
# Derived task graphs against the from-scratch oracle.
# ---------------------------------------------------------------------------


def _graph_state(graph):
    """Node ids in dict order, gates, every feature field, barrier
    fields and the topological order."""
    return (
        [
            (nid, n.gates, dict(vars(n.feature)), n.nvm_barrier, n.barrier_bits)
            for nid, n in graph.nodes.items()
        ],
        [n.node_id for n in graph.topological_nodes()],
    )


def _pipeline_state(netlist, granularity, policy, split_fraction, divisor):
    graph = build_task_graph(netlist, granularity=granularity)
    cfg = config_for_graph(
        graph, split_fraction=split_fraction, merge_fraction=split_fraction / 2
    )
    shaped = apply_policy(graph, policy, cfg)
    plan = insert_nvm(shaped, shaped.total_energy_j / divisor)
    return (
        _graph_state(graph),
        _graph_state(shaped),
        _graph_state(plan.graph),
        plan.barriers,
        plan.infeasible,
        [dataclasses.astuple(p) for p in plan.schedule()],
    )


@settings(max_examples=30, deadline=None)
@given(
    spec=st.builds(
        CircuitSpec,
        name=st.sampled_from(["da", "db", "dc"]),
        n_gates=st.integers(min_value=1, max_value=120),
        ff_fraction=st.floats(min_value=0.0, max_value=0.4),
        style=st.sampled_from(["logic", "pld", "datapath", "fsm"]),
    ),
    granularity=st.sampled_from(["gate", "level"]),
    policy=st.sampled_from([1, 2, 3]),
    split_fraction=st.floats(min_value=0.5, max_value=6.0),
    divisor=st.floats(min_value=1.0, max_value=20.0),
)
def test_derived_graphs_match_from_scratch(
    spec, granularity, policy, split_fraction, divisor
):
    """Derived child graphs (carried features, contracted edges, min-tree
    first-fit) equal graphs rebuilt from scratch, through insert_nvm."""
    netlist = generate_circuit(spec)
    args = (netlist, granularity, policy, split_fraction, divisor)
    derived = _outcome(_pipeline_state, *args)
    with graph_caches_disabled():
        oracle = _outcome(_pipeline_state, *args)
    assert derived == oracle


def _outcome(fn, *args):
    """``fn``'s result, or the type and message of what it raised: a
    path that fails must fail the same way on both sides."""
    try:
        return fn(*args)
    except Exception as error:  # noqa: BLE001 - compared, not swallowed
        return (type(error), str(error))


#: Sizes on a 1/8 grid, so ties are common and totals land exactly on cap.
_eighths = st.integers(min_value=1, max_value=16).map(lambda k: k / 8)


@settings(max_examples=200, deadline=None)
@given(
    sizes=st.lists(
        st.one_of(_eighths, st.floats(min_value=1e-6, max_value=2.0)),
        max_size=80,
    ),
    cap=st.one_of(
        st.sampled_from([0.5, 1.0, 1.5]),
        st.floats(min_value=1e-3, max_value=3.0),
    ),
    descending=st.booleans(),
)
def test_min_tree_first_fit_matches_linear_scan(sizes, cap, descending):
    if descending:
        sizes = sorted(sizes, reverse=True)
    assert first_fit(sizes, cap) == first_fit_linear(sizes, cap)


def test_first_fit_fills_bins_exactly_to_cap():
    sizes = [0.5, 0.5, 0.25, 0.75, 0.25, 1.0, 0.125, 0.875]
    assert first_fit(sizes, 1.0) == [[0, 1], [2, 3], [4, 6], [5], [7]]
    assert first_fit(sizes, 1.0) == first_fit_linear(sizes, 1.0)


# ---------------------------------------------------------------------------
# DSE: Pareto fast path and threshold-knob composition.
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(
    points=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=6),
        ),
        max_size=40,
    )
)
def test_pareto_front_2d_matches_bruteforce(points):
    """The O(n log n) two-objective sweep == the generic O(n²) filter.

    Small integer coordinates force heavy ties and exact duplicates —
    the cases where a sort-based sweep is easiest to get wrong.
    """
    from repro.dse import pareto_front

    objectives = [lambda p: p[0], lambda p: p[1]]
    fast = pareto_front(points, objectives)

    def dominates(a, b):
        return (
            a[0] <= b[0]
            and a[1] <= b[1]
            and (a[0] < b[0] or a[1] < b[1])
        )

    brute = [
        p
        for i, p in enumerate(points)
        if not any(
            dominates(points[j], p) for j in range(len(points)) if j != i
        )
    ]
    assert fast == brute  # same members, same (original) order


@settings(max_examples=80, deadline=None)
@given(
    points=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        max_size=20,
    )
)
def test_hypervolume_monotone_in_the_point_set(points):
    """Adding points never shrinks the dominated area."""
    from repro.dse import hypervolume_2d

    reference = (1.5, 1.5)
    for cut in range(len(points) + 1):
        partial = hypervolume_2d(points[:cut], reference)
        full = hypervolume_2d(points, reference)
        assert partial <= full + 1e-12


def test_hypervolume_single_point_rectangle():
    from repro.dse import hypervolume_2d

    assert hypervolume_2d([(1.0, 2.0)], (3.0, 5.0)) == pytest.approx(6.0)
    assert hypervolume_2d([], (3.0, 5.0)) == 0.0
    # Points at or past the reference contribute nothing.
    assert hypervolume_2d([(3.0, 1.0), (1.0, 5.0)], (3.0, 5.0)) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    e_max=st.floats(min_value=1e-9, max_value=1.0),
    factor=st.floats(min_value=0.2, max_value=3.0),
    margin_scale=st.floats(min_value=0.05, max_value=5.0),
)
def test_threshold_scale_and_safe_margin_commute(e_max, factor, margin_scale):
    """The two DSE threshold knobs compose commutatively.

    ``safe_margin_scale`` widens the zone relative to the derived
    default margin of the set it is applied to, and ``scaled``
    multiplies every threshold uniformly; both are linear in energy, so
    margin-then-scale (what ``evaluate_point`` does) equals
    scale-then-margin up to float rounding — the margin is *not*
    double-scaled: it ends at ``margin_scale x default x factor`` on
    both routes.
    """
    base = ThresholdSet.from_e_max(e_max)
    margin = margin_scale * base.safe_zone_margin_j
    assume(margin <= base.max_safe_margin_j())

    margin_then_scale = base.with_safe_margin(margin).scaled(factor)
    scaled = base.scaled(factor)
    scale_then_margin = scaled.with_safe_margin(
        margin_scale * scaled.safe_zone_margin_j
    )
    for name in (
        "off_j", "backup_j", "safe_j", "sense_j", "compute_j",
        "transmit_j", "e_max_j",
    ):
        a = getattr(margin_then_scale, name)
        b = getattr(scale_then_margin, name)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-30)
    assert margin_then_scale.safe_zone_margin_j == pytest.approx(
        margin_scale * base.safe_zone_margin_j * factor, rel=1e-9
    )
