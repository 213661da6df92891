"""ABL-POLICY — the efficiency/resiliency trade-off of Policies 1-3.

Paper Fig. 2 discussion: Policy 1 "provides the best resiliency at the
cost of performance overhead"; Policy 2 "provides best performance at the
cost of lower resiliency"; Policy 3 sits between and is what Section IV
uses.  With gate-granularity trees the policies converge on small
circuits, so the sweep uses coarse level-granularity trees where the
split/merge decisions matter.
"""

from __future__ import annotations

import pytest

from repro.core import DiacConfig, DiacSynthesizer
from repro.dse import SweepEngine, SweepRequest, SweepSpec, pareto_front
from repro.evaluation import evaluate_design
from repro.metrics import format_table
from repro.suite import load_circuit

CIRCUITS = ("s298", "b11")


@pytest.fixture(scope="module")
def policy_sweep():
    records = {}
    for name in CIRCUITS:
        netlist = load_circuit(name)
        per_policy = {}
        for policy in (1, 2, 3):
            config = DiacConfig(policy=policy, granularity="level")
            design = DiacSynthesizer(config).run(netlist)
            evaluation = evaluate_design(design)
            result = evaluation.results["Optimized DIAC"]
            per_policy[policy] = {
                "nodes": len(design.graph),
                "pdp": result.pdp_js,
                "reexec": result.reexec_energy_j,
                "window": design.plan.summary()["mean_partition_energy_j"],
            }
        records[name] = per_policy
    return records


def test_policy_tradeoff_table(benchmark, policy_sweep):
    records = benchmark.pedantic(lambda: policy_sweep, rounds=1, iterations=1)
    rows = []
    for circuit, per_policy in records.items():
        for policy, stats in per_policy.items():
            rows.append(
                [circuit, f"Policy{policy}", stats["nodes"],
                 f"{stats['pdp']:.3e}", f"{stats['reexec']:.3e}"]
            )
    print()
    print(
        format_table(
            ["circuit", "policy", "nodes", "pdp (Js)", "reexec (J)"],
            rows,
            title="Policy ablation: efficiency vs resiliency",
        )
    )


def test_policy1_finest_granularity(policy_sweep):
    """Policy 1 (split) yields the most atomic tasks -> best resiliency."""
    for circuit, per_policy in policy_sweep.items():
        assert per_policy[1]["nodes"] >= per_policy[3]["nodes"], circuit
        assert per_policy[3]["nodes"] >= per_policy[2]["nodes"], circuit


def test_policy3_on_pareto_front(policy_sweep):
    """Policy 3 is never dominated on (PDP, re-execution exposure)."""
    for circuit, per_policy in policy_sweep.items():
        points = [(p, s["pdp"], s["reexec"]) for p, s in per_policy.items()]
        front = pareto_front(
            points, objectives=[lambda x: x[1], lambda x: x[2]]
        )
        assert any(p == 3 for p, _pdp, _re in front), circuit


def test_explorer_full_factorial(benchmark):
    request = SweepRequest(
        spec=SweepSpec(
            circuits=("s27",),
            policies=(1, 2, 3),
            budget_scales=(1.0,),
            safe_zones=(True,),
        )
    )
    result = benchmark.pedantic(
        lambda: SweepEngine().submit(request),
        rounds=1,
        iterations=1,
    )
    records = result.records
    assert len(records) == 3
    best = result.best()
    assert best.pdp_js == min(r.pdp_js for r in records)
