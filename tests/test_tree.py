"""Tests for feature dictionaries, the task graph, and the tree generator."""

from __future__ import annotations

import pytest

from repro.core import FeatureDict, TaskGraph, TaskNode, TreeError, build_task_graph
from repro.tech import synthesize


class TestFeatureDict:
    def test_power_from_energy_and_delay(self):
        f = FeatureDict(energy_j=4.0, delay_s=2.0)
        assert f.power_w == pytest.approx(2.0)

    def test_power_zero_delay(self):
        assert FeatureDict(energy_j=1.0, delay_s=0.0).power_w == 0.0

    def test_write_reduction_factor(self):
        f = FeatureDict(fan_in=3, fan_out=2)
        assert f.write_reduction_factor == pytest.approx(1.0 / 5.0)
        assert FeatureDict().write_reduction_factor == 1.0

    def test_as_dict_has_paper_fields(self):
        d = FeatureDict(fan_in=2, fan_out=1, level=3, energy_j=1e-12).as_dict()
        for key in ("fan_in", "fan_out", "level", "power"):
            assert key in d


class TestTaskGraphInvariants:
    def test_gate_granularity_partition(self, s27):
        graph = build_task_graph(s27)
        graph.check()
        assert len(graph) == s27.num_gates

    def test_duplicate_gate_ownership_rejected(self, s27):
        report = synthesize(s27)
        nodes = [
            TaskNode("n1", ("G14", "G8")),
            TaskNode("n2", ("G8", "G15")),
        ]
        with pytest.raises(TreeError, match="owned by both"):
            TaskGraph(s27, report, nodes)

    def test_missing_gate_detected(self, s27):
        report = synthesize(s27)
        nodes = [TaskNode("n1", ("G14",))]
        graph = TaskGraph(s27, report, nodes)
        with pytest.raises(TreeError, match="not covered"):
            graph.check()

    def test_empty_node_rejected(self):
        with pytest.raises(TreeError, match="no gates"):
            TaskNode("empty", ())

    def test_duplicate_node_id_rejected(self, s27):
        report = synthesize(s27)
        nodes = [TaskNode("n", ("G14",)), TaskNode("n", ("G8",))]
        with pytest.raises(TreeError, match="duplicate node id"):
            TaskGraph(s27, report, nodes)


class TestLevelsAndFeatures:
    def test_levels_start_at_one(self, s27):
        graph = build_task_graph(s27)
        assert min(n.feature.level for n in graph.nodes.values()) == 1

    def test_edges_increase_levels(self, small_logic):
        graph = build_task_graph(small_logic)
        for nid, succs in graph.edges.items():
            for succ in succs:
                assert (
                    graph.nodes[succ].feature.level
                    > graph.nodes[nid].feature.level
                )

    def test_features_populated(self, s27):
        graph = build_task_graph(s27)
        for node in graph.nodes.values():
            assert node.feature.energy_j > 0
            assert node.feature.delay_s > 0
            assert node.feature.n_gates == 1

    def test_fanin_fanout_of_known_gate(self, s27):
        graph = build_task_graph(s27)
        # G11 = NOR(G5, G9): G5 is a FF (external), G9 is a node.
        node = graph.nodes["G11"]
        assert node.feature.fan_in == 2
        # G11 feeds G17, G10 and the DFF G6.
        assert node.feature.fan_out == 1  # its single output net

    def test_output_nets_final_gate(self, s27):
        graph = build_task_graph(s27)
        assert graph.output_nets(graph.nodes["G17"]) == {"G17"}

    def test_total_energy_positive(self, small_fsm):
        graph = build_task_graph(small_fsm)
        assert graph.total_energy_j > 0

    def test_clone_independent(self, s27):
        graph = build_task_graph(s27)
        clone = graph.clone()
        clone.nodes["G17"].nvm_barrier = True
        assert not graph.nodes["G17"].nvm_barrier

    def test_level_nodes_sorted(self, small_logic):
        graph = build_task_graph(small_logic)
        for level in range(1, graph.depth + 1):
            names = [n.node_id for n in graph.level_nodes(level)]
            assert names == sorted(names)


class TestGranularities:
    def test_level_granularity_groups(self, small_logic):
        gate_graph = build_task_graph(small_logic, granularity="gate")
        level_graph = build_task_graph(small_logic, granularity="level")
        assert len(level_graph) < len(gate_graph)
        level_graph.check()

    def test_unknown_granularity(self, s27):
        with pytest.raises(ValueError, match="unknown granularity"):
            build_task_graph(s27, granularity="cone")

    def test_existing_report_reused(self, s27):
        report = synthesize(s27)
        graph = build_task_graph(s27, report=report)
        assert graph.report is report


def graph_state(graph):
    """Everything a derived graph must reproduce, in dict order."""
    return (
        [
            (
                nid,
                n.gates,
                dict(vars(n.feature)),
                n.nvm_barrier,
                n.barrier_bits,
            )
            for nid, n in graph.nodes.items()
        ],
        [n.node_id for n in graph.topological_nodes()],
    )


class TestDerivedGraphs:
    """Child graphs are derived from their parents without aliasing."""

    @pytest.mark.parametrize("granularity", ["gate", "level"])
    @pytest.mark.parametrize("policy", [1, 2, 3])
    def test_apply_policy_leaves_input_untouched(
        self, small_fsm, policy, granularity
    ):
        from repro.core import apply_policy, config_for_graph

        graph = build_task_graph(small_fsm, granularity=granularity)
        before = graph_state(graph)
        cfg = config_for_graph(graph, split_fraction=1.1, merge_fraction=1.0)
        shaped = apply_policy(graph, policy, cfg)
        assert graph_state(graph) == before
        for nid, node in shaped.nodes.items():
            if nid in graph.nodes:
                assert node is not graph.nodes[nid]
                assert node.feature is not graph.nodes[nid].feature

    def test_insert_nvm_writes_only_its_clone(self, small_fsm):
        from repro.core import apply_policy, config_for_graph, insert_nvm

        graph = build_task_graph(small_fsm)
        shaped = apply_policy(graph, 3, config_for_graph(graph))
        before = graph_state(shaped)
        plan = insert_nvm(shaped, shaped.total_energy_j / 6.0)
        assert plan.barriers
        assert graph_state(shaped) == before
        for barrier in plan.barriers:
            node = plan.graph.nodes[barrier]
            assert node.feature.accumulated_j > 0
            assert node.feature is not shaped.nodes[barrier].feature

    def test_no_cache_pins_a_netlist(self):
        import gc
        import weakref

        from repro.circuits import CircuitSpec, generate_circuit
        from repro.core import DiacSynthesizer

        netlist = generate_circuit(
            CircuitSpec(name="pinned", n_gates=80, ff_fraction=0.2)
        )
        design = DiacSynthesizer().run(netlist)
        assert design.plan.graph.netlist is netlist
        ref = weakref.ref(netlist)
        del design, netlist
        gc.collect()
        assert ref() is None

    def test_features_built_once_per_new_gate_set(self, monkeypatch):
        """s1423, policy 3: one feature build per gate set ever created,
        none in insert_nvm (its clone carries every feature)."""
        from repro.core import DiacSynthesizer, apply_policy, config_for_graph
        from repro.core import insert_nvm
        from repro.core.tree import graph_work
        from repro.suite import load_circuit

        netlist = load_circuit("s1423")
        report = synthesize(netlist)
        built: list[TaskGraph] = []
        original_init = TaskGraph.__init__

        def recording_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(TaskGraph, "__init__", recording_init)
        start = graph_work()
        graph = build_task_graph(netlist, report=report)
        shaped = apply_policy(graph, 3, config_for_graph(graph))
        shaped_work = graph_work()
        gate_sets = {n.gates for g in built for n in g.nodes.values()}
        builds = shaped_work["feature_builds"] - start["feature_builds"]
        assert builds == len(gate_sets)
        assert len(gate_sets) > len(graph)  # merges created new sets
        assert shaped_work["graphs_built"] - start["graphs_built"] == len(built)
        insert_nvm(shaped, DiacSynthesizer().derive_budget_j(netlist))
        end = graph_work()
        assert end["feature_builds"] == shaped_work["feature_builds"]
        assert end["graphs_built"] == shaped_work["graphs_built"] + 1

    def test_features_follow_gate_sets(self, s27):
        """A node whose gate tuple changed is re-costed, not trusted."""
        graph = build_task_graph(s27)
        node = graph.nodes["G11"]
        costed = node.feature
        graph.recompute_features()
        assert node.feature is costed  # same gate tuple: kept
        node.gates = tuple(list(node.gates))  # equal but new: re-costed
        graph.recompute_features()
        assert node.feature is not costed
        assert node.feature == costed
