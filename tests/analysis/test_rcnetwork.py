"""Tests for stage extraction and RC-network construction."""

import pytest

from repro.analysis.corners import Corner
from repro.analysis.rcnetwork import build_stage_network, extract_stages
from repro.cts import ClockTree, Sink, ispd09_buffer_library, ispd09_wire_library
from repro.geometry import Point

WIRES = ispd09_wire_library()
BUFS = ispd09_buffer_library()


def buffered_chain_tree():
    """source -- 500um -- [8X INV_S] -- 500um -- sink(30fF), plus a direct sink."""
    tree = ClockTree(Point(0, 0), source_resistance=100.0, default_wire=WIRES.widest)
    mid = tree.add_internal(tree.root_id, Point(500, 0))
    tree.place_buffer(mid, BUFS.by_name("INV_S").parallel(8))
    tree.add_sink(mid, Point(1000, 0), Sink("far", 30.0))
    tree.add_sink(tree.root_id, Point(0, 200), Sink("near", 10.0))
    return tree, mid


class TestStageExtraction:
    def test_stage_count_is_buffers_plus_one(self):
        tree, _ = buffered_chain_tree()
        stages = extract_stages(tree)
        assert len(stages) == 2

    def test_source_stage_comes_first(self):
        tree, mid = buffered_chain_tree()
        stages = extract_stages(tree)
        assert stages[0].driver_id == tree.root_id
        assert tree.node(stages[0].driver_id).buffer is None
        assert stages[1].driver_id == mid

    def test_source_stage_taps_are_buffer_input_and_near_sink(self):
        tree, mid = buffered_chain_tree()
        stage = extract_stages(tree)[0]
        near_sink = [n.node_id for n in tree.sinks() if n.sink.name == "near"][0]
        assert set(stage.taps) == {mid, near_sink}

    def test_driver_ordering_parent_before_child(self):
        tree, _ = buffered_chain_tree()
        stages = extract_stages(tree)
        seen = set()
        for stage in stages:
            if tree.node(stage.driver_id).buffer is not None:
                # The driving stage must already have been emitted.
                assert any(stage.driver_id in s.taps for s in stages if id(s) != id(stage))
            seen.add(stage.driver_id)

    def test_every_edge_assigned_to_exactly_one_stage(self):
        tree, _ = buffered_chain_tree()
        stages = extract_stages(tree)
        edges = [e for stage in stages for e in stage.edges]
        expected = [n.node_id for n in tree.nodes() if n.parent is not None]
        assert sorted(edges) == sorted(expected)


class TestStageNetwork:
    def test_total_capacitance_accounts_for_wire_and_loads(self):
        tree, mid = buffered_chain_tree()
        stage = extract_stages(tree)[0]
        network = build_stage_network(tree, stage)
        wire_cap = WIRES.widest.capacitance(500.0) + WIRES.widest.capacitance(200.0)
        loads = BUFS.by_name("INV_S").parallel(8).input_cap + 10.0
        assert network.total_capacitance == pytest.approx(wire_cap + loads, rel=1e-6)

    def test_driver_output_cap_added_for_buffer_stages(self):
        tree, mid = buffered_chain_tree()
        stage = extract_stages(tree)[1]
        network = build_stage_network(tree, stage)
        buffer = BUFS.by_name("INV_S").parallel(8)
        wire_cap = WIRES.widest.capacitance(500.0)
        assert network.total_capacitance == pytest.approx(wire_cap + buffer.output_cap + 30.0, rel=1e-6)

    def test_taps_are_indexed(self):
        tree, mid = buffered_chain_tree()
        stage = extract_stages(tree)[0]
        network = build_stage_network(tree, stage)
        assert set(stage.taps) == set(network.tap_index)

    def test_long_edges_are_segmented(self):
        tree, _ = buffered_chain_tree()
        stage = extract_stages(tree)[0]
        coarse = build_stage_network(tree, stage, max_segment_length=1000.0)
        fine = build_stage_network(tree, stage, max_segment_length=50.0)
        assert fine.size > coarse.size
        assert fine.total_capacitance == pytest.approx(coarse.total_capacitance, rel=1e-9)

    def test_corner_scales_driver_resistance(self):
        tree, _ = buffered_chain_tree()
        stage = extract_stages(tree)[0]
        nominal = build_stage_network(tree, stage)
        slow = build_stage_network(tree, stage, corner=Corner("slow", 1.0, driver_scale=1.5))
        assert slow.driver_resistance == pytest.approx(1.5 * nominal.driver_resistance)

    def test_rise_fall_asymmetry(self):
        tree, _ = buffered_chain_tree()
        stage = extract_stages(tree)[0]
        rise = build_stage_network(tree, stage, rise=True)
        fall = build_stage_network(tree, stage, rise=False)
        assert rise.driver_resistance > fall.driver_resistance

    def test_downstream_capacitance_root_equals_total(self):
        tree, _ = buffered_chain_tree()
        stage = extract_stages(tree)[0]
        network = build_stage_network(tree, stage)
        downstream = network.downstream_capacitance()
        assert downstream[0] == pytest.approx(network.total_capacitance, rel=1e-9)

    def test_children_lists_consistent_with_parents(self):
        tree, _ = buffered_chain_tree()
        network = build_stage_network(tree, extract_stages(tree)[0])
        children = network.children_lists()
        for child, parent in enumerate(network.parent):
            if parent >= 0:
                assert child in children[parent]
