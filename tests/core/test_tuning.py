"""Tests for the shared tuning machinery (objectives, slew budget, impact models)."""

import pytest

from repro.analysis import ClockNetworkEvaluator, EvaluatorConfig
from repro.core.tuning import (
    SlewBudget,
    calibrate_downsize_model,
    calibrate_snake_model,
    objective_value,
    select_independent_middle_edges,
    stage_local_downstream_capacitance,
    stage_slew_headroom,
)
from repro.cts import ispd09_wire_library

from repro.testing import make_manual_tree, make_zst_tree

WIRES = ispd09_wire_library()
NARROW = WIRES.narrower(WIRES.widest)


def evaluated(tree):
    evaluator = ClockNetworkEvaluator(EvaluatorConfig(engine="arnoldi"))
    return evaluator, evaluator.evaluate(tree)


class TestObjectives:
    def test_skew_and_clr_objectives(self, manual_tree):
        _, report = evaluated(manual_tree)
        assert objective_value(report, "skew") == pytest.approx(report.skew)
        assert objective_value(report, "clr") == pytest.approx(report.clr)

    def test_unknown_objective(self, manual_tree):
        _, report = evaluated(manual_tree)
        with pytest.raises(ValueError):
            objective_value(report, "power")


class TestSlewBudget:
    def test_unknown_edge_has_infinite_headroom(self):
        budget = SlewBudget({}, {})
        stage = budget.edge_to_stage.get(42)
        assert budget.headroom(stage) == float("inf")
        assert budget.allows(stage, 1e9)

    def test_consumption_reduces_availability(self):
        budget = SlewBudget({1: 0, 2: 0}, {0: 20.0})
        assert budget.allows(budget.edge_to_stage[1], 4.0)
        budget.consume(budget.edge_to_stage[1], 4.0)
        assert budget.headroom(budget.edge_to_stage[2]) == pytest.approx(20.0 - 2.2 * 4.0)

    def test_max_delay_scales_with_headroom(self):
        budget = SlewBudget({1: 0}, {0: 22.0})
        # 22 ps of slew headroom is 10 ps of delay at DELAY_TO_SLEW 2.2,
        # less the guard factor.
        assert budget.delay_room(budget.edge_to_stage[1]) == pytest.approx(
            10.0 / SlewBudget.GUARD
        )

    def test_edges_of_same_stage_share_budget(self):
        budget = SlewBudget({1: 0, 2: 0}, {0: 10.0})
        first, second = budget.edge_to_stage[1], budget.edge_to_stage[2]
        budget.consume(first, 3.0)
        budget.consume(second, 2.0)
        assert budget.headroom(first) == budget.headroom(second) == pytest.approx(10.0 - 2.2 * 5.0)

    def test_headroom_from_report(self, manual_tree):
        _, report = evaluated(manual_tree)
        budget = stage_slew_headroom(manual_tree, report)
        for node in manual_tree.nodes():
            if node.parent is not None:
                stage = budget.edge_to_stage.get(node.node_id)
                assert budget.headroom(stage) <= report.slew_limit


class TestStageLocalCapacitance:
    def test_buffer_isolates_downstream_stage(self, manual_tree):
        caps = stage_local_downstream_capacitance(manual_tree)
        buffered = [n for n in manual_tree.nodes() if n.has_buffer][0]
        # The buffered node's stage-local load is its own input pin plus half
        # of its parent edge -- the wires below the buffer belong to the next stage.
        assert caps[buffered.node_id] < manual_tree.total_capacitance() / 2.0

    def test_leaf_cap_is_sink_plus_half_edge(self, manual_tree):
        caps = stage_local_downstream_capacitance(manual_tree)
        sink = manual_tree.sinks()[0]
        expected = sink.sink.capacitance + 0.5 * manual_tree.edge_capacitance(sink.node_id)
        assert caps[sink.node_id] == pytest.approx(expected)


class TestIndependentEdges:
    def test_selected_edges_are_independent(self):
        tree = make_zst_tree(sink_count=30)
        chosen = select_independent_middle_edges(tree, count=5)
        assert chosen
        for i, a in enumerate(chosen):
            subtree = set(tree.subtree_node_ids(a))
            for b in chosen[i + 1:]:
                assert b not in subtree
                assert a not in set(tree.subtree_node_ids(b))

    def test_count_is_respected(self):
        tree = make_zst_tree(sink_count=40)
        assert len(select_independent_middle_edges(tree, count=3)) <= 3


class TestCalibratedModels:
    def test_downsize_model_predicts_positive_impact(self):
        tree = make_zst_tree(sink_count=24)
        evaluator, report = evaluated(tree)
        model = calibrate_downsize_model(tree, evaluator, WIRES, report)
        assert model is not None
        assert 0.25 <= model.calibration <= 3.0
        edge = tree.node(select_independent_middle_edges(tree, count=1)[0])
        wire = edge.wire_type
        load = model.stage_cap[edge.node_id]
        assert model.delay(wire, WIRES.narrower(wire), edge.edge_length(), load) > 0.0

    def test_downsize_model_none_when_nothing_downsizable(self):
        tree = make_zst_tree(sink_count=10)
        for node in tree.nodes():
            if node.parent is not None:
                tree.set_wire_type(node.node_id, NARROW)
        evaluator, report = evaluated(tree)
        assert calibrate_downsize_model(tree, evaluator, WIRES, report) is None

    def test_snake_model_roundtrip(self):
        tree = make_zst_tree(sink_count=24)
        evaluator, report = evaluated(tree)
        model = calibrate_snake_model(tree, evaluator, report, unit_length=20.0)
        assert model is not None
        edge = tree.node(select_independent_middle_edges(tree, count=1)[0])
        wire, load = edge.wire_type, model.stage_cap[edge.node_id]
        budget = 5.0
        length = model.length(wire, load, budget)
        assert model.delay(wire, load, length) == pytest.approx(budget, rel=1e-6)

    def test_snake_model_monotone_in_length(self):
        tree = make_zst_tree(sink_count=24)
        evaluator, report = evaluated(tree)
        model = calibrate_snake_model(tree, evaluator, report, unit_length=20.0)
        edge = tree.node(select_independent_middle_edges(tree, count=1)[0])
        wire, load = edge.wire_type, model.stage_cap[edge.node_id]
        assert model.delay(wire, load, 40.0) > model.delay(wire, load, 20.0)

    def test_calibration_uses_one_extra_evaluation(self):
        tree = make_zst_tree(sink_count=24)
        evaluator, report = evaluated(tree)
        runs_before = evaluator.run_count
        calibrate_snake_model(tree, evaluator, report, unit_length=20.0)
        assert evaluator.run_count == runs_before + 1

    def test_invalid_unit_length(self):
        tree = make_zst_tree(sink_count=8)
        evaluator, report = evaluated(tree)
        with pytest.raises(ValueError):
            calibrate_snake_model(tree, evaluator, report, unit_length=0.0)
