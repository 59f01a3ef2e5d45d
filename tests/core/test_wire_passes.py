"""Tests for the SPICE-driven wire optimization passes (TWSZ, TWSN, BWSN)."""

import pytest

from repro.analysis import ClockNetworkEvaluator, EvaluatorConfig
from repro.buffering.fast_buffering import insert_buffers_with_sizing
from repro.core.bottom_level import bottom_level_fine_tuning, rise_fall_divergence
from repro.core.polarity import correct_sink_polarity
from repro.core.wiresizing import top_down_wiresizing
from repro.core.wiresnaking import top_down_wiresnaking
from repro.cts import ispd09_buffer_library, ispd09_wire_library

from repro.testing import make_zst_tree

WIRES = ispd09_wire_library()
NARROW = WIRES.narrower(WIRES.widest)
BUFS = ispd09_buffer_library()


def buffered_tree(sink_count=28, seed=13):
    tree = make_zst_tree(sink_count=sink_count, seed=seed)
    sweep = insert_buffers_with_sizing(
        tree,
        [BUFS.by_name("INV_S").parallel(8), BUFS.by_name("INV_S").parallel(16)],
        capacitance_limit=1e9,
    )
    buffered = sweep.tree
    correct_sink_polarity(
        buffered, BUFS.by_name("INV_S"),
        stronger_inverters=[BUFS.by_name("INV_S").parallel(k) for k in (2, 4, 8)],
    )
    return buffered


def fresh_evaluator():
    return ClockNetworkEvaluator(EvaluatorConfig(engine="arnoldi"), capacitance_limit=1e9)


class TestTopDownWiresizing:
    def test_skew_never_gets_worse(self):
        tree = buffered_tree()
        evaluator = fresh_evaluator()
        before = evaluator.evaluate(tree)
        result = top_down_wiresizing(tree, evaluator, WIRES, baseline=before)
        after = evaluator.evaluate(tree)
        assert after.skew <= before.skew + 1e-6
        assert result.final["skew_ps"] <= result.initial["skew_ps"] + 1e-6

    def test_no_slew_violation_introduced(self):
        tree = buffered_tree()
        evaluator = fresh_evaluator()
        top_down_wiresizing(tree, evaluator, WIRES)
        assert not evaluator.evaluate(tree).has_slew_violation

    def test_improvement_comes_from_downsized_edges(self):
        tree = buffered_tree()
        evaluator = fresh_evaluator()
        result = top_down_wiresizing(tree, evaluator, WIRES)
        narrow_edges = sum(
            1 for n in tree.nodes() if n.parent is not None and n.wire_type == NARROW
        )
        if result.improved:
            assert narrow_edges >= 1
            assert result.edges_changed >= 1

    def test_tree_remains_valid(self):
        tree = buffered_tree()
        top_down_wiresizing(tree, fresh_evaluator(), WIRES)
        tree.validate()

    def test_evaluations_are_counted(self):
        tree = buffered_tree()
        evaluator = fresh_evaluator()
        result = top_down_wiresizing(tree, evaluator, WIRES)
        assert result.evaluations_used == evaluator.run_count

    def test_nothing_to_do_when_all_edges_narrow(self):
        tree = buffered_tree()
        for node in tree.nodes():
            if node.parent is not None:
                tree.set_wire_type(node.node_id, NARROW)
        result = top_down_wiresizing(tree, fresh_evaluator(), WIRES)
        assert not result.improved


class TestTopDownWiresnaking:
    def test_skew_never_gets_worse(self):
        tree = buffered_tree(seed=17)
        evaluator = fresh_evaluator()
        before = evaluator.evaluate(tree)
        top_down_wiresnaking(tree, evaluator, baseline=before)
        after = evaluator.evaluate(tree)
        assert after.skew <= before.skew + 1e-6

    def test_snaking_adds_wirelength_when_it_improves(self):
        tree = buffered_tree(seed=17)
        before_wl = tree.total_wirelength()
        result = top_down_wiresnaking(tree, fresh_evaluator(), unit_length=20.0)
        if result.improved:
            assert tree.total_wirelength() > before_wl

    def test_trunk_is_never_snaked(self):
        tree = buffered_tree(seed=17)
        top_down_wiresnaking(tree, fresh_evaluator())
        trunk_child = tree.root.children[0]
        assert tree.node(trunk_child).snake_length == 0.0

    def test_invalid_unit_length(self):
        tree = buffered_tree(seed=17)
        with pytest.raises(ValueError):
            top_down_wiresnaking(tree, fresh_evaluator(), unit_length=-1.0)

    def test_no_slew_violation_introduced(self):
        tree = buffered_tree(seed=17)
        evaluator = fresh_evaluator()
        top_down_wiresnaking(tree, evaluator)
        assert not evaluator.evaluate(tree).has_slew_violation


class TestBottomLevelFineTuning:
    def test_skew_never_gets_worse(self):
        tree = buffered_tree(seed=23)
        evaluator = fresh_evaluator()
        before = evaluator.evaluate(tree)
        bottom_level_fine_tuning(tree, evaluator, WIRES, baseline=before)
        after = evaluator.evaluate(tree)
        assert after.skew <= before.skew + 1e-6

    def test_only_sink_edges_are_touched(self):
        tree = buffered_tree(seed=23)
        internal_snapshot = {
            n.node_id: (n.snake_length, n.wire_type)
            for n in tree.nodes()
            if n.parent is not None and not n.is_sink
        }
        bottom_level_fine_tuning(tree, fresh_evaluator(), WIRES)
        for node_id, (snake, wire) in internal_snapshot.items():
            node = tree.node(node_id)
            assert node.snake_length == snake
            assert node.wire_type == wire

    def test_tree_valid_after_tuning(self):
        tree = buffered_tree(seed=23)
        bottom_level_fine_tuning(tree, fresh_evaluator(), WIRES)
        tree.validate()

    def test_rise_fall_divergence_flag(self):
        tree = buffered_tree(seed=23)
        evaluator = fresh_evaluator()
        report = evaluator.evaluate(tree)
        assert isinstance(rise_fall_divergence(report), bool)
