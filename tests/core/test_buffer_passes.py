"""Tests for trunk buffer sliding/interleaving and iterative buffer sizing."""

import pytest

from repro.analysis import ClockNetworkEvaluator, EvaluatorConfig
from repro.buffering.fast_buffering import insert_buffers_with_sizing
from repro.core.buffer_sizing import (
    bottom_level_buffers,
    buffer_depths,
    iterative_buffer_sizing,
)
from repro.core.buffer_sliding import (
    find_trunk_chain,
    slide_and_interleave_trunk,
    trunk_buffer_nodes,
)
from repro.core.polarity import correct_sink_polarity, count_inverted_sinks
from repro.cts import ispd09_buffer_library

from repro.testing import make_manual_tree, make_zst_tree

BUFS = ispd09_buffer_library()


def buffered_tree(sink_count=28, seed=31):
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


def fresh_evaluator(cap_limit=1e9):
    return ClockNetworkEvaluator(EvaluatorConfig(engine="arnoldi"), capacitance_limit=cap_limit)


class TestTrunkChain:
    def test_chain_starts_at_root(self):
        tree = buffered_tree()
        chain = find_trunk_chain(tree)
        assert chain[0] == tree.root_id
        assert len(chain) >= 2

    def test_chain_is_single_child_path(self):
        tree = buffered_tree()
        chain = find_trunk_chain(tree)
        for node_id in chain[:-1]:
            assert len(tree.node(node_id).children) == 1

    def test_trunk_buffer_nodes_subset_of_chain(self):
        tree = buffered_tree()
        chain = set(find_trunk_chain(tree))
        assert set(trunk_buffer_nodes(tree)) <= chain


class TestSlidingAndInterleaving:
    def test_polarity_preserved(self):
        tree = buffered_tree()
        assert count_inverted_sinks(tree) == 0
        slide_and_interleave_trunk(tree, fresh_evaluator())
        assert count_inverted_sinks(tree) == 0
        tree.validate()

    def test_objective_never_degrades(self):
        tree = buffered_tree()
        evaluator = fresh_evaluator()
        before = evaluator.evaluate(tree).clr
        slide_and_interleave_trunk(tree, evaluator)
        after = evaluator.evaluate(tree).clr
        assert after <= before + 1e-6

    def test_rejected_change_is_rolled_back(self):
        tree = buffered_tree()
        evaluator = fresh_evaluator()
        snapshot = tree.clone()
        result = slide_and_interleave_trunk(tree, evaluator)
        if not result.improved:
            assert tree.buffer_count() == snapshot.buffer_count()
            assert tree.total_wirelength() == pytest.approx(snapshot.total_wirelength())

    def test_degenerate_tree_without_trunk(self):
        tree = make_manual_tree()
        # The manual tree's root has two children, so there is no trunk chain.
        result = slide_and_interleave_trunk(tree, fresh_evaluator())
        assert result.rounds <= 1


class TestBufferDepthHelpers:
    def test_buffer_depths_start_at_one(self):
        tree = buffered_tree()
        depths = buffer_depths(tree)
        assert depths
        assert min(depths.values()) == 1

    def test_bottom_level_buffers_have_no_buffered_descendants(self):
        tree = buffered_tree()
        bottom = set(bottom_level_buffers(tree))
        assert bottom
        for node_id in bottom:
            below = tree.subtree_node_ids(node_id)
            assert not any(tree.node(b).has_buffer for b in below if b != node_id)


class TestIterativeBufferSizing:
    def test_objective_never_degrades(self):
        tree = buffered_tree()
        evaluator = fresh_evaluator()
        before = evaluator.evaluate(tree).clr
        iterative_buffer_sizing(tree, evaluator, capacitance_limit=1e9)
        after = evaluator.evaluate(tree).clr
        assert after <= before + 1e-6

    def test_capacitance_limit_respected(self):
        tree = buffered_tree()
        evaluator_probe = fresh_evaluator()
        cap_now = evaluator_probe.evaluate(tree).total_capacitance
        limit = cap_now * 1.02
        evaluator = fresh_evaluator(cap_limit=limit)
        iterative_buffer_sizing(tree, evaluator, capacitance_limit=limit)
        assert tree.total_capacitance() <= limit + 1e-6

    def test_accepted_iterations_grow_trunk_buffers(self):
        tree = buffered_tree()
        trunk_before = {
            node_id: tree.node(node_id).buffer.input_cap for node_id in trunk_buffer_nodes(tree)
        }
        result = iterative_buffer_sizing(tree, fresh_evaluator(), capacitance_limit=1e9)
        if result.improved:
            trunk_after = {
                node_id: tree.node(node_id).buffer.input_cap
                for node_id in trunk_buffer_nodes(tree)
            }
            assert any(trunk_after[n] > trunk_before[n] for n in trunk_before if n in trunk_after)

    def test_unbuffered_tree_is_a_noop(self):
        tree = make_zst_tree(sink_count=8)
        result = iterative_buffer_sizing(tree, fresh_evaluator(), capacitance_limit=1e9)
        assert not result.improved
        assert result.rounds == 0

    def test_no_slew_violation_introduced(self):
        tree = buffered_tree()
        evaluator = fresh_evaluator()
        iterative_buffer_sizing(tree, evaluator, capacitance_limit=1e9)
        assert not evaluator.evaluate(tree).has_slew_violation
