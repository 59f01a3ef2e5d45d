"""Property tests for dirty-region timing propagation.

The dirty-region contract is stricter than the stage cache's: an incremental
``evaluate()`` that re-propagates only the dirty frontier must be
**bit-identical** to a cold evaluation of the same tree by a fresh evaluator
-- every latency, slew and tap-slew float, and the ``summary()`` dict, with
no tolerance at all.  The hypothesis suite drives arbitrary journaled
mutation sequences through the evaluator to pin that down; the stats tests
pin the partial/full propagation attribution counters the benchmarks rely
on.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ClockNetworkEvaluator, EvaluatorConfig
from tests.analysis.test_incremental import buffered_zst_tree, random_mutation


def assert_reports_bit_identical(actual, expected):
    """Exact float equality of two evaluation reports (no tolerance)."""
    assert set(actual.corners) == set(expected.corners)
    for name in expected.corners:
        got, want = actual.corners[name], expected.corners[name]
        assert got.latency == want.latency
        assert got.slew == want.slew
        assert got.tap_slew == want.tap_slew
    assert actual.summary() == expected.summary()


def check_sequence(engine, steps, seed, use_cache=True):
    """Apply ``steps`` seeded mutations; assert incremental == cold each time."""
    tree = buffered_zst_tree()
    evaluator = ClockNetworkEvaluator(EvaluatorConfig(engine=engine))
    evaluator.evaluate(tree, incremental=use_cache)
    rng = random.Random(seed)
    for step in range(steps):
        description = random_mutation(tree, rng)
        incremental = evaluator.evaluate(tree, incremental=use_cache)
        cold = ClockNetworkEvaluator(EvaluatorConfig(engine=engine)).evaluate(
            tree, incremental=False
        )
        try:
            assert_reports_bit_identical(incremental, cold)
        except AssertionError as err:  # pragma: no cover - diagnostics
            raise AssertionError(f"step {step}: {description}: {err}") from err


class TestMutationSequencesBitIdentical:
    @settings(max_examples=12, deadline=None)
    @given(steps=st.integers(min_value=1, max_value=6), seed=st.integers(0, 2**16))
    def test_arnoldi(self, steps, seed):
        check_sequence("arnoldi", steps, seed)

    @settings(max_examples=12, deadline=None)
    @given(steps=st.integers(min_value=1, max_value=6), seed=st.integers(0, 2**16))
    def test_elmore(self, steps, seed):
        check_sequence("elmore", steps, seed)

    @settings(max_examples=4, deadline=None)
    @given(steps=st.integers(min_value=1, max_value=3), seed=st.integers(0, 2**16))
    def test_spice(self, steps, seed):
        check_sequence("spice", steps, seed)

    @settings(max_examples=6, deadline=None)
    @given(steps=st.integers(min_value=1, max_value=4), seed=st.integers(0, 2**16))
    def test_cache_bypassed(self, steps, seed):
        check_sequence("arnoldi", steps, seed, use_cache=False)


class TestDirtyRegionStats:
    def warm_evaluator(self):
        tree = buffered_zst_tree()
        evaluator = ClockNetworkEvaluator(EvaluatorConfig(engine="arnoldi"))
        evaluator.evaluate(tree)
        return tree, evaluator

    def test_first_evaluation_is_full(self):
        _, evaluator = self.warm_evaluator()
        stats = evaluator.cache_stats()
        assert stats["propagations_full"] == 1
        assert stats["propagations_partial"] == 0
        assert stats["stages_propagated"] == stats["stages_total"]

    def test_localized_edit_propagates_a_strict_subset(self):
        tree, evaluator = self.warm_evaluator()
        total = evaluator.cache_stats()["stages_total"]
        sink = tree.sinks()[0].node_id
        tree.add_snake(sink, 25.0)
        evaluator.evaluate(tree)
        stats = evaluator.cache_stats()
        assert stats["propagations_partial"] == 1
        # Only the touched stage (a leaf of the stage DAG) was re-propagated.
        assert stats["stages_propagated"] - total == 1

    def test_unchanged_tree_propagates_nothing(self):
        tree, evaluator = self.warm_evaluator()
        propagated = evaluator.cache_stats()["stages_propagated"]
        evaluator.evaluate(tree)
        stats = evaluator.cache_stats()
        assert stats["propagations_partial"] == 1
        assert stats["stages_propagated"] == propagated

    def test_structure_change_falls_back_to_full_propagation(self):
        tree, evaluator = self.warm_evaluator()
        edge = next(n.node_id for n in tree.nodes() if n.parent is not None)
        tree.split_edge(edge, 0.5)
        evaluator.evaluate(tree)
        assert evaluator.cache_stats()["propagations_full"] == 2

    def test_dirty_region_touches_downstream_of_touched_driver(self):
        # Scaling a buffer dirties its own stage; every stage downstream of
        # it must be re-propagated too (arrival/slew changes cascade), while
        # unrelated stages stay retained.
        tree, evaluator = self.warm_evaluator()
        total = evaluator.cache_stats()["stages_total"]
        victim = tree.buffers()[0].node_id
        tree.place_buffer(victim, tree.node(victim).buffer.scaled(1.3))
        evaluator.evaluate(tree)
        stats = evaluator.cache_stats()
        delta = stats["stages_propagated"] - total
        assert stats["propagations_partial"] == 1
        # The frontier spans the buffer's own stage, the parent stage whose
        # load changed, and everything downstream -- up to the whole tree
        # when the buffer sits on the trunk.
        assert 1 <= delta <= total

    def test_clear_cache_forgets_the_snapshot(self):
        # A cold evaluation neither reads nor writes the revision snapshot.
        tree, evaluator = self.warm_evaluator()
        evaluator.evaluate(tree, incremental=False)
        assert evaluator.cache_stats()["propagations_full"] == 2

    def test_flow_surfaces_dirty_region_counters(self):
        from repro.core import ContangoFlow, FlowConfig
        from repro.testing import make_small_instance

        result = ContangoFlow(FlowConfig(engine="arnoldi")).run(make_small_instance())
        stats = result.evaluator_cache
        assert stats["propagations_partial"] > 0
        assert stats["stages_propagated"] < stats["stages_total"]
