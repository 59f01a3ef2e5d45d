"""Tests for the slow-down/speed-up slack framework (Defs 1-2, Lemmas 1-2, Prop 1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import ClockNetworkEvaluator, EvaluatorConfig
from repro.core.slack import annotate_tree_slacks, compute_sink_slacks

from repro.testing import make_manual_tree, make_zst_tree


def evaluate(tree):
    return ClockNetworkEvaluator(EvaluatorConfig(engine="arnoldi")).evaluate(tree)


class TestSinkSlacks:
    def test_slacks_are_non_negative(self, manual_tree):
        slacks = compute_sink_slacks(evaluate(manual_tree))
        assert all(v >= 0.0 for v in slacks.slow.values())
        assert all(v >= 0.0 for v in slacks.fast.values())

    def test_slowest_sink_has_zero_slow_slack(self, manual_tree):
        slacks = compute_sink_slacks(evaluate(manual_tree))
        assert min(slacks.slow.values()) == pytest.approx(0.0, abs=1e-9)

    def test_fastest_sink_has_zero_fast_slack(self, manual_tree):
        slacks = compute_sink_slacks(evaluate(manual_tree))
        assert min(slacks.fast.values()) == pytest.approx(0.0, abs=1e-9)

    def test_definition_1_slow_plus_fast_equals_spread(self, manual_tree):
        """Per transition, Slack_slow(s) + Slack_fast(s) = Tmax - Tmin."""
        report = evaluate(manual_tree)
        slacks = compute_sink_slacks(report, transitions=("rise",))
        rise = {s: v["rise"] for s, v in report.nominal.latency.items()}
        spread = max(rise.values()) - min(rise.values())
        for sink_id in rise:
            assert slacks.slow[sink_id] + slacks.fast[sink_id] == pytest.approx(spread)

    def test_multicorner_slack_is_minimum(self, manual_tree):
        report = evaluate(manual_tree)
        single = compute_sink_slacks(report, corners=[report.fast_corner])
        multi = compute_sink_slacks(report, corners=list(report.corners))
        for sink_id in single.slow:
            assert multi.slow[sink_id] <= single.slow[sink_id] + 1e-9

    def test_transition_restriction(self, manual_tree):
        report = evaluate(manual_tree)
        both = compute_sink_slacks(report)
        rise_only = compute_sink_slacks(report, transitions=("rise",))
        for sink_id in both.slow:
            assert both.slow[sink_id] <= rise_only.slow[sink_id] + 1e-9


class TestEdgeSlacks:
    def test_lemma1_edge_slack_is_min_over_downstream_sinks(self):
        tree = make_zst_tree(sink_count=20)
        report = evaluate(tree)
        annotation = annotate_tree_slacks(tree, report)
        downstream = tree.downstream_sinks_map()
        for node_id, slack in annotation.edge_slow.items():
            expected = min(annotation.sink.slow[s] for s in downstream[node_id])
            assert slack == pytest.approx(expected)

    def test_lemma2_monotonicity_down_the_tree(self):
        tree = make_zst_tree(sink_count=20)
        annotation = annotate_tree_slacks(tree, evaluate(tree))
        for node in tree.nodes():
            if node.parent is None or node.node_id not in annotation.edge_slow:
                continue
            parent_slack = annotation.edge_slow.get(node.parent)
            if parent_slack is None:
                continue
            assert annotation.edge_slow[node.node_id] >= parent_slack - 1e-9
            assert annotation.edge_fast[node.node_id] >= annotation.edge_fast[node.parent] - 1e-9

    def test_root_edge_slack_is_zero(self):
        tree = make_zst_tree(sink_count=16)
        annotation = annotate_tree_slacks(tree, evaluate(tree))
        assert annotation.edge_slow[tree.root_id] == pytest.approx(0.0, abs=1e-9)

    def test_proposition1_deltas_sum_to_sink_slack(self):
        """Applying Delta_slow(e) along any root-to-sink path retires exactly
        that sink's slow-down slack (Proposition 1)."""
        tree = make_zst_tree(sink_count=24)
        annotation = annotate_tree_slacks(tree, evaluate(tree))
        for sink in tree.sinks():
            path = [n for n in tree.path_to_root(sink.node_id) if n.parent is not None]
            total_delta = sum(annotation.delta_slow.get(n.node_id, 0.0) for n in path)
            assert total_delta == pytest.approx(annotation.sink.slow[sink.node_id], abs=1e-6)

    def test_deltas_are_non_negative(self):
        tree = make_zst_tree(sink_count=20)
        annotation = annotate_tree_slacks(tree, evaluate(tree))
        assert all(d >= -1e-9 for d in annotation.delta_slow.values())
        assert all(d >= -1e-9 for d in annotation.delta_fast.values())

    def test_normalized_slack_range(self):
        tree = make_zst_tree(sink_count=20)
        annotation = annotate_tree_slacks(tree, evaluate(tree))
        values = annotation.normalized_edge_slow().values()
        assert all(0.0 <= v <= 1.0 for v in values)
        assert max(values) == pytest.approx(1.0)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=4, max_value=30), st.integers(min_value=0, max_value=500))
def test_slack_invariants_hold_on_random_trees(count, seed):
    """Property test of Lemma 1/2 and Proposition 1 over random ZST instances."""
    tree = make_zst_tree(sink_count=count, seed=seed)
    report = ClockNetworkEvaluator(EvaluatorConfig(engine="elmore")).evaluate(tree)
    annotation = annotate_tree_slacks(tree, report)
    downstream = tree.downstream_sinks_map()
    for node_id, slack in annotation.edge_slow.items():
        assert slack == pytest.approx(
            min(annotation.sink.slow[s] for s in downstream[node_id]), abs=1e-6
        )
    for sink in tree.sinks():
        path = [n for n in tree.path_to_root(sink.node_id) if n.parent is not None]
        total = sum(annotation.delta_slow.get(n.node_id, 0.0) for n in path)
        assert total == pytest.approx(annotation.sink.slow[sink.node_id], abs=1e-6)
