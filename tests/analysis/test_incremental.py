"""Property tests for the incremental stage cache of the evaluator.

The contract under test: *any* sequence of tree mutations followed by an
incremental evaluation produces a report identical (within float tolerance)
to a cold evaluation of the same tree by a fresh evaluator -- including the
cache-invalidation edge cases called out in the incremental-evaluation issue
(buffer removed, wire type changed, subtree re-parented) and the snapshot /
probe / rollback patterns the optimization passes rely on.
"""

import random

import pytest

from repro.analysis import ClockNetworkEvaluator, EvaluatorConfig
from repro.cts import ispd09_buffer_library, ispd09_wire_library
from repro.geometry import Point
from repro.testing import make_manual_tree, make_zst_tree

WIRES = ispd09_wire_library()
NARROW = WIRES.narrower(WIRES.widest)
BUFS = ispd09_buffer_library()


def assert_reports_match(actual, expected, rel=1e-9):
    """Structural + numerical equality of two evaluation reports."""
    assert set(actual.corners) == set(expected.corners)
    for name in expected.corners:
        got, want = actual.corners[name], expected.corners[name]
        assert set(got.latency) == set(want.latency)
        assert set(got.tap_slew) == set(want.tap_slew)
        for sink_id, per_sink in want.latency.items():
            for transition, value in per_sink.items():
                assert got.latency[sink_id][transition] == pytest.approx(value, rel=rel)
        for tap_id, per_tap in want.tap_slew.items():
            for transition, value in per_tap.items():
                assert got.tap_slew[tap_id][transition] == pytest.approx(value, rel=rel)
    assert actual.total_capacitance == pytest.approx(expected.total_capacitance, rel=rel)
    assert actual.wirelength == pytest.approx(expected.wirelength, rel=rel)


def cold_report(tree, engine):
    """Evaluate with a brand-new evaluator and the cache switched off."""
    evaluator = ClockNetworkEvaluator(EvaluatorConfig(engine=engine))
    return evaluator.evaluate(tree, incremental=False)


def buffered_zst_tree(sink_count=16, seed=3):
    """A ZST tree with a few inverters so that several stages exist."""
    tree = make_zst_tree(sink_count=sink_count, seed=seed)
    inverter = BUFS.by_name("INV_S").parallel(8)
    internals = [
        n.node_id
        for n in tree.nodes()
        if not n.is_sink and n.parent is not None and n.children
    ]
    rng = random.Random(seed)
    for node_id in rng.sample(internals, min(4, len(internals))):
        tree.place_buffer(node_id, inverter)
    return tree


def random_mutation(tree, rng):
    """Apply one random journalled mutation; returns a description string."""
    buffered = [n.node_id for n in tree.buffers()]
    edges = [n.node_id for n in tree.nodes() if n.parent is not None]
    internals = [
        n.node_id for n in tree.nodes() if not n.is_sink and n.parent is not None
    ]
    sinks = [n.node_id for n in tree.sinks()]
    choice = rng.randrange(9)
    if choice == 0 and buffered:
        node_id = rng.choice(buffered)
        tree.place_buffer(node_id, tree.node(node_id).buffer.scaled(rng.uniform(0.7, 1.4)))
        return f"resize buffer {node_id}"
    if choice == 1 and internals:
        node_id = rng.choice(internals)
        tree.place_buffer(node_id, BUFS.by_name("INV_S").parallel(rng.choice([4, 8])))
        return f"place buffer {node_id}"
    if choice == 2 and len(buffered) > 1:
        node_id = rng.choice(buffered)
        tree.remove_buffer(node_id)
        return f"remove buffer {node_id}"
    if choice == 3 and edges:
        node_id = rng.choice(edges)
        wire = rng.choice(list(WIRES))
        tree.set_wire_type(node_id, wire)
        return f"wire type {node_id} -> {wire.name}"
    if choice == 4 and edges:
        node_id = rng.choice(edges)
        tree.add_snake(node_id, rng.uniform(5.0, 80.0))
        return f"snake {node_id}"
    if choice == 5 and edges:
        node_id = rng.choice(edges)
        tree.split_edge(node_id, rng.uniform(0.2, 0.8))
        return f"split edge above {node_id}"
    if choice == 6 and internals:
        node_id = rng.choice(internals)
        node = tree.node(node_id)
        tree.move_node(
            node_id, Point(node.position.x + rng.uniform(-40, 40), node.position.y + rng.uniform(-40, 40))
        )
        return f"move node {node_id}"
    if choice == 7 and edges:
        node_id = rng.choice(edges)
        node = tree.node(node_id)
        parent = tree.node(node.parent)
        bend = Point(parent.position.x, node.position.y)
        tree.set_route(node_id, [parent.position, bend, node.position])
        return f"reroute {node_id}"
    if choice == 8 and sinks and internals:
        sink_id = rng.choice(sinks)
        target = rng.choice([n for n in internals if n != sink_id])
        tree.detach_subtree(sink_id)
        tree.attach_subtree(sink_id, target)
        return f"reparent sink {sink_id} under {target}"
    # Fallback when the sampled mutation was not applicable.
    node_id = rng.choice(edges)
    tree.add_snake(node_id, 10.0)
    return f"fallback snake {node_id}"


class TestMutationSequences:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("engine", ["arnoldi", "elmore"])
    def test_random_mutations_match_cold_evaluation(self, engine, seed):
        tree = buffered_zst_tree()
        evaluator = ClockNetworkEvaluator(EvaluatorConfig(engine=engine))
        evaluator.evaluate(tree)  # warm the cache
        rng = random.Random(seed)
        for step in range(12):
            description = random_mutation(tree, rng)
            tree.validate()
            incremental = evaluator.evaluate(tree)
            expected = cold_report(tree, engine)
            try:
                assert_reports_match(incremental, expected)
            except AssertionError as err:  # pragma: no cover - diagnostics
                raise AssertionError(f"step {step}: {description}: {err}") from err

    def test_spice_engine_mutations_match_cold_evaluation(self):
        tree = make_manual_tree()
        evaluator = ClockNetworkEvaluator(EvaluatorConfig(engine="spice"))
        evaluator.evaluate(tree)
        rng = random.Random(11)
        for _ in range(4):
            random_mutation(tree, rng)
            tree.validate()
            assert_reports_match(evaluator.evaluate(tree), cold_report(tree, "spice"))


class TestTargetedInvalidation:
    def setup_method(self):
        self.tree = buffered_zst_tree()
        self.evaluator = ClockNetworkEvaluator(EvaluatorConfig(engine="arnoldi"))
        self.evaluator.evaluate(self.tree)

    def check(self):
        assert_reports_match(
            self.evaluator.evaluate(self.tree), cold_report(self.tree, "arnoldi")
        )

    def test_buffer_removed(self):
        victim = self.tree.buffers()[0].node_id
        self.tree.remove_buffer(victim)
        self.check()

    def test_buffer_resized(self):
        victim = self.tree.buffers()[0].node_id
        self.tree.place_buffer(victim, self.tree.node(victim).buffer.scaled(2.0))
        self.check()

    def test_wire_type_changed(self):
        edge = next(n.node_id for n in self.tree.nodes() if n.parent is not None)
        self.tree.set_wire_type(edge, NARROW)
        self.check()

    def test_subtree_reparented(self):
        sink = self.tree.sinks()[0].node_id
        target = next(
            n.node_id
            for n in self.tree.nodes()
            if not n.is_sink and n.parent is not None and n.node_id != sink
        )
        self.tree.detach_subtree(sink)
        self.tree.attach_subtree(sink, target)
        self.check()

    def test_snapshot_rollback_is_cache_hit(self):
        baseline = self.evaluator.evaluate(self.tree)
        snapshot = self.tree.clone()
        victim = self.tree.buffers()[0].node_id
        self.tree.place_buffer(victim, self.tree.node(victim).buffer.scaled(1.5))
        self.evaluator.evaluate(self.tree)
        self.tree.copy_state_from(snapshot)
        stats_before = self.evaluator.cache_stats()
        restored = self.evaluator.evaluate(self.tree)
        stats_after = self.evaluator.cache_stats()
        # Rolling back restores the revisions, so nothing is re-analyzed...
        assert stats_after["misses"] == stats_before["misses"]
        # ...and the report equals the pre-mutation baseline exactly.
        assert_reports_match(restored, baseline, rel=0.0)

    def test_probe_clone_shares_cache_and_leaves_original_intact(self):
        baseline = self.evaluator.evaluate(self.tree)
        probe = self.tree.clone()
        edge = next(n.node_id for n in probe.nodes() if n.parent is not None)
        probe.add_snake(edge, 50.0)
        misses_before = self.evaluator.cache_stats()["misses"]
        assert_reports_match(self.evaluator.evaluate(probe), cold_report(probe, "arnoldi"))
        probe_misses = self.evaluator.cache_stats()["misses"] - misses_before
        # Only the stage containing the perturbed edge was re-analyzed.
        assert probe_misses <= 2
        assert_reports_match(self.evaluator.evaluate(self.tree), baseline, rel=0.0)


class TestCacheBehaviour:
    def test_unchanged_tree_is_all_hits(self):
        tree = buffered_zst_tree()
        evaluator = ClockNetworkEvaluator(EvaluatorConfig(engine="arnoldi"))
        evaluator.evaluate(tree)
        misses = evaluator.cache_stats()["misses"]
        evaluator.evaluate(tree)
        stats = evaluator.cache_stats()
        assert stats["misses"] == misses
        assert stats["hits"] > 0

    def test_localized_edit_reanalyzes_few_stages(self):
        tree = buffered_zst_tree()
        evaluator = ClockNetworkEvaluator(EvaluatorConfig(engine="arnoldi"))
        evaluator.evaluate(tree)
        total_stages = evaluator.cache_stats()["tap_models"]
        sink = tree.sinks()[0].node_id
        tree.add_snake(sink, 25.0)
        misses_before = evaluator.cache_stats()["misses"]
        evaluator.evaluate(tree)
        delta = evaluator.cache_stats()["misses"] - misses_before
        assert delta == 1
        assert total_stages > 2

    def test_clear_cache_keeps_results_identical(self):
        # An evaluator without a cache (a fresh one) reports what a warm one does.
        tree = buffered_zst_tree()
        evaluator = ClockNetworkEvaluator(EvaluatorConfig(engine="arnoldi"))
        evaluator.evaluate(tree)
        warm = evaluator.evaluate(tree)
        fresh = ClockNetworkEvaluator(EvaluatorConfig(engine="arnoldi"))
        assert_reports_match(fresh.evaluate(tree), warm, rel=0.0)

    def test_incremental_flag_off_bypasses_cache(self):
        tree = buffered_zst_tree()
        evaluator = ClockNetworkEvaluator(EvaluatorConfig(engine="arnoldi"))
        evaluator.evaluate(tree, incremental=False)
        stats = evaluator.cache_stats()
        assert stats["tap_models"] == 0
        assert stats["hits"] == 0


class TestCornerScalingEquivalence:
    """The batched moment factorization must match the per-corner reference
    engine even for corners that scale wire parasitics (ISPD'09 corners use
    wire scales of 1.0, so only a custom corner exercises these terms)."""

    @pytest.mark.parametrize("engine", ["arnoldi", "elmore"])
    def test_wire_scaled_corner_matches_reference(self, engine):
        from repro.analysis.arnoldi import arnoldi_stage_timing
        from repro.analysis.corners import Corner
        from repro.analysis.elmore import elmore_stage_timing
        from repro.analysis.evaluator import SOURCE_SLEW
        from repro.analysis.rcnetwork import build_stage_network, extract_stages

        tree = make_zst_tree(sink_count=8)  # unbuffered: one source stage
        corner = Corner(
            "wirecorner", vdd=1.1, driver_scale=1.1, wire_res_scale=1.2, wire_cap_scale=1.3
        )
        evaluator = ClockNetworkEvaluator(EvaluatorConfig(engine=engine), corners=[corner])
        report = evaluator.evaluate(tree)
        stage = extract_stages(tree)[0]
        reference_engine = arnoldi_stage_timing if engine == "arnoldi" else elmore_stage_timing
        for rise, transition in ((True, "rise"), (False, "fall")):
            network = build_stage_network(
                tree,
                stage,
                corner=corner,
                max_segment_length=evaluator.config.max_segment_length,
                rise=rise,
            )
            timing = reference_engine(network, SOURCE_SLEW)
            latency = report.corners["wirecorner"].latency
            tap_slew = report.corners["wirecorner"].tap_slew
            for sink in tree.sinks():
                assert latency[sink.node_id][transition] == pytest.approx(
                    timing.delay[sink.node_id], rel=1e-5
                )
                assert tap_slew[sink.node_id][transition] == pytest.approx(
                    timing.slew[sink.node_id], rel=1e-5
                )
