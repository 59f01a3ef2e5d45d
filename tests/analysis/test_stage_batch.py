"""The batched stage reduction against the per-stage oracle.

The evaluator reads every stage it misses into one
:class:`~repro.analysis.rcnetwork.StageContent`, lays the batch out as
zero-padded segment rows and reduces all rows at once.  The property below
requires that to equal, bit for bit, the per-stage network construction and
1-D reduction kept in :mod:`tests.analysis.stage_reference` -- the base
moments of every stage and the tap models made from them -- on random trees
with zero-length and wire-less edges, edges short enough for the resistance
clamp, edges at the 32-segment cap, snakes, buffered taps and non-binary
branching, for random subsets of stages in random order, with wire and load
capacitance split or collapsed and several segment lengths.  A second
property pins the transient engine's per-corner builder,
:func:`~repro.analysis.rcnetwork.build_stage_network`, to its walk-based
oracle on the same trees.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ClockNetworkEvaluator, EvaluatorConfig
from repro.analysis.arnoldi import reduce_stage_batch
from repro.analysis.corners import Corner
from repro.analysis.rcnetwork import (
    StageContent,
    build_stage_network,
    build_stage_topology,
    lay_out_stages,
)
from repro.cts import ClockTree, Sink, ispd09_buffer_library, ispd09_wire_library
from repro.geometry import Point
from tests.analysis.stage_reference import (
    base_tap_moments,
    build_base_stage_network,
    reference_stage_network,
    reference_tap_model,
)

WIRES = list(ispd09_wire_library())
BUFS = ispd09_buffer_library()
INVERTER = BUFS.by_name("INV_S")
# The second corner scales wire capacitance, which makes the evaluator keep
# wire and load capacitance apart (the split reduction).
SPLIT_CORNERS = [
    Corner("fast", 1.2),
    Corner("slow", 1.0, driver_scale=1.3, wire_res_scale=1.1, wire_cap_scale=1.05),
]
MOMENT_FIELDS = (
    "a_wire_tap",
    "a_load_tap",
    "p_ww_tap",
    "p_mixed_tap",
    "p_ll_tap",
    "wire_cap_total",
    "load_cap_total",
    "a0_ww",
    "a0_mixed",
    "a0_ll",
    "driver_resistance",
)


def same_bits(actual, expected):
    """Equal bit for bit: same shape and the same float64 bytes (so -0.0 != 0.0)."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    return actual.shape == expected.shape and actual.tobytes() == expected.tobytes()


def random_tree(rng, max_segment_length):
    """A random buffered tree exercising every segmentation case."""
    tree = ClockTree(Point(0.0, 0.0), source_resistance=rng.uniform(40.0, 160.0))
    frontier = [(tree.root_id, 0)]
    internals = []
    edges = []
    for _ in range(rng.randint(3, 14)):
        if not frontier:
            break
        parent, depth = frontier.pop(rng.randrange(len(frontier)))
        origin = tree.node(parent).position
        for _ in range(rng.choice([1, 2, 2, 3, 4])):
            shape = rng.random()
            if shape < 0.15:
                offset = (0.0, 0.0)  # zero-length edge
            elif shape < 0.25:
                # Longer than 32 segments: the segment count is capped.
                offset = (33.5 * max_segment_length + rng.uniform(0.0, 500.0), 0.0)
            elif shape < 0.35:
                offset = (2.0 * max_segment_length, 0.0)  # a whole number of segments
            elif shape < 0.4:
                # So short that the segment resistance is clamped from below.
                offset = (rng.uniform(1e-6, 1e-3), 0.0)
            else:
                offset = (rng.uniform(-400.0, 400.0), rng.uniform(-400.0, 400.0))
            position = Point(origin.x + offset[0], origin.y + offset[1])
            wire = None if rng.random() < 0.1 else rng.choice(WIRES)
            if depth >= 4 or rng.random() < 0.35:
                sink = Sink(f"s{len(tree)}", rng.uniform(1.0, 40.0))
                edges.append(tree.add_sink(parent, position, sink, wire_type=wire))
            else:
                node = tree.add_internal(parent, position, wire_type=wire)
                edges.append(node)
                internals.append(node)
                frontier.append((node, depth + 1))
    for node_id in rng.sample(edges, len(edges) // 3):
        tree.add_snake(node_id, rng.choice([0.0, rng.uniform(1.0, 300.0)]))
    for node_id in rng.sample(internals, min(len(internals), rng.randint(0, 4))):
        tree.place_buffer(node_id, INVERTER.parallel(rng.choice([1, 4, 8])))
    return tree


def reference_moments(tree, topo, index, max_segment_length, split):
    base = build_base_stage_network(tree, topo.stages[index], max_segment_length)
    return base_tap_moments(base, split_wire_load=split)


def batch_moments(tree, topo, indices, max_segment_length, split):
    content = StageContent()
    for index in indices:
        content.read(tree, topo, index, max_segment_length)
    return reduce_stage_batch(lay_out_stages(topo, content), split_wire_load=split)


def assert_moments_match(tree, topo, indices, max_segment_length, split):
    batch = batch_moments(tree, topo, indices, max_segment_length, split)
    assert len(batch) == len(indices)
    for index, moments in zip(indices, batch):
        expected = reference_moments(tree, topo, index, max_segment_length, split)
        assert moments.tap_ids == expected.tap_ids
        for name in MOMENT_FIELDS:
            assert same_bits(getattr(moments, name), getattr(expected, name)), (index, name)


def assert_tap_models_match(tree, topo, indices, max_segment_length, split, engine):
    corners = SPLIT_CORNERS if split else None
    evaluator = ClockNetworkEvaluator(
        EvaluatorConfig(engine=engine, max_segment_length=max_segment_length), corners=corners
    )
    assert evaluator._split_caps == split
    keys = [None] * len(topo.stages)
    models = evaluator._tap_models(tree, topo, indices, keys)
    assert sorted(models) == sorted(indices)
    for index in indices:
        delay, sigma = models[index]
        want_delay, want_sigma = reference_tap_model(evaluator, tree, topo.stages[index], split)
        # Models are cached taps-major, (taps, corner x transition).
        assert same_bits(delay, want_delay.T), index
        assert same_bits(sigma, want_sigma.T), index


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    split=st.booleans(),
    max_segment_length=st.sampled_from([100.0, 37.5, 250.0]),
    engine=st.sampled_from(["arnoldi", "elmore"]),
)
def test_batch_equals_the_per_stage_oracle(seed, split, max_segment_length, engine):
    rng = random.Random(seed)
    tree = random_tree(rng, max_segment_length)
    topo = build_stage_topology(tree)
    stages = list(range(len(topo.stages)))
    misses = rng.sample(stages, rng.randint(1, len(stages)))
    assert_moments_match(tree, topo, misses, max_segment_length, split)
    assert_tap_models_match(tree, topo, misses, max_segment_length, split, engine)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    max_segment_length=st.sampled_from([100.0, 37.5, 250.0]),
)
def test_stage_network_equals_the_walk_oracle(seed, max_segment_length):
    """The transient engine's per-corner builder, pinned bit for bit at a
    corner that scales wire resistance, wire capacitance and the driver."""
    rng = random.Random(seed)
    tree = random_tree(rng, max_segment_length)
    corner = SPLIT_CORNERS[1]
    for stage in build_stage_topology(tree).stages:
        for rise in (True, False):
            got = build_stage_network(
                tree, stage, corner=corner, max_segment_length=max_segment_length, rise=rise
            )
            want = reference_stage_network(tree, stage, corner, max_segment_length, rise)
            assert got.parent == want.parent
            assert same_bits(got.resistance, want.resistance)
            assert same_bits(got.capacitance, want.capacitance)
            assert got.tap_index == want.tap_index
            assert same_bits(got.driver_resistance, want.driver_resistance)
            assert same_bits(got.total_capacitance, want.total_capacitance)


def degenerate_tree():
    """A buffer driving only zero-length and wire-less edges, plus a tapless stage."""
    tree = ClockTree(Point(0.0, 0.0), default_wire=WIRES[0])
    driver = tree.add_internal(tree.root_id, Point(300.0, 0.0))
    tree.place_buffer(driver, INVERTER.parallel(4))
    tree.add_sink(driver, Point(300.0, 0.0), Sink("same-spot", 5.0))
    bare = tree.add_internal(driver, Point(300.0, 0.0))
    tree.node(bare).wire_type = None
    tree.add_sink(bare, Point(300.0, 0.0), Sink("behind-bare", 7.0))
    leaf = tree.add_internal(tree.root_id, Point(0.0, 200.0))
    tree.place_buffer(leaf, INVERTER.parallel(2))  # drives nothing: a stage without edges
    return tree, driver, leaf


class TestEdgeCases:
    @pytest.mark.parametrize("split", [True, False])
    def test_stage_of_degenerate_edges_only(self, split):
        tree, driver, leaf = degenerate_tree()
        topo = build_stage_topology(tree)
        index = topo.stage_of_driver[driver]
        assert topo.stages[index].edges
        assert_moments_match(tree, topo, [index], 100.0, split)
        assert_tap_models_match(tree, topo, [index], 100.0, split, "arnoldi")

    @pytest.mark.parametrize("split", [True, False])
    def test_stage_without_edges(self, split):
        tree, _, leaf = degenerate_tree()
        topo = build_stage_topology(tree)
        index = topo.stage_of_driver[leaf]
        assert not topo.stages[index].edges
        assert_moments_match(tree, topo, [index], 100.0, split)
        everything = list(range(len(topo.stages)))
        assert_moments_match(tree, topo, everything[::-1], 100.0, split)

    def test_one_stage_batch(self):
        rng = random.Random(5)
        tree = random_tree(rng, 100.0)
        topo = build_stage_topology(tree)
        for index in range(len(topo.stages)):
            assert_moments_match(tree, topo, [index], 100.0, True)

    def test_empty_batch(self):
        tree, _, _ = degenerate_tree()
        topo = build_stage_topology(tree)
        evaluator = ClockNetworkEvaluator(EvaluatorConfig(engine="arnoldi"))
        assert evaluator._reduce(topo, StageContent(), True) == []
        assert evaluator._tap_models(tree, topo, [], [None] * len(topo.stages)) == {}
        assert evaluator._base_moments(tree, topo, [], [], False, count=True) == []

    def test_stage_layout_matches_the_reference_dfs(self):
        rng = random.Random(11)
        tree = random_tree(rng, 100.0)
        topo = build_stage_topology(tree)
        for stage, layout in zip(topo.stages, topo.layouts):
            position = {edge: pos for pos, edge in enumerate(stage.edges)}
            for pos, edge in enumerate(stage.edges):
                parent = tree.node(edge).parent
                assert layout.parent_pos[pos] == position.get(parent, -1)
                subtree = {n.node_id for n in tree.preorder(edge)} & set(stage.edges)
                if edge in stage.taps:
                    subtree = {edge}
                assert set(stage.edges[pos : layout.subtree_end[pos]]) == subtree
            assert [stage.edges[pos] for pos in layout.tap_pos] == stage.taps
            assert [stage.edges[pos] for pos, flag in enumerate(layout.is_tap) if flag] == sorted(
                stage.taps, key=position.__getitem__
            )
