"""Tests for merge-topology generation."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cts.topology import (
    SinkInstance,
    build_topology,
    nearest_neighbor_topology,
    recursive_bisection_topology,
)
from repro.geometry import Point


def random_sinks(count, seed=3):
    rng = random.Random(seed)
    return [
        SinkInstance(f"s{i}", Point(rng.uniform(0, 1000), rng.uniform(0, 1000)), rng.uniform(5, 40))
        for i in range(count)
    ]


def depth(topo):
    """Length (in edges) of the longest root-to-leaf path, children first."""
    depths = {}
    for node in topo.postorder():
        depths[node.index] = 1 + max((depths[c] for c in node.children), default=-1)
    return depths[topo.root.index]


class TestSinkInstance:
    def test_positive_capacitance_required(self):
        with pytest.raises(ValueError):
            SinkInstance("s", Point(0, 0), 0.0)


class TestBisection:
    def test_leaves_cover_all_sinks(self):
        sinks = random_sinks(17)
        topo = recursive_bisection_topology(sinks)
        assert sorted(n.sink_index for n in topo.leaves()) == list(range(17))

    def test_binary_internal_nodes(self):
        topo = recursive_bisection_topology(random_sinks(16))
        for node in topo.nodes:
            if not node.is_leaf:
                assert len(node.children) == 2

    def test_balanced_depth_for_power_of_two(self):
        topo = recursive_bisection_topology(random_sinks(32))
        assert depth(topo) == 5

    def test_depth_close_to_log2_for_general_counts(self):
        count = 23
        topo = recursive_bisection_topology(random_sinks(count))
        assert depth(topo) <= math.ceil(math.log2(count)) + 1

    def test_single_sink(self):
        topo = recursive_bisection_topology(random_sinks(1))
        assert topo.root.is_leaf and depth(topo) == 0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            recursive_bisection_topology([])

    def test_node_count_is_2n_minus_1(self):
        topo = recursive_bisection_topology(random_sinks(21))
        assert len(topo.nodes) == 2 * 21 - 1


class TestGreedy:
    def test_leaves_cover_all_sinks(self):
        topo = nearest_neighbor_topology(random_sinks(13))
        assert sorted(n.sink_index for n in topo.leaves()) == list(range(13))

    def test_greedy_pairs_nearby_sinks_first(self):
        # Two tight clusters far apart: the root split must separate the clusters.
        sinks = [
            SinkInstance("a0", Point(0, 0), 10),
            SinkInstance("a1", Point(1, 0), 10),
            SinkInstance("b0", Point(1000, 0), 10),
            SinkInstance("b1", Point(1001, 0), 10),
        ]
        topo = nearest_neighbor_topology(sinks)
        root = topo.root
        left_sinks = {n.sink_index for n in topo.nodes if n.is_leaf and _is_descendant(topo, n.index, root.left)}
        assert left_sinks in ({0, 1}, {2, 3})

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            nearest_neighbor_topology([])


class TestDispatch:
    def test_build_topology_methods(self):
        sinks = random_sinks(9)
        assert depth(build_topology(sinks, "bisection")) >= 1
        assert depth(build_topology(sinks, "greedy")) >= 1

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            build_topology(random_sinks(4), "magic")

    def test_validate_detects_missing_sink(self):
        topo = recursive_bisection_topology(random_sinks(5))
        with pytest.raises(ValueError):
            topo.validate(6)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=1000))
def test_bisection_always_covers_every_sink(count, seed):
    sinks = random_sinks(count, seed=seed)
    topo = recursive_bisection_topology(sinks)
    topo.validate(count)
    assert len(topo.leaves()) == count


def _is_descendant(topo, node_index, ancestor_index):
    stack = [ancestor_index]
    while stack:
        current = stack.pop()
        if current == node_index:
            return True
        stack.extend(topo.node(current).children)
    return False
