"""Tests for the ClockTree data model."""

import pytest

from repro.cts import ClockTree, NodeKind, Sink, TreeValidationError, ispd09_buffer_library, ispd09_wire_library
from repro.geometry import Point

WIRES = ispd09_wire_library()
NARROW = WIRES.narrower(WIRES.widest)
BUFS = ispd09_buffer_library()


def build_simple_tree():
    tree = ClockTree(Point(0, 0), source_resistance=50.0, default_wire=WIRES.widest)
    a = tree.add_internal(tree.root_id, Point(100, 0))
    s1 = tree.add_sink(a, Point(200, 50), Sink("s1", 10.0))
    s2 = tree.add_sink(a, Point(200, -50), Sink("s2", 20.0))
    return tree, a, s1, s2


class TestConstruction:
    def test_root_is_source(self):
        tree, *_ = build_simple_tree()
        assert tree.root.kind is NodeKind.SOURCE
        assert tree.root.parent is None

    def test_invalid_source_resistance(self):
        with pytest.raises(ValueError):
            ClockTree(Point(0, 0), source_resistance=0.0)

    def test_children_linked_both_ways(self):
        tree, a, s1, s2 = build_simple_tree()
        assert set(tree.node(a).children) == {s1, s2}
        assert tree.parent_of(s1).node_id == a

    def test_cannot_attach_to_sink(self):
        tree, a, s1, _ = build_simple_tree()
        with pytest.raises(ValueError):
            tree.add_internal(s1, Point(300, 0))

    def test_route_must_start_at_parent(self):
        tree, a, *_ = build_simple_tree()
        with pytest.raises(ValueError):
            tree.add_sink(a, Point(300, 0), Sink("bad", 5.0), route=[Point(50, 50), Point(300, 0)])

    def test_default_route_is_two_points(self):
        tree, a, s1, _ = build_simple_tree()
        assert tree.node(s1).route[0] == tree.node(a).position
        assert tree.node(s1).route[-1] == tree.node(s1).position

    def test_sink_requires_positive_cap(self):
        with pytest.raises(ValueError):
            Sink("s", 0.0)

    def test_sink_polarity_validation(self):
        with pytest.raises(ValueError):
            Sink("s", 1.0, required_polarity=2)


class TestTraversal:
    def test_preorder_parent_before_children(self):
        tree, a, s1, s2 = build_simple_tree()
        order = [n.node_id for n in tree.preorder()]
        assert order.index(tree.root_id) < order.index(a) < order.index(s1)

    def test_postorder_children_before_parent(self):
        tree, a, s1, s2 = build_simple_tree()
        order = [n.node_id for n in tree.postorder()]
        assert order.index(s1) < order.index(a)
        assert order.index(s2) < order.index(a)
        assert order[-1] == tree.root_id

    def test_path_to_root(self):
        tree, a, s1, _ = build_simple_tree()
        path = [n.node_id for n in tree.path_to_root(s1)]
        assert path == [s1, a, tree.root_id]

    def test_depth(self):
        tree, a, s1, _ = build_simple_tree()
        # A node's depth is its path to the root, less the node itself.
        assert len(tree.path_to_root(tree.root_id)) == 1
        assert len(tree.path_to_root(s1)) == 3

    def test_subtree_sinks(self):
        tree, a, s1, s2 = build_simple_tree()
        assert {n.node_id for n in tree.subtree_sinks(a)} == {s1, s2}

    def test_downstream_sinks_map(self):
        tree, a, s1, s2 = build_simple_tree()
        mapping = tree.downstream_sinks_map()
        assert set(mapping[tree.root_id]) == {s1, s2}
        assert mapping[s1] == [s1]


class TestElectricalAggregates:
    def test_edge_length_and_capacitance(self):
        tree, a, s1, _ = build_simple_tree()
        node = tree.node(s1)
        assert node.edge_length() == pytest.approx(150.0)
        expected_cap = WIRES.widest.capacitance(150.0)
        assert tree.edge_capacitance(s1) == pytest.approx(expected_cap)

    def test_snake_adds_electrical_length(self):
        tree, a, s1, _ = build_simple_tree()
        before = tree.node(s1).edge_length()
        tree.add_snake(s1, 75.0)
        assert tree.node(s1).edge_length() == pytest.approx(before + 75.0)

    def test_negative_snake_rejected(self):
        tree, a, s1, _ = build_simple_tree()
        with pytest.raises(ValueError):
            tree.add_snake(s1, -1.0)

    def test_total_capacitance_components(self):
        tree, a, s1, s2 = build_simple_tree()
        tree.place_buffer(a, BUFS.by_name("INV_L"))
        total = tree.total_capacitance()
        assert total == pytest.approx(
            tree.total_wire_capacitance() + tree.total_buffer_capacitance() + tree.total_sink_capacitance()
        )
        assert tree.total_sink_capacitance() == pytest.approx(30.0)
        assert tree.total_buffer_capacitance() == pytest.approx(115.0)

    def test_counts(self):
        tree, a, s1, s2 = build_simple_tree()
        assert tree.sink_count() == 2
        assert tree.buffer_count() == 0
        tree.place_buffer(a, BUFS.by_name("INV_S"))
        assert tree.buffer_count() == 1

    def test_node_load_capacitance(self):
        tree, a, s1, _ = build_simple_tree()
        tree.place_buffer(a, BUFS.by_name("INV_L"))
        assert tree.node_load_capacitance(a) == pytest.approx(35.0)
        assert tree.node_load_capacitance(s1) == pytest.approx(10.0)

    def test_summary_keys(self):
        tree, *_ = build_simple_tree()
        summary = tree.summary()
        assert {"nodes", "sinks", "buffers", "wirelength_um", "total_capacitance_fF"} <= set(summary)


class TestPolarity:
    def test_no_buffers_means_positive_polarity(self):
        tree, a, s1, s2 = build_simple_tree()
        assert tree.sink_polarities() == {s1: 0, s2: 0}
        assert tree.wrong_polarity_sinks() == []

    def test_single_inverter_flips_downstream_sinks(self):
        tree, a, s1, s2 = build_simple_tree()
        tree.place_buffer(a, BUFS.by_name("INV_S"))
        assert tree.sink_polarities() == {s1: 1, s2: 1}
        assert {n.node_id for n in tree.wrong_polarity_sinks()} == {s1, s2}

    def test_two_inverters_restore_polarity(self):
        tree, a, s1, s2 = build_simple_tree()
        tree.place_buffer(tree.root_id, BUFS.by_name("INV_S"))
        tree.place_buffer(a, BUFS.by_name("INV_S"))
        assert tree.sink_polarities() == {s1: 0, s2: 0}

    def test_node_polarity_matches_sink_polarities(self):
        tree, a, s1, s2 = build_simple_tree()
        tree.place_buffer(a, BUFS.by_name("INV_S"))
        assert tree.node_polarity(s1) == tree.sink_polarities()[s1]


class TestMutation:
    def test_split_edge_preserves_structure_and_length(self):
        tree, a, s1, _ = build_simple_tree()
        tree.add_snake(s1, 50.0)
        original_length = tree.node(s1).edge_length()
        new_node = tree.split_edge(s1, 0.4)
        tree.validate()
        assert tree.parent_of(s1).node_id == new_node
        assert tree.parent_of(new_node).node_id == a
        combined = tree.node(new_node).edge_length() + tree.node(s1).edge_length()
        assert combined == pytest.approx(original_length)

    def test_split_edge_invalid_fraction(self):
        tree, a, s1, _ = build_simple_tree()
        with pytest.raises(ValueError):
            tree.split_edge(s1, 1.0)

    def test_split_root_edge_rejected(self):
        tree, *_ = build_simple_tree()
        with pytest.raises(ValueError):
            tree.split_edge(tree.root_id, 0.5)

    def test_set_wire_type(self):
        tree, a, s1, _ = build_simple_tree()
        tree.set_wire_type(s1, NARROW)
        assert tree.node(s1).wire_type == NARROW

    def test_clone_is_independent(self):
        tree, a, s1, _ = build_simple_tree()
        clone = tree.clone()
        clone.add_snake(s1, 100.0)
        assert tree.node(s1).snake_length == 0.0

    def test_copy_state_from_restores_snapshot(self):
        tree, a, s1, _ = build_simple_tree()
        snapshot = tree.clone()
        tree.add_snake(s1, 100.0)
        tree.place_buffer(a, BUFS.by_name("INV_L"))
        tree.copy_state_from(snapshot)
        assert tree.node(s1).snake_length == 0.0
        assert tree.node(a).buffer is None
        tree.validate()


class TestValidation:
    def test_valid_tree_passes(self):
        tree, *_ = build_simple_tree()
        tree.validate()

    def test_orphan_detection(self):
        tree, a, s1, _ = build_simple_tree()
        tree.node(a).children.remove(s1)
        with pytest.raises(TreeValidationError):
            tree.validate()

    def test_missing_wire_type_detected(self):
        tree, a, s1, _ = build_simple_tree()
        tree.node(s1).wire_type = None
        with pytest.raises(TreeValidationError):
            tree.validate()

    def test_negative_snake_detected(self):
        tree, a, s1, _ = build_simple_tree()
        tree.node(s1).snake_length = -5.0
        with pytest.raises(TreeValidationError):
            tree.validate()

    def test_sink_with_children_detected(self):
        tree, a, s1, _ = build_simple_tree()
        tree.node(s1).kind = NodeKind.INTERNAL
        extra = tree.add_internal(s1, Point(250, 50))
        tree.node(s1).kind = NodeKind.SINK
        with pytest.raises(TreeValidationError):
            tree.validate()


class TestChangeTracking:
    def test_new_nodes_get_revisions(self):
        tree, a, s1, s2 = build_simple_tree()
        revisions = [tree.node_revision(n) for n in (tree.root_id, a, s1, s2)]
        assert len(set(revisions)) == 4

    def test_mutators_bump_node_revision(self):
        tree, a, s1, _ = build_simple_tree()
        before = tree.node_revision(s1)
        tree.add_snake(s1, 10.0)
        mid = tree.node_revision(s1)
        tree.set_wire_type(s1, NARROW)
        after = tree.node_revision(s1)
        assert before < mid < after

    def test_buffer_site_changes_bump_structure_revision(self):
        tree, a, s1, _ = build_simple_tree()
        r0 = tree.structure_revision
        tree.place_buffer(a, BUFS.by_name("INV_S"))
        r1 = tree.structure_revision
        assert r1 > r0
        # Replacing the buffer at the same site is not structural...
        tree.place_buffer(a, BUFS.by_name("INV_L"))
        assert tree.structure_revision == r1
        # ...but it bumps the node revision (content changed).
        tree.remove_buffer(a)
        assert tree.structure_revision > r1

    def test_split_edge_is_structural(self):
        tree, a, s1, _ = build_simple_tree()
        r0 = tree.structure_revision
        s1_rev = tree.node_revision(s1)
        tree.split_edge(s1, 0.5)
        assert tree.structure_revision > r0
        assert tree.node_revision(s1) > s1_rev

    def test_clone_shares_revisions_until_either_side_mutates(self):
        tree, a, s1, _ = build_simple_tree()
        clone = tree.clone()
        assert clone.structure_revision == tree.structure_revision
        assert clone.node_revision(s1) == tree.node_revision(s1)
        clone.add_snake(s1, 5.0)
        assert clone.node_revision(s1) != tree.node_revision(s1)

    def test_copy_state_from_restores_revisions(self):
        tree, a, s1, _ = build_simple_tree()
        snapshot = tree.clone()
        revision = tree.node_revision(s1)
        tree.add_snake(s1, 5.0)
        tree.copy_state_from(snapshot)
        assert tree.node_revision(s1) == revision

    def test_touch_is_monotonic_across_trees(self):
        first, _, s1, _ = build_simple_tree()
        second, _, t1, _ = build_simple_tree()
        first.touch(s1)
        second.touch(t1)
        assert first.node_revision(s1) != second.node_revision(t1)


class TestStructuralSurgery:
    def test_set_route_validates_endpoints(self):
        tree, a, s1, _ = build_simple_tree()
        node = tree.node(s1)
        parent = tree.node(a)
        bend = Point(parent.position.x, node.position.y)
        tree.set_route(s1, [parent.position, bend, node.position])
        tree.validate()
        with pytest.raises(ValueError):
            tree.set_route(s1, [Point(999, 999), node.position])

    def test_set_route_updates_edge_length(self):
        tree, a, s1, _ = build_simple_tree()
        node = tree.node(s1)
        parent = tree.node(a)
        straight = node.edge_length()
        detour = Point(parent.position.x, node.position.y + 300.0)
        tree.set_route(s1, [parent.position, detour, node.position])
        assert node.edge_length() > straight

    def test_move_node_reroutes_neighbours(self):
        tree, a, s1, s2 = build_simple_tree()
        tree.move_node(a, Point(120.0, 30.0))
        tree.validate()
        assert tree.node(a).position == Point(120.0, 30.0)
        assert tree.node(s1).route[0] == Point(120.0, 30.0)

    def test_move_root_rejected(self):
        tree, *_ = build_simple_tree()
        with pytest.raises(ValueError):
            tree.move_node(tree.root_id, Point(1, 1))

    def test_detach_and_attach_subtree(self):
        tree, a, s1, _ = build_simple_tree()
        tree.detach_subtree(s1)
        with pytest.raises(TreeValidationError):
            tree.validate()  # orphan while detached
        tree.attach_subtree(s1, tree.root_id, wire_type=NARROW)
        tree.validate()
        assert tree.parent_of(s1).node_id == tree.root_id
        assert tree.node(s1).wire_type == NARROW
        assert tree.node(s1).snake_length == 0.0

    def test_remove_subtree_deletes_nodes(self):
        tree, a, s1, s2 = build_simple_tree()
        count = len(tree)
        removed = tree.remove_subtree(a)
        assert set(removed) == {a, s1, s2}
        assert len(tree) == count - 3
        tree.validate()

    def test_remove_root_rejected(self):
        tree, *_ = build_simple_tree()
        with pytest.raises(ValueError):
            tree.remove_subtree(tree.root_id)

    def test_rejected_route_leaves_tree_untouched(self):
        tree, a, s1, _ = build_simple_tree()
        before_route = list(tree.node(s1).route)
        before_rev = tree.node_revision(s1)
        with pytest.raises(ValueError):
            tree.set_route(s1, [Point(999, 999), tree.node(s1).position])
        assert tree.node(s1).route == before_route
        assert tree.node_revision(s1) == before_rev

    def test_rejected_attach_leaves_node_detached(self):
        tree, a, s1, _ = build_simple_tree()
        tree.detach_subtree(s1)
        with pytest.raises(ValueError):
            tree.attach_subtree(s1, tree.root_id, route=[Point(999, 999), Point(5, 5)])
        assert tree.node(s1).parent is None
        assert s1 not in tree.root.children
        tree.attach_subtree(s1, tree.root_id)
        tree.validate()
