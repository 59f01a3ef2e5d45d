"""Checkpoint transactions of the clock tree under random edits.

The property drives random sequences of every :class:`ClockTree` mutator,
plus direct ``journal_node`` + ``touch`` surgery, under nested checkpoints
that are rolled back or released in LIFO order.  After every rollback the
tree must equal a :meth:`~ClockTree.clone` taken when the checkpoint opened:
node-table order, every node's fields, node revisions, the structure
revision and the whole-tree revision.  A release keeps the edits, and
:meth:`~ClockTree.touched_since` must name every pre-existing node whose
content changed since its checkpoint, edits made under released inner
checkpoints included.

One documented exception: nodes deleted by ``remove_subtree`` return at the
end of the node table on rollback, so a segment that removed a subtree is
compared with the node ids sorted.
"""

import gc
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.jobs import JobSpec
from repro.core import ContangoFlow, FlowConfig
from repro.cts import Sink, ispd09_buffer_library, ispd09_wire_library
from repro.geometry import Point
from repro.runner import resolve_instance
from repro.testing import make_zst_tree

WIRES = list(ispd09_wire_library())
BUFS = ispd09_buffer_library()


def buffered_tree(rng):
    tree = make_zst_tree(sink_count=rng.randint(6, 12), seed=rng.randrange(50))
    internals = [n.node_id for n in tree.nodes() if not n.is_sink and n.parent is not None]
    for node_id in rng.sample(internals, min(3, len(internals))):
        tree.place_buffer(node_id, BUFS.by_name("INV_S").parallel(8))
    return tree


def state(tree):
    """Everything a rollback must restore, node-table order included."""
    return (
        tree.node_ids(),
        {node.node_id: node for node in tree.clone().nodes()},
        dict(tree.node_revisions),
        tree.structure_revision,
        tree.revision,
    )


def assert_restored(tree, snapshot, removed):
    ids, nodes, revisions, structure, revision = state(tree)
    want_ids, want_nodes, want_revisions, want_structure, want_revision = snapshot
    if removed:
        assert sorted(ids) == sorted(want_ids)
    else:
        assert ids == want_ids
    assert nodes == want_nodes
    assert revisions == want_revisions
    assert (structure, revision) == (want_structure, want_revision)


def changed_nodes(tree, snapshot):
    """Pre-existing nodes whose content or revision differs from ``snapshot``."""
    _, nodes, revisions, _, _ = snapshot
    return {
        node_id
        for node_id, node in nodes.items()
        if node_id not in tree
        or tree.node(node_id) != node
        or tree.node_revision(node_id) != revisions[node_id]
    }


def mutate(tree, rng):
    """One random edit; returns True when it removed a subtree."""
    edges = [n.node_id for n in tree.nodes() if n.parent is not None]
    internals = [node_id for node_id in edges if not tree.node(node_id).is_sink]
    sites = [n.node_id for n in tree.nodes() if not n.is_sink]
    node_id = rng.choice(edges)
    node = tree.node(node_id)
    choice = rng.randrange(13)
    if choice == 0:
        tree.set_wire_type(node_id, rng.choice(WIRES))
    elif choice == 1:
        tree.add_snake(node_id, rng.uniform(0.0, 60.0))
    elif choice == 2 and internals:
        # A new buffer site, or a resize of an existing one.
        buffer = BUFS.by_name(rng.choice(["INV_S", "INV_L"])).parallel(rng.choice([2, 4, 8]))
        tree.place_buffer(rng.choice(internals), buffer)
    elif choice == 3 and tree.buffers():
        tree.remove_buffer(rng.choice(tree.buffers()).node_id)
    elif choice == 4:
        tree.split_edge(node_id, rng.uniform(0.2, 0.8))
    elif choice == 5 and internals:
        moved = tree.node(rng.choice(internals))
        tree.move_node(
            moved.node_id,
            Point(moved.position.x + rng.uniform(-40, 40), moved.position.y + rng.uniform(-40, 40)),
        )
    elif choice == 6:
        parent = tree.node(node.parent)
        tree.set_route(node_id, [parent.position, Point(parent.position.x, node.position.y), node.position])
    elif choice == 7 and node.is_sink:
        targets = [site for site in sites if site != node.parent]
        if targets:
            tree.detach_subtree(node_id)
            tree.attach_subtree(node_id, rng.choice(targets), wire_type=rng.choice([None, *WIRES]))
    elif choice == 8 and len(tree.subtree_sinks(node_id)) < len(tree.sinks()) - 1:
        tree.remove_subtree(node_id)
        return True
    elif choice == 9:
        parent = tree.node(rng.choice(sites))
        branch = tree.add_internal(
            parent.node_id, Point(parent.position.x + 30.0, parent.position.y)
        )
        if rng.random() < 0.5:
            tree.add_sink(
                branch,
                Point(parent.position.x + 30.0, parent.position.y + 40.0),
                Sink(f"extra{tree.revision}", rng.uniform(10.0, 30.0)),
            )
    elif choice == 10:
        tree.add_sink(
            rng.choice(sites), Point(rng.uniform(0, 3000), rng.uniform(0, 3000)),
            Sink(f"extra{tree.revision}", rng.uniform(10.0, 30.0)),
        )
    elif choice == 11:
        # Bespoke surgery: a direct edit between journal_node() and touch().
        tree.journal_node(node_id)
        node.snake_length += rng.uniform(1.0, 40.0)
        node.wire_type = rng.choice(WIRES)
        tree.touch(node_id)
    else:
        tree.set_wire_type(node_id, rng.choice(WIRES))
    return False


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_nested_checkpoints_restore_keep_and_report_edits(seed):
    rng = random.Random(seed)
    tree = buffered_tree(rng)
    # Open checkpoints, innermost last: (token, state at the checkpoint,
    # whether the segment removed a subtree).
    open_ = []
    for _ in range(40):
        action = rng.randrange(8)
        if action == 0 and len(open_) < 3:
            open_.append([tree.checkpoint(), state(tree), False])
        elif action in (1, 2) and open_:
            token, snapshot, removed = open_.pop()
            if action == 1:
                tree.rollback_to(token)
                assert_restored(tree, snapshot, removed)
                tree.validate()
            else:
                before = state(tree)
                tree.release(token)
                assert_restored(tree, before, False)
            # A rolled-back removal reorders the node table too.
            if open_:
                open_[-1][2] |= removed
        else:
            removed = mutate(tree, rng)
            if open_:
                open_[-1][2] |= removed
            tree.validate()
        if open_:
            token, snapshot, _ = open_[-1]
            assert changed_nodes(tree, snapshot) <= tree.touched_since(token)
    while open_:
        token, snapshot, removed = open_.pop()
        tree.rollback_to(token)
        assert_restored(tree, snapshot, removed)
        if open_:
            open_[-1][2] |= removed


def test_release_of_an_inner_checkpoint_keeps_its_edits_dirty():
    tree = make_zst_tree(sink_count=8)
    first, second = [n.node_id for n in tree.sinks()][:2]
    outer = tree.checkpoint()
    inner = tree.checkpoint()
    tree.add_snake(first, 10.0)
    tree.release(inner)
    tree.add_snake(second, 10.0)
    assert tree.touched_since(outer) >= {first, second}


def test_rollback_restores_a_removed_node_edited_after_its_pre_image():
    tree = make_zst_tree(sink_count=8)
    node_id = tree.sinks()[0].node_id
    before = state(tree)
    token = tree.checkpoint()
    tree.set_route(node_id, None)
    tree.add_snake(node_id, 5.0)
    tree.remove_subtree(node_id)
    tree.rollback_to(token)
    assert_restored(tree, before, removed=True)


def test_rolled_back_field_edits_keep_the_node_object():
    tree = make_zst_tree(sink_count=8)
    node_id = tree.sinks()[0].node_id
    site = tree.node(node_id).parent
    node, site_node = tree.node(node_id), tree.node(site)
    token = tree.checkpoint()
    tree.set_wire_type(node_id, WIRES[0])
    tree.add_snake(node_id, 25.0)
    tree.place_buffer(site, BUFS.by_name("INV_S").parallel(4))
    tree.remove_buffer(site)
    tree.rollback_to(token)
    assert tree.node(node_id) is node
    assert tree.node(site) is site_node


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info < (3, 11),
    reason="inline attribute values arrived in CPython 3.11",
)
class TestNodesKeepInlineAttributes:
    """No node ends up with a materialized ``__dict__``.

    On CPython 3.11+ an instance keeps its attributes in an inline values
    array until something asks for ``__dict__``; from then on every
    attribute load goes through the dict.  ``gc.get_referents`` shows which
    layout a node has: the dict itself, or its attribute values.
    """

    @staticmethod
    def dict_backed(tree):
        return [
            node.node_id
            for node in tree.nodes()
            if any(type(ref) is dict for ref in gc.get_referents(node))
        ]

    def test_clone_copy_state_and_rollback(self):
        tree = make_zst_tree(sink_count=12)
        twin = tree.clone()
        assert self.dict_backed(tree) == []
        assert self.dict_backed(twin) == []
        token = tree.checkpoint()
        node_id = tree.sinks()[0].node_id
        tree.split_edge(node_id, 0.5)
        tree.move_node(tree.node(node_id).parent, Point(10.0, 10.0))
        tree.rollback_to(token)
        assert self.dict_backed(tree) == []
        twin.add_snake(node_id, 5.0)
        tree.copy_state_from(twin)
        assert self.dict_backed(tree) == []

    def test_full_flow(self):
        instance = resolve_instance(JobSpec(instance="ti:200"))
        result = ContangoFlow(FlowConfig(engine="arnoldi")).run(instance)
        assert self.dict_backed(result.require_tree()) == []
