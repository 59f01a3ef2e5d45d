"""The evaluator's revision snapshot under random edits.

Each evaluation refreshes one snapshot of the tree node by node: report
totals from per-node contributions in node-table order, and stage keys
recomputed only for the stages owning a node whose revision moved.  The
property drives random mutator sequences -- journalled edits, direct
``journal_node`` + ``touch`` surgery, checkpoints rolled back or released
(a rolled-back ``remove_subtree`` among them), clones evaluated alongside
the original, ``copy_state_from`` restores and source-resistance changes --
and after every step requires the snapshot to equal a fresh computation:
totals equal to the tree's own walks, stage keys and drivers equal to fresh
ones, and the whole report equal to a cold evaluation, bit for bit.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ClockNetworkEvaluator, EvaluatorConfig
from repro.analysis.evaluator import _stage_keys
from tests.analysis.test_incremental import buffered_zst_tree, random_mutation

CONFIG = EvaluatorConfig(engine="arnoldi")


def assert_matches_fresh(evaluator, tree):
    report = evaluator.evaluate(tree)
    assert report.total_capacitance == tree.total_capacitance()
    assert report.wirelength == tree.total_wirelength()
    topo = evaluator.cache.topology(tree)
    keys, drivers = _stage_keys(tree, topo.stages)
    snapshot = evaluator._snapshot
    assert snapshot.keys == keys
    assert all(live is fresh for live, fresh in zip(snapshot.drivers, drivers))
    assert len(snapshot.drivers) == len(drivers)
    cold = ClockNetworkEvaluator(CONFIG).evaluate(tree, incremental=False)
    assert report.summary() == cold.summary()
    for name, timing in cold.corners.items():
        got = report.corners[name]
        assert got.latency == timing.latency
        assert got.tap_slew == timing.tap_slew


def surgery(tree, rng):
    """Edit a node directly, the way bespoke geometry code does."""
    node = rng.choice([n for n in tree.nodes() if n.parent is not None])
    tree.journal_node(node.node_id)
    node.snake_length += rng.uniform(1.0, 60.0)
    tree.touch(node.node_id)


def removable(tree, rng):
    candidates = [n.node_id for n in tree.nodes() if n.parent is not None and n.is_sink]
    return rng.choice(candidates)


def check_candidates(evaluator, tree, rng):
    """Batched candidate totals equal applying the move and evaluating.

    Snakes change the wire and length components, a buffer resize only the
    buffer component.
    """
    edges = [n.node_id for n in tree.nodes() if n.parent is not None]
    picks = [rng.choice(edges) for _ in range(3)]

    def make(node_id, length):
        def move():
            tree.add_snake(node_id, length)
            return 1

        return move

    moves = [make(node_id, rng.uniform(0.0, 50.0)) for node_id in picks]
    buffered = [n.node_id for n in tree.buffers()]
    if buffered:
        site = rng.choice(buffered)
        scale = rng.uniform(0.7, 1.4)

        def resize():
            tree.place_buffer(site, tree.node(site).buffer.scaled(scale))
            return 1

        moves.append(resize)
    batch = evaluator.evaluate_candidates(tree, moves)
    for score, move in zip(batch, moves):
        token = tree.checkpoint()
        move()
        assert score.total_capacitance == tree.total_capacitance()
        assert score.wirelength == tree.total_wirelength()
        tree.rollback_to(token)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_snapshot_equals_a_fresh_computation_after_every_step(seed):
    rng = random.Random(seed)
    tree = buffered_zst_tree(sink_count=rng.randint(6, 14), seed=rng.randrange(50))
    evaluator = ClockNetworkEvaluator(CONFIG)
    assert_matches_fresh(evaluator, tree)
    twin = None
    for _ in range(10):
        action = rng.randrange(9)
        if action == 0:
            random_mutation(tree, rng)
        elif action == 1:
            surgery(tree, rng)
        elif action == 2:
            token = tree.checkpoint()
            random_mutation(tree, rng)
            assert_matches_fresh(evaluator, tree)
            tree.rollback_to(token)
        elif action == 3:
            token = tree.checkpoint()
            surgery(tree, rng)
            tree.release(token)
        elif action == 4:
            # Rolled back, the removed nodes return at the end of the node
            # table under their old revisions and structure revision.
            token = tree.checkpoint()
            tree.remove_subtree(removable(tree, rng))
            assert_matches_fresh(evaluator, tree)
            tree.rollback_to(token)
        elif action == 5:
            twin = tree.clone()
            random_mutation(twin, rng)
            assert_matches_fresh(evaluator, twin)
        elif action == 6 and twin is not None:
            tree.copy_state_from(twin)
        elif action == 7:
            tree.source_resistance = rng.uniform(40.0, 160.0)
        else:
            check_candidates(evaluator, tree, rng)
        tree.validate()
        assert_matches_fresh(evaluator, tree)
