"""Stage content keys against the nested keys they replaced.

``nested_stage_key`` is the frozen reference: the key the evaluator built
before stage keys went flat, ``((driver_id, revision[, source resistance]),
((edge, revision), ...))``.  Over random edits, rollbacks, released
checkpoints, clones and ``copy_state_from`` restores, two production keys
must be equal exactly when their nested keys are, so the stage cache hits
and misses exactly as it did.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ClockNetworkEvaluator, EvaluatorConfig
from repro.analysis.evaluator import _stage_key
from tests.analysis.test_incremental import buffered_zst_tree, random_mutation


def nested_stage_key(tree, stage, revisions):
    driver_id = stage.driver_id
    if tree.node(driver_id).buffer is None:
        head = (driver_id, revisions[driver_id], tree.source_resistance)
    else:
        head = (driver_id, revisions[driver_id])
    return head, tuple((edge, revisions[edge]) for edge in stage.edges)


def key_pairs(evaluator, tree):
    """(production key, nested key) of every stage of ``tree``."""
    revisions = tree.node_revisions
    return {
        (_stage_key(tree, stage, revisions)[0], nested_stage_key(tree, stage, revisions))
        for stage in evaluator.cache.topology(tree).stages
    }


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_flat_keys_are_equal_exactly_when_nested_keys_are(seed):
    rng = random.Random(seed)
    evaluator = ClockNetworkEvaluator(EvaluatorConfig(engine="arnoldi"))
    trees = [buffered_zst_tree(sink_count=rng.randint(6, 14), seed=rng.randrange(50))]
    pairs = key_pairs(evaluator, trees[0])
    for _ in range(12):
        tree = rng.choice(trees)
        action = rng.randrange(6)
        if action == 0:
            random_mutation(tree, rng)
        elif action == 1:
            token = tree.checkpoint()
            random_mutation(tree, rng)
            pairs |= key_pairs(evaluator, tree)
            tree.rollback_to(token)
        elif action == 2:
            token = tree.checkpoint()
            random_mutation(tree, rng)
            tree.release(token)
        elif action == 3:
            trees.append(tree.clone())
        elif action == 4:
            tree.copy_state_from(rng.choice(trees))
        else:
            tree.source_resistance = rng.uniform(40.0, 160.0)
        pairs |= key_pairs(evaluator, tree)
    flat = {key for key, _ in pairs}
    nested = {key for _, key in pairs}
    assert len(flat) == len(nested) == len(pairs)
