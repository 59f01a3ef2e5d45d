"""Memoized IVC proposal analytics against the implementations they replaced.

``analytics_reference`` keeps the whole-tree walks the proposals used to
make on every call.  These tests require the production analytics to give
the same values in the same dict order:

* at every proposal of real flows (ti:200 and ti:1000, classic and K-wide
  batched rounds), so before and after accepted and rejected rounds; there
  every proposal sweep is also replayed on a clone through the frozen sweep,
  which must make the same edits, count the same moves and leave the same
  slew headroom, and buffer sizing's depth and bottom-level walks must
  return the frozen walks' values;
* for the wire-delay calibrations, which now probe the live tree under a
  checkpoint: the tree must come back as it went in and the model and the
  evaluator's counters must equal the clone-based oracle's;
* under random sequences of tree edits, checkpoints, rollbacks, clones and
  restores, where the tree's memo must always equal a fresh computation
  and equal whole-tree revisions must always mean equal trees.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ClockNetworkEvaluator, EvaluatorConfig
from repro.core import (
    ContangoFlow,
    FlowConfig,
    bottom_level,
    buffer_sizing,
    slack,
    tuning,
    wiresizing,
    wiresnaking,
)
from repro.core.bottom_level import _independent_probe_edges
from repro.core.config import BATCHED_PIPELINE
from repro.cts import ispd09_buffer_library, ispd09_wire_library
from repro.cts.tree import Sink
from repro.geometry import Point
from repro.testing import make_zst_tree, tree_fingerprint
from repro.workloads import generate_ti_benchmark

import analytics_reference as reference

WIRES = ispd09_wire_library()
INV = ispd09_buffer_library().by_name("INV_S")


def items(mapping):
    return list(mapping.items())


def assert_same_annotation(got, want):
    assert items(got.sink.slow) == items(want.sink.slow)
    assert items(got.sink.fast) == items(want.sink.fast)
    for name in ("edge_slow", "edge_fast", "delta_slow", "delta_fast"):
        assert items(getattr(got, name)) == items(getattr(want, name)), name


def assert_same_budget(got, want):
    assert items(got._edge_to_stage) == items(want._edge_to_stage)
    assert items(got._headroom) == items(want._headroom)


def content(tree):
    """``tree_fingerprint`` without revisions, which one process-wide counter draws."""
    root_id, _, nodes = tree_fingerprint(tree)
    return root_id, tuple(node[:-1] for node in nodes)


def frozen_budget(arg):
    """A frozen-sweep copy of a production slew budget (other arguments pass through)."""
    if isinstance(arg, tuning.SlewBudget):
        return reference.SlewBudget(arg._edge_to_stage, dict(arg._headroom))
    return arg


def tree_state(tree):
    """Everything a probe must restore: content, revisions, node-table order."""
    return (
        tree_fingerprint(tree),
        tree.revision,
        tree.node_ids(),
        len(tree._checkpoints),
    )


@pytest.fixture
def checked(monkeypatch):
    """Run every proposal analytic of the passes beside its oracle."""
    counts = Counter()

    def annotate(tree, report, corners=None):
        got = slack.annotate_tree_slacks(tree, report, corners=corners)
        assert_same_annotation(got, reference.annotate_tree_slacks(tree, report, corners=corners))
        counts["annotate"] += 1
        return got

    def headroom(tree, report):
        got = tuning.stage_slew_headroom(tree, report)
        assert_same_budget(got, reference.stage_slew_headroom(tree, report))
        counts["headroom"] += 1
        return got

    def refreshed(original):
        def refresh(self, tree):
            original(self, tree)
            assert items(self.stage_cap) == items(
                reference.stage_local_downstream_capacitance(tree)
            )
            counts["refresh"] += 1

        return refresh

    def calibrated(original):
        def calibrate(tree, *args, **kwargs):
            before = tree_state(tree)
            model = original(tree, *args, **kwargs)
            assert tree_state(tree) == before
            if model is not None:
                assert items(model.stage_cap) == items(
                    reference.stage_local_downstream_capacitance(tree)
                )
            counts["calibrate"] += 1
            return model

        return calibrate

    def sink_slacks(report, corners=None):
        got = slack.compute_sink_slacks(report, corners=corners)
        want = reference.compute_sink_slacks(report, corners=corners)
        assert items(got.slow) == items(want.slow)
        assert items(got.fast) == items(want.fast)
        counts["sink_slacks"] += 1
        return got

    def replayed(sweep, frozen):
        def replay(tree, *args):
            twin = tree.clone()
            frozen_args = [frozen_budget(arg) for arg in args]
            want = frozen(twin, *frozen_args)
            got = sweep(tree, *args)
            assert got == want
            assert content(tree) == content(twin)
            (budget,) = [arg for arg in args if isinstance(arg, tuning.SlewBudget)]
            (twin_budget,) = [arg for arg in frozen_args if isinstance(arg, reference.SlewBudget)]
            assert items(budget._headroom) == items(twin_budget._headroom)
            counts["sweep"] += 1
            return got

        return replay

    def walked(walk, frozen):
        def checked_walk(tree):
            got = walk(tree)
            want = frozen(tree)
            assert (items(got) if isinstance(got, dict) else got) == (
                items(want) if isinstance(want, dict) else want
            )
            counts["buffer_walk"] += 1
            return got

        return checked_walk

    monkeypatch.setattr(bottom_level, "compute_sink_slacks", sink_slacks)
    for module, name, frozen in (
        (wiresizing, "_downsize_round", reference.downsize_round),
        (wiresnaking, "_snake_round", reference.snake_round),
        (bottom_level, "_tune_sink_edges", reference.tune_sink_edges),
    ):
        monkeypatch.setattr(module, name, replayed(getattr(module, name), frozen))
    for name in ("buffer_depths", "bottom_level_buffers"):
        monkeypatch.setattr(
            buffer_sizing, name, walked(getattr(buffer_sizing, name), getattr(reference, name))
        )
    for module in (wiresizing, wiresnaking):
        monkeypatch.setattr(module, "annotate_tree_slacks", annotate)
    for module in (wiresizing, wiresnaking, bottom_level):
        monkeypatch.setattr(module, "stage_slew_headroom", headroom)
    for model in (tuning.DownsizeModel, tuning.SnakeModel):
        monkeypatch.setattr(model, "refresh", refreshed(model.refresh))
    for module, name in (
        (wiresizing, "calibrate_downsize_model"),
        (wiresnaking, "calibrate_snake_model"),
        (bottom_level, "calibrate_downsize_model"),
        (bottom_level, "calibrate_snake_model"),
    ):
        monkeypatch.setattr(module, name, calibrated(getattr(module, name)))
    return counts


@pytest.mark.parametrize(
    "sinks, pipeline",
    [(200, None), (200, list(BATCHED_PIPELINE)), (1000, None)],
    ids=["ti200", "ti200-batched", "ti1000"],
)
def test_every_proposal_matches_the_oracles(checked, sinks, pipeline):
    instance = generate_ti_benchmark(sinks, seed=1)
    result = ContangoFlow(FlowConfig(engine="arnoldi", pipeline=pipeline)).run(instance)
    passes = result.pass_results.values()
    # Both branches of the IVC round loop ran: accepted rounds and rejections.
    assert sum(p.rounds for p in passes) > 0
    assert any("rejected" in note for p in passes for note in p.notes)
    assert checked["calibrate"] == 4
    assert checked["annotate"] > 0 and checked["headroom"] > 0 and checked["refresh"] > 0
    assert checked["sink_slacks"] > 0 and checked["sweep"] > 0 and checked["buffer_walk"] > 0


def evaluator_for(instance):
    return ClockNetworkEvaluator(
        EvaluatorConfig(engine="arnoldi", slew_limit=instance.slew_limit),
        capacitance_limit=instance.capacitance_limit,
    )


@pytest.mark.parametrize(
    "sinks, pipeline",
    [(200, ["initial"]), (200, ["initial", "tbsz", "twsz"]), (1000, ["initial"])],
    ids=["ti200-initial", "ti200-twsz", "ti1000-initial"],
)
def test_calibration_restores_the_tree_and_matches_the_clone_oracle(sinks, pipeline):
    instance = generate_ti_benchmark(sinks, seed=1)
    tree = ContangoFlow(FlowConfig(engine="arnoldi", pipeline=pipeline)).run(instance).require_tree()
    live, oracle = evaluator_for(instance), evaluator_for(instance)
    live_base, oracle_base = live.evaluate(tree), oracle.evaluate(tree)
    sink_edges = _independent_probe_edges(tree, [s.node_id for s in tree.sinks()], count=5)
    calibrations = [
        (tuning.calibrate_downsize_model, reference.calibrate_downsize_model, (WIRES,), {}),
        (tuning.calibrate_snake_model, reference.calibrate_snake_model, (), {"unit_length": 20.0}),
        (
            tuning.calibrate_downsize_model,
            reference.calibrate_downsize_model,
            (WIRES,),
            {"edge_ids": sink_edges},
        ),
        (
            tuning.calibrate_snake_model,
            reference.calibrate_snake_model,
            (),
            {"unit_length": 5.0, "edge_ids": sink_edges},
        ),
    ]
    for calibrate, calibrate_oracle, args, kwargs in calibrations:
        before = tree_state(tree)
        got = calibrate(tree, live, *args, live_base, **kwargs)
        assert tree_state(tree) == before
        assert not tree._checkpoints
        want = calibrate_oracle(tree, oracle, *args, oracle_base, **kwargs)
        assert got is not None and want is not None
        assert got.calibration == want.calibration
        assert items(got.stage_cap) == items(want.stage_cap)
        assert live.cache_stats() == oracle.cache_stats()
        assert live.run_count == oracle.run_count


def test_headroom_rejects_a_report_of_another_structure():
    instance = generate_ti_benchmark(200, seed=1)
    tree = ContangoFlow(FlowConfig(engine="arnoldi", pipeline=["initial"])).run(instance).require_tree()
    report = evaluator_for(instance).evaluate(tree)
    assert report.topology.structure_revision == tree.structure_revision
    tree.split_edge(tree.sinks()[0].node_id, 0.5)
    with pytest.raises(ValueError, match="structure revision"):
        tuning.stage_slew_headroom(tree, report)


# ----------------------------------------------------------------------
# The memo under random edits
# ----------------------------------------------------------------------
EDITS = ("wire", "snake", "buffer", "unbuffer", "split", "sink", "prune", "move", "surgery")
OPS = EDITS + ("checkpoint", "rollback", "release", "clone", "edit_twin", "restore")


def non_root(tree):
    return [node.node_id for node in tree.nodes() if node.parent is not None]


def edit(tree, op, pick, fraction):
    """Apply one mutation; returns False when the tree offers no target for it."""
    candidates = non_root(tree)
    if op in ("buffer", "sink"):
        candidates = [n for n in candidates if not tree.node(n).is_sink]
    elif op == "unbuffer":
        candidates = [n for n in candidates if tree.node(n).buffer is not None]
    if not candidates:
        return False
    node_id = candidates[pick % len(candidates)]
    node = tree.node(node_id)
    if op == "wire":
        tree.set_wire_type(node_id, WIRES.narrower(node.wire_type) if pick % 2 else WIRES.widest)
    elif op == "snake":
        tree.add_snake(node_id, 50.0 * fraction)
    elif op == "buffer":
        tree.place_buffer(node_id, INV.parallel(1 + pick % 4))
    elif op == "unbuffer":
        tree.remove_buffer(node_id)
    elif op == "split":
        tree.split_edge(node_id, fraction)
    elif op == "sink":
        position = Point(node.position.x + 100.0 * fraction, node.position.y)
        tree.add_sink(node_id, position, Sink(f"extra{pick}", 5.0 + fraction))
    elif op == "prune":
        tree.remove_subtree(node_id)
    elif op == "move":
        tree.move_node(node_id, Point(node.position.x, node.position.y + 80.0 * fraction))
    else:  # "surgery": a direct edit between journal_node() and touch()
        tree.journal_node(node_id)
        node.snake_length += 10.0 * fraction
        tree.touch(node_id)
    return True


def fresh_sink_postorder(tree):
    downstream = reference.downstream_sinks_map(tree)
    return [
        (node.node_id, () if node.is_sink else tuple(c for c in node.children if downstream[c]))
        for node in tree.postorder()
        if downstream[node.node_id]
    ]


def check_memo(tree, seen):
    """The memo equals a fresh computation; an old revision means the old tree."""
    state = tree_fingerprint(tree)
    assert seen.setdefault(tree.revision, state) == state
    assert tree.downstream_sinks_map() == reference.downstream_sinks_map(tree)
    assert tree.sink_postorder() == fresh_sink_postorder(tree)
    assert items(tuning.stage_local_downstream_capacitance(tree)) == items(
        reference.stage_local_downstream_capacitance(tree)
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 1000),
    ops=st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 10**6), st.floats(0.05, 0.95)),
        min_size=1,
        max_size=30,
    ),
)
def test_memo_stays_exact_under_edits_rollbacks_and_clones(seed, ops):
    tree = make_zst_tree(sink_count=6, seed=seed)
    twin = None
    open_checkpoints = []  # (token, revision when it opened)
    seen = {}
    check_memo(tree, seen)
    for op, pick, fraction in ops:
        before = tree.revision
        if op in EDITS:
            if edit(tree, op, pick, fraction):
                assert tree.revision != before
                assert tree.revision not in seen
        elif op == "checkpoint":
            open_checkpoints.append((tree.checkpoint(), tree.revision))
        elif op == "rollback" and open_checkpoints:
            token, revision = open_checkpoints.pop()
            tree.rollback_to(token)
            assert tree.revision == revision
        elif op == "release" and open_checkpoints:
            token, _ = open_checkpoints.pop()
            tree.release(token)
            assert tree.revision == before
        elif op == "clone":
            twin = tree.clone()
            assert twin.revision == tree.revision
        elif op == "edit_twin" and twin is not None:
            twin_before = twin.revision
            if edit(twin, "snake", pick, fraction):
                assert twin.revision != twin_before
                assert tree.revision == before
        elif op == "restore" and twin is not None:
            tree.copy_state_from(twin)
            open_checkpoints.clear()
            assert tree.revision == twin.revision
        check_memo(tree, seen)
        if twin is not None:
            check_memo(twin, seen)
            shares = tree_fingerprint(twin) == tree_fingerprint(tree)
            assert (twin.revision == tree.revision) == shares
