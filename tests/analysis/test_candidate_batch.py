"""Tests for batched candidate evaluation (``evaluate_candidates``).

The contract: scoring K independent candidate moves in one batch returns,
for every candidate, exactly the floats a full ``evaluate()`` would report
with that move applied -- bit-identical, whether the candidate went through
the batched numpy pass or the structure-change fallback -- and leaves the
tree (and the evaluator's incremental state) untouched.
"""

import pytest

from repro.analysis import ClockNetworkEvaluator, EvaluatorConfig
from repro.analysis.evaluator import CandidateBatch, CandidateScore
from repro.cts import ispd09_buffer_library, ispd09_wire_library
from repro.cts.tree import ClockTree, Sink
from repro.geometry import Point
from tests.analysis.test_incremental import buffered_zst_tree

WIRES = ispd09_wire_library()
BUFS = ispd09_buffer_library()


def snake_moves(tree, lengths=(15.0, 40.0, 90.0)):
    """K independent content-only candidate moves (one snake per candidate)."""
    sinks = [s.node_id for s in tree.sinks()]

    def make(length):
        def move():
            tree.add_snake(sinks[0], length)
            tree.add_snake(sinks[-1], length * 0.5)
            return 2

        return move

    return [make(length) for length in lengths]


def reference_scores(tree, moves, engine="arnoldi"):
    """Score each move with a plain apply/evaluate/rollback loop."""
    evaluator = ClockNetworkEvaluator(EvaluatorConfig(engine=engine))
    reports = []
    for move in moves:
        token = tree.checkpoint()
        try:
            move()
            reports.append(evaluator.evaluate(tree, incremental=False))
        finally:
            tree.rollback_to(token)
    return reports


def assert_score_matches_report(score, report):
    assert score.skew == report.skew
    assert score.clr == report.clr
    assert score.max_latency == report.max_latency
    assert score.worst_slew == report.worst_slew
    assert score.total_capacitance == report.total_capacitance
    assert score.wirelength == report.wirelength
    assert score.has_slew_violation == report.has_slew_violation
    assert score.within_capacitance_limit == report.within_capacitance_limit


class TestBatchedParity:
    @pytest.mark.parametrize("engine", ["arnoldi", "elmore"])
    def test_batched_scores_are_bit_identical_to_full_evaluations(self, engine):
        tree = buffered_zst_tree()
        evaluator = ClockNetworkEvaluator(EvaluatorConfig(engine=engine))
        evaluator.evaluate(tree)
        moves = snake_moves(tree)
        batch = evaluator.evaluate_candidates(tree, moves)
        assert batch.batched == len(moves)
        assert batch.fallbacks == 0
        for score, report in zip(batch, reference_scores(tree, moves, engine)):
            assert score.batched
            assert score.changed == 2
            assert_score_matches_report(score, report)
        stats = evaluator.cache_stats()
        assert stats["candidate_batches"] == 1
        assert stats["candidates_scored"] == len(moves)

    def test_structure_changing_candidate_falls_back_and_still_matches(self):
        tree = buffered_zst_tree()
        evaluator = ClockNetworkEvaluator(EvaluatorConfig(engine="arnoldi"))
        evaluator.evaluate(tree)
        unbuffered = next(
            n.node_id
            for n in tree.nodes()
            if not n.is_sink and n.parent is not None and not n.has_buffer
        )
        inverter = BUFS.by_name("INV_S").parallel(8)

        def structural_move():
            tree.place_buffer(unbuffered, inverter)
            return 1

        moves = snake_moves(tree)[:1] + [structural_move]
        batch = evaluator.evaluate_candidates(tree, moves)
        assert batch.batched == 1
        assert batch.fallbacks == 1
        assert not batch[1].batched
        for score, report in zip(batch, reference_scores(tree, moves)):
            assert_score_matches_report(score, report)
        assert evaluator.cache_stats()["candidate_fallbacks"] == 1

    def test_candidates_after_a_fallback_are_totalled_against_the_base_tree(self):
        # The fallback evaluates the tree with its buffer placed; the snake
        # scored after it must not count that buffer's capacitance.
        tree = buffered_zst_tree()
        evaluator = ClockNetworkEvaluator(EvaluatorConfig(engine="arnoldi"))
        evaluator.evaluate(tree)
        unbuffered = next(
            n.node_id
            for n in tree.nodes()
            if not n.is_sink and n.parent is not None and not n.has_buffer
        )

        def structural_move():
            tree.place_buffer(unbuffered, BUFS.by_name("INV_S").parallel(8))
            return 1

        moves = [structural_move] + snake_moves(tree)[:1]
        batch = evaluator.evaluate_candidates(tree, moves)
        assert batch.fallbacks == 1 and batch.batched == 1
        for score, report in zip(batch, reference_scores(tree, moves)):
            assert_score_matches_report(score, report)

    def test_total_capacitance_adds_left_to_right_like_the_tree(self):
        # 1.0 + 1e-16 + 1e-16 is 1.0 added left to right, as
        # ClockTree.total_capacitance does, but 1.0000000000000002 under a
        # compensated sum (the builtin sum() from Python 3.12 on).
        tree = ClockTree(Point(0.0, 0.0), default_wire=WIRES.widest)
        sinks = [
            tree.add_sink(tree.root_id, Point(0.0, 0.0), Sink(name, cap))
            for name, cap in (("a", 1.0), ("b", 1e-16), ("c", 1e-16))
        ]
        evaluator = ClockNetworkEvaluator(EvaluatorConfig(engine="arnoldi"))
        evaluator.evaluate(tree)

        def move():
            tree.add_snake(sinks[0], 0.0)
            return 1

        batch = evaluator.evaluate_candidates(tree, [move])
        assert batch.batched == 1
        move()
        report = evaluator.evaluate(tree)
        assert report.total_capacitance == tree.total_capacitance() == 1.0
        assert batch[0].total_capacitance == report.total_capacitance
        assert batch[0].wirelength == report.wirelength

    def test_totals_follow_node_order_after_a_rolled_back_remove_subtree(self):
        # A rolled-back remove_subtree re-inserts the removed nodes at the end
        # of the node table under their old revisions.  Summed in the new
        # order (1.0, 1e-16, then 1e-16) the capacitance is 1.0, as
        # evaluate() reports; the old order gives 1.0000000000000002.
        tree = ClockTree(Point(0.0, 0.0), default_wire=WIRES.widest)
        sinks = [
            tree.add_sink(tree.root_id, Point(0.0, 0.0), Sink(name, cap))
            for name, cap in (("a", 1e-16), ("b", 1e-16), ("c", 1.0))
        ]
        evaluator = ClockNetworkEvaluator(EvaluatorConfig(engine="arnoldi"))
        evaluator.evaluate(tree)

        def move():
            tree.add_snake(sinks[2], 0.0)
            return 1

        assert evaluator.evaluate_candidates(tree, [move])[0].total_capacitance == (
            1.0000000000000002
        )
        token = tree.checkpoint()
        tree.remove_subtree(sinks[0])
        tree.rollback_to(token)
        batch = evaluator.evaluate_candidates(tree, [move])
        assert batch.batched == 1
        move()
        report = evaluator.evaluate(tree)
        assert report.total_capacitance == tree.total_capacitance() == 1.0
        assert batch[0].total_capacitance == report.total_capacitance
        assert batch[0].wirelength == report.wirelength

    def test_vacuous_candidate_scores_changed_zero(self):
        tree = buffered_zst_tree()
        evaluator = ClockNetworkEvaluator(EvaluatorConfig(engine="arnoldi"))
        evaluator.evaluate(tree)
        batch = evaluator.evaluate_candidates(
            tree, [lambda: 0] + snake_moves(tree)[:1]
        )
        assert batch[0].changed == 0
        assert batch[1].changed == 2

    def test_tree_and_incremental_state_are_left_untouched(self):
        tree = buffered_zst_tree()
        evaluator = ClockNetworkEvaluator(EvaluatorConfig(engine="arnoldi"))
        baseline = evaluator.evaluate(tree)
        evaluator.evaluate_candidates(tree, snake_moves(tree))
        after = evaluator.evaluate(tree)
        assert after.corners[after.fast_corner].latency == (
            baseline.corners[baseline.fast_corner].latency
        )
        assert after.summary() == baseline.summary()

    def test_empty_batch(self):
        tree = buffered_zst_tree()
        evaluator = ClockNetworkEvaluator(EvaluatorConfig(engine="arnoldi"))
        batch = evaluator.evaluate_candidates(tree, [])
        assert len(batch) == 0
        assert batch.batched == 0 and batch.fallbacks == 0


class TestSerialFallbackModes:
    def test_spice_engine_scores_serially_with_matching_results(self):
        from repro.testing import make_manual_tree

        tree = make_manual_tree()
        evaluator = ClockNetworkEvaluator(EvaluatorConfig(engine="spice"))
        evaluator.evaluate(tree)
        moves = snake_moves(tree, lengths=(20.0, 60.0))
        batch = evaluator.evaluate_candidates(tree, moves)
        assert batch.batched == 0
        for score, report in zip(batch, reference_scores(tree, moves, "spice")):
            assert_score_matches_report(score, report)


class TestBatchContainer:
    def test_iteration_and_indexing(self):
        scores = [
            CandidateScore(
                index=i,
                changed=1,
                skew=float(i),
                clr=0.0,
                max_latency=0.0,
                worst_slew=0.0,
                total_capacitance=0.0,
                wirelength=0.0,
                slew_limit=100.0,
                capacitance_limit=None,
                batched=True,
            )
            for i in range(3)
        ]
        batch = CandidateBatch(scores=scores, batched=3, fallbacks=0)
        assert len(batch) == 3
        assert [s.index for s in batch] == [0, 1, 2]
        assert batch[2].skew == 2.0

    def test_constraint_predicates(self):
        score = CandidateScore(
            index=0,
            changed=1,
            skew=0.0,
            clr=0.0,
            max_latency=0.0,
            worst_slew=120.0,
            total_capacitance=50.0,
            wirelength=0.0,
            slew_limit=100.0,
            capacitance_limit=40.0,
            batched=True,
        )
        assert score.has_slew_violation
        assert not score.within_capacitance_limit
