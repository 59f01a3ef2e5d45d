"""Tests for batched best-of-K IVC rounds and the ``*_k`` pipeline variants.

An ``IvcEngine`` built with ``candidate_scales`` must (a) reduce exactly to
the classic one-proposal loop when given a single 1.0 scale and a
deterministic proposal, (b) produce
the same committed trees whether the evaluator scores candidates batched or
serially (``SerialScoringEvaluator`` is the serial reference; the loop is
oblivious), and (c) be reachable end to end through the registered ``tbsz_k``/``twsz_k``
/``twsn_k``/``bwsn_k`` passes and ``BATCHED_PIPELINE``.
"""

import pytest

from repro.analysis.evaluator import CandidateBatch, ClockNetworkEvaluator, EvaluatorConfig
from repro.core import ContangoFlow, FlowConfig, available_passes, resolve_pipeline
from repro.core.config import BATCHED_PIPELINE, DEFAULT_PIPELINE
from repro.core.ivc import IvcEngine
from repro.core.wiresnaking import top_down_wiresnaking
from repro.testing import make_small_instance, make_zst_tree, tree_fingerprint


class SerialScoringEvaluator(ClockNetworkEvaluator):
    """Scores every candidate move by one full evaluation with the move applied."""

    def evaluate_candidates(self, tree, moves):
        return CandidateBatch(
            scores=[
                self._serial_candidate(tree, index, move)
                for index, move in enumerate(moves)
            ],
            batched=0,
            fallbacks=0,
        )


def fresh_evaluator(factory=ClockNetworkEvaluator, **overrides) -> ClockNetworkEvaluator:
    config = dict(engine="elmore", slew_limit=1e6)
    config.update(overrides)
    return factory(config=EvaluatorConfig(**config))


def content_fingerprint(tree):
    """Tree fingerprint with journal revisions stripped.

    Revisions come from a process-global counter, so two identical trees
    built at different times never share them; only the content rows are
    comparable across separately-constructed trees.
    """
    root_id, _, nodes = tree_fingerprint(tree)
    return (root_id, tuple(row[:-1] for row in nodes))


def snake_proposal(tree):
    """A deterministic aggressiveness-scaled proposal over sink edges."""
    sinks = sorted(s.node_id for s in tree.sinks())

    def propose(state):
        length = 30.0 * state.aggressiveness
        if length < 1.0:
            return 0
        for node_id in sinks[:2]:
            tree.add_snake(node_id, length)
        return 2

    return propose


class TestRunBatched:
    def test_empty_scales_raise(self):
        tree = make_zst_tree(sink_count=8)
        with pytest.raises(ValueError):
            IvcEngine("t", tree, fresh_evaluator(), objective="skew", candidate_scales=())

    def test_single_unit_scale_matches_classic_run(self):
        results = []
        for batched in (False, True):
            tree = make_zst_tree(sink_count=12, seed=5)
            evaluator = fresh_evaluator()
            scales = (1.0,) if batched else None
            engine = IvcEngine(
                "t", tree, evaluator, objective="clr", candidate_scales=scales
            )
            result = engine.run(snake_proposal(tree), max_rounds=4)
            results.append(
                (result.rounds, result.improved, content_fingerprint(tree))
            )
        assert results[0] == results[1]

    def test_batched_and_serial_scoring_commit_identical_trees(self):
        fingerprints = []
        batches = []
        for factory in (ClockNetworkEvaluator, SerialScoringEvaluator):
            tree = make_zst_tree(sink_count=12, seed=5)
            evaluator = fresh_evaluator(factory)
            engine = IvcEngine(
                "t", tree, evaluator, objective="clr", candidate_scales=(1.0, 0.5, 0.25)
            )
            result = engine.run(snake_proposal(tree), max_rounds=4)
            fingerprints.append((result.rounds, content_fingerprint(tree)))
            batches.append(evaluator.cache_stats()["candidate_batches"])
        assert fingerprints[0] == fingerprints[1]
        assert batches[0] > 0 and batches[1] == 0

    def test_vacuous_round_appends_empty_note_and_stops(self):
        tree = make_zst_tree(sink_count=8)
        engine = IvcEngine(
            "t", tree, fresh_evaluator(), objective="skew", candidate_scales=(1.0, 0.5)
        )
        result = engine.run(lambda state: 0, max_rounds=3, empty_note="nothing to do")
        assert "nothing to do" in result.notes
        assert result.rounds == 0

    def test_all_rejected_round_notes_reason_and_decays(self):
        tree = make_zst_tree(sink_count=8)
        evaluator = fresh_evaluator()
        engine = IvcEngine(
            "t", tree, evaluator, objective="skew", candidate_scales=(1.0, 0.5)
        )

        def worsen(state):
            # Snaking one sink edge strictly increases zero-skew tree skew.
            sink = sorted(s.node_id for s in tree.sinks())[0]
            tree.add_snake(sink, 50.0 * state.aggressiveness)
            return 1

        result = engine.run(worsen, max_rounds=5, max_consecutive_rejections=2)
        assert result.rounds == 0
        assert not result.improved
        assert any("rejected" in note for note in result.notes)

    def test_wiresnaking_pass_plays_best_of_k_rounds(self):
        tree = make_zst_tree(sink_count=16, seed=3)
        # A zero-skew tree has no slow-down slack; delaying one sink gives
        # every other sink slack for the snaking rounds to spend.
        slowest = sorted(s.node_id for s in tree.sinks())[0]
        tree.add_snake(slowest, 400.0)
        evaluator = fresh_evaluator(engine="arnoldi")
        result = top_down_wiresnaking(
            tree,
            evaluator,
            max_rounds=4,
            candidate_scales=(1.0, 0.5),
        )
        assert result.improved
        assert evaluator.cache_stats()["candidates_scored"] > 0


class TestBatchedPipelineVariants:
    def test_k_passes_are_registered(self):
        names = available_passes()
        for name in ("tbsz_k", "twsz_k", "twsn_k", "bwsn_k"):
            assert name in names
        passes = resolve_pipeline(list(BATCHED_PIPELINE))
        assert [p.name for p in passes] == list(BATCHED_PIPELINE)
        for p in passes[1:]:
            assert p.candidate_scales == (1.0, 0.5, 0.25)

    def test_default_pipeline_keeps_serial_rounds(self):
        for p in resolve_pipeline(list(DEFAULT_PIPELINE)):
            assert p.candidate_scales is None

    def test_batched_pipeline_end_to_end(self):
        instance = make_small_instance()
        config = FlowConfig(engine="arnoldi", pipeline=list(BATCHED_PIPELINE))
        result = ContangoFlow(config).run(instance)
        report = result.require_report()
        assert report.skew >= 0.0
        assert not report.has_slew_violation
        stats = result.evaluator_cache
        assert stats["candidates_scored"] > 0
        assert stats["candidate_batches"] > 0

    def test_batched_pipeline_no_worse_than_default(self):
        instance = make_small_instance()
        default = ContangoFlow(FlowConfig(engine="arnoldi")).run(instance)
        batched = ContangoFlow(
            FlowConfig(engine="arnoldi", pipeline=list(BATCHED_PIPELINE))
        ).run(instance)
        # Best-of-K rounds explore a superset of the serial proposals; the
        # final skew must stay within the same quality envelope (the exact
        # trajectory differs, so equality is not asserted).
        assert batched.skew <= default.skew * 1.5 + 1.0
