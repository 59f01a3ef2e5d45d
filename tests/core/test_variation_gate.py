"""Tests for the Monte Carlo p95-skew acceptance gate and its IVC wiring."""

import pytest

from repro.analysis import ClockNetworkEvaluator, EvaluatorConfig
from repro.analysis.variation import YIELD_SKEW_LIMIT_PS, default_variation_model
from repro.core import (
    ContangoFlow,
    FlowConfig,
    VARIATION_PIPELINE,
    VariationGate,
    available_passes,
    ivc_round,
)
from repro.core.variation import REASON_P95_REGRESSION
from repro.testing import make_small_instance, tree_fingerprint


@pytest.fixture(scope="module")
def optimized():
    instance = make_small_instance(sink_count=24)
    result = ContangoFlow(FlowConfig(engine="arnoldi")).run(instance)
    return instance, result.require_tree()


def _evaluator(instance):
    return ClockNetworkEvaluator(
        config=EvaluatorConfig(engine="arnoldi", slew_limit=instance.slew_limit),
        capacitance_limit=instance.capacitance_limit,
    )


def _gate(instance, evaluator=None, **kwargs):
    kwargs.setdefault("samples", 64)
    kwargs.setdefault("seed", 11)
    kwargs.setdefault("tolerance_ps", 0.0)
    kwargs.setdefault("skew_limit_ps", YIELD_SKEW_LIMIT_PS)
    return VariationGate(
        evaluator or _evaluator(instance), default_variation_model(), **kwargs
    )


class TestVariationGate:
    def test_prime_establishes_reference(self, optimized):
        instance, tree = optimized
        gate = _gate(instance)
        evaluator = gate.evaluator
        report = evaluator.evaluate(tree)
        gate.prime(tree, report)
        reference = gate.reference_p95
        assert reference is not None and reference > 0.0
        # Common random numbers: re-priming on the unchanged tree reproduces
        # the reference exactly.
        gate.prime(tree, report)
        assert gate.reference_p95 == reference

    def test_prime_refreshes_after_ungated_tree_changes(self, optimized):
        # A mixed pipeline (gated pass, then ungated, then gated) must not
        # compare against the stale pre-ungated-pass distribution.
        instance, tree = optimized
        gate = _gate(instance)
        work = tree.clone()
        report = gate.evaluator.evaluate(work)
        gate.prime(work, report)
        stale = gate.reference_p95
        work.add_snake(work.sinks()[0].node_id, 400.0)  # "ungated pass" edit
        gate.prime(work, gate.evaluator.evaluate(work))
        assert gate.reference_p95 != stale

    def test_check_accepts_unchanged_tree_and_commit_promotes(self, optimized):
        instance, tree = optimized
        gate = _gate(instance)
        report = gate.evaluator.evaluate(tree)
        gate.prime(tree, report)
        # Common random numbers: the identical tree reproduces the reference
        # p95 exactly, which is within any non-negative tolerance.
        assert gate.check(tree, report) is None
        gate.commit()
        assert gate.checks == 1
        assert gate.rejections == 0

    def test_check_rejects_p95_regression(self, optimized):
        instance, tree = optimized
        gate = _gate(instance)
        report = gate.evaluator.evaluate(tree)
        gate.prime(tree, report)
        probe = tree.clone()
        # Snaking one sink edge by a lot unbalances the tree: the whole skew
        # distribution (p95 included) shifts up.
        sink_edge = probe.sinks()[0].node_id
        probe.add_snake(sink_edge, 400.0)
        reason = gate.check(probe, report)
        assert reason is not None
        assert REASON_P95_REGRESSION in reason
        assert gate.rejections == 1
        # A rejected check must not move the reference.
        assert gate.check(tree, report) is None

    def test_tolerance_waives_small_regressions(self, optimized):
        instance, tree = optimized
        strict = _gate(instance)
        report = strict.evaluator.evaluate(tree)
        strict.prime(tree, report)
        probe = tree.clone()
        probe.add_snake(probe.sinks()[0].node_id, 400.0)
        regressed_reason = strict.check(probe, report)
        assert regressed_reason is not None
        lenient = _gate(instance, tolerance_ps=1e9)
        lenient.prime(tree, report)
        assert lenient.check(probe, report) is None

    def test_stats_payload(self, optimized):
        instance, tree = optimized
        gate = _gate(instance)
        gate.prime(tree, gate.evaluator.evaluate(tree))
        stats = gate.stats()
        assert stats["samples"] == 64
        assert stats["reference_p95_ps"] == gate.reference_p95
        assert stats["model"]["family"] == "independent"

    def test_parameter_validation(self, optimized):
        instance, _ = optimized
        with pytest.raises(ValueError, match="samples"):
            _gate(instance, samples=1)
        with pytest.raises(ValueError, match="tolerance"):
            _gate(instance, tolerance_ps=-1.0)


class FakeGate:
    """Scripted gate: rejects when told to, records the call protocol."""

    def __init__(self, reject=False):
        self.reject = reject
        self.calls = []

    def prime(self, tree, report):
        self.calls.append("prime")

    def check(self, tree, report):
        self.calls.append("check")
        return "scripted rejection" if self.reject else None

    def commit(self):
        self.calls.append("commit")


class TestIvcGateWiring:
    def _snake_round(self, tree, evaluator, gate, best_objective, length=25.0):
        """One IVC round snaking a sink edge."""
        node_id = tree.sinks()[0].node_id
        return ivc_round(
            tree,
            evaluator,
            lambda: (tree.add_snake(node_id, length) or 1),
            objective="skew",
            best_objective=best_objective,
            gate=gate,
        )

    def test_gate_rejection_rolls_back(self, optimized):
        instance, tree = optimized
        work = tree.clone()
        evaluator = _evaluator(instance)
        fingerprint = tree_fingerprint(work)
        # best_objective=inf makes the nominal triage accept any change, so
        # the gate is the deciding check.
        outcome = self._snake_round(work, evaluator, FakeGate(reject=True), float("inf"))
        assert not outcome.accepted
        assert outcome.reason == "scripted rejection"
        assert tree_fingerprint(work) == fingerprint

    def test_gate_acceptance_commits(self, optimized):
        instance, tree = optimized
        work = tree.clone()
        evaluator = _evaluator(instance)
        gate = FakeGate(reject=False)
        outcome = self._snake_round(work, evaluator, gate, float("inf"))
        assert outcome.accepted
        assert gate.calls == ["check", "commit"]
        assert work.sinks()[0].snake_length == 25.0

    def test_gate_not_consulted_for_non_improving_rounds(self, optimized):
        instance, tree = optimized
        work = tree.clone()
        evaluator = _evaluator(instance)
        gate = FakeGate(reject=True)
        baseline = evaluator.evaluate(work)
        # A huge snake on one sink edge regresses nominal skew, so the cheap
        # triage rejects before the expensive gate runs.
        outcome = self._snake_round(work, evaluator, gate, baseline.skew, length=400.0)
        assert not outcome.accepted
        assert outcome.reason != "scripted rejection"
        assert gate.calls == []


class TestVariationAwarePipeline:
    def test_mc_variants_are_registered(self):
        assert {"tbsz_mc", "twsz_mc", "twsn_mc", "bwsn_mc"} <= set(available_passes())

    def test_gated_flow_runs_and_records_gate_stats(self):
        instance = make_small_instance(sink_count=16, with_obstacles=False)
        config = FlowConfig(
            engine="arnoldi",
            pipeline=list(VARIATION_PIPELINE),
            seed=13,
            variation_samples=48,
        )
        result = ContangoFlow(config).run(instance)
        assert [s.stage for s in result.stages] == [
            "INITIAL", "TBSZ", "TWSZ", "TWSN", "BWSN",
        ]
        assert result.variation_gate["checks"] > 0
        assert result.variation_gate["reference_p95_ps"] is not None
        assert not result.require_report().has_slew_violation

    def test_gated_flow_is_deterministic_from_seed(self):
        instance = make_small_instance(sink_count=16, with_obstacles=False)

        def run():
            config = FlowConfig(
                engine="arnoldi",
                pipeline=list(VARIATION_PIPELINE),
                seed=5,
                variation_samples=32,
            )
            return ContangoFlow(config).run(instance)

        first, second = run(), run()
        assert first.skew == second.skew
        assert first.clr == second.clr
        assert first.variation_gate == second.variation_gate

    def test_nominal_pipeline_has_no_gate(self):
        instance = make_small_instance(sink_count=16, with_obstacles=False)
        result = ContangoFlow(FlowConfig(engine="arnoldi")).run(instance)
        assert result.variation_gate == {}

    def test_spice_engine_rejected_for_gated_pipelines(self):
        instance = make_small_instance(sink_count=16, with_obstacles=False)
        config = FlowConfig(pipeline=list(VARIATION_PIPELINE))
        with pytest.raises(ValueError, match="analytical engine"):
            ContangoFlow(config).run(instance)
