"""Tests for the pass-pipeline architecture (repro.core.pipeline).

The golden test is the refactor's safety net: the pipeline-driven
``ContangoFlow``, configured with the pre-refactor buffer-sizing rejection
policy (``sizing_max_rejections=1``, i.e. stop on first rejection), must
reproduce the Table III stage records captured from the monolithic
pre-refactor flow on the seeded 200-sink TI instance *bit-for-bit* (wall
clock excluded).  The default policy -- retry with halved growth -- is then
asserted to be no worse.

The same runs pin the evaluator's ``cache_stats()`` block, which rides on
every ``RunRecord`` as ``evaluator_cache``: a propagation change that looks
up one extra tap model, or walks one extra stage, shows up here before it
reaches a stored record.  The batched and variation pipelines' runs also
pin the final skew/CLR and every pass's notes, so a change to how IVC rounds
are played (best-of-K, Monte Carlo gated) shows as a moved note or metric.
"""

import json
from pathlib import Path

import pytest

from repro.core import (
    ContangoFlow,
    FlowConfig,
    FlowResult,
    OptimizationPass,
    PipelineDriver,
    available_passes,
    register_pass,
    resolve_pipeline,
)
from repro.api.jobs import JobSpec
from repro.core.config import BATCHED_PIPELINE, VARIATION_PIPELINE
from repro.core.pipeline import PassContext
from repro.runner import run_job
from repro.testing import make_small_instance
from repro.workloads import generate_ti_benchmark

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "ti200_arnoldi_stage_table.json"


@pytest.fixture(scope="module")
def ti200():
    return generate_ti_benchmark(200)


def cache_block(
    hits, misses, moments, full, partial, propagated, total, batches=0, scored=0, tap_models=None
):
    """An ``evaluator_cache`` block of an analytical-engine flow.

    ``tap_models`` defaults to ``misses``; a Monte Carlo gated flow reads
    fewer tap models than it misses stages.
    """
    return {
        "hits": hits,
        "misses": misses,
        "evictions": 0,
        "tap_models": misses if tap_models is None else tap_models,
        "base_moments": moments,
        "networks": 0,
        "timings": 0,
        "stage_lists": 2,
        "propagations_full": full,
        "propagations_partial": partial,
        "stages_propagated": propagated,
        "stages_total": total,
        "candidate_batches": batches,
        "candidates_scored": scored,
        "candidate_fallbacks": 0,
    }


class TestGoldenParity:
    def test_pipeline_flow_reproduces_pre_refactor_stage_table(self, ti200):
        golden = json.loads(GOLDEN_PATH.read_text())["stage_table"]
        config = FlowConfig(engine="arnoldi", sizing_max_rejections=1)
        result = ContangoFlow(config).run(ti200)
        table = result.stage_table()
        for row in table:
            row.pop("elapsed_s")  # wall-clock: not reproducible bit-for-bit
        assert table == golden
        assert result.evaluator_cache == cache_block(771, 609, 609, 3, 27, 882, 1380)

    def test_default_retry_policy_matches_its_own_golden(self, ti200):
        # The retry-at-halved-growth policy is instance-dependent: it beat the
        # stop-on-first-rejection policy on the legacy ti200 instance but not
        # on the repro.seeding-generated one, so superiority cannot be
        # asserted.  What must hold is stability: the default config's final
        # metrics are pinned bit-for-bit alongside the parity table.
        golden = json.loads(GOLDEN_PATH.read_text())["default_policy_final"]
        result = ContangoFlow(FlowConfig(engine="arnoldi")).run(ti200)
        assert result.skew == pytest.approx(golden["skew_ps"], abs=1e-9)
        assert result.clr == pytest.approx(golden["clr_ps"], abs=1e-9)
        assert not result.require_report().has_slew_violation
        assert result.evaluator_cache == cache_block(666, 622, 622, 3, 25, 965, 1288)

    def test_batched_pipeline_cache_accounting(self):
        record = run_job(
            JobSpec(instance="scenario:banks:sinks=40", pipeline=BATCHED_PIPELINE, seed=1)
        )
        assert record.evaluator_cache == cache_block(
            424, 258, 1067, 3, 19, 498, 682, batches=23, scored=63
        )
        # The best-of-K rounds' outcome, not only their cost: the final
        # metrics and every pass's notes (rejections in order, empty and
        # divergence notes).
        assert record.summary.skew_ps == pytest.approx(4.528095756141852, abs=1e-9)
        assert record.summary.clr_ps == pytest.approx(20.409085272805385, abs=1e-9)
        no_improvement = "round rejected: no improvement"
        assert record.pass_notes == {
            "trunk_sliding": ["trunk rebalancing rejected by IVC"],
            "buffer_sizing": [
                "iteration 6 rejected: slew violation",
                "iteration 7 rejected: slew violation",
                "iteration 8 rejected: slew violation",
            ],
            "wiresizing": [
                no_improvement,
                no_improvement,
                "no edge had enough slack to absorb a downsizing",
            ],
            "wiresnaking": [no_improvement] * 3,
            "bottom_level": [
                *[no_improvement] * 3,
                "rise/fall corner sinks diverged; further gains limited",
            ],
        }

    def test_variation_pipeline_pins_gated_rounds(self):
        # Every optimization pass of VARIATION_PIPELINE hands the shared
        # Monte Carlo gate to its IVC engine; the gate's rejections show in
        # the notes and its counters in the record.
        record = run_job(JobSpec(instance="ti:60", pipeline=VARIATION_PIPELINE, seed=1))
        assert record.summary.skew_ps == pytest.approx(5.817030026435759, abs=1e-9)
        assert record.summary.clr_ps == pytest.approx(18.877453779053724, abs=1e-9)
        no_improvement = "round rejected: no improvement"
        p95 = "round rejected: p95 skew regression under variation ({} ps > {} ps reference)"
        assert record.pass_notes == {
            "trunk_sliding": ["trunk rebalancing rejected by IVC"],
            "buffer_sizing": [
                "iteration 3 rejected: slew violation",
                "iteration 5 rejected: slew violation",
                "iteration 8 rejected: slew violation",
            ],
            "wiresizing": [no_improvement] * 3,
            "wiresnaking": [
                no_improvement,
                p95.format("15.385", "15.301"),
                no_improvement,
                p95.format("12.820", "12.819"),
                p95.format("12.820", "12.819"),
                "no edge had a full snaking unit of slack left",
            ],
            "bottom_level": [
                *[no_improvement] * 3,
                "rise/fall corner sinks diverged; further gains limited",
            ],
        }
        assert record.evaluator_cache == cache_block(
            762, 638, 638, 3, 31, 529, 850, tap_models=411
        )
        gate = dict(record.variation_gate)
        assert gate.pop("reference_p95_ps") == pytest.approx(12.81898018437497, abs=1e-9)
        assert gate == {
            "checks": 17,
            "rejections": 3,
            "samples": 128,
            "tolerance_ps": 0.0,
            "model": {
                "family": "independent",
                "vdd_sigma_V": 0.02,
                "driver_sigma": 0.05,
                "wire_res_sigma": 0.04,
                "wire_cap_sigma": 0.04,
            },
        }


class TestRegistry:
    def test_default_passes_are_registered(self):
        assert {"initial", "tbsz", "twsz", "twsn", "bwsn"} <= set(available_passes())

    def test_unknown_pass_raises_with_choices(self):
        with pytest.raises(KeyError, match="unknown optimization pass"):
            resolve_pipeline(["definitely_not_a_pass"])

    def test_duplicate_registration_rejected(self):
        class Duplicate(OptimizationPass):
            name = "initial"

        with pytest.raises(ValueError, match="already registered"):
            register_pass(Duplicate)

    def test_unnamed_pass_rejected(self):
        class Nameless(OptimizationPass):
            pass

        with pytest.raises(ValueError, match="non-empty 'name'"):
            register_pass(Nameless)

    def test_baseline_passes_resolve_lazily(self):
        passes = resolve_pipeline(["unoptimized_dme"])
        assert passes[0].name == "unoptimized_dme"


class TestCustomPipelines:
    def test_truncated_pipeline_runs_selected_stages_only(self):
        instance = make_small_instance(sink_count=16, with_obstacles=False)
        config = FlowConfig(engine="elmore", pipeline=["initial", "twsz"])
        result = ContangoFlow(config).run(instance)
        assert [s.stage for s in result.stages] == ["INITIAL", "TWSZ"]
        assert set(result.pass_results) <= {"wiresizing"}
        result.require_tree().validate()

    def test_baseline_pass_mixes_into_a_pipeline(self):
        instance = make_small_instance(sink_count=16, with_obstacles=False)
        config = FlowConfig(engine="elmore", pipeline=["unoptimized_dme", "twsn"])
        result = ContangoFlow(config).run(instance)
        assert [s.stage for s in result.stages] == ["FINAL", "TWSN"]

    def test_pipeline_without_construction_pass_fails_clearly(self):
        instance = make_small_instance(sink_count=8, with_obstacles=False)
        config = FlowConfig(engine="elmore", pipeline=["twsz"])
        with pytest.raises(RuntimeError, match="construction pass"):
            ContangoFlow(config).run(instance)

    def test_driver_accepts_pass_instances(self):
        recorded = []

        class Probe(OptimizationPass):
            name = "probe-instance"

            def run(self, ctx: PassContext) -> None:
                recorded.append(ctx.instance.name)

        instance = make_small_instance(sink_count=8, with_obstacles=False)
        driver = PipelineDriver(["initial", Probe()], flow_name="probed")
        result = driver.run(instance, FlowConfig(engine="elmore"))
        assert recorded == [instance.name]
        assert result.flow_name == "probed"


class TestFlowResultAccessors:
    def test_unpopulated_result_raises_on_access(self):
        result = FlowResult(instance_name="x", flow_name="y")
        with pytest.raises(ValueError, match="no tree"):
            result.require_tree()
        with pytest.raises(ValueError, match="no final report"):
            result.require_report()
        with pytest.raises(ValueError):
            _ = result.skew

    def test_populated_result_passes_through(self):
        instance = make_small_instance(sink_count=8, with_obstacles=False)
        config = FlowConfig(
            engine="elmore",
            enable_buffer_sizing=False,
            enable_wiresizing=False,
            enable_wiresnaking=False,
            enable_bottom_level=False,
        )
        result = ContangoFlow(config).run(instance)
        assert result.require_tree() is result.tree
        assert result.require_report() is result.final_report
        assert result.skew == result.final_report.skew
