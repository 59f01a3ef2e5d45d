"""Tests for Monte Carlo runner jobs and the ``repro mc`` subcommand."""

import json

import pytest

from repro.api.service import SynthesisService
from repro.cli import main
from repro.runner import (
    McJobSpec,
    execute_job_guarded,
    run_mc_job,
    table_mc,
    variation_model_for,
)
from repro.core import FlowConfig


class TestMcJobSpec:
    def test_label_is_filesystem_safe_and_descriptive(self):
        spec = McJobSpec(instance="ispd09:ispd09f22:0.1", samples=500, gated=True)
        assert ":" not in spec.label
        assert "mc500" in spec.label
        assert "gated" in spec.label

    def test_validation(self):
        with pytest.raises(ValueError, match="samples"):
            McJobSpec(instance="ti:30", samples=0)
        with pytest.raises(ValueError, match="family"):
            McJobSpec(instance="ti:30", family="magic")
        with pytest.raises(ValueError, match="analytical"):
            McJobSpec(instance="ti:30", engine="spice")

    def test_gated_requires_contango_without_pipeline_override(self):
        # A silently ungated record claiming gated=True would poison
        # gated-vs-ungated ablation comparisons.
        with pytest.raises(ValueError, match="not available for flow"):
            McJobSpec(instance="ti:30", flow="unoptimized_dme", gated=True)
        with pytest.raises(ValueError, match="mutually exclusive"):
            McJobSpec(instance="ti:30", gated=True, pipeline=("initial",))

    def test_variation_model_for_families(self):
        config = FlowConfig()
        anchored = variation_model_for(
            McJobSpec(instance="ti:30", family="corner_anchored"), config
        )
        assert anchored.family == "corner_anchored"
        assert {a.name for a in anchored.anchors} == {c.name for c in config.corners}
        independent = variation_model_for(McJobSpec(instance="ti:30"), config)
        assert independent.family == "independent"


class TestRunMcJob:
    def test_record_is_json_serializable_and_complete(self):
        record = run_mc_job(McJobSpec(instance="ti:30", samples=64, seed=3))
        json.dumps(record.to_record())  # must not raise
        assert record.sinks == 30
        assert record.yield_.n_samples == 64
        assert 0.0 <= record.yield_.skew_yield <= 1.0
        assert record.nominal.flow == "contango"
        assert record.wall_clock_s > 0.0

    def test_same_seed_is_bit_reproducible_and_seeds_differ(self):
        a = run_mc_job(McJobSpec(instance="ti:30", samples=64, seed=3))
        b = run_mc_job(McJobSpec(instance="ti:30", samples=64, seed=3))
        c = run_mc_job(McJobSpec(instance="ti:30", samples=64, seed=4))
        assert a.yield_ == b.yield_
        assert a.yield_ != c.yield_

    def test_seed_does_not_change_the_instance_or_nominal_flow(self):
        a = run_mc_job(McJobSpec(instance="ti:30", samples=16, seed=3))
        b = run_mc_job(McJobSpec(instance="ti:30", samples=16, seed=4))
        assert a.nominal.skew_ps == b.nominal.skew_ps
        assert a.nominal.wirelength_um == b.nominal.wirelength_um

    def test_gated_job_uses_variation_pipeline(self):
        record = run_mc_job(
            McJobSpec(instance="ti:30", samples=32, seed=3, gated=True)
        )
        assert record.gated is True
        assert record.variation_gate["checks"] >= 0
        assert record.variation_gate["reference_p95_ps"] is not None

    def test_gated_job_gates_against_the_requested_family(self):
        # The gate must screen the same distribution the job reports, not
        # silently fall back to the default independent model.
        record = run_mc_job(
            McJobSpec(
                instance="ti:30",
                samples=32,
                seed=3,
                gated=True,
                family="corner_anchored",
            )
        )
        assert record.variation_gate["model"]["family"] == "corner_anchored"
        assert record.yield_.model["family"] == "corner_anchored"

    def test_gate_samples_controls_gate_fidelity_only(self):
        record = run_mc_job(
            McJobSpec(
                instance="ti:30", samples=48, seed=3, gated=True, gate_samples=24
            )
        )
        assert record.variation_gate["samples"] == 24
        assert record.yield_.n_samples == 48
        with pytest.raises(ValueError, match="gate_samples"):
            McJobSpec(instance="ti:30", gated=True, gate_samples=1)

    def test_guarded_worker_reports_errors(self):
        record = execute_job_guarded(McJobSpec(instance="nope:1", samples=8))
        assert record.error is not None
        assert "unknown instance spec" in record.error
        # The failure envelope keeps the job-identity axes for compare.
        assert record.samples == 8
        assert record.seed == 7


class TestMcBatchAndTable:
    def jobs(self):
        return [
            McJobSpec(instance="ti:30", samples=32, seed=3),
            McJobSpec(instance="ti:30", samples=32, seed=3, family="corner_anchored"),
        ]

    def test_parallel_matches_serial_bit_for_bit(self):
        with SynthesisService(max_workers=1) as service:
            serial = service.run(self.jobs())
        with SynthesisService(max_workers=2) as service:
            parallel = service.run(self.jobs())
        assert [r.yield_ for r in serial.records] == [
            r.yield_ for r in parallel.records
        ]

    def test_table_mc_renders_yield_columns(self):
        with SynthesisService() as service:
            batch = service.run(self.jobs())
        rendered = table_mc(batch.records)
        assert "p95[ps]" in rendered
        assert "yield[%]" in rendered
        assert "corner_anchored" in rendered


class TestMcCli:
    def test_mc_streams_per_job_json_and_summary(self, tmp_path, capsys):
        out_dir = tmp_path / "mc"
        summary_path = tmp_path / "summary.json"
        code = main(
            [
                "mc",
                "--instance", "ti:30",
                "--samples", "32",
                "--samples", "64",
                "--seed", "3",
                "--jobs", "2",
                "--output-dir", str(out_dir),
                "--summary-json", str(summary_path),
            ]
        )
        assert code == 0
        per_job = sorted(p.name for p in out_dir.glob("*.json"))
        assert len(per_job) == 2
        summary = json.loads(summary_path.read_text())
        assert summary["jobs"] == 2
        assert {record["samples"] for record in summary["records"]} == {32, 64}
        printed = capsys.readouterr().out
        assert "yield[%]" in printed

    def test_mc_without_instance_fails_clearly(self, capsys):
        code = main(["mc"])
        assert code == 2
        assert "--instance" in capsys.readouterr().err

    def test_mc_propagates_job_failure_as_exit_code(self, capsys):
        code = main(["mc", "--instance", "nope:1", "--samples", "8"])
        assert code == 1

    def test_mc_invalid_spec_is_a_clean_cli_error(self, capsys):
        code = main(["mc", "--instance", "ti:30", "--samples", "0"])
        assert code == 2
        assert "samples" in capsys.readouterr().err
        code = main(
            ["mc", "--instance", "ti:30", "--flow", "unoptimized_dme", "--gated"]
        )
        assert code == 2
        assert "gated" in capsys.readouterr().err.lower()
