"""Tests for job execution (repro.runner) and the ``python -m repro`` CLI."""

import json
from pathlib import Path

import pytest

from repro.api.service import SynthesisService
from repro.cli import main
from repro.runner import (
    JobSpec,
    McJobSpec,
    available_flows,
    resolve_instance,
    run_job,
    sanitize_spec,
    table_iii,
    table_iv,
)


GOLDEN = Path(__file__).parent.parent / "golden" / "legacy_records.json"


def legacy_records():
    return json.loads(GOLDEN.read_text())


class TestJobSpec:
    def test_label_is_filesystem_safe(self):
        spec = JobSpec(instance="ispd09:ispd09f22:0.1", flow="contango", engine="elmore")
        assert ":" not in spec.label
        assert "/" not in spec.label

    def test_sanitizer_preserves_separators(self):
        # Stripping ':' outright mapped ti:200 and ti2:00 to the same label,
        # so one job's result file silently overwrote the other's.
        assert sanitize_spec("ti:200") != sanitize_spec("ti2:00")
        assert JobSpec(instance="ti:200").label != JobSpec(instance="ti2:00").label
        assert (
            McJobSpec(instance="ti:200").label != McJobSpec(instance="ti2:00").label
        )

    def test_sanitizer_is_injective_over_replacement_characters(self):
        # Literal '-', '_' and '%' must not collide with the ':' / '/'
        # replacements; the reserved set is percent-escaped first.
        specs = ["file:a_b", "file:a/b", "file:a-b", "file:a:b", "file:a%b"]
        labels = {sanitize_spec(spec) for spec in specs}
        assert len(labels) == len(specs)
        for label in labels:
            assert ":" not in label and "/" not in label

    def test_scenario_labels_distinct_and_safe(self):
        a = JobSpec(instance="scenario:maze:sinks=16")
        b = JobSpec(instance="scenario:maze:sinks=1,walls=6")
        assert a.label != b.label
        assert ":" not in a.label and "/" not in a.label

    def test_resolve_ti_instance(self):
        instance = resolve_instance(JobSpec(instance="ti:40"))
        assert instance.sink_count == 40

    def test_resolve_ti_with_seed_changes_instance(self):
        a = resolve_instance(JobSpec(instance="ti:40"))
        b = resolve_instance(JobSpec(instance="ti:40", seed=9))
        positions_a = sorted((s.position.x, s.position.y) for s in a.sinks)
        positions_b = sorted((s.position.x, s.position.y) for s in b.sinks)
        assert positions_a != positions_b

    def test_resolve_scaled_ispd09_instance(self):
        instance = resolve_instance(JobSpec(instance="ispd09:ispd09f22:0.1"))
        assert 0 < instance.sink_count < 91

    def test_bad_specs_raise(self):
        with pytest.raises(ValueError, match="sink count"):
            resolve_instance(JobSpec(instance="ti:lots"))
        with pytest.raises(ValueError, match="unknown instance spec"):
            resolve_instance(JobSpec(instance="nope:1"))

    def test_available_flows_lists_contango_and_baselines(self):
        flows = available_flows()
        assert "contango" in flows
        assert "unoptimized_dme" in flows


class TestRunJob:
    def test_record_is_json_serializable_and_complete(self):
        record = run_job(JobSpec(instance="ti:30", engine="elmore"))
        json.dumps(record.to_record())  # must not raise
        assert record.sinks == 30
        assert record.summary.flow == "contango"
        assert [row.stage for row in record.stage_table] == [
            "INITIAL", "TBSZ", "TWSZ", "TWSN", "BWSN",
        ]
        assert record.wall_clock_s > 0.0

    def test_custom_pipeline_travels_through_the_spec(self):
        record = run_job(
            JobSpec(instance="ti:30", engine="elmore", pipeline=("initial", "twsz"))
        )
        assert [row.stage for row in record.stage_table] == ["INITIAL", "TWSZ"]
        assert record.pipeline == ["initial", "twsz"]

    def test_unknown_flow_raises(self):
        with pytest.raises(ValueError, match="unknown flow"):
            run_job(JobSpec(instance="ti:30", flow="nope"))


class TestTables:
    def test_table_iv_renders_one_row_per_job(self):
        with SynthesisService() as service:
            batch = service.run([JobSpec(instance="ti:30", engine="elmore")])
        rendered = table_iv(batch.records)
        assert "CLR[ps]" in rendered
        assert "contango" in rendered

    def test_table_iii_renders_stage_rows(self):
        record = run_job(JobSpec(instance="ti:30", engine="elmore"))
        rendered = table_iii(record)
        for stage in ("INITIAL", "TBSZ", "BWSN"):
            assert stage in rendered


class TestCli:
    def test_run_streams_per_job_json_and_summary(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        summary_path = tmp_path / "summary.json"
        code = main(
            [
                "run",
                "--instance", "ti:30",
                "--flow", "contango",
                "--flow", "unoptimized_dme",
                "--engine", "elmore",
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
        assert len(summary["records"]) == 2
        printed = capsys.readouterr().out
        assert "CLR[ps]" in printed

    def test_run_propagates_job_failure_as_exit_code(self, tmp_path, capsys):
        code = main(["run", "--instance", "nope:1", "--jobs", "1"])
        assert code == 1

    def test_table_rerenders_summary_file(self, tmp_path, capsys):
        summary_path = tmp_path / "summary.json"
        main(
            [
                "run",
                "--instance", "ti:30",
                "--engine", "elmore",
                "--summary-json", str(summary_path),
            ]
        )
        capsys.readouterr()
        code = main(["table", "--input", str(summary_path), "--stages"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "INITIAL" in printed

    @pytest.mark.parametrize(
        "content, reason",
        [
            (None, "No such file or directory"),
            ("not json", "Expecting value"),
            ("[1, 2]", "not a job record"),
            ('{"job": "x", "stage_table": [1]}', "StageRow must be a JSON object"),
            ('{"job": "x", "summary": 5}', "RunSummary must be a JSON object"),
            ('{"job": "x", "summary": {"skew_ps": "abc"}}', "Unknown format code 'f'"),
            ('{"job": "x", "yield": {"skew_yield": "abc"}}', "can't multiply sequence"),
        ],
        ids=["missing", "not-json", "not-a-record", "bad-stage-row", "bad-summary",
             "bad-summary-value", "bad-yield-value"],
    )
    def test_table_reports_bad_input_in_one_line(self, tmp_path, capsys, content, reason):
        path = tmp_path / "bad.json"
        if content is not None:
            path.write_text(content)
        code = main(["table", "--input", str(path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro table: {path}: ")
        assert reason in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_table_renders_each_job_of_a_directory_once(self, tmp_path, capsys):
        # The README layout: the --summary-json file sits in the --output-dir.
        results = tmp_path / "results"
        code = main(
            [
                "run",
                "--instance", "ti:30",
                "--instance", "ti:40",
                "--engine", "elmore",
                "--pipeline", "initial",
                "--output-dir", str(results),
                "--summary-json", str(results / "summary.json"),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["table", "--input", str(results), "--stages"]) == 0
        blocks = capsys.readouterr().out.split("\n\n")
        assert len(blocks[0].splitlines()) == 2 + 2  # header, rule, one row per job
        assert [block.splitlines()[0] for block in blocks[1:]] == [
            "== ti-30__contango__elmore__initial ==",
            "== ti-40__contango__elmore__initial ==",
        ]

    def test_table_renders_monte_carlo_summary_file(self, tmp_path, capsys):
        mc = legacy_records()["mc"]
        path = tmp_path / "summary.json"
        path.write_text(json.dumps({"jobs": 1, "records": [mc]}))
        code = main(["table", "--input", str(path)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "yield[%]" in printed and "p95[ps]" in printed
        assert f"{mc['yield']['skew_p95_ps']:.2f}" in printed
        assert "latency[ps]" not in printed  # no empty Table IV

    def test_table_reports_failed_jobs(self, tmp_path, capsys):
        records = legacy_records()
        for name in ("run", "error"):
            (tmp_path / f"{name}.json").write_text(json.dumps(records[name]))
        code = main(["table", "--input", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert f"{records['run']['summary']['skew_ps']:.2f}" in captured.out
        assert f"job {records['error']['job']} failed:" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--instance", "ti:8", "--jobs", "0"],
            ["sweep", "--instance", "ti:8", "--store", "STORE", "--jobs", "0"],
            ["mc", "--instance", "ti:8", "--jobs", "0"],
            ["serve", "--port", "0", "--workers", "0"],
            ["serve", "--port", "0", "--max-queue", "0"],
            ["perf", "run", "--list-cases", "--repeats", "0"],
        ],
        ids=["run-jobs", "sweep-jobs", "mc-jobs", "serve-workers", "serve-max-queue",
             "perf-repeats"],
    )
    def test_counts_below_one_fail_at_parse_time(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path / "store") if arg == "STORE" else arg for arg in argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert f"argument {argv[-2]}: expected an integer >= 1, got '0'" in err

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["serve", "--port", "70000"], "a port 0-65535"),
            (["serve", "--port", "-1"], "a port 0-65535"),
            (["trace", "STORE", "--top", "0"], "an integer >= 1"),
            (["trace", "STORE", "--top", "-1"], "an integer >= 1"),
        ],
        ids=["serve-port-high", "serve-port-negative", "trace-top-zero", "trace-top-negative"],
    )
    def test_out_of_range_values_fail_at_parse_time(self, tmp_path, capsys, argv, expected):
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path / "store") if arg == "STORE" else arg for arg in argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert f"argument {argv[-2]}: expected {expected}, got '{argv[-1]}'" in err

    def test_list_passes_works_standalone(self, capsys):
        code = main(["run", "--list-passes"])
        assert code == 0
        printed = capsys.readouterr().out.split()
        assert printed == [
            "bounded_skew",
            "bwsn",
            "bwsn_k",
            "bwsn_mc",
            "greedy_buffered",
            "initial",
            "tbsz",
            "tbsz_k",
            "tbsz_mc",
            "twsn",
            "twsn_k",
            "twsn_mc",
            "twsz",
            "twsz_k",
            "twsz_mc",
            "unoptimized_dme",
        ]

    def test_run_without_instance_fails_clearly(self, capsys):
        code = main(["run"])
        assert code == 2
        assert "--instance" in capsys.readouterr().err

    def test_version_flag_prints_package_version(self, capsys):
        from repro.cli import package_version

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        printed = capsys.readouterr().out
        assert printed.startswith("repro ")
        assert package_version() in printed

    def test_version_matches_module_fallback(self):
        # pyproject and repro.__version__ must not drift apart again.
        import repro
        from repro.cli import package_version

        assert package_version() == repro.__version__
