"""Tracing through the real pipeline: determinism, records, store, CLI."""

import json

from repro.api.jobs import JobSpec, McJobSpec
from repro.api.records import McRecord, RunRecord, record_from_dict
from repro.cli import main
from repro.obs import (
    Tracer,
    TraceSummary,
    path_counters,
    path_timings,
    strip_timings,
    trace_artifact,
)
from repro.runner import execute_job_traced, run_job, run_mc_job
from repro.store import RunStore

FAST = ("initial",)


def fast_spec(seed=7):
    return JobSpec(instance="ti:20", engine="elmore", pipeline=FAST, seed=seed)


def comparable(record):
    """A record dict with every wall-clock-bearing field removed."""
    payload = record.to_record()
    payload.pop("trace", None)
    payload.pop("wall_clock_s", None)
    for key in ("summary", "nominal"):
        if isinstance(payload.get(key), dict):
            payload[key].pop("runtime_s", None)
    for row in payload.get("stage_table", []):
        row.pop("elapsed_s", None)
    return payload


class TestResultParity:
    def test_run_job_results_bit_identical_tracing_on_and_off(self):
        traced = run_job(fast_spec(), tracer=Tracer())
        plain = run_job(fast_spec())
        assert traced.fingerprint == plain.fingerprint
        assert plain.trace is None and traced.trace is not None
        assert comparable(traced) == comparable(plain)

    def test_mc_job_results_bit_identical_tracing_on_and_off(self):
        spec = McJobSpec(
            instance="ti:20", engine="elmore", pipeline=FAST, samples=8, seed=3
        )
        traced = run_mc_job(spec, tracer=Tracer())
        plain = run_mc_job(spec)
        assert plain.trace is None and traced.trace is not None
        assert comparable(traced) == comparable(plain)

    def test_span_structure_is_deterministic_across_runs(self):
        payloads = []
        for _ in range(2):
            tracer = Tracer()
            run_job(fast_spec(), tracer=tracer)
            artifact = trace_artifact(tracer, meta={"label": "parity"})
            payloads.append(
                json.dumps(strip_timings(artifact), indent=1, sort_keys=True)
            )
        assert payloads[0] == payloads[1]


class TestInitialChildSpans:
    INITIAL = "job/flow:contango/pass:initial"

    def children(self, tracer):
        prefix = f"{self.INITIAL}/"
        return {path[len(prefix):] for path in path_timings(tracer) if path.startswith(prefix)}

    def test_ti200_job_splits_initial_into_its_layers(self):
        tracer = Tracer()
        run_job(JobSpec(instance="ti:200"), tracer=tracer)
        # No blockages on a TI instance, so no obstacle repair.
        assert self.children(tracer) == {"dme", "buffer_insertion", "polarity"}
        assert not [path for path in path_counters(tracer) if path.startswith(self.INITIAL)]

    def test_obstacle_repair_span_opens_when_the_repair_runs(self):
        tracer = Tracer()
        spec = JobSpec(instance="scenario:maze:sinks=24", engine="elmore", pipeline=FAST)
        run_job(spec, tracer=tracer)
        assert self.children(tracer) == {"dme", "obstacle_repair", "buffer_insertion", "polarity"}


class TestTraceOnRecords:
    def test_traced_worker_attaches_summary_that_survives_the_store(self, tmp_path):
        record = execute_job_traced(fast_spec())
        assert isinstance(record, RunRecord) and record.trace is not None
        store = RunStore(tmp_path / "store")
        store.append(record, run_id="t1")
        (loaded,) = store.typed_records(run_id="t1")
        assert loaded.trace == record.trace
        summary = TraceSummary.from_record(loaded.trace)
        assert summary.spans > 0
        assert {e["name"] for e in summary.top} >= {"flow:contango", "evaluate"}
        assert summary.counters["evaluations"] > 0

    def test_traced_mc_worker_records_yield_sweep(self):
        record = execute_job_traced(
            McJobSpec(
                instance="ti:20", engine="elmore", pipeline=FAST, samples=8, seed=3
            )
        )
        assert isinstance(record, McRecord) and record.trace is not None
        names = {e["name"] for e in TraceSummary.from_record(record.trace).top}
        assert "yield_sweep" in names

    def test_legacy_round_trip_preserves_the_trace_key(self):
        record = execute_job_traced(fast_spec())
        assert record_from_dict(record.to_record()).trace == record.trace

    def test_untraced_record_serializes_without_a_trace_key(self):
        assert "trace" not in run_job(fast_spec()).to_record()


class TestCli:
    def test_profile_prints_tree_and_writes_artifacts(self, tmp_path, capsys):
        json_path = tmp_path / "trace.json"
        chrome_path = tmp_path / "chrome.json"
        code = main(
            [
                "profile", "ti:20",
                "--engine", "elmore",
                "--pipeline", "initial",
                "--json", str(json_path),
                "--chrome", str(chrome_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "flow:contango" in out
        assert "wall-clock" in out and "span(s)" in out
        assert "GC pauses" in out and "collection(s)" in out
        artifact = json.loads(json_path.read_text())
        assert artifact["kind"] == "trace" and artifact["schema"] == 1
        assert all("gc_s" in entry for entry in artifact["timings"])
        assert json.loads(chrome_path.read_text())["traceEvents"]

    def test_profile_surfaces_job_failure_as_exit_1(self, capsys):
        assert main(["profile", "nope:1"]) == 1
        assert "repro profile" in capsys.readouterr().err

    def test_traced_sweep_then_trace_reads_it_back(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert (
            main(
                [
                    "sweep",
                    "--instance", "ti:20",
                    "--engine", "elmore",
                    "--store", store,
                    "--run-id", "t1",
                    "--trace",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["trace", f"{store}@t1"]) == 0
        out = capsys.readouterr().out
        assert "== ti-20__contango__elmore ==" in out
        assert "schema 1" in out and "evaluate" in out

    def test_trace_on_untraced_selection_exits_1(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(
            [
                "sweep",
                "--instance", "ti:20",
                "--engine", "elmore",
                "--store", store,
                "--run-id", "plain",
            ]
        )
        capsys.readouterr()
        assert main(["trace", store]) == 1
        err = capsys.readouterr().err
        assert "no traced records" in err
        assert "repro sweep --trace" in err  # a command that stores traced records

    def test_trace_on_missing_store_exits_2(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "missing")]) == 2
        assert "repro trace" in capsys.readouterr().err
