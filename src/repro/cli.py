"""The ``repro`` command line (also reachable as ``python -m repro``).

Every subcommand is a thin adapter over the typed public API
(:mod:`repro.api`): it parses arguments into a
:class:`~repro.api.jobs.JobMatrix`, runs the expanded jobs through one
:class:`~repro.api.service.SynthesisService`, and renders the streamed typed
records (:mod:`repro.api.records`) as JSON files and text tables.

Ten subcommands:

* ``repro run`` -- expand an instance x flow x engine matrix into jobs, fan
  them across ``--jobs`` worker processes, stream one JSON record per job
  into ``--output-dir``, and print a Table IV-style summary;
* ``repro sweep`` -- the scenario lab: expand a scenario family's parameter
  sweep (``--set``/``--sweep`` over :mod:`repro.scenarios` families, plus any
  explicit ``--instance`` specs) times flows and engines, run it through the
  service, and append every completed job to a persistent
  :class:`~repro.store.RunStore` under ``--store`` tagged with ``--run-id``;
* ``repro compare`` -- diff two store selections (``DIR`` or ``DIR@RUN_ID``)
  into a per-scenario skew/CLR/evaluations/wall-clock delta table with
  regression highlighting; ``--fail-on-regression`` turns it into a CI gate;
* ``repro mc`` -- Monte Carlo variation sweeps: synthesize each instance x
  flow cell, then evaluate its skew yield under ``--samples`` randomized
  supply/process scenarios (batched through the vectorized moment path) with
  a per-job seeded RNG; ``--gated`` switches synthesis to the
  variation-aware pipeline (p95-skew-gated IVC rounds);
* ``repro table`` -- re-render saved per-job JSON records (a directory's
  per-job files, or one file): run records as Table IV (and, with
  ``--stages``, per-run Table III stage tables), Monte Carlo records as the
  yield table, and failed jobs on stderr (exit 1);
* ``repro profile`` -- run one job under a live :class:`repro.obs.Tracer`
  and print its span tree (per-span total/self times and counters) and the
  job's collector pauses, with optional schema-1 trace-artifact
  (``--json``, per-span ``gc_s`` in its timings) and Chrome trace-event
  (``--chrome``, opens in Perfetto) exports;
* ``repro trace`` -- read the compact trace summaries back out of a run
  store selection (``STORE[@RUN_ID]``): top spans by self-time plus the
  merged counters of each traced record; ``--diff OTHER[@RUN_ID]`` turns it
  into a counters-only diff by span path (exit 1 on any difference, the
  ``diff`` convention);
* ``repro perf`` -- the performance ledger: ``perf run`` executes registered
  :mod:`repro.perf` cases and appends schema-versioned entries to an
  append-only ledger (``--ledger``) and/or one merged ``BENCH_all.json``
  (``--output``); ``perf compare`` diffs two ledgers/merged files with a
  hard exact-match gate on deterministic counters and soft IQR-banded gates
  on timings, localizing timing regressions to the moved span subtree;
  ``perf trend`` renders per-case history tables across a ledger;
* ``repro serve`` -- the HTTP/JSON job server: an asyncio scheduler over one
  warm :class:`~repro.api.service.SynthesisService` pool with bounded
  fair queueing, in-flight coalescing of identical submissions and a
  content-addressed result cache over the attached run store.  The serving
  stack (and :mod:`asyncio` itself) is imported only inside this handler,
  so the plain batch commands never load it;
* ``repro lint`` -- run the :mod:`repro.lintkit` invariant linter over
  source paths (``src/`` by default) as a text or version-stable JSON report.

``repro --version`` prints the installed package version.  The JSON output
flags are uniform across subcommands: ``--output-dir DIR`` streams one
``<job>.json`` per completed job, ``--summary-json FILE`` writes the whole
batch as one document.  So are the exit codes: a bad argument or input
exits 2 with one ``<prog>: <message>`` line on stderr, a failed job exits 1.

Examples::

    python -m repro run --instance ti:200 --instance scenario:maze:sinks=64 \
        --flow contango --flow unoptimized_dme --jobs 4 --output-dir results
    python -m repro run --instance ti:500 --pipeline initial,tbsz,twsz
    python -m repro sweep --family banks --set sinks=48 \
        --sweep clusters=4,8,16 --flow contango --jobs 4 \
        --store results/store --run-id nightly
    python -m repro compare results/store@baseline results/store@nightly \
        --fail-on-regression
    python -m repro mc --instance ti:200 --samples 1000 --seed 7 \
        --family correlated --jobs 4 --output-dir mc-results
    python -m repro mc --instance ti:200 --samples 500 --gated
    python -m repro table --input results --stages
    python -m repro profile scenario:banks:clusters=8 --flow contango
    python -m repro trace results/store@nightly
    python -m repro trace results/store@baseline --diff results/store@nightly
    python -m repro perf run --ledger benchmarks/perf_ledger --output BENCH_all.json
    python -m repro perf compare benchmarks/perf_ledger perf_candidate \
        --fail-on-counter-regression
    python -m repro perf trend benchmarks/perf_ledger --case evaluator
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Type

from repro.analysis.variation import ANALYTICAL_ENGINES, SAMPLING_FAMILIES
from repro.api.jobs import Job, JobMatrix, JobSpec, McJobSpec, MonteCarloAxes
from repro.api.records import ErrorRecord, McRecord, Record, RunRecord, record_from_dict
from repro.api.service import JobEvent, SynthesisService
from repro.core import FlowConfig, available_passes
from repro.obs import (
    Tracer,
    TraceSummary,
    chrome_trace,
    render_span_tree,
    trace_artifact,
    write_trace,
)
from repro.runner import (
    available_flows,
    render_table,
    run_job,
    table_iii,
    table_iv,
    table_mc,
)
from repro.scenarios import SCENARIO_REGISTRY
from repro.store import (
    COMPARE_COLUMNS,
    COUNTER_COLUMNS,
    CompareTolerances,
    RunStore,
    compare_rows,
    diff_records,
)

__all__ = ["build_parser", "main", "package_version"]


def package_version() -> str:
    """The installed distribution version (falls back to the module version)."""
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("repro-contango")
    except PackageNotFoundError:  # running from a checkout, not installed
        from repro import __version__

        return __version__


def _int_in(text: str, low: int, high: float, expected: str) -> int:
    """``text`` as an integer in ``[low, high]``, else an argparse type error."""
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if not low <= value <= high:
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type of the worker, queue, repeat and row counts: an integer >= 1."""
    return _int_in(text, 1, float("inf"), "an integer >= 1")


def _port(text: str) -> int:
    """argparse type of ``--port``: a TCP port, 0-65535 (0 binds an ephemeral one)."""
    return _int_in(text, 0, 65535, "a port 0-65535")


#: The instance-spec grammar of every subcommand that names instances.
_SPEC_HELP = "ti:<sinks>, ispd09:<name>[:<scale>], scenario:<family>[:k=v,...], file:<path>"
#: The run-store selection syntax of ``repro compare`` and ``repro trace``.
_SELECTION_HELP = (
    "a store directory, optionally @RUN_ID (default: the latest run; @all selects every record)"
)


class _UsageError(Exception):
    """A bad argument or input: :func:`main` prints ``<prog>: <message>`` and exits 2."""


@contextmanager
def _usage_errors(*kinds: Type[Exception], prefix: str = "") -> Iterator[None]:
    """Re-raise the ``kinds`` of error raised inside the block as a :class:`_UsageError`."""
    try:
        yield
    except kinds as error:
        # str() of a KeyError is the repr of its message: print the message.
        message = error.args[0] if isinstance(error, KeyError) and error.args else error
        raise _UsageError(f"{prefix}{message}") from error


def _command(
    commands: argparse._SubParsersAction[argparse.ArgumentParser],
    name: str,
    handler: Callable[[argparse.Namespace], int],
    **kwargs: Any,
) -> argparse.ArgumentParser:
    """Add subcommand ``name``, bound to ``handler`` and to its ``prog`` for usage errors."""
    parser = commands.add_parser(name, **kwargs)
    parser.set_defaults(handler=handler, prog=parser.prog)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Contango reproduction batch runner (DATE'10 clock-network synthesis)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {package_version()}",
        help="print the installed package version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The options every batch subcommand (run, sweep, mc) shares.
    batch = argparse.ArgumentParser(add_help=False)
    batch.add_argument(
        "--flow",
        action="append",
        metavar="NAME",
        help=f"flow to run (repeatable); default {Job.flow}; one of {available_flows()}",
    )
    batch.add_argument("--jobs", type=_positive_int, default=1, help="worker processes (default 1)")
    batch.add_argument(
        "--output-dir",
        metavar="DIR",
        help="write one <job>.json per completed job into DIR (streamed)",
    )
    batch.add_argument(
        "--summary-json",
        metavar="FILE",
        help="write the whole batch (records + wall-clock) as one JSON file",
    )
    batch.add_argument(
        "--trace",
        action="store_true",
        help="run every job under a tracer and attach its trace summary to "
        "the record (results stay bit-identical; read back with 'repro trace')",
    )

    run = _command(
        sub, "run", _cmd_run, parents=[batch],
        help="run an instance x flow x engine job matrix",
    )
    run.add_argument(
        "--instance",
        action="append",
        metavar="SPEC",
        help=f"instance spec (repeatable, required unless --list-passes): {_SPEC_HELP}",
    )
    run.add_argument(
        "--engine",
        action="append",
        metavar="NAME",
        help=f"evaluation engine (repeatable); default {Job.engine} (also: spice, elmore)",
    )
    run.add_argument(
        "--pipeline",
        metavar="P1,P2,...",
        help="comma-separated pass-registry names overriding the default "
        "Contango sequence (see 'repro run --list-passes')",
    )
    run.add_argument("--seed", type=int, help="TI-generator seed override")
    run.add_argument(
        "--list-passes",
        action="store_true",
        help="print the registered optimization passes and exit",
    )

    sweep = _command(
        sub, "sweep", _cmd_sweep, parents=[batch],
        help="scenario-lab sweep: scenario family x flow matrix into a persistent run store",
    )
    sweep.add_argument(
        "--family",
        action="append",
        metavar="NAME",
        help="scenario family to sweep (repeatable; see --list-families)",
    )
    sweep.add_argument(
        "--set",
        action="append",
        dest="sets",
        metavar="K=V",
        default=None,
        help="fix a family parameter for every sweep point (repeatable)",
    )
    sweep.add_argument(
        "--sweep",
        action="append",
        dest="sweeps",
        metavar="K=V1,V2,...",
        default=None,
        help="sweep a family parameter over a value list (repeatable; "
        "multiple axes cross-multiply)",
    )
    sweep.add_argument(
        "--instance",
        action="append",
        metavar="SPEC",
        help=f"extra explicit instance specs to include in the matrix (repeatable): {_SPEC_HELP}",
    )
    sweep.add_argument(
        "--engine",
        action="append",
        metavar="NAME",
        help=f"evaluation engine (repeatable); default {Job.engine} (also: spice, elmore)",
    )
    sweep.add_argument("--seed", type=int, help="instance/flow seed override")
    sweep.add_argument(
        "--store",
        metavar="DIR",
        help="run-store directory; every completed job is appended to "
        "DIR/runs.jsonl (required unless --list-families)",
    )
    sweep.add_argument(
        "--run-id",
        metavar="ID",
        help="store tag for this sweep (default: a UTC timestamp tag)",
    )
    sweep.add_argument(
        "--list-families",
        action="store_true",
        help="print the registered scenario families with their parameters and exit",
    )

    compare = _command(
        sub, "compare", _cmd_compare,
        help="diff two run-store selections into a per-scenario delta table",
    )
    compare.add_argument(
        "baseline", metavar="STORE[@RUN_ID]", help=f"baseline selection: {_SELECTION_HELP}"
    )
    compare.add_argument(
        "candidate",
        metavar="STORE[@RUN_ID]",
        help="candidate selection, same syntax as the baseline",
    )
    compare.add_argument(
        "--skew-tol", type=float, default=CompareTolerances.skew_ps, metavar="PS",
        help="allowed skew increase before a job counts as regressed "
        f"(default {CompareTolerances.skew_ps} ps)",
    )
    compare.add_argument(
        "--clr-tol", type=float, default=CompareTolerances.clr_ps, metavar="PS",
        help="allowed CLR increase before a job counts as regressed "
        f"(default {CompareTolerances.clr_ps} ps)",
    )
    compare.add_argument(
        "--evals-tol", type=int, default=CompareTolerances.evaluations, metavar="N",
        help="also flag jobs whose evaluation count grew by more than N "
        "(default: evaluations reported but not gated)",
    )
    compare.add_argument(
        "--counters",
        action="store_true",
        help="add evaluator-cache and variation-gate counter delta columns "
        "(cache hits/misses, gate checks/rejections)",
    )
    compare.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit 1 when any matched job regressed (or nothing matched at all)",
    )

    mc = _command(
        sub, "mc", _cmd_mc, parents=[batch],
        help="Monte Carlo skew-yield sweep over an instance x flow x samples matrix",
    )
    mc.add_argument(
        "--instance", action="append", metavar="SPEC",
        help=f"instance spec (repeatable): {_SPEC_HELP}",
    )
    mc.add_argument(
        "--engine",
        default=McJobSpec.engine,
        choices=sorted(ANALYTICAL_ENGINES),
        help="analytical evaluation engine used for synthesis and MC "
        f"(default {McJobSpec.engine})",
    )
    mc.add_argument(
        "--samples",
        action="append",
        type=int,
        metavar="N",
        help="Monte Carlo scenario count (repeatable for a sample-count sweep); "
        f"default {McJobSpec.samples}",
    )
    mc.add_argument(
        "--family",
        default=McJobSpec.family,
        choices=list(SAMPLING_FAMILIES),
        help=f"variation sampling family (default {McJobSpec.family})",
    )
    mc.add_argument(
        "--seed", type=int, default=McJobSpec.seed,
        help="base seed; per-job generators derive from it deterministically "
        f"(default {McJobSpec.seed})",
    )
    mc.add_argument(
        "--skew-limit", type=float, default=McJobSpec.skew_limit_ps, metavar="PS",
        help=f"skew limit (ps) defining yield (default {McJobSpec.skew_limit_ps:g}, "
        "the ISPD'10-style target)",
    )
    mc.add_argument(
        "--gated",
        action="store_true",
        help="synthesize with the variation-aware pipeline (p95-skew-gated IVC "
        "rounds); the gate checks each round with --gate-samples scenarios, "
        "not --samples",
    )
    mc.add_argument(
        "--gate-samples", type=int, metavar="N",
        help="scenario count per gate check during --gated synthesis "
        f"(default: the FlowConfig default of {FlowConfig.variation_samples}; "
        "the final reported sweep always uses --samples)",
    )
    mc.add_argument(
        "--pipeline",
        metavar="P1,P2,...",
        help="explicit pass-registry pipeline override (see 'repro run --list-passes')",
    )

    table = _command(
        sub, "table", _cmd_table,
        help="render saved per-job JSON as Table IV / III and the yield table",
    )
    table.add_argument(
        "--input", required=True, metavar="DIR_OR_FILE",
        help="a directory of per-job *.json files, or one such file",
    )
    table.add_argument(
        "--stages", action="store_true", help="also print each run's Table III stage table"
    )

    profile = _command(
        sub, "profile", _cmd_profile,
        help="run one job under a live tracer and print its span tree",
    )
    profile.add_argument("spec", metavar="SPEC", help=f"instance spec: {_SPEC_HELP}")
    profile.add_argument(
        "--flow",
        default=Job.flow,
        help=f"flow to profile (default {Job.flow}); one of {available_flows()}",
    )
    profile.add_argument(
        "--engine",
        default=Job.engine,
        help=f"evaluation engine (default {Job.engine}; also: spice, elmore)",
    )
    profile.add_argument(
        "--pipeline",
        metavar="P1,P2,...",
        help="explicit pass-registry pipeline override (see 'repro run --list-passes')",
    )
    profile.add_argument("--seed", type=int, help="job seed override")
    profile.add_argument(
        "--json",
        metavar="FILE",
        help="write the full schema-1 trace artifact (sorted-key JSON)",
    )
    profile.add_argument(
        "--chrome",
        metavar="FILE",
        help="write Chrome trace-event JSON (open in chrome://tracing or Perfetto)",
    )

    trace = _command(
        sub, "trace", _cmd_trace,
        help="print the trace summaries stored in a run-store selection",
    )
    trace.add_argument(
        "selection", metavar="STORE[@RUN_ID]", help=f"store selection: {_SELECTION_HELP}"
    )
    trace.add_argument(
        "--top",
        type=_positive_int,
        default=8,
        metavar="N",
        help="span names shown per record, heaviest self-time first (default 8)",
    )
    trace.add_argument(
        "--diff",
        metavar="STORE[@RUN_ID]",
        help="diff the selection's stored span-path counters against this "
        "other selection (counters only, matched by job label; exit 1 on "
        "any difference)",
    )

    perf = sub.add_parser(
        "perf",
        help="benchmark-case registry: run cases, gate regressions, render trends",
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)

    perf_run = _command(
        perf_sub, "run", _cmd_perf_run,
        help="run registered perf cases and record their ledger entries",
    )
    perf_run.add_argument(
        "--case",
        action="append",
        metavar="NAME",
        help="case to run (repeatable; default: every registered case, sorted)",
    )
    perf_run.add_argument(
        "--repeats",
        type=_positive_int,
        metavar="N",
        help="wall-clock repeats per case (default: each case's own setting; "
        "counters must not depend on it)",
    )
    perf_run.add_argument(
        "--ledger",
        metavar="DIR",
        help="append every entry to the perf ledger at DIR/perf.jsonl",
    )
    perf_run.add_argument(
        "--output",
        metavar="FILE",
        help="write all entries as one merged BENCH_all-style JSON document",
    )
    perf_run.add_argument(
        "--list-cases",
        action="store_true",
        help="print the registered cases with descriptions and exit",
    )

    perf_compare = _command(
        perf_sub, "compare", _cmd_perf_compare,
        help="diff two perf sources: exact counter gate, IQR-banded timing gate",
    )
    perf_compare.add_argument(
        "baseline",
        metavar="SOURCE",
        help="baseline: a ledger directory (latest entry per case) or a "
        "merged perf-run JSON file",
    )
    perf_compare.add_argument(
        "candidate",
        metavar="SOURCE",
        help="candidate source, same forms as the baseline",
    )
    perf_compare.add_argument(
        "--case",
        action="append",
        metavar="NAME",
        help="restrict the comparison to these cases (repeatable)",
    )
    perf_compare.add_argument(
        "--iqr-band",
        type=float,
        default=3.0,
        metavar="K",
        help="timing noise band: flag only beyond median + K*IQR (default 3.0)",
    )
    perf_compare.add_argument(
        "--rel-floor",
        type=float,
        default=0.25,
        metavar="FRAC",
        help="relative noise floor: never flag below median*(1+FRAC) "
        "(default 0.25)",
    )
    perf_compare.add_argument(
        "--abs-floor",
        type=float,
        default=0.005,
        metavar="S",
        help="absolute noise floor in seconds: never flag below median+S "
        "(default 0.005)",
    )
    perf_compare.add_argument(
        "--fail-on-counter-regression",
        action="store_true",
        help="exit 1 when any deterministic counter changed, a check failed, "
        "or a baseline case is missing from the candidate",
    )
    perf_compare.add_argument(
        "--fail-on-timing-regression",
        action="store_true",
        help="exit 1 when any timing escaped its noise bands",
    )

    perf_trend = _command(
        perf_sub, "trend", _cmd_perf_trend,
        help="render per-case history tables across a perf ledger",
    )
    perf_trend.add_argument(
        "ledger", metavar="DIR", help="perf ledger directory (DIR/perf.jsonl)"
    )
    perf_trend.add_argument(
        "--case",
        action="append",
        metavar="NAME",
        help="case to render (repeatable; default: every case in the ledger)",
    )
    perf_trend.add_argument(
        "--counter",
        action="append",
        metavar="NAME",
        help="counter column to include (repeatable; default: the evaluator "
        "trio present in the entries)",
    )

    serve = _command(
        sub, "serve", _cmd_serve,
        help="serve synthesis jobs over HTTP/JSON (async scheduler + result cache)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=_port, default=8765,
        help="TCP port; 0 binds an ephemeral port (default 8765)",
    )
    serve.add_argument(
        "--port-file", metavar="FILE",
        help="write the bound port to FILE once the server accepts connections",
    )
    serve.add_argument(
        "--workers", type=_positive_int, default=1,
        help="warm synthesis pool size (default 1: in-process execution)",
    )
    serve.add_argument(
        "--store", metavar="DIR",
        help="run-store directory; completed jobs append to DIR/runs.jsonl and "
        "previously stored records are served as cache hits",
    )
    serve.add_argument(
        "--run-id", metavar="ID", help="store tag for served jobs (default serve)"
    )
    serve.add_argument(
        "--max-queue", type=_positive_int, default=64,
        help="scheduler queue capacity (default 64)",
    )
    serve.add_argument(
        "--queue-policy", choices=("wait", "reject"), default="wait",
        help="full-queue backpressure: park the submitter or reject with "
        "429 (default wait)",
    )

    lint = _command(
        sub, "lint", _cmd_lint, help="run the repro.lintkit invariant linter over source paths"
    )
    lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default src/ if it exists, else .)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default text; json is version-stable for CI)",
    )
    lint.add_argument(
        "--select", action="append", default=None, metavar="RULE",
        help="run only these rules (repeatable)",
    )
    lint.add_argument(
        "--ignore", action="append", default=None, metavar="RULE",
        help="drop these rules after selection (repeatable)",
    )
    lint.add_argument(
        "--output", metavar="FILE",
        help="also write the report to FILE (the CI artifact)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules with descriptions and exit",
    )
    return parser


# ----------------------------------------------------------------------
def _progress(record: Record) -> str:
    """A completed job's progress line: its skew and CLR, or its skew yield."""
    if isinstance(record, McRecord):
        summary = record.yield_
        assert summary is not None
        return (
            f"p95 skew {summary.skew_p95_ps:.2f} ps, "
            f"yield {100.0 * (summary.skew_yield or 0.0):.1f}% "
            f"@ {summary.skew_limit_ps:g} ps"
        )
    assert isinstance(record, RunRecord) and record.summary is not None
    return f"skew {record.summary.skew_ps:.2f} ps, clr {record.summary.clr_ps:.2f} ps"


def _cmd_run(args: argparse.Namespace) -> int:
    if args.list_passes:
        # Importing the baselines registers their synthesis passes too.
        import repro.baselines  # noqa: F401

        print("\n".join(available_passes()))
        return 0
    if not args.instance:
        raise _UsageError("at least one --instance is required")
    jobs = JobMatrix(
        instances=args.instance,
        flows=args.flow or JobMatrix.flows,
        engines=args.engine or JobMatrix.engines,
        pipeline=_parse_pipeline(args.pipeline),
        seed=args.seed,
    ).expand()
    return _run_batch(args, jobs)


def _parse_pipeline(text: Optional[str]) -> Optional[tuple]:
    if not text:
        return None
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _run_batch(
    args: argparse.Namespace,
    jobs: List,
    store: Optional[RunStore] = None,
    run_id: str = "service",
) -> int:
    """Shared batch plumbing of ``repro run`` / ``repro sweep`` / ``repro mc``.

    Runs the expanded ``jobs`` through one :class:`SynthesisService`
    (attached to ``store`` when given, so every record is appended under
    ``run_id``), streams one JSON record per job into ``--output-dir``,
    prints a progress line per completion, renders the records with
    :func:`_render_records` (which maps job failures to exit code 1), and
    optionally writes the whole batch as ``--summary-json``.
    """
    output_dir: Optional[Path] = Path(args.output_dir) if args.output_dir else None
    if output_dir is not None:
        output_dir.mkdir(parents=True, exist_ok=True)

    def on_event(event: JobEvent) -> None:
        if event.kind != "completed":
            # Liveness only: started events carry no record to write.
            if event.kind == "started":
                print(f"[{event.index + 1}/{len(jobs)}] {event.job.label}: started")
            return
        record = event.record
        assert record is not None  # completed events always carry a record
        if output_dir is not None:
            path = output_dir / f"{record.job}.json"
            path.write_text(json.dumps(record.to_record(), indent=1) + "\n")
        if event.failed:
            print(f"[{event.index + 1}/{len(jobs)}] {record.job}: FAILED", file=sys.stderr)
        else:
            print(
                f"[{event.index + 1}/{len(jobs)}] {record.job}: "
                f"{_progress(record)}, {record.wall_clock_s:.2f} s"
            )

    with SynthesisService(
        max_workers=args.jobs, store=store, run_id=run_id, trace=args.trace
    ) as service:
        batch = service.run(jobs, on_event=on_event)
    print()
    code = _render_records(batch.records)
    print(f"\n{len(jobs)} job(s), {batch.workers} worker(s), "
          f"{batch.wall_clock_s:.2f} s wall-clock")
    if args.summary_json:
        Path(args.summary_json).write_text(
            json.dumps(
                {
                    "jobs": len(jobs),
                    "workers": batch.workers,
                    "wall_clock_s": batch.wall_clock_s,
                    "records": [record.to_record() for record in batch.records],
                },
                indent=1,
            )
            + "\n"
        )
    return code


def _tables(records: Sequence[Record], stages: bool) -> str:
    """Run records as Table IV (and, with ``stages``, each run's Table III)
    and Monte Carlo records as the yield table; empty if there are neither.
    """
    runs = [record for record in records if isinstance(record, RunRecord)]
    monte_carlo = [record for record in records if isinstance(record, McRecord)]
    blocks = [table_iv(runs)] if runs else []
    if stages:
        blocks += [f"== {run.job} ==\n{table_iii(run)}" for run in runs if run.stage_table]
    if monte_carlo:
        blocks.append(table_mc(monte_carlo))
    return "\n\n".join(blocks)


def _render_records(records: Sequence[Record], stages: bool = False) -> int:
    """Print the :func:`_tables` of ``records``, then each failed job's error
    on stderr; the exit code (1 if any job failed).
    """
    tables = _tables(records, stages)
    if tables:
        print(tables)
    failures = [record for record in records if isinstance(record, ErrorRecord)]
    for failure in failures:
        print(f"\njob {failure.job} failed:\n{failure.error}", file=sys.stderr)
    return 1 if failures else 0


def _parse_assignments(items: Optional[List[str]], option: str) -> Dict[str, str]:
    """Parse repeated ``K=V`` command-line values into a dict."""
    parsed: Dict[str, str] = {}
    for item in items or []:
        key, eq, value = item.partition("=")
        if not eq or not key or not value:
            raise ValueError(f"{option} expects K=V, got {item!r}")
        if key in parsed:
            raise ValueError(f"duplicate {option} for parameter {key!r}")
        parsed[key] = value
    return parsed


def _list_families() -> None:
    for name in sorted(SCENARIO_REGISTRY):
        family = SCENARIO_REGISTRY[name]
        print(f"{name}: {family.description}")
        for param in family.params:
            bounds = ""
            if param.minimum is not None or param.maximum is not None:
                lo = "" if param.minimum is None else f"{param.minimum:g}"
                hi = "" if param.maximum is None else f"{param.maximum:g}"
                bounds = f" [{lo}..{hi}]"
            print(f"    {param.name}={param.default}{bounds}  {param.doc}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.list_families:
        _list_families()
        return 0
    if not args.family and not args.instance:
        raise _UsageError("at least one --family or --instance is required")
    if not args.store:
        raise _UsageError("--store DIR is required")
    # Expanding up front surfaces unknown families/parameters as clean CLI
    # errors before any store or service is touched.
    with _usage_errors(KeyError, ValueError):
        jobs = JobMatrix(
            instances=args.instance or [],
            families=args.family or [],
            fixed=_parse_assignments(args.sets, "--set"),
            sweeps={
                key: [v for v in value.split(",") if v]
                for key, value in _parse_assignments(args.sweeps, "--sweep").items()
            },
            flows=args.flow or JobMatrix.flows,
            engines=args.engine or JobMatrix.engines,
            seed=args.seed,
        ).expand()

    store = RunStore(args.store)
    run_id = args.run_id or datetime.now(timezone.utc).strftime("sweep-%Y%m%dT%H%M%SZ")
    # Fail fast: a bad --run-id must not surface as a crash on the first
    # store append after minutes of synthesis.
    with _usage_errors(ValueError):
        RunStore.check_run_id(run_id)

    code = _run_batch(args, jobs, store=store, run_id=run_id)
    print(f"\nstored {len(jobs)} record(s) under run id {run_id!r} in {store.path}")
    return code


def _resolve_selection(selection: str) -> List[Dict]:
    """Load the records a ``STORE[@RUN_ID]`` selection names.

    The run id follows the *last* ``@``; a selection whose prefix is not a
    store but which names one as a whole is treated as a plain path, so
    directories containing ``@`` stay addressable.
    """
    path, sep, run_id = selection.rpartition("@")
    if not sep or (not RunStore(path).path.exists() and RunStore(selection).path.exists()):
        path, run_id = selection, ""
    store = RunStore(path)
    if not store.path.exists():
        raise _UsageError(f"no run store at {store.path}")
    with _usage_errors(ValueError):  # a corrupt or newer-schema store
        if run_id == "all":
            return store.records()
        run_id = run_id or store.latest_run_id() or ""
        records = store.records(run_id=run_id)
    if not records:
        raise _UsageError(
            f"run id {run_id!r} matches nothing in {store.path}; "
            f"available: {store.run_ids()}"
        )
    return records


def _cmd_compare(args: argparse.Namespace) -> int:
    result = diff_records(
        _resolve_selection(args.baseline),
        _resolve_selection(args.candidate),
        CompareTolerances(
            skew_ps=args.skew_tol, clr_ps=args.clr_tol, evaluations=args.evals_tol
        ),
    )
    columns = COMPARE_COLUMNS
    if args.counters:
        # Keep the flag column last; counters slot in just before it.
        columns = COMPARE_COLUMNS[:-1] + COUNTER_COLUMNS + COMPARE_COLUMNS[-1:]
    print(render_table(compare_rows(result, counters=args.counters), columns))
    print(
        f"\n{len(result.rows)} matched job(s), "
        f"{len(result.regressions)} regression(s), "
        f"{len(result.only_baseline)} baseline-only, "
        f"{len(result.only_candidate)} candidate-only"
    )
    for failure in result.candidate_failures:
        print(
            f"FAILED in candidate: {failure.instance} "
            f"[{failure.flow}/{failure.engine}]",
            file=sys.stderr,
        )
    for row in result.regressions:
        print(
            f"REGRESSION {row.instance} [{row.flow}/{row.engine}]: "
            f"skew {row.d_skew_ps:+.3f} ps, clr {row.d_clr_ps:+.3f} ps, "
            f"evals {row.d_evaluations:+d}",
            file=sys.stderr,
        )
    if args.fail_on_regression and not result.rows:
        print("repro compare: no matched jobs to gate on", file=sys.stderr)
        return 1
    if args.fail_on_regression and result.only_baseline:
        # A candidate that silently dropped (or errored on) baseline jobs has
        # not re-validated them; partial coverage must not pass the gate.
        missing = ", ".join(
            str(record.instance) for record in result.only_baseline
        )
        print(
            f"repro compare: {len(result.only_baseline)} baseline job(s) "
            f"missing from the candidate: {missing}",
            file=sys.stderr,
        )
        return 1
    if args.fail_on_regression and result.regressions:
        return 1
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    if not args.instance:
        raise _UsageError("at least one --instance is required")
    with _usage_errors(ValueError):  # spec validation as clean CLI errors
        jobs = JobMatrix(
            instances=args.instance,
            flows=args.flow or JobMatrix.flows,
            engines=[args.engine],
            pipeline=_parse_pipeline(args.pipeline),
            seed=args.seed,
            monte_carlo=MonteCarloAxes(
                samples=tuple(args.samples or MonteCarloAxes.samples),
                family=args.family,
                skew_limit_ps=args.skew_limit,
                gated=args.gated,
                gate_samples=args.gate_samples,
            ),
        ).expand()
    return _run_batch(args, jobs)


def _saved_records(path: Path, named: bool) -> List[Record]:
    """The typed job records of one saved JSON file: a record or a --summary-json file.

    A --summary-json file is read only when ``named`` directly: in a
    directory it repeats the per-job files written beside it.  Raises
    ``ValueError`` for anything that does not parse into records.
    """
    loaded = json.loads(path.read_text())
    batch = isinstance(loaded, dict) and "records" in loaded
    if batch and not named:
        return []
    found = loaded["records"] if batch else [loaded]
    if not isinstance(found, list) or not all(isinstance(record, dict) for record in found):
        raise ValueError("not a job record or a --summary-json file")
    return [record_from_dict(record) for record in found]


def _cmd_table(args: argparse.Namespace) -> int:
    source = Path(args.input)
    named = not source.is_dir()
    paths = [source] if named else sorted(source.glob("*.json"))
    records: List[Record] = []
    for path in paths:
        try:
            found = _saved_records(path, named)
            # Rendering each file's records on its own reports a value of the
            # wrong type against its file.
            _tables(found, args.stages)
        except (OSError, TypeError, ValueError) as error:  # JSONDecodeError is a ValueError
            reason = getattr(error, "strerror", None) or error
            raise _UsageError(f"{path}: {reason}") from error
        records.extend(found)
    if not records:
        print(f"no job records found under {source}", file=sys.stderr)
        return 1
    return _render_records(records, stages=args.stages)


_TRACE_COLUMNS = (
    ("name", "span", "s"),
    ("count", "count", "d"),
    ("total_s", "total[s]", ".4f"),
    ("self_s", "self[s]", ".4f"),
)


def _cmd_profile(args: argparse.Namespace) -> int:
    spec = JobSpec(
        instance=args.spec,
        flow=args.flow,
        engine=args.engine,
        pipeline=_parse_pipeline(args.pipeline),
        seed=args.seed,
    )
    tracer = Tracer()
    try:
        record = run_job(spec, tracer=tracer)
    except Exception as error:  # surface job failures as CLI errors, not tracebacks
        print(f"repro profile: {spec.label}: {error}", file=sys.stderr)
        return 1
    print(render_span_tree(tracer))
    total = tracer.total_s()
    self_sum = sum(span.self_s for span in tracer.spans())
    wall = record.wall_clock_s or 0.0
    print(
        f"\n{record.job}: wall-clock {wall:.3f} s, traced {total:.3f} s "
        f"(self-time sum {self_sum:.3f} s), "
        f"{sum(1 for _ in tracer.spans())} span(s), "
        f"GC pauses {tracer.gc_s:.3f} s in {tracer.gc_collections} collection(s)"
    )
    meta = {
        "instance": spec.instance,
        "flow": spec.flow,
        "engine": spec.engine,
        "label": spec.label,
        "seed": spec.seed,
    }
    artifact = trace_artifact(tracer, meta=meta)
    if args.json:
        write_trace(args.json, artifact)
        print(f"trace artifact: {args.json}")
    if args.chrome:
        Path(args.chrome).write_text(
            json.dumps(chrome_trace(artifact), indent=1, sort_keys=True) + "\n"
        )
        print(f"chrome trace: {args.chrome}")
    return 0


def _trace_paths(record: Dict) -> Dict[str, Dict[str, int]]:
    """Per-span-path counters of one traced record.

    Records stored before the ``paths`` field existed fall back to their
    merged counters under the ``*`` pseudo-path, so old baselines stay
    diffable (at merged granularity).
    """
    summary = TraceSummary.from_record(record["trace"])
    if summary.paths:
        return summary.paths
    if summary.counters:
        return {"*": dict(summary.counters)}
    return {}


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    from repro.perf.compare import COUNTER_COLUMNS as PERF_COUNTER_COLUMNS
    from repro.perf.compare import diff_path_counters

    def by_job(records: List[Dict]) -> Dict[str, Dict]:
        return {
            str(record.get("job")): record
            for record in records
            if isinstance(record, dict) and record.get("trace")
        }

    base_jobs = by_job(_resolve_selection(args.selection))
    cand_jobs = by_job(_resolve_selection(args.diff))
    if not base_jobs or not cand_jobs:
        raise _UsageError("both selections need traced records to diff")

    differs = False
    for job in sorted(set(base_jobs) - set(cand_jobs)):
        print(f"only in baseline: {job}", file=sys.stderr)
        differs = True
    for job in sorted(set(cand_jobs) - set(base_jobs)):
        print(f"only in candidate: {job}", file=sys.stderr)
        differs = True
    for job in sorted(set(base_jobs) & set(cand_jobs)):
        with _usage_errors(TypeError, ValueError, prefix=f"{job}: "):
            diffs = diff_path_counters(
                _trace_paths(base_jobs[job]), _trace_paths(cand_jobs[job])
            )
        print(f"== {job} ==")
        if diffs:
            differs = True
            print(render_table([d.to_row() for d in diffs], PERF_COUNTER_COLUMNS))
        else:
            print("span-path counters identical")
        print()
    return 1 if differs else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.diff:
        return _cmd_trace_diff(args)
    records = _resolve_selection(args.selection)
    traced = [r for r in records if isinstance(r, dict) and r.get("trace")]
    if not traced:
        print(
            "repro trace: no traced records in the selection; run jobs with "
            "tracing on into a store (repro sweep --trace, or "
            "SynthesisService(trace=True) with a store)",
            file=sys.stderr,
        )
        return 1
    for record in traced:
        try:
            summary = TraceSummary.from_record(record["trace"])
        except (TypeError, ValueError) as error:
            print(f"repro trace: {record.get('job')}: {error}", file=sys.stderr)
            continue
        print(f"== {record.get('job')} ==")
        print(
            f"schema {summary.schema}, {summary.spans} span(s), "
            f"traced {summary.total_s:.3f} s"
        )
        print(render_table(summary.top[: args.top], _TRACE_COLUMNS))
        if summary.counters:
            packed = ", ".join(
                f"{key}={value}" for key, value in sorted(summary.counters.items())
            )
            print(f"counters: {packed}")
        print()
    return 0


def _cmd_perf_run(args: argparse.Namespace) -> int:
    from repro.perf import PerfLedger, available_cases, resolve_cases, run_case
    from repro.perf.case import CASE_REGISTRY, PERF_SCHEMA

    if args.list_cases:
        for name in available_cases():
            print(f"{name:16s} {CASE_REGISTRY[name].description}")
        return 0
    with _usage_errors(KeyError):
        cases = resolve_cases(args.case)

    ledger = PerfLedger(args.ledger) if args.ledger else None
    entries: Dict[str, Dict] = {}
    failed_checks: List[str] = []
    # Sorted execution order keeps the merged document independent of the
    # --case flag order (the ledger-determinism contract).
    for case in sorted(cases, key=lambda c: c.name):
        entry = run_case(case, repeats=args.repeats, package_version=package_version())
        entries[case.name] = entry
        checks = list(entry["checks"]) + list(entry["timings"]["checks"])
        for check in checks:
            if not check["ok"]:
                failed_checks.append(f"{case.name}: {check['name']}: {check['detail']}")
        wall = entry["timings"]["wall_clock_s"]
        print(
            f"{case.name}: wall {wall['median']:.3f} s (IQR {wall['iqr']:.3f}, "
            f"n={wall['n']}), {len(entry['counters'])} counter(s), "
            f"{sum(1 for c in checks if c['ok'])}/{len(checks)} check(s) ok"
        )
        if ledger is not None:
            ledger.append(entry)
    if ledger is not None:
        print(f"ledger: {ledger.path} ({len(ledger)} entr(y/ies))")
    if args.output:
        payload = {
            "schema": PERF_SCHEMA,
            "kind": "perf-batch",
            "package_version": package_version(),
            "cases": {name: entries[name] for name in sorted(entries)},
        }
        Path(args.output).write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n"
        )
        print(f"merged record: {args.output}")
    for failure in failed_checks:
        print(f"FAILED CHECK {failure}", file=sys.stderr)
    return 1 if failed_checks else 0


def _load_perf_entries(source: str) -> Dict[str, Dict]:
    """Latest entry per case from a ledger directory or a merged JSON file."""
    from repro.perf import PerfLedger
    from repro.perf.case import PERF_SCHEMA

    path = Path(source)
    # A file that is not JSON or UTF-8 and a corrupt ledger raise ValueError.
    with _usage_errors(ValueError):
        if path.is_file():
            payload = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(payload, dict) or payload.get("kind") != "perf-batch":
                raise _UsageError(f"{source} is not a merged perf-run document")
            schema = payload.get("schema")
            if not isinstance(schema, int) or schema > PERF_SCHEMA:
                raise _UsageError(
                    f"{source}: schema {schema!r} is newer than supported "
                    f"version {PERF_SCHEMA}"
                )
            return dict(payload.get("cases", {}))
        ledger = PerfLedger(source)
        if not ledger.path.exists():
            raise _UsageError(f"no perf ledger at {ledger.path}")
        entries: Dict[str, Dict] = {}
        for case in ledger.cases():
            latest = ledger.latest(case)
            assert latest is not None  # cases() only names present cases
            entries[case] = latest
        return entries


def _cmd_perf_compare(args: argparse.Namespace) -> int:
    from repro.perf.compare import (
        COUNTER_COLUMNS as PERF_COUNTER_COLUMNS,
        TIMING_COLUMNS,
        TimingBands,
        compare_entries,
    )

    base_entries = _load_perf_entries(args.baseline)
    cand_entries = _load_perf_entries(args.candidate)
    selected = args.case or sorted(set(base_entries) | set(cand_entries))
    bands = TimingBands(
        k_iqr=args.iqr_band, rel_floor=args.rel_floor, abs_floor_s=args.abs_floor
    )

    counter_regressions: List[str] = []
    timing_regressions: List[str] = []
    compared = 0
    for name in selected:
        base, cand = base_entries.get(name), cand_entries.get(name)
        if base is None or cand is None:
            side = "baseline" if base is None else "candidate"
            print(f"{name}: missing from the {side}", file=sys.stderr)
            if cand is None:
                # Coverage gap: the candidate never re-measured this case.
                counter_regressions.append(name)
            continue
        with _usage_errors(ValueError, prefix=f"{name}: "):
            comparison = compare_entries(base, cand, bands)
        compared += 1
        for note in comparison.notes:
            print(f"{name}: note: {note}")
        if comparison.counter_regression:
            counter_regressions.append(name)
            print(f"== {name}: COUNTER REGRESSION ==")
            if comparison.counter_diffs:
                print(
                    render_table(
                        [d.to_row() for d in comparison.counter_diffs],
                        PERF_COUNTER_COLUMNS,
                    )
                )
            for check in comparison.failed_checks:
                print(f"failed check: {check}")
        if comparison.timing_regression:
            timing_regressions.append(name)
            print(f"== {name}: timing regression ==")
            print(
                render_table(
                    [f.to_row() for f in comparison.timing_flags], TIMING_COLUMNS
                )
            )
            sources = ", ".join(f.path for f in comparison.timing_sources)
            print(f"localized to: {sources}")
        if not comparison.counter_regression and not comparison.timing_regression:
            print(f"{name}: ok (counters exact, timings within bands)")

    print(
        f"\n{compared} case(s) compared, {len(counter_regressions)} counter "
        f"regression(s), {len(timing_regressions)} timing regression(s)"
    )
    if args.fail_on_counter_regression and compared == 0:
        print("repro perf compare: no common cases to gate on", file=sys.stderr)
        return 1
    if args.fail_on_counter_regression and counter_regressions:
        return 1
    if args.fail_on_timing_regression and timing_regressions:
        return 1
    return 0


def _cmd_perf_trend(args: argparse.Namespace) -> int:
    from repro.perf import PerfLedger, trend_columns, trend_rows

    ledger = PerfLedger(args.ledger)
    if not ledger.path.exists():
        raise _UsageError(f"no perf ledger at {ledger.path}")
    with _usage_errors(ValueError):
        cases = args.case or ledger.cases()
    if not cases:
        print(f"repro perf trend: {ledger.path} is empty", file=sys.stderr)
        return 1
    for name in cases:
        rows, counters = trend_rows(ledger, name, args.counter)
        print(f"== {name} ==")
        if rows:
            print(render_table(rows, trend_columns(counters)))
        else:
            print("no entries")
        print()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # The serving stack (and asyncio itself) loads only inside this handler:
    # run/sweep/mc and the rest of the CLI never import it.
    import asyncio

    from repro.serve import run_app

    store = RunStore(args.store) if args.store else None
    run_id = args.run_id or "serve"

    def ready(port: int) -> None:
        print(f"repro serve: listening on http://{args.host}:{port}", flush=True)

    with SynthesisService(
        max_workers=args.workers, store=store, run_id=run_id
    ) as service:
        try:
            asyncio.run(
                run_app(
                    service,
                    host=args.host,
                    port=args.port,
                    max_queue=args.max_queue,
                    policy=args.queue_policy,
                    port_file=args.port_file,
                    ready=ready,
                )
            )
        except KeyboardInterrupt:
            print("repro serve: shutting down")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lintkit import (
        RULE_REGISTRY,
        LintSettings,
        lint_paths,
        render_json,
        render_text,
    )

    if args.list_rules:
        for name in sorted(RULE_REGISTRY):
            print(f"{name:32s} {RULE_REGISTRY[name].description}")
        return 0
    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        default = Path("src")
        paths = [default if default.is_dir() else Path(".")]
    settings = LintSettings(select=args.select, ignore=args.ignore or [])
    with _usage_errors(FileNotFoundError, KeyError):
        result = lint_paths(paths, settings)
    report = render_json(result) if args.format == "json" else render_text(result)
    if args.output:
        Path(args.output).write_text(report, encoding="utf-8")
    print(report, end="")
    return 1 if result.findings else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _UsageError as error:
        print(f"{args.prog}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
