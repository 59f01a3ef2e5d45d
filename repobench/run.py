"""Repository benchmark: the Contango flow timed end to end and per layer.

Run from the repository root::

    python3 repobench/run.py                      # every workload, one child process each
    python3 repobench/run.py --workload flow-large --seed 1 --seconds 15 --trace 0
    python3 repobench/run.py --workload store-replay --trace 1
    python3 repobench/run.py --write-reference    # re-record repobench/reference.json

``--trace 0`` runs the workload's closed loop for ``--seconds`` and reports
the end-to-end metrics; ``--trace 1`` runs a fixed schedule once untraced and
once under :class:`repobench.probe.Probe` and reports the per-layer metrics
(the schedule is fixed so its counts repeat exactly; ``--seconds`` does not
apply).  The last line on stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The end-to-end times are seconds at a reference host speed: every measured
interval is scaled by :class:`hostspeed.HostSpeed`, which times a fixed
kernel every 0.1 s of the run (see that module for why).  The unscaled
medians go to stderr.
"""

import os

# One thread per process: numerical libraries must not start worker threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SCRATCH = ROOT / ".repobench_tmp"
TRACES = ROOT / ".repobench_out"

#: Set-ups per run; setup_s reports their median plus the one-time imports.
SETUP_REPEATS = 3
#: Upper bound on one workload's child process in ``--workload all``.
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "job_s_p90": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "bytes" if name.endswith("bytes_parsed") else "count"


now = time.perf_counter


def leftovers() -> List[str]:
    """Threads and child processes of this process that are still alive."""
    found: List[str] = []
    if threading.active_count() > 1:
        found.append(f"{threading.active_count() - 1} extra Python thread(s)")
    tasks = Path("/proc/self/task")
    if tasks.is_dir() and len(os.listdir(tasks)) > 1:
        found.append(f"{len(os.listdir(tasks)) - 1} extra native thread(s)")
    me = os.getpid()
    for entry in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = entry.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            found.append(f"child process {entry.parent.name}")
    return found


def load_reference(workload: str, seed: int) -> Optional[Dict[str, Any]]:
    from suite import DEFAULT_SEED

    if seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE.read_text())["records"][workload]


Interval = Tuple[float, float]


def closed_loop(workload: Any, seconds: float) -> Tuple[List[Interval], List[Interval], list]:
    """Whole passes of the schedule until ``seconds`` have elapsed.

    Returns each operation's interval (``workload.op_steps`` steps), each
    iteration's interval (the operation plus the work
    :meth:`Workload.before` does ahead of it) and the ``(step, output)``
    pairs.
    """
    steps = workload.schedule()
    operations: List[Interval] = []
    iterations: List[Interval] = []
    results: list = []
    start = now()
    while now() - start < seconds:
        for index, step in enumerate(steps):
            began = now()
            workload.before(step)
            op_began = now()
            try:
                output = workload.run(step)
            except Exception:
                traceback.print_exc()
                output = None
            ended = now()
            if index % workload.op_steps == 0:
                operations.append((op_began, ended))
                iterations.append((began, ended))
            else:
                operations[-1] = (operations[-1][0], ended)
                iterations[-1] = (iterations[-1][0], ended)
            results.append((step, output))
    return operations, iterations, results


def p90(samples: List[float]) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def end_to_end(
    workload: Any, seconds: float, meter: HostSpeed, setup: List[Interval]
) -> Dict[str, Any]:
    """The closed loop's end-to-end metrics, every time scaled by ``meter``."""
    from repro.perf.case import timing_stats

    operations, iterations, results = closed_loop(workload, seconds)
    latencies = [meter.scaled(*interval) for interval in operations]
    raw = [ended - began for began, ended in operations]
    metrics = {
        "setup_s": meter.scaled(*setup[0]) + statistics.median(
            meter.scaled(*interval) for interval in setup[1:]
        ),
        "job_s": timing_stats(latencies)["median"],
        "job_s_p90": p90(latencies),
        "jobs_per_s": len(latencies) / sum(meter.scaled(*interval) for interval in iterations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(
        f"repobench: unscaled job_s {statistics.median(raw):.6g} job_s_p90 {p90(raw):.6g}; "
        f"host kernel median {meter.median_kernel_s() * 1e3:.4g} ms",
        file=sys.stderr,
    )
    return {"results": results, "metrics": {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}}


def traced(workload: Any, seed: int) -> Dict[str, Any]:
    from probe import OP_SPAN, MissingTargetError, Probe, layer_metrics, sum_cache
    from repro.api.records import RunRecord
    from repro.obs import Tracer, trace_artifact, write_trace

    steps = workload.schedule() * workload.trace_passes
    untraced_op_s = 0.0
    for step in steps:
        workload.before(step)
        began = now()
        workload.run(step)
        untraced_op_s += now() - began
    tracer = Tracer()
    results: list = []
    with Probe(tracer) as probe:
        for step in steps:
            workload.before(step)
            with tracer.span(OP_SPAN):
                try:
                    output = workload.run(step, tracer=tracer)
                except Exception:
                    traceback.print_exc()
                    output = None
            results.append((step, output))
    silent = probe.silent(workload.name)
    if silent:
        raise MissingTargetError("wrapped functions never called: " + ", ".join(silent))
    cache = sum_cache(
        [output.evaluator_cache for _, output in results if isinstance(output, RunRecord)]
    )
    metrics = layer_metrics(probe, cache, untraced_op_s)
    write_trace(
        TRACES / f"{workload.name}-seed{seed}.trace.json",
        trace_artifact(tracer, meta={"workload": workload.name, "seed": seed}),
    )
    return {"results": results, "metrics": {k: (v, layer_unit(k)) for k, v in metrics.items()}}


def run_workload(
    name: str, seed: int, seconds: float, meter: Optional[HostSpeed], imports_began: float
) -> int:
    """One workload; end-to-end with a started ``meter``, else the traced run."""
    from suite import WORKLOADS, Checker, verify

    setup: List[Interval] = [(imports_began, now())]
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))
    workload = WORKLOADS[name](seed, scratch)
    try:
        for _ in range(SETUP_REPEATS):
            workload.close()
            began = now()
            workload.prepare()
            setup.append((began, now()))
        if meter is None:
            outcome = traced(workload, seed)
        else:
            outcome = end_to_end(workload, seconds, meter, setup)
            meter.stop()
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    failed = verify(Checker(load_reference(name, seed)), outcome["results"])
    alive = leftovers()
    if alive:
        print(f"repobench: still running at exit: {', '.join(alive)}", file=sys.stderr)
        return 3
    attempted = len(outcome["results"])
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    key: {"value": value, "unit": unit}
                    for key, (value, unit) in outcome["metrics"].items()
                },
            }
        )
    )
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own child process, reaped before the next starts."""
    from probe import MOVES
    from suite import WORKLOADS

    combined: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
        ]
        child = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=False
        )
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"repobench: workload {name} exited with {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        result = json.loads(lines[-1])
        print(
            f"{name}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']}"
        )
        for metric, entry in result["metrics"].items():
            moves = f"  moves {MOVES[metric]}" if trace else ""
            print(f"  {metric:36s} {entry['value']:14.6g} {entry['unit']:6s}{moves}")
            combined["metrics"][f"{name}.{metric}"] = entry
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    alive = leftovers()
    if alive:
        print(f"repobench: still running at exit: {', '.join(alive)}", file=sys.stderr)
        return 3
    print(json.dumps(combined))
    return 0


def write_reference() -> int:
    """Record every checked job's stable record at the default seed."""
    from repro.api.records import stable_record
    from suite import DEFAULT_SEED, WORKLOADS, payload

    records: Dict[str, Dict[str, Any]] = {}
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="reference-", dir=SCRATCH))
    try:
        for name, cls in WORKLOADS.items():
            workload = cls(DEFAULT_SEED, scratch)
            try:
                workload.prepare()
                records[name] = {}
                for step in workload.schedule():
                    workload.before(step)
                    records[name][step.key] = stable_record(payload(workload.run(step)))
            finally:
                workload.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        SCRATCH.rmdir()
    document = {"seed": DEFAULT_SEED, "records": records}
    REFERENCE.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=None, help="workload seed")
    parser.add_argument("--seconds", type=float, default=15.0, help="timed phase per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"repobench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Set-up time starts here: the meter's own set-up is not the program's.
    timed = args.workload != "all" and not args.trace and not args.write_reference
    meter = HostSpeed().start() if timed else None
    imports_began = now()
    try:
        sys.path.insert(0, str(ROOT / "src"))
        from suite import DEFAULT_SEED, WORKLOADS

        if args.write_reference:
            return write_reference()
        seed = DEFAULT_SEED if args.seed is None else args.seed
        if args.workload == "all":
            return run_all(seed, args.seconds, bool(args.trace))
        if args.workload not in WORKLOADS:
            parser.error(
                f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all"
            )
        return run_workload(args.workload, seed, args.seconds, meter, imports_began)
    finally:
        if meter is not None:
            meter.stop()


if __name__ == "__main__":
    sys.exit(main())
