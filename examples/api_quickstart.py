"""Public-API quickstart: drive the synthesis system with zero CLI involvement.

Work is described by job specs alone.  One :class:`repro.api.SynthesisService`
runs three kinds of jobs against a scenario-lab instance -- a plain synthesis
(:class:`repro.api.JobSpec`), a Monte Carlo skew-yield sweep
(:class:`repro.api.McJobSpec`) and a parameter sweep (a
:class:`repro.api.JobMatrix`) -- while every completed record is appended to
a :class:`repro.store.RunStore` and content-addressed for free.  The store
lives in a temporary directory that is removed on exit.

Run with:  python examples/api_quickstart.py
"""

from __future__ import annotations

import tempfile

from repro.api import JobEvent, JobMatrix, JobSpec, McJobSpec, SynthesisService
from repro.store import RunStore

INSTANCE = "scenario:banks:sinks=24,clusters=3"


def on_event(event: JobEvent) -> None:
    # Each job streams a "started" event (no record yet), then "completed".
    if event.record is None:
        print(f"  [{event.index + 1}/{event.total}] {event.job.instance}: {event.kind}")
        return
    status = "FAILED" if event.failed else "ok"
    print(f"  [{event.index + 1}/{event.total}] {event.record.job}: {status}")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-api-quickstart-") as store_dir:
        run_quickstart(RunStore(store_dir))


def run_quickstart(store: RunStore) -> None:
    # One long-lived service: with max_workers > 1 the worker pool would be
    # created once and stay warm across all three calls below.
    with SynthesisService(max_workers=1, store=store, run_id="quickstart") as service:
        # 1. Plain synthesis: a typed RunRecord with the Table IV metrics.
        run = service.result(JobSpec(INSTANCE, engine="elmore"))
        summary = run.summary
        print(f"synthesize: {INSTANCE}")
        print(f"  skew {summary.skew_ps:.2f} ps, CLR {summary.clr_ps:.2f} ps, "
              f"wirelength {summary.wirelength_um:.0f} um, "
              f"{summary.evaluations} evaluations")
        print(f"  fingerprint {run.fingerprint[:16]}... "
              f"(content-addresses instance + config + flow)")

        # 2. Monte Carlo: the same network under 256 sampled supply/process
        # scenarios, batched through the vectorized moment path.
        mc = service.result(McJobSpec(INSTANCE, engine="elmore", samples=256))
        dist = mc.yield_
        print(f"monte_carlo: {dist.n_samples} scenarios "
              f"({dist.model['family']} family)")
        print(f"  skew p95 {dist.skew_p95_ps:.2f} ps, "
              f"yield {100.0 * dist.skew_yield:.1f}% @ {dist.skew_limit_ps:g} ps")

        # 3. Sweep: a scenario-family cross product, streamed as events.
        print("sweep: banks x clusters=2,4")
        matrix = JobMatrix(
            families=["banks"],
            fixed={"sinks": 24},
            sweeps={"clusters": [2, 4]},
            engines=["elmore"],
        )
        batch = service.run(matrix.expand(), on_event=on_event)
        for record in batch.records:
            print(f"  {record.instance}: skew {record.summary.skew_ps:.2f} ps")

    # Everything above landed in the store, queryable by run id and axes.
    records = store.typed_records(run_id="quickstart")
    print(f"store: {len(records)} records in {store.path}")
    fingerprinted = sum(1 for r in records if getattr(r, "fingerprint", None))
    print(f"  {fingerprinted} content-addressed fingerprints")


if __name__ == "__main__":
    main()
