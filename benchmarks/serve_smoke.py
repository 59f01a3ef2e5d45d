"""Serve e2e smoke: a real ``repro serve`` process, deduped over live HTTP.

Unlike the other smokes (thin wrappers over registered perf cases -- the
scheduler-level dedup measurement lives in
:class:`repro.perf.cases.ServeCase`), this one exercises the full deployed
shape: spawn ``python -m repro serve --store`` as a subprocess, submit the
same ``scenario:banks`` job twice concurrently over HTTP, and assert through
``/metrics`` that exactly one pool execution happened and the duplicate
completed flagged ``cached``, with a bit-identical record outside the
wall-clock fields.  Then a separate ``repro sweep`` process appends a job
the server never ran to the same store, and that job, submitted over HTTP,
must complete ``cached`` from the server's store index, with no new pool
execution and the stored record.  Exit nonzero on any violation (the CI e2e
gate).

Usage::

    PYTHONPATH=src python benchmarks/serve_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

JOB = {
    "instance": "scenario:banks:sinks=24",
    "engine": "elmore",
    "pipeline": ["initial"],
}
#: The job another process appends to the server's store (``repro sweep``
#: runs the default pipeline), and the run id it stores it under.
STORED_JOB = {"instance": "scenario:banks:sinks=24", "engine": "elmore", "seed": 3}
STORED_RUN_ID = "smoke-other-process"


def request(
    base: str, path: str, payload: Optional[Dict[str, Any]] = None
) -> Tuple[int, Dict[str, Any]]:
    req = urllib.request.Request(
        base + path,
        data=None if payload is None else json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="GET" if payload is None else "POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=120) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def wait_result(base: str, job_id: str, tries: int = 600) -> Dict[str, Any]:
    for _ in range(tries):
        status, body = request(base, f"/jobs/{job_id}/result")
        if status == 200:
            return body
        if status != 409:
            raise AssertionError(f"{job_id}: unexpected status {status}: {body}")
        time.sleep(0.1)
    raise AssertionError(f"{job_id} never completed")


ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.api.records import stable_record  # noqa: E402
from repro.store import RunStore  # noqa: E402


def append_from_another_process(env: Dict[str, str], store: Path) -> Dict[str, Any]:
    """``repro sweep`` STORED_JOB into ``store``; returns the record it stored."""
    subprocess.run(
        [sys.executable, "-m", "repro", "sweep", "--store", str(store),
         "--instance", STORED_JOB["instance"], "--engine", STORED_JOB["engine"],
         "--seed", str(STORED_JOB["seed"]), "--run-id", STORED_RUN_ID],
        env=env, cwd=str(ROOT), check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT,
    )
    (record,) = RunStore(store).records(run_id=STORED_RUN_ID)
    return record


def main() -> int:
    scratch = Path(tempfile.mkdtemp())
    port_file, store = scratch / "port", scratch / "store"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--port-file", str(port_file), "--store", str(store)],
        env=env, cwd=str(ROOT),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not port_file.exists():
            if time.monotonic() > deadline:
                raise AssertionError("repro serve never wrote its port file")
            if server.poll() is not None:
                out = server.stdout.read() if server.stdout else ""
                raise AssertionError(f"repro serve exited early:\n{out}")
            time.sleep(0.1)
        base = f"http://127.0.0.1:{int(port_file.read_text().strip())}"

        # The headline invariant: two concurrent identical submissions.
        results = []

        def submit() -> None:
            results.append(request(base, "/jobs", dict(JOB)))

        threads = [threading.Thread(target=submit) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert [status for status, _ in results] == [202, 202], results
        ids = [body["job_id"] for _, body in results]
        records = {job_id: wait_result(base, job_id) for job_id in ids}

        _, metrics = request(base, "/metrics")
        scheduler = metrics["scheduler"]
        cached_flags = sorted(body["cached"] for body in records.values())
        first, second = (records[job_id]["record"] for job_id in ids)

        checks = [
            ("one_pool_execution", scheduler["pool_executions"] == 1,
             f"pool_executions={scheduler['pool_executions']} (want 1)"),
            ("duplicate_flagged_cached", cached_flags == [False, True],
             f"cached flags {cached_flags} (want one of each)"),
            ("dedup_counted", scheduler["cache"]["hits"]
             + scheduler["cache"]["coalesced"] == 1,
             f"cache stats {scheduler['cache']}"),
            ("records_bit_identical",
             stable_record(first) == stable_record(second),
             "cached vs executed record, wall-clock fields excluded"),
            ("fingerprints_equal",
             first["fingerprint"] == second["fingerprint"],
             f"fingerprint {first['fingerprint'][:16]}..."),
        ]

        # Another process appends a job this server never ran; the server's
        # store index must pick it up on the next lookup.
        stored = append_from_another_process(env, store)
        status, body = request(base, "/jobs", dict(STORED_JOB))
        assert status == 202, (status, body)
        result = wait_result(base, body["job_id"])
        _, after = request(base, "/metrics")
        executions = after["scheduler"]["pool_executions"]
        checks += [
            ("other_process_append_served_cached", result["cached"] is True,
             f"cached={result['cached']} for a job only the store holds"),
            ("no_execution_for_stored_job",
             executions == scheduler["pool_executions"],
             f"pool_executions {scheduler['pool_executions']} -> {executions}"),
            ("stored_record_served",
             stable_record(result["record"]) == stable_record(stored),
             "served vs stored record, wall-clock fields excluded"),
        ]
        failed = [(name, detail) for name, ok, detail in checks if not ok]
        for name, ok, detail in checks:
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        return 1 if failed else 0
    finally:
        server.send_signal(signal.SIGINT)
        try:
            output, _ = server.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            output, _ = server.communicate()
        print("--- repro serve ---")
        print(output or "")
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
