"""Live-endpoint tests for the HTTP/JSON front end (repro.serve.http).

Every test talks real HTTP to a :class:`ServerHandle` (its own thread and
event loop), so request parsing, routing, streaming and error mapping are
exercised end to end -- including the headline dedup invariant: two
concurrent submissions of the same job produce one pool execution and a
``cached``-flagged duplicate whose record is bit-identical.
"""

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.api.records import stable_record
from repro.api.service import SynthesisService
from repro.serve import ServerHandle

FAST_JOB = {"instance": "ti:24", "engine": "elmore", "pipeline": ["initial"]}


@pytest.fixture()
def server(tmp_path):
    with SynthesisService(max_workers=1, store=tmp_path / "store") as service:
        with ServerHandle(service) as handle:
            yield handle


def request(handle, path, payload=None, method=None):
    """One JSON request; returns (status, decoded body)."""
    req = urllib.request.Request(
        f"http://127.0.0.1:{handle.port}{path}",
        data=None if payload is None else json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method=method or ("POST" if payload is not None else "GET"),
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def wait_result(handle, job_id, tries=300):
    for _ in range(tries):
        status, body = request(handle, f"/jobs/{job_id}/result")
        if status != 409:
            return status, body
    raise AssertionError(f"{job_id} never completed")


class TestEndpoints:
    def test_healthz(self, server):
        status, body = request(server, "/healthz")
        assert status == 200 and body["status"] == "ok"

    def test_submit_poll_result_roundtrip(self, server):
        status, submitted = request(server, "/jobs", dict(FAST_JOB, client="t"))
        assert status == 202
        assert submitted["status"] in ("queued", "running", "completed")
        job_id = submitted["job_id"]
        status, result = wait_result(server, job_id)
        assert status == 200
        assert result["status"] == "completed" and not result["cached"]
        assert result["record"]["instance"] == "ti:24"
        assert result["record"]["fingerprint"]
        # The job list and single-job views agree.
        _, listing = request(server, "/jobs")
        assert [row["job_id"] for row in listing["jobs"]] == [job_id]
        _, row = request(server, f"/jobs/{job_id}")
        assert row["status"] == "completed"

    def test_unknown_job_is_404(self, server):
        status, body = request(server, "/jobs/job-999")
        assert status == 404 and "job-999" in body["error"]

    def test_bad_payload_is_400(self, server):
        status, body = request(server, "/jobs", {"engine": "elmore"})
        assert status == 400 and "instance" in body["error"]

    def test_unknown_route_is_404(self, server):
        status, _ = request(server, "/nope")
        assert status == 404

    def test_metrics_exposes_scheduler_and_counters(self, server):
        _, submitted = request(server, "/jobs", FAST_JOB)
        _, result = wait_result(server, submitted["job_id"])
        status, body = request(server, "/metrics")
        assert status == 200
        assert set(body) == {"scheduler", "http"}
        assert body["scheduler"]["queue_policy"] == "wait"
        assert body["scheduler"]["jobs"] == 1
        assert body["scheduler"]["evaluator"] == result["record"]["evaluator_cache"]
        assert body["http"] == {"errors": 0, "stream_disconnects": 0}

    def test_unexpected_handler_error_is_a_counted_500(self, server, monkeypatch):
        def broken():
            raise RuntimeError("stats exploded")

        monkeypatch.setattr(server.scheduler, "stats", broken)
        status, body = request(server, "/metrics")
        assert status == 500 and body["error"] == "internal server error"
        monkeypatch.undo()
        status, body = request(server, "/metrics")
        assert status == 200 and body["http"]["errors"] == 1


class TestDeduplication:
    def test_concurrent_duplicates_execute_once_bit_identically(self, server):
        results = []

        def submit():
            results.append(request(server, "/jobs", FAST_JOB))

        threads = [threading.Thread(target=submit) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert [status for status, _ in results] == [202, 202]
        ids = [body["job_id"] for _, body in results]

        payloads = {}
        for job_id in ids:
            status, body = wait_result(server, job_id)
            assert status == 200 and body["status"] == "completed"
            payloads[job_id] = body
        # Exactly one pool execution; the duplicate is flagged cached
        # (coalesced or post-completion hit, depending on the race) and its
        # record is bit-identical outside the wall-clock fields.
        assert server.scheduler.pool_executions == 1
        flags = sorted(body["cached"] for body in payloads.values())
        assert flags == [False, True]
        first, second = (payloads[job_id]["record"] for job_id in ids)
        assert stable_record(first) == stable_record(second)
        assert first["fingerprint"] == second["fingerprint"]

    def test_resubmit_after_completion_is_served_from_the_store(self, server):
        _, first = request(server, "/jobs", FAST_JOB)
        wait_result(server, first["job_id"])
        _, second = request(server, "/jobs", FAST_JOB)
        status, body = wait_result(server, second["job_id"])
        assert status == 200 and body["cached"]
        _, metrics = request(server, "/metrics")
        assert metrics["scheduler"]["pool_executions"] == 1
        assert metrics["scheduler"]["cache"]["hits"] == 1


class TestStreaming:
    def read_events(self, server, job_id):
        with socket.create_connection(("127.0.0.1", server.port), timeout=60) as sock:
            sock.sendall(
                f"GET /jobs/{job_id}/events HTTP/1.1\r\n"
                f"Host: localhost\r\nConnection: close\r\n\r\n".encode()
            )
            raw = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"200 OK" in head.splitlines()[0]
        return [json.loads(line) for line in body.splitlines() if line.strip()]

    def test_event_stream_replays_started_then_completed(self, server):
        _, submitted = request(server, "/jobs", FAST_JOB)
        wait_result(server, submitted["job_id"])
        events = self.read_events(server, submitted["job_id"])
        assert [event["kind"] for event in events] == ["started", "completed"]
        assert events[-1]["cached"] is False
        assert events[-1]["failed"] is False
        assert events[-1]["record"]["instance"] == "ti:24"

    def test_duplicate_stream_flags_its_completion_cached(self, server):
        _, first = request(server, "/jobs", FAST_JOB)
        wait_result(server, first["job_id"])
        _, dup = request(server, "/jobs", FAST_JOB)
        wait_result(server, dup["job_id"])
        events = self.read_events(server, dup["job_id"])
        assert events[-1]["kind"] == "completed" and events[-1]["cached"] is True

    def test_client_disconnect_mid_stream_leaves_the_server_healthy(self, server):
        _, submitted = request(server, "/jobs", FAST_JOB)
        # Hang up immediately after the request line: the stream writer hits
        # a closed pipe while the job may still be running.
        with socket.create_connection(("127.0.0.1", server.port), timeout=60) as sock:
            sock.sendall(
                f"GET /jobs/{submitted['job_id']}/events HTTP/1.1\r\n"
                f"Host: localhost\r\n\r\n".encode()
            )
        status, body = wait_result(server, submitted["job_id"])
        assert status == 200 and body["status"] == "completed"
        assert request(server, "/healthz")[0] == 200
