"""Stdlib-only HTTP/JSON front end over the :class:`JobScheduler`.

Raw ``asyncio.start_server`` plus a minimal HTTP/1.1 parser -- no external
web framework, one request per connection (every response carries
``Connection: close``).  Endpoints:

* ``POST /jobs`` -- submit a job (``202`` with the job summary; ``429`` when
  the reject-policy queue is full, ``400`` for malformed specs);
* ``GET /jobs`` -- every job summary of this scheduler;
* ``GET /jobs/<id>`` -- one job's status summary;
* ``GET /jobs/<id>/events`` -- the ordered event stream as NDJSON, replayed
  from the start and followed live until the ``completed`` event;
* ``GET /jobs/<id>/result`` -- the completed record (``409`` while pending);
* ``GET /metrics`` -- ``{"scheduler": ..., "http": ...}``: the scheduler's
  :meth:`~JobScheduler.stats` (queue, cache, pool executions and the summed
  evaluator counters of every executed record, pool workers included) and
  this app's own ``errors`` / ``stream_disconnects`` counts;
* ``GET /healthz`` -- liveness.

The submit body is JSON: ``{"instance": "ti:200"}`` at minimum, plus
``kind`` (``"run"``/``"mc"``), ``flow``/``engine``/``pipeline``/``seed``,
the Monte Carlo axes for ``kind="mc"``, and scheduling fields ``client`` /
``priority``.  A client disconnecting mid-stream only increments
:attr:`ServeApp.stream_disconnects` -- the job itself keeps running and its
events stay replayable.

:class:`ServerHandle` hosts the whole stack (scheduler + HTTP server) on a
dedicated thread with its own event loop, which is how the tests and the CI
smoke run a live endpoint in-process; ``repro serve`` drives
:func:`run_app` directly on the main thread instead.
"""

from __future__ import annotations

import asyncio
import json
import threading
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

from repro.api.jobs import Job, JobSpec, McJobSpec
from repro.api.service import JobEvent, SynthesisService
from repro.serve.queue import QueueFullError
from repro.serve.scheduler import JobScheduler
from repro.serve.session import JobState

__all__ = ["HttpError", "ServeApp", "ServerHandle", "job_from_payload", "run_app"]

#: Upper bound on request head/body sizes (a synthesis job spec is tiny).
MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class HttpError(Exception):
    """A client-visible HTTP failure (status + JSON error message)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def job_from_payload(payload: Mapping[str, Any]) -> Job:
    """Parse one submit-body JSON object into a typed job spec.

    Raises :class:`ValueError` (surfaced as HTTP 400) for anything the spec
    classes would reject -- validation lives in :mod:`repro.api.jobs`, not
    here.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(f"job payload must be a JSON object, got {type(payload).__name__}")
    instance = payload.get("instance")
    if not isinstance(instance, str) or not instance:
        raise ValueError("job payload needs a non-empty 'instance' spec string")
    kind = payload.get("kind", "run")
    # An absent (or null) field keeps the spec class's default.
    kwargs: Dict[str, Any] = {"instance": instance}
    for key in ("flow", "engine", "seed"):
        if payload.get(key) is not None:
            kwargs[key] = payload[key]
    pipeline = payload.get("pipeline")
    if pipeline is not None:
        if isinstance(pipeline, str) or not isinstance(pipeline, (list, tuple)):
            raise ValueError("'pipeline' must be a JSON array of pass names")
        kwargs["pipeline"] = tuple(pipeline)
    if kind == "run":
        return JobSpec(**kwargs)
    if kind == "mc":
        for key in ("samples", "family", "skew_limit_ps", "gated", "gate_samples"):
            if payload.get(key) is not None:
                kwargs[key] = payload[key]
        return McJobSpec(**kwargs)
    raise ValueError(f"unknown job kind {kind!r}; expected 'run' or 'mc'")


def _json_bytes(status: int, payload: Any) -> bytes:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode("latin-1") + body


class ServeApp:
    """Route table + request parser over one :class:`JobScheduler`."""

    def __init__(self, scheduler: JobScheduler) -> None:
        self.scheduler = scheduler
        #: Requests that ended in an unexpected 500.
        self.errors = 0
        #: Connections the client dropped before the response was written.
        self.stream_disconnects = 0

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection: parse, route, respond, close."""
        try:
            try:
                method, target, body = await self._read_request(reader)
            except (asyncio.IncompleteReadError, ConnectionResetError):
                return
            except HttpError as exc:
                writer.write(_json_bytes(exc.status, {"error": exc.message}))
                await writer.drain()
                return
            try:
                await self._route(method, target, body, writer)
            except HttpError as exc:
                writer.write(_json_bytes(exc.status, {"error": exc.message}))
            except QueueFullError as exc:
                writer.write(_json_bytes(429, {"error": str(exc)}))
            except KeyError as exc:
                writer.write(_json_bytes(404, {"error": f"unknown job id {exc.args[0]!r}"}))
            except (ValueError, TypeError) as exc:
                writer.write(_json_bytes(400, {"error": str(exc)}))
            except Exception:
                self.errors += 1
                writer.write(_json_bytes(500, {"error": "internal server error"}))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            self.stream_disconnects += 1
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> Tuple[str, str, bytes]:
        line = await reader.readline()
        if not line:
            raise ConnectionResetError("empty request")
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise HttpError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        length = 0
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError as exc:
                    raise HttpError(400, "bad Content-Length") from exc
        if length > MAX_BODY_BYTES:
            raise HttpError(400, f"body larger than {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        return method, target, body

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(
        self, method: str, target: str, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        path = target.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            writer.write(_json_bytes(200, {"status": "ok"}))
            return
        if path == "/metrics" and method == "GET":
            writer.write(
                _json_bytes(
                    200,
                    {
                        "scheduler": self.scheduler.stats(),
                        "http": {
                            "errors": self.errors,
                            "stream_disconnects": self.stream_disconnects,
                        },
                    },
                )
            )
            return
        if path == "/jobs":
            if method == "POST":
                await self._submit(body, writer)
                return
            if method == "GET":
                writer.write(
                    _json_bytes(200, {"jobs": self.scheduler.registry.summaries()})
                )
                return
            raise HttpError(405, f"{method} not allowed on {path}")
        if path.startswith("/jobs/") and method == "GET":
            rest = path[len("/jobs/") :]
            job_id, _, action = rest.partition("/")
            state = self.scheduler.registry.get(job_id)
            if action == "":
                writer.write(_json_bytes(200, state.summary()))
                return
            if action == "result":
                self._result(state, writer)
                return
            if action == "events":
                await self._stream_events(state, writer)
                return
        raise HttpError(404, f"no route for {method} {path}")

    async def _submit(self, body: bytes, writer: asyncio.StreamWriter) -> None:
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except json.JSONDecodeError as exc:
            raise HttpError(400, f"body is not valid JSON: {exc}") from exc
        job = job_from_payload(payload)
        client = str(payload.get("client", "anon"))
        priority = int(payload.get("priority", 0))
        state = await self.scheduler.submit(job, client=client, priority=priority)
        writer.write(_json_bytes(202, state.summary()))

    @staticmethod
    def _result(state: JobState, writer: asyncio.StreamWriter) -> None:
        if not state.finished or state.record is None:
            raise HttpError(409, f"job {state.job_id} is {state.status}")
        writer.write(
            _json_bytes(
                200,
                {
                    "job_id": state.job_id,
                    "status": state.status,
                    "cached": state.cached,
                    "record": state.record.to_record(),
                },
            )
        )

    async def _stream_events(
        self, state: JobState, writer: asyncio.StreamWriter
    ) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        try:
            await writer.drain()
            async for event in state.stream():
                line = json.dumps(_event_payload(state, event), sort_keys=True)
                writer.write(line.encode("utf-8") + b"\n")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            # The job is unaffected; its events stay buffered for replay.
            self.stream_disconnects += 1


def _event_payload(state: JobState, event: JobEvent) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "job_id": state.job_id,
        "kind": event.kind,
        "job": event.job.label,
        "cached": event.cached,
        "note": event.note,
    }
    if event.kind == "completed" and event.record is not None:
        payload["failed"] = event.failed
        payload["record"] = event.record.to_record()
    return payload


async def run_app(
    service: SynthesisService,
    host: str = "127.0.0.1",
    port: int = 8765,
    max_queue: int = 64,
    policy: str = "wait",
    workers: Optional[int] = None,
    port_file: Union[str, Path, None] = None,
    ready: Optional[Callable[[int], None]] = None,
) -> None:
    """Run scheduler + HTTP server until cancelled (the ``repro serve`` body).

    ``port=0`` binds an ephemeral port; the bound port is written to
    ``port_file`` (when given) and passed to ``ready`` once the server is
    accepting, so scripted callers need no sleep-and-retry loop.
    """
    scheduler = JobScheduler(service, max_queue=max_queue, policy=policy, workers=workers)
    await scheduler.start()
    app = ServeApp(scheduler)
    server = await asyncio.start_server(app.handle, host=host, port=port)
    bound = int(server.sockets[0].getsockname()[1])
    if port_file is not None:
        Path(port_file).write_text(f"{bound}\n", encoding="utf-8")
    if ready is not None:
        ready(bound)
    try:
        async with server:
            await server.serve_forever()
    finally:
        await scheduler.close(drain=False)


class ServerHandle:
    """A live serve stack on its own thread + event loop (tests, smokes).

    ``start()`` blocks until the socket is bound and returns the handle;
    ``stop()`` drains the scheduler, closes the server and joins the thread.
    The handle exposes ``port`` for clients and ``scheduler`` for
    assertions about executions, queue state and cache counters.
    """

    def __init__(
        self,
        service: SynthesisService,
        host: str = "127.0.0.1",
        max_queue: int = 64,
        policy: str = "wait",
        workers: Optional[int] = None,
    ) -> None:
        self.service = service
        self.host = host
        self.max_queue = max_queue
        self.policy = policy
        self.workers = workers
        self.port = 0
        self.scheduler: Optional[JobScheduler] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self) -> "ServerHandle":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-http", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=60):
            raise RuntimeError("serve thread did not come up within 60s")
        if self._startup_error is not None:
            raise RuntimeError("serve thread failed to start") from self._startup_error
        return self

    def stop(self, timeout: float = 60.0) -> None:
        loop, shutdown = self._loop, self._shutdown
        if loop is not None and shutdown is not None:
            loop.call_soon_threadsafe(shutdown.set)
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surface startup failures to start()
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        scheduler = JobScheduler(
            self.service,
            max_queue=self.max_queue,
            policy=self.policy,
            workers=self.workers,
        )
        self.scheduler = scheduler
        await scheduler.start()
        server = await asyncio.start_server(
            ServeApp(scheduler).handle, host=self.host, port=0
        )
        self.port = int(server.sockets[0].getsockname()[1])
        self._ready.set()
        try:
            await self._shutdown.wait()
        finally:
            server.close()
            await server.wait_closed()
            await scheduler.close(drain=True)
