"""The resident simulation daemon: asyncio front door, one FIFO worker.

One process, two layers:

* an **HTTP/1.1 front door** on a local socket (``asyncio`` streams; the
  protocol surface is small enough that no web framework is needed).  A
  submit that asks for more worker processes than the daemon's budget,
  or arrives while :data:`MAX_PENDING` jobs are queued or running, is
  rejected at once with a reason (429) instead of buffered;
* one **worker thread** that runs admitted jobs first in, first out
  over the shared-warm :class:`~repro.service.executor.ServiceBackend`.

The result store is the only durable layer.  Job records live in
memory; each finished job's result payload is written atomically to
``<cache-dir>/service/jobs/<job-id>.result.json`` so memory stays
bounded.  That directory is cleared when the daemon starts and after it
drains: a job id means nothing to the next daemon, and a job lost to a
restart costs one resubmit whose points are all store hits.

On SIGTERM/SIGINT the daemon *drains*: it rejects new submits (503),
finishes the running job, fails every queued one, and exits.  The
chosen port is published in ``<cache-dir>/service/endpoint.json`` so
clients need no configuration; the file is removed on clean shutdown
(its absence after exit is the "shut down cleanly" signal CI asserts).
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from repro.registry.base import UnknownNameError
from repro.registry.service import request_kind_names, resolve_request_kind
from repro.service.executor import ServiceBackend
from repro.service.models import (
    DONE,
    FAILED,
    JOB_STATES,
    RUNNING,
    JobRecord,
    RequestError,
    job_id_for,
)
from repro.telemetry import CounterBank
from repro.workloads.tracecache import DEFAULT_CACHE_DIR

#: The daemon's HTTP surface, enumerable by ``list`` alongside the
#: registries (kept in sync with :meth:`SimulationService._route`).
ENDPOINTS = (
    ("POST", "/submit", "admit a job: {kind, request:{...}}"),
    ("GET", "/status/<job-id>", "job lifecycle state"),
    ("GET", "/result/<job-id>", "deterministic result payload (done jobs)"),
    ("GET", "/stats", "uptime, queue, store/cache hit rates"),
    ("GET", "/healthz", "liveness"),
)

ENDPOINT_FILE = "endpoint.json"

#: Jobs queued or running at once; a submit beyond it gets 429.
MAX_PENDING = 64

#: Seconds allowed for the request line, each header line, and the body.
READ_TIMEOUT_S = 30.0

#: Largest request body accepted; a larger ``Content-Length`` gets 413.
MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    409: "Conflict", 413: "Payload Too Large", 429: "Too Many Requests",
    503: "Service Unavailable",
}


@dataclass
class ServiceConfig:
    """Daemon deployment settings (all local-first defaults)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port lands in endpoint.json
    cache_dir: str | os.PathLike = DEFAULT_CACHE_DIR
    worker_budget: int | None = None  # per-request --jobs cap (None = cores)
    store_dir: str | os.PathLike | None = None  # result store override


def service_dir(cache_dir: str | os.PathLike) -> Path:
    return Path(cache_dir) / "service"


def jobs_dir(cache_dir: str | os.PathLike) -> Path:
    return service_dir(cache_dir) / "jobs"


def endpoint_path(cache_dir: str | os.PathLike) -> Path:
    return service_dir(cache_dir) / ENDPOINT_FILE


class SimulationService:
    """One daemon instance: HTTP front door plus one FIFO worker thread."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.jobs_dir = jobs_dir(config.cache_dir)
        self.backend = ServiceBackend(
            config.cache_dir, config.worker_budget, store_dir=config.store_dir
        )
        self.counters = CounterBank()
        self.jobs: dict[str, JobRecord] = {}
        self.port: int | None = None
        self._seq = 1
        self._draining = False
        self._started = 0.0
        #: Futures of queued and running jobs, by job id (loop thread only).
        self._pending: dict[str, Future] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._worker: ThreadPoolExecutor | None = None
        self._shutdown_event: asyncio.Event | None = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Warm the backend, clear stale job files, bind the socket."""
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        self._worker = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-job"
        )
        self.backend.warm_registries()
        shutil.rmtree(self.jobs_dir, ignore_errors=True)
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started = time.monotonic()
        self._write_endpoint_file()

    def _write_endpoint_file(self) -> None:
        path = endpoint_path(self.config.cache_dir)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(
            json.dumps(
                {
                    "host": self.config.host,
                    "port": self.port,
                    "pid": os.getpid(),
                },
                sort_keys=True,
            )
            + "\n"
        )
        tmp.replace(path)

    def request_shutdown(self) -> None:
        """Signal-handler entry: begin draining (idempotent, loop thread)."""
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    async def shutdown(self) -> None:
        """Drain: reject submits, fail queued jobs, finish the running one."""
        self._draining = True
        for future in list(self._pending.values()):
            future.cancel()  # refused by the running job, which finishes
        if self._worker is not None:
            await asyncio.to_thread(self._worker.shutdown)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        shutil.rmtree(self.jobs_dir, ignore_errors=True)
        try:
            endpoint_path(self.config.cache_dir).unlink()
        except FileNotFoundError:
            pass

    async def serve_until_shutdown(self) -> None:
        """Run until :meth:`request_shutdown` fires, then drain."""
        assert self._shutdown_event is not None
        await self._shutdown_event.wait()
        await self.shutdown()

    # ------------------------------------------------------------------ #
    # the worker thread
    # ------------------------------------------------------------------ #

    def _run_job(self, job: JobRecord) -> dict:
        """Worker thread: run one job, persist its result, return meta."""
        job.state = RUNNING
        text, meta = self.backend.run_job(job)
        path = self._result_path(job.id)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(text)
        tmp.replace(path)  # atomic: /result never reads a partial file
        return meta

    def _finish_job(self, job: JobRecord, future: Future) -> None:
        """Loop thread: record how a job's future ended."""
        del self._pending[job.id]
        if future.cancelled():
            job.state = FAILED
            job.error = (
                "cancelled: the daemon drained before the job started;"
                " resubmit it to the next daemon"
            )
            self.counters.inc("jobs_cancelled")
            return
        exc = future.exception()
        if exc is not None:
            job.state = FAILED
            job.error = f"{type(exc).__name__}: {exc}"
            self.counters.inc("jobs_failed")
            return
        meta = future.result()
        self.counters.inc("jobs_done")
        self.counters.inc(f"jobs_kind_{job.kind}")
        self.counters.inc("points_total", int(meta.get("points", 0)))
        for backend, count in meta.get("backends", {}).items():
            self.counters.inc(f"runs_backend_{backend}", count)
        job.state = DONE

    def _result_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.result.json"

    # ------------------------------------------------------------------ #
    # HTTP front door
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            response = await self._read_and_route(reader)
            if response is not None:
                status, payload = response
                if isinstance(payload, bytes):
                    data = payload
                else:
                    data = json.dumps(payload, sort_keys=True).encode() + b"\n"
                head = (
                    f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(data)}\r\n"
                    f"Connection: close\r\n\r\n"
                )
                writer.write(head.encode("latin-1") + data)
                await writer.drain()
        except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                ConnectionError, ValueError):
            pass  # stalled, oversized-line or abandoned connection: drop it
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_and_route(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, dict | bytes] | None:
        """Read one request and answer it; None drops the connection."""
        request_line = await asyncio.wait_for(reader.readline(), READ_TIMEOUT_S)
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = await asyncio.wait_for(reader.readline(), READ_TIMEOUT_S)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0")
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            return 400, {
                "error": "Content-Length must be a non-negative integer,"
                f" got {raw_length!r}"
            }
        if length > MAX_BODY_BYTES:
            return 413, {
                "error": f"request body of {length} bytes exceeds the"
                f" {MAX_BODY_BYTES}-byte limit"
            }
        body = b""
        if length:
            body = await asyncio.wait_for(
                reader.readexactly(length), READ_TIMEOUT_S
            )
        return self._route(method, path, body)

    def _route(self, method: str, path: str, body: bytes) -> tuple[int, dict | bytes]:
        if method == "GET" and path == "/healthz":
            return 200, {
                "ok": True,
                "state": "draining" if self._draining else "serving",
            }
        if method == "GET" and path == "/stats":
            return 200, self.stats_payload()
        if method == "POST" and path == "/submit":
            return self._submit(body)
        if method == "GET" and path.startswith("/status/"):
            return self._status(path.removeprefix("/status/"))
        if method == "GET" and path.startswith("/result/"):
            return self._result(path.removeprefix("/result/"))
        return 404, {"error": f"no route for {method} {path}"}

    def _submit(self, body: bytes) -> tuple[int, dict]:
        self.counters.inc("requests_submit")
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            return 400, {"error": f"invalid JSON body: {exc}"}
        if not isinstance(payload, dict):
            return 400, {"error": "body must be a JSON object"}

        kind = payload.get("kind")
        try:
            handler = resolve_request_kind(kind if isinstance(kind, str) else "")
        except UnknownNameError as exc:
            self.counters.inc("requests_rejected")
            return 400, {"error": str(exc)}

        request_payload = payload.get("request", {})
        if not isinstance(request_payload, dict):
            return 400, {"error": "field 'request' must be an object"}
        try:
            request = handler.request_cls.from_wire(request_payload)
            handler.validate(request)
        except RequestError as exc:
            self.counters.inc("requests_rejected")
            return 400, {"error": str(exc)}

        if self._draining:
            self.counters.inc("requests_rejected")
            return 503, {
                "error": "service draining: finishing the running job, not"
                " admitting new ones; resubmit to the next daemon"
            }
        if request.jobs > self.backend.worker_budget:
            self.counters.inc("requests_rejected")
            return 429, {
                "error": f"requested jobs={request.jobs} exceeds the"
                f" worker budget ({self.backend.worker_budget});"
                f" lower --jobs or raise --worker-budget"
            }
        if len(self._pending) >= MAX_PENDING:
            self.counters.inc("requests_rejected")
            return 429, {
                "error": f"queue full: {len(self._pending)} jobs queued or"
                f" running, the {MAX_PENDING}-job limit; retry later"
            }

        # A duplicate of a queued, running or finished request is an
        # ordinary job: its points are result-store hits.
        job = JobRecord(
            id=job_id_for(self._seq),
            kind=handler.kind,
            seq=self._seq,
            request=request.to_wire(),
        )
        self._seq += 1
        self.jobs[job.id] = job
        assert self._worker is not None and self._loop is not None
        future = self._worker.submit(self._run_job, job)
        self._pending[job.id] = future
        loop = self._loop
        future.add_done_callback(
            lambda done: loop.call_soon_threadsafe(self._finish_job, job, done)
        )
        self.counters.inc("jobs_admitted")
        return 202, {
            "job_id": job.id, "state": job.state,
            "queue_depth": len(self._pending),
        }

    def _status(self, job_id: str) -> tuple[int, dict]:
        self.counters.inc("requests_status")
        job = self.jobs.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        return 200, job.status_payload()

    def _result(self, job_id: str) -> tuple[int, dict | bytes]:
        self.counters.inc("requests_result")
        job = self.jobs.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        if job.state != DONE:
            return 409, {
                "error": f"job {job_id} is {job.state}, not done",
                "state": job.state,
                **({"job_error": job.error} if job.error else {}),
            }
        try:
            return 200, self._result_path(job_id).read_bytes()
        except FileNotFoundError:
            return 404, {"error": f"result file for {job_id} is missing"}

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def stats_payload(self) -> dict:
        by_state = {state: 0 for state in JOB_STATES}
        for job in list(self.jobs.values()):
            by_state[job.state] += 1
        return {
            "uptime_s": round(time.monotonic() - self._started, 3),
            "pid": os.getpid(),
            "queue": {
                "pending": len(self._pending),
                "max_pending": MAX_PENDING,
                "draining": self._draining,
            },
            "jobs": by_state,
            "request_kinds": list(request_kind_names()),
            "counters": self.counters.snapshot(),
            "cache": self.backend.cache_stats(),
        }
