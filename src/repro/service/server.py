"""The resident simulation daemon: asyncio front door, warm backend.

One process, three layers:

* an **HTTP/1.1 front door** on a local socket (``asyncio`` streams; the
  protocol surface is small enough that no web framework is needed),
* a **bounded priority job queue** with admission control — a submit
  beyond ``max_queue`` depth, or asking for more worker processes than
  the daemon's budget, is rejected immediately with a reason instead of
  buffered,
* a **dispatcher** that runs up to ``max_inflight`` jobs concurrently,
  each in a worker thread over the shared-warm
  :class:`~repro.service.executor.ServiceBackend`.

Lifecycle: every job transition is journaled (fsynced JSONL) by
:class:`~repro.service.jobs.JobStore`; on SIGTERM/SIGINT the daemon
*drains* — stops admitting (503), starts no new jobs, finishes running
ones, and exits with queued jobs preserved in the journal, where the
next daemon re-enqueues them.  The chosen port is published in
``<cache-dir>/service/endpoint.json`` so clients need no configuration;
the file is removed on clean shutdown (its absence after exit is the
"shut down cleanly" signal CI asserts).
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from repro.registry.base import UnknownNameError
from repro.registry.service import request_kind_names, resolve_request_kind
from repro.service.executor import ServiceBackend
from repro.service.jobs import AdmissionError, JobQueue, JobStore
from repro.service.models import (
    CANCELLED,
    DONE,
    FAILED,
    JOB_STATES,
    QUEUED,
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
    ("POST", "/submit", "admit a job: {kind, priority, request:{...}}"),
    ("GET", "/status/<job-id>", "job lifecycle state"),
    ("GET", "/result/<job-id>", "deterministic result payload (done jobs)"),
    ("POST", "/cancel/<job-id>", "cancel a still-queued job"),
    ("GET", "/stats", "uptime, queue, store/cache hit rates"),
    ("GET", "/healthz", "liveness"),
)

ENDPOINT_FILE = "endpoint.json"

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    409: "Conflict", 429: "Too Many Requests", 503: "Service Unavailable",
}


@dataclass
class ServiceConfig:
    """Daemon knobs (all local-first defaults)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port lands in endpoint.json
    cache_dir: str | os.PathLike = DEFAULT_CACHE_DIR
    max_queue: int = 64  # admission bound on queued jobs
    max_inflight: int = 1  # concurrently running jobs (worker threads)
    worker_budget: int | None = None  # per-request --jobs cap (None = cores)
    hold: bool = False  # admit + journal but do not dispatch (maintenance)
    store_dir: str | os.PathLike | None = None  # result store override

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")


def service_dir(cache_dir: str | os.PathLike) -> Path:
    return Path(cache_dir) / "service"


def jobs_dir(cache_dir: str | os.PathLike) -> Path:
    return service_dir(cache_dir) / "jobs"


def endpoint_path(cache_dir: str | os.PathLike) -> Path:
    return service_dir(cache_dir) / ENDPOINT_FILE


class SimulationService:
    """One daemon instance: queue, dispatcher, HTTP front door."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.store = JobStore(jobs_dir(config.cache_dir))
        self.backend = ServiceBackend(
            config.cache_dir,
            self.store,
            config.worker_budget,
            store_dir=config.store_dir,
        )
        self.queue = JobQueue(config.max_queue)
        self.counters = CounterBank()
        self.jobs: dict[str, JobRecord] = {}
        self.port: int | None = None
        self._seq = 1
        self._hold = config.hold
        self._draining = False
        self._inflight = 0
        self._started = 0.0
        self._server: asyncio.AbstractServer | None = None
        self._dispatcher: asyncio.Task | None = None
        self._running_tasks: set[asyncio.Task] = set()
        self._work: asyncio.Condition | None = None
        self._threads: ThreadPoolExecutor | None = None
        self._shutdown_event: asyncio.Event | None = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Warm the backend, resume journaled jobs, bind the socket."""
        self._work = asyncio.Condition()
        self._shutdown_event = asyncio.Event()
        self._threads = ThreadPoolExecutor(
            max_workers=self.config.max_inflight,
            thread_name_prefix="repro-service-job",
        )
        self.backend.warm_registries()

        self.jobs = self.store.load()
        self._seq = max((j.seq for j in self.jobs.values()), default=0) + 1
        resumed = 0
        for job in self.store.resumable():
            if job.state != QUEUED:  # interrupted mid-run: re-run it
                job.state = QUEUED
                job.error = None
                self.store.record(job)
            self.queue.requeue(job)
            self.jobs[job.id] = job
            resumed += 1
        if resumed:
            self.counters.inc("jobs_resumed", resumed)

        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started = time.monotonic()
        self._write_endpoint_file()
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

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

    async def release(self) -> None:
        """Leave hold mode: start dispatching queued jobs."""
        assert self._work is not None
        async with self._work:
            self._hold = False
            self._work.notify_all()

    def request_shutdown(self) -> None:
        """Signal-handler entry: begin draining (idempotent, loop thread)."""
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    async def shutdown(self) -> None:
        """Drain: no new jobs, finish running ones, keep queued journaled."""
        self._draining = True
        if self._work is not None:
            async with self._work:
                self._work.notify_all()
        if self._dispatcher is not None:
            await self._dispatcher
        if self._running_tasks:
            await asyncio.gather(*self._running_tasks, return_exceptions=True)
        if self._threads is not None:
            self._threads.shutdown(wait=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
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
    # dispatcher
    # ------------------------------------------------------------------ #

    async def _dispatch_loop(self) -> None:
        assert self._work is not None
        while True:
            async with self._work:
                while (
                    not self._draining
                    and (
                        self._hold
                        or not len(self.queue)
                        or self._inflight >= self.config.max_inflight
                    )
                ):
                    await self._work.wait()
                if self._draining:
                    return
                job = self.queue.pop()
                self._inflight += 1
            task = asyncio.create_task(self._run_job(job))
            self._running_tasks.add(task)
            task.add_done_callback(self._running_tasks.discard)

    async def _run_job(self, job: JobRecord) -> None:
        job.state = RUNNING
        self.store.record(job)
        self.counters.inc("jobs_started")
        loop = asyncio.get_running_loop()
        try:
            text, meta = await loop.run_in_executor(
                self._threads, self.backend.run_job, job
            )
        except Exception as exc:
            job.state = FAILED
            job.error = f"{type(exc).__name__}: {exc}"
            self.counters.inc("jobs_failed")
        else:
            self.store.write_result(job.id, text)
            job.state = DONE
            job.error = None
            self.counters.inc("jobs_done")
            self.counters.inc(f"jobs_kind_{job.kind}")
            self.counters.inc("points_total", int(meta.get("points", 0)))
            for backend, count in meta.get("backends", {}).items():
                self.counters.inc(f"runs_backend_{backend}", count)
        self.store.record(job)
        assert self._work is not None
        async with self._work:
            self._inflight -= 1
            self._work.notify_all()

    # ------------------------------------------------------------------ #
    # HTTP front door
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await asyncio.wait_for(reader.readline(), 30.0)
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                return
            method, path = parts[0].upper(), parts[1]
            headers: dict[str, str] = {}
            while True:
                line = await asyncio.wait_for(reader.readline(), 30.0)
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length") or 0)
            body = await reader.readexactly(length) if length else b""
            status, payload = await self._route(method, path, body)
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
            pass  # malformed or abandoned connection: drop it
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict | bytes]:
        if method == "GET" and path == "/healthz":
            return 200, {
                "ok": True,
                "state": "draining" if self._draining else "serving",
            }
        if method == "GET" and path == "/stats":
            return 200, self.stats_payload()
        if method == "POST" and path == "/submit":
            return await self._submit(body)
        if method == "GET" and path.startswith("/status/"):
            return self._status(path.removeprefix("/status/"))
        if method == "GET" and path.startswith("/result/"):
            return self._result(path.removeprefix("/result/"))
        if method == "POST" and path.startswith("/cancel/"):
            return await self._cancel(path.removeprefix("/cancel/"))
        return 404, {"error": f"no route for {method} {path}"}

    async def _submit(self, body: bytes) -> tuple[int, dict]:
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

        priority = payload.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            return 400, {"error": f"priority must be an integer, got {priority!r}"}

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
                "error": "service draining: finishing running jobs, not"
                " admitting new ones; resubmit to the next daemon"
            }
        if request.jobs > self.backend.worker_budget:
            self.counters.inc("requests_rejected")
            return 429, {
                "error": f"requested jobs={request.jobs} exceeds the"
                f" worker budget ({self.backend.worker_budget});"
                f" lower --jobs or raise --worker-budget"
            }

        assert self._work is not None
        async with self._work:
            # A duplicate of a queued, running or finished request is an
            # ordinary job: its points are result-store hits.
            job = JobRecord(
                id=job_id_for(self._seq),
                kind=handler.kind,
                priority=priority,
                seq=self._seq,
                request=request.to_wire(),
            )
            try:
                self.queue.admit(job)
            except AdmissionError as exc:
                self.counters.inc("requests_rejected")
                return 429, {"error": exc.reason}
            self._seq += 1
            self.jobs[job.id] = job
            self.store.record(job)
            self.counters.inc("jobs_admitted")
            depth = len(self.queue)
            self._work.notify_all()
        return 202, {"job_id": job.id, "state": QUEUED, "queue_depth": depth}

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
        data = self.store.read_result(job_id)
        if data is None:
            return 404, {"error": f"result file for {job_id} is missing"}
        return 200, data

    async def _cancel(self, job_id: str) -> tuple[int, dict]:
        self.counters.inc("requests_cancel")
        assert self._work is not None
        async with self._work:
            job = self.jobs.get(job_id)
            if job is None:
                return 404, {"error": f"unknown job {job_id!r}"}
            if job.state == QUEUED and self.queue.remove(job_id) is not None:
                job.state = CANCELLED
                self.store.record(job)
                self.counters.inc("jobs_cancelled")
                return 200, job.status_payload()
            return 409, {
                "error": f"job {job_id} is {job.state};"
                " only queued jobs can be cancelled"
            }

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def stats_payload(self) -> dict:
        by_state = {state: 0 for state in JOB_STATES}
        for job in self.jobs.values():
            by_state[job.state] += 1
        return {
            "uptime_s": round(time.monotonic() - self._started, 3),
            "pid": os.getpid(),
            "queue": {
                "depth": len(self.queue),
                "max_depth": self.config.max_queue,
                "inflight": self._inflight,
                "max_inflight": self.config.max_inflight,
                "hold": self._hold,
                "draining": self._draining,
            },
            "jobs": by_state,
            "request_kinds": list(request_kind_names()),
            "counters": self.counters.snapshot(),
            "cache": self.backend.cache_stats(),
        }
