"""Tests for the resident simulation service (repro.service).

Covers the wire models and — against a real daemon running on a
background event loop — the contract tests: client-fetched results
byte-identical to direct SweepPool output for every request kind,
admission-control rejections with concrete reasons, FIFO dispatch,
drain behaviour, a restarted daemon serving a resubmit from the result
store, and the HTTP front door's handling of malformed request bodies.
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import threading
import time

import pytest

from repro.experiments.pool import SweepPool
from repro.service import server
from repro.service.client import ServiceClient, ServiceError
from repro.service.handlers import SimulateHandler, SweepHandler, TraceHandler
from repro.service.models import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobRecord,
    RequestError,
    SimulateRequest,
    SweepRequest,
    TraceRequest,
    job_id_for,
)
from repro.service.server import (
    MAX_BODY_BYTES,
    MAX_PENDING,
    ServiceConfig,
    SimulationService,
    endpoint_path,
    jobs_dir,
)

#: Small enough to keep real simulations fast, large enough to be real.
WINDOW = 1_200
CONFIG = "clk4_w1, delay0"


# --------------------------------------------------------------------- #
# wire models
# --------------------------------------------------------------------- #


def test_request_wire_round_trips():
    for request in (
        SimulateRequest("astar", window=WINDOW, config=CONFIG, jobs=2),
        SweepRequest(window=WINDOW, workloads=("astar", "lbm"), configs=(CONFIG,)),
        TraceRequest(target="astar", window=WINDOW, ring=128, sample_period=8),
    ):
        assert type(request).from_wire(request.to_wire()) == request


def test_request_validation_names_the_bad_field():
    with pytest.raises(RequestError, match="'workload'"):
        SimulateRequest.from_wire({})
    with pytest.raises(RequestError, match="'window'"):
        SimulateRequest.from_wire({"workload": "astar", "window": "big"})
    with pytest.raises(RequestError, match="'jobs'"):
        SimulateRequest.from_wire({"workload": "astar", "jobs": True})
    with pytest.raises(RequestError, match="'overrides'"):
        SimulateRequest.from_wire({"workload": "astar", "overrides": [1]})
    with pytest.raises(RequestError, match="'workloads'"):
        SweepRequest.from_wire({"workloads": [1, 2]})
    with pytest.raises(RequestError, match="'sample_period'"):
        TraceRequest.from_wire({"sample_period": -1})


def test_sweep_request_accepts_comma_lists():
    request = SweepRequest.from_wire({"workloads": "astar,lbm"})
    assert request.workloads == ("astar", "lbm")


def test_job_status_payload_marks_terminal_states():
    job = JobRecord(
        id=job_id_for(7), kind="simulate", seq=7,
        request={"workload": "astar", "window": WINDOW},
    )
    payload = job.status_payload()
    assert payload["id"] == "job-000007" and payload["state"] == QUEUED
    assert payload["terminal"] is False and "error" not in payload
    job.state, job.error = FAILED, "RuntimeError: boom"
    payload = job.status_payload()
    assert payload["terminal"] is True
    assert payload["error"] == "RuntimeError: boom"


def _validate(workload: str, overrides: dict) -> None:
    SimulateHandler.validate(
        SimulateRequest(workload, window=WINDOW, overrides=overrides)
    )


def test_simulate_overrides_are_checked_against_the_builder():
    _validate("astar", {"seed": 2, "pattern": "random"})
    _validate("astar", {"obstacle_density": 0})  # an int is a fine float
    _validate("astar-alt", {"table_entries": 1024})
    for workload, overrides, key in (
        ("astar", {"bogus": 1}, "bogus"),
        ("astar", {"label": "x"}, "label"),
        ("astar", {"seed": "abc"}, "seed"),
        ("astar", {"seed": True}, "seed"),  # a bool is not an int
        ("astar", {"seed": 2.0}, "seed"),
        ("astar", {"grid_width": None}, "grid_width"),
        ("astar-alt", {"kwargs": {}}, "kwargs"),  # **kwargs takes no key
        ("bfs-roads", {"graph_name": "roads"}, "graph_name"),
    ):
        with pytest.raises(RequestError, match=repr(key)):
            _validate(workload, overrides)


def test_simulate_point_keeps_its_label_under_overrides():
    (point,) = SimulateHandler.points(
        SimulateRequest("astar", window=WINDOW, overrides={"seed": 2})
    )
    assert point.label == "baseline:astar"
    assert point.overrides == {"seed": 2} and point.pfm is None


# --------------------------------------------------------------------- #
# live daemon harness
# --------------------------------------------------------------------- #


@contextlib.contextmanager
def running_service(cache_dir, **overrides):
    """A real daemon on a background event loop plus a connected client."""
    config = ServiceConfig(cache_dir=cache_dir, **overrides)
    started = threading.Event()
    box: dict = {}

    async def _main():
        service = SimulationService(config)
        await service.start()
        box["service"] = service
        box["loop"] = asyncio.get_running_loop()
        started.set()
        await service.serve_until_shutdown()

    thread = threading.Thread(target=lambda: asyncio.run(_main()), daemon=True)
    thread.start()
    assert started.wait(30), "daemon failed to start"
    service = box["service"]
    try:
        yield service, ServiceClient(cache_dir=cache_dir)
    finally:
        with contextlib.suppress(RuntimeError):  # loop already closed
            box["loop"].call_soon_threadsafe(service.request_shutdown)
        thread.join(60)
        assert not thread.is_alive(), "daemon failed to drain"


@contextlib.contextmanager
def held_worker(service, run_job=None):
    """Swap in a fake ``backend.run_job`` that blocks the worker thread
    until the context exits, then calls *run_job* (default: the real
    one)."""
    release = threading.Event()
    run_job = run_job or service.backend.run_job

    def blocked(job):
        release.wait(60)
        return run_job(job)

    service.backend.run_job = blocked
    try:
        yield
    finally:
        release.set()


def _canned(job):
    return "{}\n", {"points": 0}


# --------------------------------------------------------------------- #
# round-trip byte equality vs direct SweepPool (the core contract)
# --------------------------------------------------------------------- #


def test_round_trip_bytes_identical_to_direct_pool(tmp_path):
    """For every request kind, the bytes fetched from the daemon equal
    the text produced by running the same request through a direct,
    unshared SweepPool."""
    requests = [
        (SimulateHandler, SimulateRequest("astar", window=WINDOW, config=CONFIG)),
        (SweepHandler, SweepRequest(window=WINDOW, workloads=("astar",),
                                    configs=(CONFIG,))),
        (TraceHandler, TraceRequest(target="astar", window=WINDOW,
                                    ring=4096, sample_period=64)),
    ]
    direct = {
        handler.kind: handler.run(request, SweepPool())[0].encode()
        for handler, request in requests
    }
    with running_service(tmp_path / "cache") as (service, client):
        for handler, request in requests:
            served = client.run(handler.kind, request.to_wire(), timeout=120)
            assert served == direct[handler.kind], handler.kind


def test_second_identical_request_is_warm_and_identical(tmp_path):
    request = SweepRequest(window=WINDOW, workloads=("astar",), configs=(CONFIG,))
    with running_service(tmp_path / "cache") as (service, client):
        first = client.run("sweep", request.to_wire(), timeout=120)
        computed = client.stats()["cache"]["pool"]["computed"]
        second = client.run("sweep", request.to_wire(), timeout=120)
        assert first == second
        pool = client.stats()["cache"]["pool"]
        # The warm request was served entirely from the shared store.
        assert pool["computed"] == computed
        assert pool["store_hits"] >= computed


# --------------------------------------------------------------------- #
# admission control, FIFO order, failures
# --------------------------------------------------------------------- #


def test_submit_rejections_name_the_reason(tmp_path):
    request = {"workload": "astar", "window": WINDOW}
    with running_service(tmp_path / "cache", worker_budget=1) as (
        service, client
    ), held_worker(service, _canned):
        for _ in range(MAX_PENDING):
            client.submit("simulate", request)
        with pytest.raises(ServiceError, match="queue full") as excinfo:
            client.submit("simulate", request)
        assert excinfo.value.status == 429
        with pytest.raises(ServiceError, match="worker budget") as excinfo:
            client.submit("simulate", {"workload": "lbm", "jobs": 64})
        assert excinfo.value.status == 429
        with pytest.raises(ServiceError, match="unknown workload"):
            client.submit("simulate", {"workload": "nope"})
        with pytest.raises(ServiceError, match="kind"):
            client.submit("teleport", {})
        with pytest.raises(ServiceError, match="'window'"):
            client.submit("simulate", {"workload": "astar", "window": -3})
        with pytest.raises(ServiceError, match="'bogus'") as excinfo:
            client.submit("simulate", {"workload": "astar",
                                       "overrides": {"bogus": 1}})
        assert excinfo.value.status == 400
        assert client.stats()["counters"]["requests_rejected"] == 6


def test_jobs_run_in_submission_order(tmp_path):
    ran: list[str] = []

    def record(job):
        ran.append(job.id)
        return _canned(job)

    with running_service(tmp_path / "cache") as (service, client):
        with held_worker(service, record):
            ids = [
                client.submit("simulate",
                              {"workload": name, "window": WINDOW})["job_id"]
                for name in ("astar", "lbm", "milc")
            ]
            with pytest.raises(ServiceError) as excinfo:
                client.result(ids[-1])  # still queued
            assert excinfo.value.status == 409
            with pytest.raises(ServiceError) as excinfo:
                client.status("job-999999")
            assert excinfo.value.status == 404
        for job_id in ids:
            assert client.wait(job_id, timeout=60)["state"] == DONE
        assert ran == ids


def test_failed_job_reports_error_through_status(tmp_path):
    def explode(job):
        raise RuntimeError("worker blew up")

    with running_service(tmp_path / "cache") as (service, client):
        service.backend.run_job = explode
        job_id = client.submit(
            "simulate", {"workload": "astar", "window": WINDOW}
        )["job_id"]
        status = client.wait(job_id, timeout=60)
        assert status["state"] == FAILED
        assert status["error"] == "RuntimeError: worker blew up"
        with pytest.raises(ServiceError, match="is failed") as excinfo:
            client.result(job_id)
        assert excinfo.value.status == 409


# --------------------------------------------------------------------- #
# duplicate requests (ordinary jobs served from the shared store)
# --------------------------------------------------------------------- #


def test_duplicate_queued_request_is_an_ordinary_job(tmp_path):
    """A duplicate submit takes its own queue slot and runs as its own
    job; its point is a store hit, and both jobs return the same bytes."""
    request = {"workload": "astar", "window": WINDOW}
    with running_service(tmp_path / "cache") as (service, client):
        with held_worker(service):
            first = client.submit("simulate", request)["job_id"]
            dup = client.submit("simulate", request)["job_id"]
            assert client.stats()["queue"]["pending"] == 2
        assert client.wait(first, timeout=120)["state"] == DONE
        assert client.wait(dup, timeout=120)["state"] == DONE
        assert client.result(first) == client.result(dup)
        stats = client.stats()
        assert stats["counters"]["jobs_done"] == 2
        assert stats["cache"]["pool"] == {
            "computed": 1, "store_hits": 1, "failed": 0,
        }


def test_duplicate_request_is_served_from_store(tmp_path):
    """A resubmit after the first job finished is served from the store:
    same bytes, no new simulation."""
    request = {"workload": "astar", "window": WINDOW}
    with running_service(tmp_path / "cache") as (service, client):
        first = client.submit("simulate", request)["job_id"]
        assert client.wait(first, timeout=120)["state"] == DONE
        again = client.submit("simulate", request)["job_id"]
        assert client.wait(again, timeout=120)["state"] == DONE
        assert client.result(first) == client.result(again)
        assert client.stats()["cache"]["pool"]["computed"] == 1


# --------------------------------------------------------------------- #
# drain and restart (the SIGTERM contract, minus the signal)
# --------------------------------------------------------------------- #


def test_restarted_daemon_serves_resubmit_from_store(tmp_path):
    """Job ids die with their daemon; the result store does not.  The
    next daemon on the same cache serves a resubmit with the same bytes
    and computes nothing."""
    cache = tmp_path / "cache"
    request = {"workload": "astar", "window": WINDOW, "config": CONFIG}
    with running_service(cache) as (service, client):
        first = client.run("simulate", request, timeout=120)
        assert any(jobs_dir(cache).iterdir())
    # Daemon drained: endpoint and job files gone.
    assert not endpoint_path(cache).exists()
    assert not jobs_dir(cache).exists()

    with running_service(cache) as (service, client):
        with pytest.raises(ServiceError) as excinfo:
            client.status(job_id_for(1))  # the old id means nothing here
        assert excinfo.value.status == 404
        assert client.run("simulate", request, timeout=120) == first
        assert client.stats()["cache"]["pool"]["computed"] == 0


def test_drain_finishes_running_job_and_fails_queued_ones(tmp_path):
    cache = tmp_path / "cache"
    with running_service(cache) as (service, client):
        with held_worker(service, _canned):
            running = client.submit(
                "simulate", {"workload": "astar", "window": WINDOW}
            )["job_id"]
            queued = client.submit(
                "simulate", {"workload": "lbm", "window": WINDOW}
            )["job_id"]
            deadline = time.monotonic() + 30
            while client.status(running)["state"] != RUNNING:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            service._server.get_loop().call_soon_threadsafe(
                service.request_shutdown
            )
            while client.health()["state"] != "draining":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            with pytest.raises(ServiceError, match="draining") as excinfo:
                client.submit("simulate", {"workload": "astar"})
            assert excinfo.value.status == 503
            status = client.status(queued)
            assert status["state"] == FAILED
            assert "cancelled" in status["error"]
            assert client.status(running)["state"] == RUNNING
    # Released: the running job finished before the daemon exited.
    assert service.jobs[running].state == DONE
    assert not jobs_dir(cache).exists()


def test_draining_daemon_rejects_new_submits(tmp_path):
    with running_service(tmp_path / "cache") as (service, client):
        service._draining = True  # as after SIGTERM, before socket close
        with pytest.raises(ServiceError, match="draining") as excinfo:
            client.submit("simulate", {"workload": "astar", "window": WINDOW})
        assert excinfo.value.status == 503
        assert client.health()["state"] == "draining"
        service._draining = False  # let the harness drain cleanly


# --------------------------------------------------------------------- #
# the HTTP front door: malformed bodies (raw sockets)
# --------------------------------------------------------------------- #


def _raw_exchange(port: int, data: bytes) -> bytes:
    """Send *data*, then read until the daemon closes the connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(data)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def _submit_head(length: str) -> bytes:
    return f"POST /submit HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode()


def test_oversized_body_is_refused_with_413(tmp_path):
    with running_service(tmp_path / "cache") as (service, client):
        reply = _raw_exchange(service.port, _submit_head(str(MAX_BODY_BYTES + 1)))
    assert reply.startswith(b"HTTP/1.1 413 ")
    assert f"{MAX_BODY_BYTES}-byte limit".encode() in reply


@pytest.mark.parametrize("length", ["abc", "-5", "1.5"])
def test_bad_content_length_is_refused_with_400(tmp_path, length):
    with running_service(tmp_path / "cache") as (service, client):
        reply = _raw_exchange(service.port, _submit_head(length) + b"{}")
    assert reply.startswith(b"HTTP/1.1 400 ")
    assert b"Content-Length" in reply and repr(length).encode() in reply


def test_stalled_body_read_times_out(tmp_path, monkeypatch):
    monkeypatch.setattr(server, "READ_TIMEOUT_S", 0.2)
    with running_service(tmp_path / "cache") as (service, client):
        started = time.monotonic()
        reply = _raw_exchange(service.port, _submit_head("10") + b"{}")
        elapsed = time.monotonic() - started
        assert client.health()["ok"]  # the daemon is unharmed
    assert reply == b""  # dropped, like a stalled header read
    assert elapsed < 10


# --------------------------------------------------------------------- #
# introspection
# --------------------------------------------------------------------- #


def test_stats_shape_and_health(tmp_path):
    with running_service(tmp_path / "cache") as (service, client), held_worker(
        service, _canned
    ):
        assert client.health()["ok"] is True
        client.submit("simulate", {"workload": "astar", "window": WINDOW})
        stats = client.stats()
        assert stats["queue"] == {
            "pending": 1, "max_pending": MAX_PENDING, "draining": False,
        }
        assert stats["jobs"][QUEUED] + stats["jobs"][RUNNING] == 1
        assert set(stats["request_kinds"]) >= {"simulate", "sweep", "trace"}
        assert stats["counters"]["jobs_admitted"] == 1
        assert {"pool", "trace", "pool_warm_rate", "trace_hit_rate",
                "store", "store_hit_rate",
                "store_entries"} <= set(stats["cache"])
        assert {"hits", "memo_hits", "misses", "publishes",
                "recoveries"} <= set(stats["cache"]["store"])
        assert set(stats["cache"]["pool"]) == {
            "computed", "store_hits", "failed",
        }
        assert stats["uptime_s"] >= 0


# --------------------------------------------------------------------- #
# the real signal path: serve CLI + SIGTERM
# --------------------------------------------------------------------- #


def test_sigterm_drains_serve_process(tmp_path):
    """SIGTERM to the serve CLI: exit 0, endpoint file removed (the clean
    -shutdown signal), and the job files cleared with it."""
    import os
    import signal
    import subprocess
    import sys

    from repro.service.client import wait_for_endpoint

    cache = tmp_path / "cache"
    env = dict(os.environ, PYTHONPATH="src")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments", "serve",
         "--port", "0", "--cache-dir", str(cache)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        wait_for_endpoint(cache, timeout=30)
        client = ServiceClient(cache_dir=cache)
        job_id = client.submit(
            "simulate", {"workload": "astar", "window": WINDOW}
        )["job_id"]
        assert client.wait(job_id, timeout=120)["state"] == DONE
        assert any(jobs_dir(cache).iterdir())
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0, output
    assert "drained and stopped" in output
    assert not endpoint_path(cache).exists()
    assert not jobs_dir(cache).exists()
