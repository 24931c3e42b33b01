"""Tests for the resident simulation service (repro.service).

Covers the wire models, the durable job store, the bounded priority
queue, and — against a real daemon running on a background event loop —
the issue's contract tests: client-fetched results byte-identical to
direct SweepPool output for every request kind, admission-control
rejections with concrete reasons, priority-ordered dispatch, and
drain-preserves-queued-jobs across a daemon restart.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading

import pytest

from repro.experiments.pool import SweepPool
from repro.service.client import ServiceClient, ServiceError
from repro.service.handlers import SimulateHandler, SweepHandler, TraceHandler
from repro.service.jobs import AdmissionError, JobQueue, JobStore, append_jsonl
from repro.service.models import (
    CANCELLED,
    DONE,
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
    ServiceConfig,
    SimulationService,
    endpoint_path,
    jobs_dir,
)

#: Small enough to keep real simulations fast, large enough to be real.
WINDOW = 1_200
CONFIG = "clk4_w1, delay0"


def _job(seq: int, priority: int = 0, state: str = QUEUED) -> JobRecord:
    return JobRecord(
        id=job_id_for(seq),
        kind="simulate",
        priority=priority,
        seq=seq,
        request={"workload": "astar", "window": WINDOW},
        state=state,
    )


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


def test_job_record_round_trip_and_status_payload():
    job = _job(7, priority=3)
    assert JobRecord.from_wire(job.to_wire()) == job
    assert job.status_payload()["terminal"] is False
    job.state = DONE
    assert job.status_payload()["terminal"] is True
    with pytest.raises(RequestError, match="unknown job state"):
        JobRecord.from_wire({**job.to_wire(), "state": "paused"})


# --------------------------------------------------------------------- #
# job store (durable journal)
# --------------------------------------------------------------------- #


def test_job_store_last_snapshot_wins(tmp_path):
    store = JobStore(tmp_path / "jobs")
    job = _job(1)
    store.record(job)
    job.state = RUNNING
    store.record(job)
    job.state = DONE
    store.record(job)
    loaded = store.load()
    assert loaded[job.id].state == DONE
    assert store.resumable() == []
    assert store.next_seq() == 2


def test_job_store_skips_torn_trailing_line(tmp_path):
    store = JobStore(tmp_path / "jobs")
    store.record(_job(1))
    half = json.dumps(_job(2).to_wire())
    with store.journal.open("a") as handle:
        handle.write(half[: len(half) // 2])  # killed mid-append
    loaded = store.load()
    assert set(loaded) == {job_id_for(1)}


def test_job_store_resumes_queued_and_running_in_admission_order(tmp_path):
    store = JobStore(tmp_path / "jobs")
    store.record(_job(3, state=RUNNING))
    store.record(_job(1, state=DONE))
    store.record(_job(2, state=QUEUED))
    assert [job.seq for job in store.resumable()] == [2, 3]


def test_job_store_size_and_clear(tmp_path):
    store = JobStore(tmp_path / "jobs")
    store.record(_job(1))
    store.write_result(job_id_for(1), "{}\n")
    append_jsonl(store.checkpoint_path(job_id_for(1)), {"key": "k"})
    files, total = store.size()
    assert files == 3 and total > 0
    removed, freed = store.clear()
    assert removed == 3 and freed == total
    assert store.size() == (0, 0)


# --------------------------------------------------------------------- #
# bounded priority queue
# --------------------------------------------------------------------- #


def test_queue_priority_then_fifo_order():
    queue = JobQueue(max_depth=8)
    for seq, priority in ((1, 0), (2, 5), (3, 0), (4, 5)):
        queue.admit(_job(seq, priority))
    assert [queue.pop().seq for _ in range(4)] == [2, 4, 1, 3]


def test_queue_admission_bound_and_requeue_bypass():
    queue = JobQueue(max_depth=2)
    queue.admit(_job(1))
    queue.admit(_job(2))
    with pytest.raises(AdmissionError, match="queue full"):
        queue.admit(_job(3))
    queue.requeue(_job(3))  # journal-resumed jobs are never dropped
    assert len(queue) == 3


def test_queue_remove_for_cancel():
    queue = JobQueue(max_depth=4)
    queue.admit(_job(1))
    queue.admit(_job(2))
    assert queue.remove(job_id_for(1)).seq == 1
    assert queue.remove("job-xxxxxx") is None
    assert [job.seq for job in queue.snapshot()] == [2]


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
        box["loop"].call_soon_threadsafe(service.request_shutdown)
        thread.join(60)
        assert not thread.is_alive(), "daemon failed to drain"


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
# admission control, priority, cancel (hold mode: nothing dispatches)
# --------------------------------------------------------------------- #


def test_submit_rejections_name_the_reason(tmp_path):
    with running_service(
        tmp_path / "cache", max_queue=1, worker_budget=1, hold=True
    ) as (service, client):
        client.submit("simulate", {"workload": "astar", "window": WINDOW})
        with pytest.raises(ServiceError, match="queue full") as excinfo:
            client.submit("simulate", {"workload": "milc", "window": WINDOW})
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
        assert client.stats()["counters"]["requests_rejected"] == 5


def test_priority_orders_dispatch_and_cancel_is_queued_only(tmp_path):
    with running_service(tmp_path / "cache", hold=True) as (service, client):
        low = client.submit("simulate",
                            {"workload": "astar", "window": WINDOW})["job_id"]
        high = client.submit("simulate",
                             {"workload": "lbm", "window": WINDOW},
                             priority=9)["job_id"]
        mid = client.submit("simulate",
                            {"workload": "milc", "window": WINDOW},
                            priority=4)["job_id"]
        order = [job.id for job in service.queue.snapshot()]
        assert order == [high, mid, low]

        cancelled = client.cancel(mid)
        assert cancelled["state"] == CANCELLED
        with pytest.raises(ServiceError) as excinfo:
            client.cancel(mid)  # already cancelled: 409, not double-cancel
        assert excinfo.value.status == 409
        with pytest.raises(ServiceError) as excinfo:
            client.result(mid)
        assert excinfo.value.status == 409
        with pytest.raises(ServiceError) as excinfo:
            client.status("job-999999")
        assert excinfo.value.status == 404
        assert [job.id for job in service.queue.snapshot()] == [high, low]


def test_failed_job_reports_error_through_status(tmp_path):
    with running_service(tmp_path / "cache") as (service, client):
        # Valid at admission, fails in the worker: window beyond the
        # workload's trace is fine, but an unknown override key is not.
        job_id = client.submit(
            "simulate",
            {"workload": "astar", "window": WINDOW,
             "overrides": {"no_such_knob": 1}},
        )["job_id"]
        status = client.wait(job_id, timeout=60)
        assert status["state"] == "failed"
        assert status["error"]
        with pytest.raises(ServiceError) as excinfo:
            client.result(job_id)
        assert excinfo.value.status == 409


# --------------------------------------------------------------------- #
# duplicate requests (ordinary jobs served from the shared store)
# --------------------------------------------------------------------- #


def _release(service):
    """Leave hold mode from the test thread (the daemon owns the loop)."""
    loop = service._dispatcher.get_loop()
    asyncio.run_coroutine_threadsafe(service.release(), loop).result(10)


def test_duplicate_queued_request_is_an_ordinary_job(tmp_path):
    """A duplicate submit takes its own queue slot and runs as its own
    job; its point is a store hit, and both jobs return the same bytes."""
    request = {"workload": "astar", "window": WINDOW}
    with running_service(tmp_path / "cache", hold=True) as (service, client):
        first = client.submit("simulate", request)["job_id"]
        dup = client.submit("simulate", request)["job_id"]
        assert client.stats()["queue"]["depth"] == 2

        _release(service)
        assert client.wait(first, timeout=120)["state"] == DONE
        assert client.wait(dup, timeout=120)["state"] == DONE
        assert client.result(first) == client.result(dup)
        stats = client.stats()
        assert stats["counters"]["jobs_started"] == 2
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
# drain and resume (the SIGTERM contract, minus the signal)
# --------------------------------------------------------------------- #


def test_drain_preserves_queued_jobs_for_resume(tmp_path):
    """A draining daemon keeps queued jobs journaled; the next daemon on
    the same store re-enqueues and completes them under the same ids."""
    cache = tmp_path / "cache"
    with running_service(cache, hold=True) as (service, client):
        ids = [
            client.submit("simulate",
                          {"workload": "astar", "window": WINDOW})["job_id"],
            client.submit("simulate",
                          {"workload": "astar", "window": WINDOW,
                           "config": CONFIG})["job_id"],
        ]
    # Daemon drained: endpoint gone, jobs still queued in the journal.
    assert not endpoint_path(cache).exists()
    store = JobStore(jobs_dir(cache))
    assert [job.id for job in store.resumable()] == ids

    with running_service(cache) as (service, client):
        for job_id in ids:
            status = client.wait(job_id, timeout=120)
            assert status["state"] == DONE
            assert client.result(job_id)
        assert client.stats()["counters"]["jobs_resumed"] == 2
    assert JobStore(jobs_dir(cache)).resumable() == []


def test_draining_daemon_rejects_new_submits(tmp_path):
    with running_service(tmp_path / "cache", hold=True) as (service, client):
        service._draining = True  # as after SIGTERM, before socket close
        with pytest.raises(ServiceError, match="draining") as excinfo:
            client.submit("simulate", {"workload": "astar", "window": WINDOW})
        assert excinfo.value.status == 503
        assert client.health()["state"] == "draining"
        service._draining = False  # let the harness drain cleanly


# --------------------------------------------------------------------- #
# introspection
# --------------------------------------------------------------------- #


def test_stats_shape_and_health(tmp_path):
    with running_service(tmp_path / "cache", hold=True) as (service, client):
        assert client.health()["ok"] is True
        client.submit("simulate", {"workload": "astar", "window": WINDOW})
        stats = client.stats()
        assert stats["queue"]["depth"] == 1
        assert stats["queue"]["hold"] is True
        assert stats["jobs"][QUEUED] == 1
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


def test_sigterm_drains_serve_process_and_preserves_queue(tmp_path):
    """SIGTERM to the serve CLI: exit 0, endpoint file removed (the clean
    -shutdown signal), queued jobs still journaled for the next daemon."""
    import os
    import signal
    import subprocess
    import sys

    from repro.service.client import wait_for_endpoint

    cache = tmp_path / "cache"
    env = dict(os.environ, PYTHONPATH="src")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments", "serve", "--hold",
         "--port", "0", "--cache-dir", str(cache)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        wait_for_endpoint(cache, timeout=30)
        client = ServiceClient(cache_dir=cache)
        job_id = client.submit(
            "simulate", {"workload": "astar", "window": WINDOW}
        )["job_id"]
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0, output
    assert "drained and stopped" in output
    assert not endpoint_path(cache).exists()
    assert [job.id for job in JobStore(jobs_dir(cache)).resumable()] == [job_id]
