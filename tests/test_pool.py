"""Unit tests for the parallel sweep engine (repro.experiments.pool)."""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

from repro.core import PFMParams, SimStats
from repro.experiments import pool as pool_module
from repro.experiments.pool import (
    SweepFailure,
    SweepPoint,
    SweepPool,
    baseline_point,
    pfm_point,
    speedups,
    stats_to_dict,
)
from repro.experiments.report import ExperimentResult

WINDOW = 1_500


def _fake_stats(instructions: int = 100, cycles: int = 200) -> SimStats:
    return SimStats(instructions=instructions, cycles=cycles)


@pytest.fixture
def counted_run_point(monkeypatch):
    """Replace run_point with a cheap counted fake (serial path only)."""
    calls: list[str] = []

    def fake(point: SweepPoint) -> SimStats:
        calls.append(point.label)
        return _fake_stats(cycles=100 + len(point.label))

    monkeypatch.setattr(pool_module, "run_point", fake)
    return calls


# ---------------------------------------------------------------------- #
# point identity
# ---------------------------------------------------------------------- #


def test_config_key_ignores_label():
    a = pfm_point("a", "libquantum", WINDOW, PFMParams(delay=0))
    b = pfm_point("b", "libquantum", WINDOW, PFMParams(delay=0))
    assert a.config_key() == b.config_key()


def test_config_key_sensitive_to_every_config_field():
    base = pfm_point("x", "libquantum", WINDOW, PFMParams(delay=0))
    variants = [
        pfm_point("x", "bwaves", WINDOW, PFMParams(delay=0)),
        pfm_point("x", "libquantum", WINDOW + 1, PFMParams(delay=0)),
        pfm_point("x", "libquantum", WINDOW, PFMParams(delay=2)),
        pfm_point("x", "libquantum", WINDOW, PFMParams(delay=0), seed=9),
        baseline_point("libquantum", WINDOW, label="x"),
        SweepPoint(label="x", workload="libquantum", window=WINDOW,
                   perfect_dcache=True),
        SweepPoint(label="x", workload="libquantum", window=WINDOW,
                   oracle="astar-slipstream"),
    ]
    keys = {point.config_key() for point in variants}
    assert base.config_key() not in keys
    assert len(keys) == len(variants)


def test_is_baseline():
    assert baseline_point("astar", WINDOW).is_baseline
    assert baseline_point("astar", WINDOW, seed=3).is_baseline
    assert not pfm_point("p", "astar", WINDOW, PFMParams()).is_baseline
    assert not SweepPoint(label="p", workload="astar", window=WINDOW,
                          perfect_branch_prediction=True).is_baseline


def test_stats_round_trip():
    stats = _fake_stats()
    stats.memory_levels = {"L1": {"accesses": 10.0, "misses": 1.0}}
    assert SimStats(**stats_to_dict(stats)) == stats
    assert SimStats(**json.loads(json.dumps(stats_to_dict(stats)))) == stats


# ---------------------------------------------------------------------- #
# execution semantics
# ---------------------------------------------------------------------- #


def test_duplicate_labels_rejected():
    points = [baseline_point("astar", WINDOW), baseline_point("astar", WINDOW)]
    with pytest.raises(ValueError, match="duplicate"):
        SweepPool().run(points)


def test_jobs_must_be_positive():
    with pytest.raises(ValueError):
        SweepPool(jobs=0)


def test_identical_configs_computed_once(counted_run_point):
    points = [
        pfm_point("first", "libquantum", WINDOW, PFMParams(delay=0)),
        pfm_point("second", "libquantum", WINDOW, PFMParams(delay=0)),
    ]
    results = SweepPool().run(points)
    assert len(counted_run_point) == 1
    assert results["first"] is results["second"]


def test_results_keyed_by_label_in_any_order(counted_run_point):
    points = [
        pfm_point("a", "libquantum", WINDOW, PFMParams(delay=0)),
        pfm_point("b", "libquantum", WINDOW, PFMParams(delay=2)),
    ]
    results = SweepPool().run(points)
    assert set(results) == {"a", "b"}


def test_speedup_rule_uses_nearest_baseline():
    """Each non-baseline point is a speedup over the nearest
    ``baseline:`` point before it, in point order."""
    points = [
        baseline_point("libquantum", WINDOW),
        pfm_point("fast", "libquantum", WINDOW, PFMParams(delay=0)),
        baseline_point("bwaves", WINDOW),
        pfm_point("slow", "bwaves", WINDOW, PFMParams(delay=0)),
        pfm_point("even", "bwaves", WINDOW, PFMParams(delay=2)),
    ]
    stats = {
        "baseline:libquantum": _fake_stats(instructions=100, cycles=200),
        "fast": _fake_stats(instructions=100, cycles=100),
        "baseline:bwaves": _fake_stats(instructions=100, cycles=100),
        "slow": _fake_stats(instructions=100, cycles=200),
        "even": _fake_stats(instructions=100, cycles=100),
    }
    assert list(speedups(points, stats)) == [
        ("fast", "baseline:libquantum", pytest.approx(100.0)),
        ("slow", "baseline:bwaves", pytest.approx(-50.0)),
        ("even", "baseline:bwaves", pytest.approx(0.0)),
    ]
    result = ExperimentResult(experiment="T", title="t")
    pool_module.add_speedup_rows(result, SweepPool(), points, stats,
                                 "baseline:libquantum")
    assert [label for label, _ in result.rows] == ["fast", "slow", "even"]


# ---------------------------------------------------------------------- #
# result store
# ---------------------------------------------------------------------- #


def test_results_persist_to_disk_store(tmp_path, counted_run_point):
    point = baseline_point("libquantum", WINDOW)
    pool = SweepPool(cache_dir=tmp_path)
    first = pool.run([point])[point.label]
    assert len(list((tmp_path / "store").glob("??/*.json"))) == 1

    # a brand-new pool (fresh memory cache) must hit the disk store
    fresh = SweepPool(cache_dir=tmp_path)  # fresh store, empty memo
    second = fresh.run([point])[point.label]
    assert len(counted_run_point) == 1  # only the first run computed
    assert fresh.last_run_info["store_hits"] == 1
    assert dataclasses.asdict(first) == dataclasses.asdict(second)


def test_pfm_points_served_from_store(tmp_path, counted_run_point):
    """Every point kind is store-backed, not just plain baselines, so a
    second invocation replays PFM points too."""
    point = pfm_point("p", "libquantum", WINDOW, PFMParams(delay=0))
    SweepPool(cache_dir=tmp_path).run([point])
    second = SweepPool(cache_dir=tmp_path)
    second.run([point])
    assert len(counted_run_point) == 1
    assert second.last_run_info == {
        "computed": 0, "store_hits": 1, "failed": 0,
    }


def test_memory_cache_without_disk(counted_run_point):
    """Without a cache dir the store is memory-only: every point kind is
    reused within the pool, addressed by point.key() (no workload build
    for a trace_key), and nothing touches the disk."""
    points = [
        baseline_point("libquantum", WINDOW),
        pfm_point("p", "libquantum", WINDOW, PFMParams(delay=0)),
    ]
    pool = SweepPool()  # no cache_dir
    assert pool.store.directory is None
    pool.run(points)
    pool.run(points)
    assert len(counted_run_point) == 2  # in-memory reuse within the pool
    assert pool.last_run_info == {"computed": 0, "store_hits": 2, "failed": 0}
    assert set(pool.store._memo) == {point.key() for point in points}


# ---------------------------------------------------------------------- #
# resume = re-run against the store
# ---------------------------------------------------------------------- #


def test_checkpoint_written_and_cleared_on_success(tmp_path, counted_run_point):
    checkpoint = tmp_path / "ck.jsonl"
    pool = SweepPool(checkpoint=checkpoint)
    pool.run([pfm_point("p", "libquantum", WINDOW, PFMParams(delay=0))])
    assert not checkpoint.exists()  # finished sweeps leave no checkpoint


def test_resume_skips_finished_points(tmp_path, monkeypatch):
    """A sweep interrupted after its first point resumes from the store:
    the next pool serves the finished point and computes the rest."""
    points = [
        pfm_point(f"p{delay}", "libquantum", WINDOW, PFMParams(delay=delay))
        for delay in (0, 2, 4)
    ]
    calls: list[str] = []

    def interrupt_after_first(point):
        if calls:
            raise KeyboardInterrupt
        calls.append(point.label)
        return _fake_stats()

    monkeypatch.setattr(pool_module, "run_point", interrupt_after_first)
    with pytest.raises(KeyboardInterrupt):
        SweepPool(cache_dir=tmp_path).run(points)
    assert len(calls) == 1

    monkeypatch.setattr(pool_module, "run_point", lambda point: _fake_stats())
    pool = SweepPool(cache_dir=tmp_path)
    results = pool.run(points)
    assert set(results) == {point.label for point in points}
    assert pool.last_run_info == {
        "computed": len(points) - 1, "store_hits": 1, "failed": 0,
    }


def test_resume_short_circuits_through_store(tmp_path, counted_run_point):
    """Re-running a sweep must not re-run points whose results already
    sit in the result store (published by another host or a previous
    partial run): only genuinely new work computes."""
    points = [
        pfm_point("stored", "libquantum", WINDOW, PFMParams(delay=2)),
        pfm_point("new", "libquantum", WINDOW, PFMParams(delay=4)),
    ]
    SweepPool(cache_dir=tmp_path).run([points[0]])

    pool = SweepPool(cache_dir=tmp_path)
    results = pool.run(points)
    assert set(results) == {"stored", "new"}
    assert counted_run_point == ["stored", "new"]  # "stored" from run 1
    assert pool.last_run_info == {
        "computed": 1, "store_hits": 1, "failed": 0,
    }


# ---------------------------------------------------------------------- #
# crash retry / failure containment
# ---------------------------------------------------------------------- #


def _retry_pool(monkeypatch, retries: int = pool_module.RETRIES, **kwargs) -> SweepPool:
    """A pool retrying failed points *retries* times without backoff."""
    monkeypatch.setattr(pool_module, "RETRIES", retries)
    monkeypatch.setattr(pool_module, "RETRY_BACKOFF", 0.0)
    return SweepPool(**kwargs)


def test_transient_failure_retried_to_success(monkeypatch):
    attempts: list[str] = []

    def flaky(point):
        attempts.append(point.label)
        if len(attempts) < 2:
            raise OSError("worker lost")
        return _fake_stats()

    monkeypatch.setattr(pool_module, "run_point", flaky)
    point = pfm_point("p", "libquantum", WINDOW, PFMParams(delay=0))
    results = _retry_pool(monkeypatch).run([point])
    assert attempts == ["p", "p"]
    assert "p" in results


def test_persistent_failure_raises_and_keeps_checkpoint(
    tmp_path, monkeypatch
):
    def half_broken(point):
        if point.label == "bad":
            raise RuntimeError("always dies")
        return _fake_stats()

    monkeypatch.setattr(pool_module, "run_point", half_broken)
    points = [
        pfm_point("ok", "libquantum", WINDOW, PFMParams(delay=0)),
        pfm_point("bad", "libquantum", WINDOW, PFMParams(delay=2)),
    ]
    checkpoint = tmp_path / "ck.jsonl"
    pool = _retry_pool(monkeypatch, cache_dir=tmp_path, checkpoint=checkpoint)
    with pytest.raises(SweepFailure) as exc_info:
        pool.run(points)
    assert exc_info.value.errors == {"bad": "RuntimeError: always dies"}
    assert pool.last_run_info["failed"] == 1

    # The checkpoint survives as the failed-points log; the success is
    # in the store.
    assert checkpoint.exists()
    records = [
        json.loads(line) for line in checkpoint.read_text().splitlines()
    ]
    assert len(records) == 1
    assert records[0]["key"] == points[1].key()
    assert records[0]["failed"] is True
    assert "always dies" in records[0]["error"]
    assert pool.store.get(points[0].store_key()) is not None


def test_resume_retries_previously_failed_point(tmp_path, monkeypatch):
    points = [
        pfm_point("ok", "libquantum", WINDOW, PFMParams(delay=0)),
        pfm_point("bad", "libquantum", WINDOW, PFMParams(delay=2)),
    ]
    checkpoint = tmp_path / "ck.jsonl"

    def half_broken(point):
        if point.label == "bad":
            raise RuntimeError("boom")
        return _fake_stats()

    monkeypatch.setattr(pool_module, "run_point", half_broken)
    with pytest.raises(SweepFailure):
        _retry_pool(monkeypatch, retries=0, cache_dir=tmp_path,
                    checkpoint=checkpoint).run(points)
    assert checkpoint.exists()

    calls: list[str] = []

    def healed(point):
        calls.append(point.label)
        return _fake_stats()

    monkeypatch.setattr(pool_module, "run_point", healed)
    results = _retry_pool(
        monkeypatch, cache_dir=tmp_path, checkpoint=checkpoint
    ).run(points)
    assert calls == ["bad"]  # only the failed point recomputed
    assert set(results) == {"ok", "bad"}
    assert not checkpoint.exists()  # fully successful sweep cleans up


def test_fail_fast_raises_original_error_unretried(monkeypatch):
    attempts: list[str] = []

    def dies(point):
        attempts.append(point.label)
        raise ValueError("bad config")

    monkeypatch.setattr(pool_module, "run_point", dies)
    point = pfm_point("p", "libquantum", WINDOW, PFMParams(delay=0))
    with pytest.raises(ValueError, match="bad config"):
        _retry_pool(monkeypatch, fail_fast=True).run([point])
    assert attempts == ["p"]


def test_retries_zero_fails_after_single_attempt(monkeypatch):
    attempts: list[str] = []

    def dies(point):
        attempts.append(point.label)
        raise RuntimeError("nope")

    monkeypatch.setattr(pool_module, "run_point", dies)
    point = pfm_point("p", "libquantum", WINDOW, PFMParams(delay=0))
    with pytest.raises(SweepFailure):
        _retry_pool(monkeypatch, retries=0).run([point])
    assert attempts == ["p"]


_CRASH_FLAG = ""  # set per-test; forked workers inherit the value


def _crash_once_run_point(point):
    """Module-level so executor.submit can pickle it by reference."""
    if point.label == "crashy" and not os.path.exists(_CRASH_FLAG):
        with open(_CRASH_FLAG, "w") as handle:
            handle.write("x")
        os._exit(1)  # hard kill, as an OOM or segfault would
    return _fake_stats()


def test_worker_crash_retried_in_fresh_executor(tmp_path, monkeypatch):
    """A worker process dying outright (BrokenProcessPool) is retried in
    the next round's fresh executor and the sweep still completes."""
    monkeypatch.setattr(
        sys.modules[__name__], "_CRASH_FLAG", str(tmp_path / "crashed-once")
    )
    monkeypatch.setattr(pool_module, "run_point", _crash_once_run_point)
    points = [
        pfm_point("crashy", "libquantum", WINDOW, PFMParams(delay=0)),
        pfm_point("ok", "libquantum", WINDOW, PFMParams(delay=2)),
    ]
    results = _retry_pool(monkeypatch, jobs=2).run(points)
    assert set(results) == {"crashy", "ok"}
    assert os.path.exists(str(tmp_path / "crashed-once"))


# ---------------------------------------------------------------------- #
# durability
# ---------------------------------------------------------------------- #


def test_checkpoint_appends_are_fsynced(tmp_path, monkeypatch):
    """Every result reaches the disk before the next point starts: one
    fsync per published store entry plus one per failure record."""
    synced: list[int] = []
    real_fsync = os.fsync
    monkeypatch.setattr(
        pool_module.os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd)
    )

    def half_broken(point):
        if point.label == "bad":
            raise RuntimeError("always dies")
        return _fake_stats()

    monkeypatch.setattr(pool_module, "run_point", half_broken)
    points = [
        pfm_point("a", "libquantum", WINDOW, PFMParams(delay=0)),
        pfm_point("b", "libquantum", WINDOW, PFMParams(delay=2)),
        pfm_point("bad", "libquantum", WINDOW, PFMParams(delay=4)),
    ]
    with pytest.raises(SweepFailure):
        _retry_pool(monkeypatch, retries=0, cache_dir=tmp_path,
                    checkpoint=tmp_path / "ck.jsonl").run(points)
    assert len(synced) == 2 + 1
